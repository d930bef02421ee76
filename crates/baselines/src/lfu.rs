//! Least-Frequently-Used replacement, bundle-adapted.
//!
//! Tracks per-file reference counts (across the file's whole lifetime, not
//! just the current residency) and evicts the least-referenced file. This is
//! exactly the "most popular files" strategy the paper's §3 example shows to
//! be inferior to bundle-aware selection.
//!
//! Victim selection is indexed by a [`LazyHeap`] keyed on the lifetime
//! count, reprioritised whenever a serviced bundle bumps a resident file's
//! count — `O(log n)` per eviction instead of a full scan's `O(n log n)`.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;

use crate::util::{Indexed, KeyedPolicy, LazyHeap};

/// LFU's key and bookkeeping: the lifetime reference count per file.
#[derive(Debug, Clone, Default)]
pub struct LfuKeys {
    counts: FxHashMap<FileId, u64>,
}

impl KeyedPolicy for LfuKeys {
    type Key = u64;
    type Index = LazyHeap<u64>;

    fn name(&self) -> &str {
        "LFU"
    }

    fn victim_key(&self, file: FileId, _size: Bytes) -> u64 {
        self.counts.get(&file).copied().unwrap_or(0)
    }

    fn update(
        &mut self,
        bundle: &Bundle,
        outcome: &RequestOutcome,
        _cache: &CacheState,
        _catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        if outcome.serviced {
            for f in bundle.iter() {
                *self.counts.entry(f).or_insert(0) += 1;
                touched.push(f);
            }
        }
    }

    fn reset(&mut self) {
        self.counts.clear();
    }
}

/// LFU replacement policy.
pub type Lfu = Indexed<LfuKeys>;

impl Lfu {
    /// Creates an empty LFU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reference count of a file (diagnostics).
    pub fn count(&self, file: FileId) -> u64 {
        self.policy().victim_key(file, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::cache::CacheState;
    use fbc_core::policy::CachePolicy;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn evicts_least_frequent() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut lfu = Lfu::new();
        lfu.handle(&b(&[0]), &mut cache, &catalog);
        lfu.handle(&b(&[0]), &mut cache, &catalog);
        lfu.handle(&b(&[1]), &mut cache, &catalog);
        // f0 count=2, f1 count=1: the newcomer displaces f1.
        let out = lfu.handle(&b(&[2]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
        assert!(cache.contains(FileId(0)));
    }

    #[test]
    fn counts_persist_across_eviction() {
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let mut cache = CacheState::new(1);
        let mut lfu = Lfu::new();
        lfu.handle(&b(&[0]), &mut cache, &catalog);
        lfu.handle(&b(&[1]), &mut cache, &catalog); // evicts f0
        assert_eq!(lfu.count(FileId(0)), 1); // history retained
        lfu.handle(&b(&[0]), &mut cache, &catalog);
        assert_eq!(lfu.count(FileId(0)), 2);
    }

    #[test]
    fn popularity_trap_holds_wrong_combination() {
        // The paper's core observation: LFU keeps individually popular files
        // even when no request can use that combination. Files 0 and 1 are
        // popular separately (never together); requests then need {0,2}.
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut lfu = Lfu::new();
        for _ in 0..5 {
            lfu.handle(&b(&[0]), &mut cache, &catalog);
            lfu.handle(&b(&[1]), &mut cache, &catalog);
        }
        // Cache holds {0,1}, both with count 5. Request {2,3} must evict
        // both popular files to fit...
        let out = lfu.handle(&b(&[2, 3]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files.len(), 2);
        // ...and the next {0} request misses again: LFU never "learns"
        // combinations, it only counts.
        let out = lfu.handle(&b(&[0]), &mut cache, &catalog);
        assert!(!out.hit);
    }

    #[test]
    fn resyncs_after_reset_against_warm_cache() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut lfu = Lfu::new();
        lfu.handle(&b(&[0]), &mut cache, &catalog);
        lfu.handle(&b(&[1]), &mut cache, &catalog);
        lfu.reset(); // cache stays warm, index and counts are gone
        let out = lfu.handle(&b(&[2]), &mut cache, &catalog);
        // All counts are 0 after the reset: the id tie-break picks f0.
        assert_eq!(out.evicted_files, vec![FileId(0)]);
    }
}
