//! Least-Recently-Used replacement, bundle-adapted.
//!
//! Every file of a serviced bundle is "touched"; the victim is the resident
//! file with the oldest touch. LRU is the canonical popularity baseline the
//! paper contrasts with (§1.2): it tracks *file* recency and is blind to
//! which files are needed *together*.
//!
//! Victim selection is indexed by an [`OrderedList`]: serviced bundle files
//! move to the back in ascending-id order, so the front-to-back order is
//! exactly the `(last-touch tick, FileId)` ranking and each eviction is
//! O(skipped + 1) instead of a full scan's O(n log n).

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;

use crate::util::{Indexed, KeyedPolicy, OrderedList};

/// LRU's key and bookkeeping: the last-touch tick per file.
#[derive(Debug, Clone, Default)]
pub struct LruKeys {
    /// Logical clock, incremented per request.
    clock: u64,
    /// Last-touch tick per file.
    last_used: FxHashMap<FileId, u64>,
}

impl KeyedPolicy for LruKeys {
    type Key = u64;
    /// Residents in eviction order (front = least recently used).
    type Index = OrderedList<u64>;

    fn name(&self) -> &str {
        "LRU"
    }

    fn victim_key(&self, file: FileId, _size: Bytes) -> u64 {
        self.last_used.get(&file).copied().unwrap_or(0)
    }

    fn update(
        &mut self,
        bundle: &Bundle,
        outcome: &RequestOutcome,
        _cache: &CacheState,
        _catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        self.clock += 1;
        if outcome.serviced {
            for f in bundle.iter() {
                self.last_used.insert(f, self.clock);
                touched.push(f);
            }
        }
        for f in &outcome.evicted_files {
            self.last_used.remove(f);
        }
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.last_used.clear();
    }
}

/// LRU replacement policy.
pub type Lru = Indexed<LruKeys>;

impl Lru {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Last-touch tick of a file (diagnostics).
    pub fn last_used(&self, file: FileId) -> Option<u64> {
        self.policy().last_used.get(&file).copied()
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
    fn evicts_least_recently_used() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut lru = Lru::new();
        lru.handle(&b(&[0]), &mut cache, &catalog);
        lru.handle(&b(&[1]), &mut cache, &catalog);
        lru.handle(&b(&[0]), &mut cache, &catalog); // refresh f0
        let out = lru.handle(&b(&[2]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
        assert!(cache.contains(FileId(0)));
    }

    #[test]
    fn hit_still_refreshes_recency() {
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let mut cache = CacheState::new(2);
        let mut lru = Lru::new();
        lru.handle(&b(&[0, 1]), &mut cache, &catalog);
        let hit = lru.handle(&b(&[0]), &mut cache, &catalog);
        assert!(hit.hit);
        assert!(lru.last_used(FileId(0)).unwrap() > lru.last_used(FileId(1)).unwrap());
    }

    #[test]
    fn all_bundle_files_touched_with_same_tick() {
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let mut cache = CacheState::new(3);
        let mut lru = Lru::new();
        lru.handle(&b(&[0, 1, 2]), &mut cache, &catalog);
        assert_eq!(lru.last_used(FileId(0)), lru.last_used(FileId(2)));
    }

    #[test]
    fn reset_clears_state() {
        let catalog = FileCatalog::from_sizes(vec![1]);
        let mut cache = CacheState::new(1);
        let mut lru = Lru::new();
        lru.handle(&b(&[0]), &mut cache, &catalog);
        lru.reset();
        assert_eq!(lru.last_used(FileId(0)), None);
    }

    #[test]
    fn resyncs_after_reset_against_warm_cache() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut lru = Lru::new();
        lru.handle(&b(&[1]), &mut cache, &catalog);
        lru.handle(&b(&[0]), &mut cache, &catalog);
        lru.reset(); // cache stays warm {0, 1}
        let out = lru.handle(&b(&[2]), &mut cache, &catalog);
        // All ticks are 0 after the reset: the id tie-break picks f0.
        assert_eq!(out.evicted_files, vec![FileId(0)]);
    }
}
