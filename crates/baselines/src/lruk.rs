//! LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993), bundle-adapted.
//!
//! The victim is the file whose K-th most recent reference is oldest
//! (files with fewer than K references rank before all fully-histories
//! files, ordered by their oldest recorded reference). K = 2 is the classic
//! choice: it discriminates between files with genuine re-reference
//! behaviour and one-shot scans better than plain LRU.
//!
//! Victim selection is indexed by a [`LazyHeap`] keyed on the backward
//! K-distance, reprioritised when a serviced bundle extends a resident
//! file's reference history.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

use crate::util::{Indexed, KeyedPolicy, LazyHeap};

/// LRU-K's key and bookkeeping: the last up-to-K reference ticks per file.
#[derive(Debug, Clone)]
pub struct LruKKeys {
    k: usize,
    clock: u64,
    /// The last up-to-K reference ticks per file, newest at the back.
    /// Retained across evictions (the algorithm's "reference history").
    refs: FxHashMap<FileId, VecDeque<u64>>,
}

/// LRU-2.
impl Default for LruKKeys {
    fn default() -> Self {
        Self {
            k: 2,
            clock: 0,
            refs: FxHashMap::default(),
        }
    }
}

impl KeyedPolicy for LruKKeys {
    type Key = u64;
    type Index = LazyHeap<u64>;

    fn name(&self) -> &str {
        match self.k {
            1 => "LRU-1",
            2 => "LRU-2",
            _ => "LRU-K",
        }
    }

    /// The backward K-distance key: the tick of the K-th most recent
    /// reference, or 0 when fewer than K references exist (making such
    /// files evict first, as the algorithm prescribes).
    fn victim_key(&self, file: FileId, _size: Bytes) -> u64 {
        match self.refs.get(&file) {
            Some(h) if h.len() >= self.k => h[h.len() - self.k],
            _ => 0,
        }
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
                let h = self.refs.entry(f).or_default();
                h.push_back(self.clock);
                while h.len() > self.k {
                    h.pop_front();
                }
                touched.push(f);
            }
        }
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.refs.clear();
    }
}

/// The LRU-K policy.
pub type LruK = Indexed<LruKKeys>;

impl LruK {
    /// LRU-K with the given K (≥ 1). `K = 1` degenerates to LRU.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        Indexed::with_policy(LruKKeys {
            k,
            ..LruKKeys::default()
        })
    }

    /// The classic LRU-2.
    pub fn lru2() -> Self {
        Self::new(2)
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
    fn k1_behaves_like_lru() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut p = LruK::new(1);
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.handle(&b(&[1]), &mut cache, &catalog);
        p.handle(&b(&[0]), &mut cache, &catalog); // refresh f0
        let out = p.handle(&b(&[2]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
    }

    #[test]
    fn single_reference_files_evict_before_rereferenced_ones() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut p = LruK::lru2();
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.handle(&b(&[0]), &mut cache, &catalog); // f0 has 2 refs
        p.handle(&b(&[1]), &mut cache, &catalog); // f1 has 1 ref
                                                  // f1 was referenced more recently than f0, but its K-distance is
                                                  // infinite-past (one ref), so it is the LRU-2 victim.
        let out = p.handle(&b(&[2]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
        assert!(cache.contains(FileId(0)));
    }

    #[test]
    fn reference_history_survives_eviction() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(1);
        let mut p = LruK::lru2();
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.handle(&b(&[1]), &mut cache, &catalog); // evicts f0
        assert_eq!(p.policy().refs.get(&FileId(0)).map(|h| h.len()), Some(2));
        // Re-admitted f0 immediately has a full history again.
        p.handle(&b(&[0]), &mut cache, &catalog);
        assert!(p.policy().victim_key(FileId(0), 1) > 0);
    }

    #[test]
    fn histories_are_truncated_to_k() {
        let catalog = FileCatalog::from_sizes(vec![1]);
        let mut cache = CacheState::new(1);
        let mut p = LruK::new(3);
        for _ in 0..10 {
            p.handle(&b(&[0]), &mut cache, &catalog);
        }
        assert_eq!(p.policy().refs.get(&FileId(0)).map(|h| h.len()), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = LruK::new(0);
    }
}
