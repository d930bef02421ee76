//! Offline MIN (Belady) replacement, bundle-adapted.
//!
//! Given the full future trace, the victim is the file whose *next use* is
//! farthest in the future (never-used-again files first). Belady's MIN is
//! optimal for unit-size single-object caches; with variable file sizes and
//! bundle semantics it is merely a strong clairvoyant heuristic, giving a
//! useful lower-bound-ish reference curve for the simulators.
//!
//! Victim selection is indexed by a [`LazyHeap`] keyed on `Reverse(next
//! use)`. A resident file's next use only changes when the file is
//! requested — and a requested file is never an eviction candidate for its
//! own request — so re-keying the bundle's files after each service keeps
//! every heap key exact.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;

use crate::util::{Indexed, KeyedPolicy, LazyHeap};

/// Belady MIN's key and bookkeeping: every file's use positions in the
/// prepared trace, and a cursor into them.
#[derive(Debug, Clone, Default)]
pub struct BeladyKeys {
    /// For each file, the sorted positions (0-based request index) at which
    /// it is used in the prepared trace.
    uses: FxHashMap<FileId, Vec<u64>>,
    /// Per-file cursor into `uses` (monotonic, advanced lazily).
    cursor: FxHashMap<FileId, usize>,
    /// Index of the request currently being handled.
    now: u64,
    prepared: bool,
}

impl KeyedPolicy for BeladyKeys {
    type Key = Reverse<u64>;
    type Index = LazyHeap<Reverse<u64>>;

    fn name(&self) -> &str {
        "Belady-MIN"
    }

    /// `Reverse` of the position of the next use of `file` strictly after
    /// the current request (`u64::MAX` if never used again), so the
    /// farthest next use is the minimum key.
    fn victim_key(&self, file: FileId, _size: Bytes) -> Reverse<u64> {
        Reverse(match self.uses.get(&file) {
            None => u64::MAX,
            Some(positions) => {
                let start = self.cursor.get(&file).copied().unwrap_or(0);
                positions[start..]
                    .iter()
                    .copied()
                    .find(|&p| p > self.now)
                    .unwrap_or(u64::MAX)
            }
        })
    }

    /// Advances the bundle's cursors past the current request. The
    /// bundle's files are the only ones whose next use moved; they are
    /// re-keyed before [`finish`](KeyedPolicy::finish) advances `now`, so
    /// "strictly after the current request" still means after this one.
    fn update(
        &mut self,
        bundle: &Bundle,
        _outcome: &RequestOutcome,
        _cache: &CacheState,
        _catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        debug_assert!(
            self.prepared,
            "BeladyMin::prepare must be called with the trace before handling requests"
        );
        for f in bundle.iter() {
            if let Some(positions) = self.uses.get(&f) {
                let cur = self.cursor.entry(f).or_insert(0);
                while *cur < positions.len() && positions[*cur] <= self.now {
                    *cur += 1;
                }
            }
            touched.push(f);
        }
    }

    fn finish(&mut self) {
        self.now += 1;
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        self.uses.clear();
        self.cursor.clear();
        self.now = 0;
        for (pos, bundle) in trace.enumerate() {
            for f in bundle.iter() {
                self.uses.entry(f).or_default().push(pos as u64);
            }
        }
        self.prepared = true;
    }

    fn reset(&mut self) {
        self.uses.clear();
        self.cursor.clear();
        self.now = 0;
        self.prepared = false;
    }
}

/// Clairvoyant farthest-next-use replacement. Call
/// [`prepare`](fbc_core::policy::CachePolicy::prepare) with the trace
/// before running.
pub type BeladyMin = Indexed<BeladyKeys>;

impl BeladyMin {
    /// Creates an unprepared policy.
    pub fn new() -> Self {
        Self::default()
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
    fn evicts_file_used_farthest_in_future() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let trace = vec![b(&[0]), b(&[1]), b(&[2]), b(&[0]), b(&[1])];
        let mut p = BeladyMin::new();
        p.prepare(&trace);
        let mut cache = CacheState::new(2);
        p.handle(&trace[0], &mut cache, &catalog);
        p.handle(&trace[1], &mut cache, &catalog);
        // At request 2 ({2}), f0 is next used at pos 3, f1 at pos 4 — evict f1.
        let out = p.handle(&trace[2], &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![fbc_core::types::FileId(1)]);
        // Request 3 ({0}) is then a hit.
        let out = p.handle(&trace[3], &mut cache, &catalog);
        assert!(out.hit);
    }

    #[test]
    fn never_used_again_evicted_first() {
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let trace = vec![b(&[0]), b(&[1]), b(&[2]), b(&[0])];
        let mut p = BeladyMin::new();
        p.prepare(&trace);
        let mut cache = CacheState::new(2);
        p.handle(&trace[0], &mut cache, &catalog);
        p.handle(&trace[1], &mut cache, &catalog);
        // f1 never recurs; f0 recurs at pos 3.
        let out = p.handle(&trace[2], &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![fbc_core::types::FileId(1)]);
    }

    #[test]
    fn beats_lru_on_looping_trace() {
        // The classic LRU-adversarial cyclic trace: loop over 3 files with a
        // cache of 2. LRU misses every time; MIN hits sometimes.
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let trace: Vec<Bundle> = (0..30).map(|i| b(&[i % 3])).collect();
        let run = |policy: &mut dyn CachePolicy| {
            policy.prepare(&trace);
            let mut cache = CacheState::new(2);
            let mut hits = 0;
            for r in &trace {
                if policy.handle(r, &mut cache, &catalog).hit {
                    hits += 1;
                }
            }
            hits
        };
        let min_hits = run(&mut BeladyMin::new());
        let lru_hits = run(&mut crate::lru::Lru::new());
        assert!(min_hits > lru_hits, "MIN {min_hits} vs LRU {lru_hits}");
        assert_eq!(lru_hits, 0);
    }

    #[test]
    fn reset_requires_reprepare() {
        let mut p = BeladyMin::new();
        p.prepare(&[b(&[0])]);
        p.reset();
        // Internal flag cleared; preparing again restores operation.
        p.prepare(&[b(&[0])]);
        let catalog = FileCatalog::from_sizes(vec![1]);
        let mut cache = CacheState::new(1);
        let out = p.handle(&b(&[0]), &mut cache, &catalog);
        assert!(out.serviced);
    }
}
