//! Segmented LRU (Karedla, Love & Wherry, 1994), bundle-adapted.
//!
//! Residents are split into a *probationary* and a *protected* segment. A
//! file enters probation on first fetch; a hit while on probation promotes
//! it to the protected segment (whose byte size is capped at the
//! conventional 80 % of the cache); overflowing the protected segment
//! demotes its LRU tail back to probation. Victims always come from
//! probation's LRU end, so one-shot files can never displace
//! twice-referenced ones — scan resistance with plain-LRU bookkeeping.
//!
//! SLRU is a [`KeyedPolicy`]: the victim is the evictable resident of
//! minimum `(segment, tick)`, where probation sorts before protected, so
//! protected's LRU file goes only when probation has no candidate.
//! Promotions and demotions re-key their files through `update`'s
//! `touched`; the protected segment's own recency order, which demotion
//! pops, is an [`OrderedList`] with a running byte total.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;

use crate::util::{Indexed, KeyedPolicy, LazyHeap, OrderedList};

/// Share of the cache the protected segment may hold.
const PROTECTED_FRACTION: f64 = 0.8;

/// SLRU's victim key, `(segment, last-touch tick)` in one word: the
/// protected flag is the top bit, so every probation file orders before
/// every protected one. Ticks count requests and never reach that bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentTick(u64);

impl SegmentTick {
    const PROTECTED: u64 = 1 << 63;

    fn probation(tick: u64) -> Self {
        Self(tick)
    }

    fn protected(tick: u64) -> Self {
        Self(tick | Self::PROTECTED)
    }

    fn is_protected(self) -> bool {
        self.0 & Self::PROTECTED != 0
    }

    /// The same tick on probation.
    fn demoted(self) -> Self {
        Self(self.0 & !Self::PROTECTED)
    }
}

/// SLRU's key and bookkeeping: each resident's segment and last-touch
/// tick.
#[derive(Debug, Clone, Default)]
pub struct SlruKeys {
    /// Logical clock, incremented per request.
    clock: u64,
    /// Segment and last-touch tick per resident file.
    state: FxHashMap<FileId, SegmentTick>,
    /// The protected segment, least recently used first, valued by size.
    protected: OrderedList<Bytes>,
    /// Byte total of `protected`.
    protected_bytes: Bytes,
}

impl SlruKeys {
    /// Takes `f` out of the protected segment's order and byte total.
    fn unprotect(&mut self, f: FileId) {
        if let Some(size) = self.protected.remove(f) {
            self.protected_bytes -= size;
        }
    }
}

impl KeyedPolicy for SlruKeys {
    type Key = SegmentTick;
    type Index = LazyHeap<SegmentTick>;

    fn name(&self) -> &str {
        "SLRU"
    }

    /// A resident the policy has no state for (it was reset while the
    /// cache stayed warm) is probation's oldest.
    fn victim_key(&self, file: FileId, _size: Bytes) -> SegmentTick {
        self.state
            .get(&file)
            .copied()
            .unwrap_or(SegmentTick::probation(0))
    }

    fn update(
        &mut self,
        bundle: &Bundle,
        outcome: &RequestOutcome,
        cache: &CacheState,
        catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        self.clock += 1;
        for &f in &outcome.evicted_files {
            if self.state.remove(&f).is_some_and(SegmentTick::is_protected) {
                self.unprotect(f);
            }
        }
        if !outcome.serviced {
            return;
        }
        for f in bundle.iter() {
            // A hit on a resident file promotes it; a fetched one enters
            // probation.
            let key = match self.state.get(&f) {
                Some(_) if !outcome.fetched_files.contains(&f) => {
                    SegmentTick::protected(self.clock)
                }
                _ => SegmentTick::probation(self.clock),
            };
            if self
                .state
                .insert(f, key)
                .is_some_and(SegmentTick::is_protected)
            {
                self.unprotect(f);
            }
            if key.is_protected() {
                let size = catalog.size(f);
                self.protected.push_back(f, size);
                self.protected_bytes += size;
            }
            touched.push(f);
        }
        // Demote protected's LRU files, at their old tick, until the
        // segment fits its cap.
        let cap = (cache.capacity() as f64 * PROTECTED_FRACTION) as Bytes;
        while self.protected_bytes > cap {
            let Some((f, size)) = self.protected.pop_front() else {
                break;
            };
            self.protected_bytes -= size;
            if let Some(key) = self.state.get_mut(&f) {
                *key = key.demoted();
            }
            touched.push(f);
        }
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// The SLRU policy.
pub type Slru = Indexed<SlruKeys>;

impl Slru {
    /// Creates an empty SLRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `file` currently sits in the protected segment (diagnostics).
    pub fn is_protected(&self, file: FileId) -> bool {
        self.policy()
            .state
            .get(&file)
            .is_some_and(|key| key.is_protected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::ScanOracle;
    use fbc_core::policy::CachePolicy;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn first_touch_is_probationary_second_promotes() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(4);
        let mut p = Slru::new();
        p.handle(&b(&[0]), &mut cache, &catalog);
        assert!(!p.is_protected(FileId(0)));
        p.handle(&b(&[0]), &mut cache, &catalog);
        assert!(p.is_protected(FileId(0)));
    }

    #[test]
    fn scans_evict_probation_not_protected() {
        let catalog = FileCatalog::from_sizes(vec![1; 30]);
        let mut cache = CacheState::new(3);
        let mut p = Slru::new();
        // Promote {0,1}.
        p.handle(&b(&[0, 1]), &mut cache, &catalog);
        p.handle(&b(&[0, 1]), &mut cache, &catalog);
        // One-shot scan of 20 distinct files: each enters probation and is
        // evicted by the next, never touching the protected pair.
        for i in 10..30u32 {
            p.handle(&b(&[i]), &mut cache, &catalog);
        }
        assert!(cache.contains_all(&b(&[0, 1])));
    }

    #[test]
    fn protected_segment_is_capped() {
        let catalog = FileCatalog::from_sizes(vec![1; 10]);
        // Everything fits; the protected cap is 80 % = 8 bytes.
        let mut cache = CacheState::new(10);
        let mut p = Slru::new();
        for i in 0..10u32 {
            p.handle(&b(&[i]), &mut cache, &catalog);
            p.handle(&b(&[i]), &mut cache, &catalog); // promote each
        }
        let protected = (0..10u32).filter(|&i| p.is_protected(FileId(i))).count();
        assert_eq!(protected, 8, "the two oldest promotions are demoted");
        assert!(!p.is_protected(FileId(0)) && !p.is_protected(FileId(1)));
    }

    #[test]
    fn falls_back_to_protected_when_probation_empty() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut p = Slru::new();
        p.handle(&b(&[0, 1]), &mut cache, &catalog);
        p.handle(&b(&[0, 1]), &mut cache, &catalog); // both protected
                                                     // New file must displace a protected one (probation empty).
        let out = p.handle(&b(&[2]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files.len(), 1);
    }

    /// Demotions re-key their files through `touched`: the index must keep
    /// picking what a full scan over `(segment, tick)` picks through
    /// promotions, demotions and evictions.
    #[test]
    fn index_tracks_the_scan_through_demotions() {
        let catalog = FileCatalog::from_sizes((0..12).map(|i| (i % 3) + 1).collect());
        let mut state = 0x51A0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let trace: Vec<Bundle> = (0..250)
            .map(|_| {
                let k = (next() % 3 + 1) as usize;
                Bundle::from_raw((0..k).map(|_| (next() % 12) as u32))
            })
            .collect();
        let mut fast = Slru::new();
        let mut slow = ScanOracle::new(Slru::new());
        let mut cache_fast = CacheState::new(6);
        let mut cache_slow = CacheState::new(6);
        let mut demotions = 0;
        for (i, r) in trace.iter().enumerate() {
            let was_protected: Vec<FileId> = (0..12u32)
                .map(FileId)
                .filter(|&f| fast.is_protected(f))
                .collect();
            let a = fast.handle(r, &mut cache_fast, &catalog);
            let b = slow.handle(r, &mut cache_slow, &catalog);
            assert_eq!(a, b, "diverged at request {i}");
            demotions += was_protected
                .iter()
                .filter(|&&f| cache_fast.contains(f) && !fast.is_protected(f))
                .count();
        }
        assert!(demotions > 0, "the trace must exercise demotions");
    }

    /// A resident the policy lost track of is probation's oldest: after a
    /// reset against a warm cache the lowest id goes first.
    #[test]
    fn untracked_residents_are_evicted_first_in_id_order() {
        let catalog = FileCatalog::from_sizes(vec![1; 5]);
        let mut cache = CacheState::new(3);
        let mut p = Slru::new();
        for i in [2u32, 0, 1] {
            p.handle(&b(&[i]), &mut cache, &catalog);
        }
        p.handle(&b(&[2]), &mut cache, &catalog); // promote f2
        p.reset();
        let out = p.handle(&b(&[3]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files, vec![FileId(0)]);
        let out = p.handle(&b(&[4]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
    }
}
