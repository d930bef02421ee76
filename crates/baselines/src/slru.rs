//! Segmented LRU (Karedla, Love & Wherry, 1994), bundle-adapted.
//!
//! Residents are split into a *probationary* and a *protected* segment. A
//! file enters probation on first fetch; a hit while on probation promotes
//! it to the protected segment (whose byte size is capped at the
//! conventional 80 % of the cache); overflowing the protected segment demotes its LRU tail back
//! to probation. Victims always come from probation's LRU end, so one-shot
//! files can never displace twice-referenced ones — scan resistance with
//! plain-LRU bookkeeping.
//!
//! Victim selection and demotion are indexed by two [`LazyHeap`]s (one per
//! segment) keyed on last-touch tick, and the protected segment's byte
//! total is tracked incrementally instead of being recomputed by a full
//! cache scan per demotion round.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{service_with_evictor, CachePolicy, OutcomeObsSlots, RequestOutcome};
use fbc_core::types::{Bytes, FileId};
use fbc_obs::Obs;
use rustc_hash::FxHashMap;
#[cfg(any(test, feature = "reference-kernels"))]
use std::collections::HashMap;

use crate::util::LazyHeap;

/// Share of the cache the protected segment may hold.
const PROTECTED_FRACTION: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

/// The SLRU policy.
#[derive(Debug, Clone)]
pub struct Slru {
    clock: u64,
    /// Per-resident-file: segment, last-touch tick, and size (cached for
    /// the incremental protected-bytes accounting).
    state: FxHashMap<FileId, (Segment, u64, Bytes)>,
    /// Probationary residents keyed by last-touch tick.
    probation: LazyHeap<u64>,
    /// Protected residents keyed by last-touch tick.
    protected: LazyHeap<u64>,
    /// Running byte total of the protected segment.
    protected_bytes: Bytes,
    /// Observability sink (disabled unless a driver attaches one).
    obs: Obs,
    /// Memoized counter slots for the per-request obs flush.
    obs_slots: OutcomeObsSlots,
}

impl Slru {
    /// Creates an empty SLRU policy.
    pub fn new() -> Self {
        Self {
            clock: 0,
            state: FxHashMap::default(),
            probation: LazyHeap::new(),
            protected: LazyHeap::new(),
            protected_bytes: 0,
            obs: Obs::disabled(),
            obs_slots: OutcomeObsSlots::default(),
        }
    }

    /// Whether `file` currently sits in the protected segment (diagnostics).
    pub fn is_protected(&self, file: FileId) -> bool {
        matches!(self.state.get(&file), Some((Segment::Protected, _, _)))
    }

    /// Demotes protected LRU tails until the protected segment fits its cap.
    fn rebalance(&mut self, cache: &CacheState) {
        let cap = (cache.capacity() as f64 * PROTECTED_FRACTION) as Bytes;
        while self.protected_bytes > cap {
            match self.protected.pop_min() {
                Some((f, tick)) => {
                    // Demotion keeps the file's tick: it re-enters probation
                    // at its old recency, exactly as the reference does.
                    let size = match self.state.get(&f) {
                        Some(&(_, _, size)) => size,
                        None => break,
                    };
                    self.state.insert(f, (Segment::Probation, tick, size));
                    self.probation.update(f, tick);
                    self.protected_bytes -= size;
                }
                None => break,
            }
        }
    }
}

impl Default for Slru {
    fn default() -> Self {
        Self::new()
    }
}

impl CachePolicy for Slru {
    fn name(&self) -> &str {
        "SLRU"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        self.clock += 1;
        let probation = &mut self.probation;
        let protected = &mut self.protected;
        // Victim: probation's LRU end; if probation is empty (everything
        // protected), fall back to protected's LRU end. Files the policy has
        // no state for (e.g. after a reset against a warm cache) are not
        // candidates — the heaps mirror `state`, matching the reference.
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            probation
                .choose(cache, bundle)
                .or_else(|| protected.choose(cache, bundle))
        });

        for f in &outcome.evicted_files {
            if let Some((segment, _, size)) = self.state.remove(f) {
                if segment == Segment::Protected {
                    self.protected_bytes -= size;
                }
            }
            self.probation.remove(*f);
            self.protected.remove(*f);
        }
        if outcome.serviced {
            for f in bundle.iter() {
                let size = catalog.size(f);
                let segment = match self.state.get(&f) {
                    // Hit on a resident file: promote to protected.
                    Some(_) if !outcome.fetched_files.contains(&f) => Segment::Protected,
                    // Newly fetched: probation.
                    _ => Segment::Probation,
                };
                let prev = self.state.insert(f, (segment, self.clock, size));
                match segment {
                    Segment::Protected => {
                        if !matches!(prev, Some((Segment::Protected, _, _))) {
                            self.protected_bytes += size;
                            self.probation.remove(f);
                        }
                        self.protected.update(f, self.clock);
                    }
                    Segment::Probation => {
                        self.probation.update(f, self.clock);
                    }
                }
            }
            self.rebalance(cache);
        }
        outcome.record_obs(&self.obs, &mut self.obs_slots);
        outcome
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.state.clear();
        self.probation.clear();
        self.protected.clear();
        self.protected_bytes = 0;
    }
}

/// The pre-index full-scan SLRU, retained verbatim so the differential
/// suite can pin [`Slru`]'s indexed victim selection against it.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone)]
pub struct SlruReference {
    clock: u64,
    state: HashMap<FileId, (Segment, u64)>,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl Default for SlruReference {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl SlruReference {
    /// Creates the reference policy.
    pub fn new() -> Self {
        Self {
            clock: 0,
            state: HashMap::new(),
        }
    }

    /// Whether `file` currently sits in the protected segment (diagnostics).
    pub fn is_protected(&self, file: FileId) -> bool {
        matches!(self.state.get(&file), Some((Segment::Protected, _)))
    }

    fn protected_bytes(&self, cache: &CacheState) -> Bytes {
        cache
            .iter()
            .filter(|(f, _)| matches!(self.state.get(f), Some((Segment::Protected, _))))
            .map(|(_, s)| s)
            .sum()
    }

    fn rebalance(&mut self, cache: &CacheState) {
        let cap = (cache.capacity() as f64 * PROTECTED_FRACTION) as Bytes;
        while self.protected_bytes(cache) > cap {
            let victim = cache
                .iter()
                .filter_map(|(f, _)| match self.state.get(&f) {
                    Some((Segment::Protected, tick)) => Some((f, *tick)),
                    _ => None,
                })
                .min_by_key(|&(f, tick)| (tick, f));
            match victim {
                Some((f, tick)) => {
                    self.state.insert(f, (Segment::Probation, tick));
                }
                None => break,
            }
        }
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl CachePolicy for SlruReference {
    fn name(&self) -> &str {
        "SLRU"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        self.clock += 1;
        let state = &self.state;
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            let evictable = |f: FileId| !bundle.contains(f) && !cache.is_pinned(f);
            let pick = |segment: Segment| {
                cache
                    .iter()
                    .filter_map(|(f, _)| match state.get(&f) {
                        Some((s, tick)) if *s == segment && evictable(f) => Some((f, *tick)),
                        _ => None,
                    })
                    .min_by_key(|&(f, tick)| (tick, f))
                    .map(|(f, _)| f)
            };
            pick(Segment::Probation).or_else(|| pick(Segment::Protected))
        });

        for f in &outcome.evicted_files {
            self.state.remove(f);
        }
        if outcome.serviced {
            for f in bundle.iter() {
                let entry = match self.state.get(&f) {
                    Some(_) if !outcome.fetched_files.contains(&f) => {
                        (Segment::Protected, self.clock)
                    }
                    _ => (Segment::Probation, self.clock),
                };
                self.state.insert(f, entry);
            }
            self.rebalance(cache);
        }
        outcome
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(cache.supports(&b(&[0, 1])));
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

    /// The indexed segments and incremental byte accounting must replay the
    /// reference's choices through promotions, demotions and evictions.
    #[test]
    fn tracks_reference_through_demotions() {
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
        let mut slow = SlruReference::new();
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
            for f in (0..12u32).map(FileId) {
                assert_eq!(
                    fast.is_protected(f),
                    slow.is_protected(f),
                    "segment of {f:?} diverged at request {i}"
                );
            }
        }
        assert!(demotions > 0, "the trace must exercise demotions");
    }
}
