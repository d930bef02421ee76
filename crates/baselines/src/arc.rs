//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003), adapted
//! to file-bundle requests and variable file sizes.
//!
//! ARC partitions residents into a recency list `T1` (seen once recently)
//! and a frequency list `T2` (seen at least twice), plus ghost lists
//! `B1`/`B2` of recently evicted file ids. Hits in the ghost lists steer an
//! adaptation target `p` (here in *bytes*): a `B1` ghost hit grows the
//! recency share, a `B2` ghost hit grows the frequency share. Victims come
//! from the LRU end of `T1` while `T1` exceeds `p`, otherwise from `T2`.
//!
//! The bundle adaptation is the same as for the other baselines: all of a
//! request's missing files are fetched, every file of the bundle is
//! "touched", and files of the in-flight bundle are never victims.
//!
//! All four lists are [`OrderedList`]s (slab + position map), so every list
//! transition is `O(1)` instead of the reference's `O(n)`
//! scan-and-`VecDeque::remove`, and `|T1|` in bytes is a maintained counter
//! instead of a per-eviction sum over a nested cache scan.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{service_with_evictor, CachePolicy, OutcomeObsSlots, RequestOutcome};
use fbc_core::types::{Bytes, FileId};
use fbc_obs::Obs;
use std::collections::HashMap;

use crate::util::OrderedList;

/// Which resident list a file is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    T1,
    T2,
}

/// The ARC policy, bundle-adapted.
#[derive(Debug, Clone, Default)]
pub struct Arc {
    /// Resident membership.
    resident: HashMap<FileId, List>,
    /// LRU orders (front = oldest).
    t1: OrderedList<()>,
    t2: OrderedList<()>,
    /// Ghost lists of evicted ids (front = oldest), valued by file size.
    b1: OrderedList<Bytes>,
    b2: OrderedList<Bytes>,
    b1_bytes: Bytes,
    b2_bytes: Bytes,
    /// Maintained byte total of `t1` (the reference recomputed this per
    /// eviction with a nested scan over the cache).
    t1_bytes: Bytes,
    /// Adaptation target for `T1`, in bytes.
    p: Bytes,
    /// Ghost capacity (matches the cache size; set lazily on first use).
    ghost_capacity: Bytes,
    /// Observability sink (disabled unless a driver attaches one).
    obs: Obs,
    /// Memoized counter slots for the per-request obs flush.
    obs_slots: OutcomeObsSlots,
}

impl Arc {
    /// Creates an empty ARC policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current adaptation target `p` in bytes (diagnostics).
    pub fn adaptation_target(&self) -> Bytes {
        self.p
    }

    /// Registers an access to `f` (resident or not), performing ARC's
    /// adaptation and list transitions for the *metadata*.
    fn touch(&mut self, f: FileId, size: Bytes, cache_capacity: Bytes) {
        self.ghost_capacity = cache_capacity;
        match self.resident.get(&f).copied() {
            Some(List::T1) => {
                // Promotion to frequency list.
                self.t1.remove(f);
                self.t1_bytes -= size;
                self.t2.push_back(f, ());
                self.resident.insert(f, List::T2);
            }
            Some(List::T2) => {
                // Refresh recency within T2.
                self.t2.move_to_back(f, ());
            }
            None => {
                // Ghost hits adapt p before (re)admission to T2/T1.
                if let Some(s) = self.b1.remove(f) {
                    // Recency ghost: grow T1's share.
                    self.b1_bytes -= s;
                    let delta = size.max(1);
                    self.p = (self.p + delta).min(cache_capacity);
                    self.t2.push_back(f, ());
                    self.resident.insert(f, List::T2);
                } else if let Some(s) = self.b2.remove(f) {
                    // Frequency ghost: shrink T1's share.
                    self.b2_bytes -= s;
                    let delta = size.max(1);
                    self.p = self.p.saturating_sub(delta);
                    self.t2.push_back(f, ());
                    self.resident.insert(f, List::T2);
                } else {
                    // Brand new: recency list.
                    self.t1.push_back(f, ());
                    self.t1_bytes += size;
                    self.resident.insert(f, List::T1);
                }
            }
        }
    }
}

impl CachePolicy for Arc {
    fn name(&self) -> &str {
        "ARC"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        // Destructure so the evictor closure can borrow the lists and
        // counters disjointly (the reference needed a RefCell dance here).
        let Self {
            resident,
            t1,
            t2,
            b1,
            b2,
            b1_bytes,
            b2_bytes,
            t1_bytes,
            p,
            ghost_capacity,
            obs: _,
            obs_slots: _,
        } = self;
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            // LRU of T1 if |T1| > p, else LRU of T2; fall through to the
            // other list when every entry is pinned or in-flight.
            let from_t1 = *t1_bytes > *p;
            let (primary, secondary) = if from_t1 {
                (&mut *t1, &mut *t2)
            } else {
                (&mut *t2, &mut *t1)
            };
            let victim = primary
                .choose(cache, bundle)
                .or_else(|| secondary.choose(cache, bundle))?;
            // Move the victim's metadata to the matching ghost list. Sizes
            // come from the catalog, which is what the cache admitted.
            let size = catalog.size(victim);
            match resident.remove(&victim) {
                Some(List::T1) => {
                    *t1_bytes -= size;
                    b1.push_back(victim, size);
                    *b1_bytes += size;
                }
                Some(List::T2) => {
                    b2.push_back(victim, size);
                    *b2_bytes += size;
                }
                None => {}
            }
            // Keep each ghost list within the cache size in bytes.
            while *b1_bytes > *ghost_capacity {
                match b1.pop_front() {
                    Some((_, s)) => *b1_bytes -= s,
                    None => break,
                }
            }
            while *b2_bytes > *ghost_capacity {
                match b2.pop_front() {
                    Some((_, s)) => *b2_bytes -= s,
                    None => break,
                }
            }
            Some(victim)
        });
        if outcome.serviced {
            let capacity = cache.capacity();
            for f in bundle.iter() {
                self.touch(f, catalog.size(f), capacity);
            }
        }
        outcome.record_obs(&self.obs, &mut self.obs_slots);
        outcome
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn reset(&mut self) {
        // Keep the attached observability sink across the state wipe.
        *self = Arc {
            obs: self.obs.clone(),
            ..Arc::default()
        };
    }
}

/// The pre-index ARC (VecDeque scans + per-eviction `|T1|`-bytes recompute),
/// retained verbatim so the differential suite can pin [`Arc`]'s list-based
/// victim selection against it.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone, Default)]
pub struct ArcReference {
    resident: HashMap<FileId, List>,
    t1: std::collections::VecDeque<FileId>,
    t2: std::collections::VecDeque<FileId>,
    b1: std::collections::VecDeque<(FileId, Bytes)>,
    b2: std::collections::VecDeque<(FileId, Bytes)>,
    b1_bytes: Bytes,
    b2_bytes: Bytes,
    p: Bytes,
    ghost_capacity: Bytes,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl ArcReference {
    /// Creates an empty reference ARC policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current adaptation target `p` in bytes (diagnostics).
    pub fn adaptation_target(&self) -> Bytes {
        self.p
    }

    fn remove_from_list(deque: &mut std::collections::VecDeque<FileId>, f: FileId) {
        if let Some(pos) = deque.iter().position(|&x| x == f) {
            deque.remove(pos);
        }
    }

    fn ghost_remove(
        ghosts: &mut std::collections::VecDeque<(FileId, Bytes)>,
        total: &mut Bytes,
        f: FileId,
    ) -> Option<Bytes> {
        if let Some(pos) = ghosts.iter().position(|&(x, _)| x == f) {
            let (_, size) = ghosts.remove(pos).expect("position valid");
            *total -= size;
            Some(size)
        } else {
            None
        }
    }

    fn trim_ghosts(&mut self) {
        while self.b1_bytes > self.ghost_capacity {
            if let Some((_, s)) = self.b1.pop_front() {
                self.b1_bytes -= s;
            } else {
                break;
            }
        }
        while self.b2_bytes > self.ghost_capacity {
            if let Some((_, s)) = self.b2.pop_front() {
                self.b2_bytes -= s;
            } else {
                break;
            }
        }
    }

    fn touch(&mut self, f: FileId, size: Bytes, cache_capacity: Bytes) {
        self.ghost_capacity = cache_capacity;
        match self.resident.get(&f).copied() {
            Some(List::T1) => {
                Self::remove_from_list(&mut self.t1, f);
                self.t2.push_back(f);
                self.resident.insert(f, List::T2);
            }
            Some(List::T2) => {
                Self::remove_from_list(&mut self.t2, f);
                self.t2.push_back(f);
            }
            None => {
                if Self::ghost_remove(&mut self.b1, &mut self.b1_bytes, f).is_some() {
                    let delta = size.max(1);
                    self.p = (self.p + delta).min(cache_capacity);
                    self.t2.push_back(f);
                    self.resident.insert(f, List::T2);
                } else if Self::ghost_remove(&mut self.b2, &mut self.b2_bytes, f).is_some() {
                    let delta = size.max(1);
                    self.p = self.p.saturating_sub(delta);
                    self.t2.push_back(f);
                    self.resident.insert(f, List::T2);
                } else {
                    self.t1.push_back(f);
                    self.resident.insert(f, List::T1);
                }
            }
        }
    }

    fn choose_victim(&self, cache: &CacheState, exclude: &Bundle) -> Option<FileId> {
        let t1_bytes: Bytes = self
            .t1
            .iter()
            .filter_map(|f| cache.iter().find(|&(g, _)| g == *f).map(|(_, s)| s))
            .sum();
        let evictable =
            |f: &FileId| cache.contains(*f) && !exclude.contains(*f) && !cache.is_pinned(*f);
        let from_t1 = t1_bytes > self.p;
        let primary = if from_t1 { &self.t1 } else { &self.t2 };
        let secondary = if from_t1 { &self.t2 } else { &self.t1 };
        primary
            .iter()
            .find(|f| evictable(f))
            .or_else(|| secondary.iter().find(|f| evictable(f)))
            .copied()
    }

    fn on_evict(&mut self, f: FileId, size: Bytes) {
        match self.resident.remove(&f) {
            Some(List::T1) => {
                Self::remove_from_list(&mut self.t1, f);
                self.b1.push_back((f, size));
                self.b1_bytes += size;
            }
            Some(List::T2) => {
                Self::remove_from_list(&mut self.t2, f);
                self.b2.push_back((f, size));
                self.b2_bytes += size;
            }
            None => {}
        }
        self.trim_ghosts();
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl CachePolicy for ArcReference {
    fn name(&self) -> &str {
        "ARC"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let this = std::cell::RefCell::new(&mut *self);
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            let mut borrow = this.borrow_mut();
            let victim = borrow.choose_victim(cache, bundle)?;
            let size = cache
                .iter()
                .find(|&(g, _)| g == victim)
                .map(|(_, s)| s)
                .unwrap_or(0);
            borrow.on_evict(victim, size);
            Some(victim)
        });
        if outcome.serviced {
            let capacity = cache.capacity();
            for f in bundle.iter() {
                self.touch(f, catalog.size(f), capacity);
            }
        }
        outcome
    }

    fn reset(&mut self) {
        *self = ArcReference::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    fn setup(capacity: u64, n: u32) -> (FileCatalog, CacheState, Arc) {
        (
            FileCatalog::from_sizes(vec![1; n as usize]),
            CacheState::new(capacity),
            Arc::new(),
        )
    }

    #[test]
    fn second_access_promotes_to_t2() {
        let (catalog, mut cache, mut arc) = setup(4, 8);
        arc.handle(&b(&[0]), &mut cache, &catalog);
        assert_eq!(arc.resident.get(&FileId(0)), Some(&List::T1));
        arc.handle(&b(&[0]), &mut cache, &catalog);
        assert_eq!(arc.resident.get(&FileId(0)), Some(&List::T2));
    }

    #[test]
    fn scan_resistance_protects_frequent_files() {
        // Access {0,1} twice (T2), then stream distinct files through a
        // cache of 4. The frequent pair must survive the scan.
        let (catalog, mut cache, mut arc) = setup(4, 30);
        arc.handle(&b(&[0, 1]), &mut cache, &catalog);
        arc.handle(&b(&[0, 1]), &mut cache, &catalog);
        for i in 10..24u32 {
            arc.handle(&b(&[i]), &mut cache, &catalog);
        }
        assert!(
            cache.contains(FileId(0)) && cache.contains(FileId(1)),
            "scan evicted the frequent pair; resident={:?}",
            cache.resident_files_sorted()
        );
    }

    #[test]
    fn ghost_hit_adapts_target() {
        let (catalog, mut cache, mut arc) = setup(2, 10);
        arc.handle(&b(&[0]), &mut cache, &catalog);
        arc.handle(&b(&[1]), &mut cache, &catalog);
        arc.handle(&b(&[2]), &mut cache, &catalog); // evicts from T1 -> B1
        let p_before = arc.adaptation_target();
        // Re-request an evicted file: B1 ghost hit grows p.
        let evicted = [0u32, 1, 2]
            .into_iter()
            .find(|&i| !cache.contains(FileId(i)))
            .expect("someone was evicted");
        arc.handle(&b(&[evicted]), &mut cache, &catalog);
        assert!(arc.adaptation_target() >= p_before);
    }

    #[test]
    fn capacity_invariants_under_churn() {
        let (catalog, mut cache, mut arc) = setup(5, 40);
        let mut state = 0xA2Cu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let k = (next() % 3 + 1) as usize;
            let files: Vec<u32> = (0..k).map(|_| (next() % 40) as u32).collect();
            let bundle = Bundle::from_raw(files);
            let out = arc.handle(&bundle, &mut cache, &catalog);
            assert!(cache.check_invariants());
            if out.serviced {
                assert!(cache.contains_all(&bundle));
            }
            // Metadata consistency: resident sets agree.
            for (f, _) in cache.iter() {
                assert!(arc.resident.contains_key(&f), "untracked resident {f}");
            }
            assert_eq!(arc.resident.len(), cache.len());
            assert_eq!(arc.t1.len() + arc.t2.len(), cache.len());
        }
    }

    #[test]
    fn reset_clears_all_state() {
        let (catalog, mut cache, mut arc) = setup(2, 5);
        arc.handle(&b(&[0]), &mut cache, &catalog);
        arc.reset();
        assert!(arc.resident.is_empty());
        assert!(arc.t1.is_empty() && arc.t2.is_empty());
        assert_eq!(arc.adaptation_target(), 0);
    }

    /// Every list transition and the tracked `|T1|` byte counter must
    /// replay the reference ARC exactly, including adaptation of `p`,
    /// with non-uniform sizes.
    #[test]
    fn tracks_reference_with_variable_sizes() {
        let catalog = FileCatalog::from_sizes((0..18).map(|i| (i % 4) + 1).collect());
        let mut state = 0xA2C2u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut fast = Arc::new();
        let mut slow = ArcReference::new();
        let mut cache_fast = CacheState::new(10);
        let mut cache_slow = CacheState::new(10);
        for i in 0..400 {
            let k = (next() % 3 + 1) as usize;
            let r = Bundle::from_raw((0..k).map(|_| (next() % 18) as u32));
            let a = fast.handle(&r, &mut cache_fast, &catalog);
            let b = slow.handle(&r, &mut cache_slow, &catalog);
            assert_eq!(a, b, "diverged at request {i}");
            assert_eq!(
                fast.adaptation_target(),
                slow.adaptation_target(),
                "p diverged at request {i}"
            );
        }
        assert_eq!(
            cache_fast.resident_files_sorted(),
            cache_slow.resident_files_sorted()
        );
    }
}
