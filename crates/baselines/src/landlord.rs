//! The Landlord cache-replacement algorithm (Young 1998; Cao & Irani 1997),
//! adapted to file-bundle requests exactly as the paper's Algorithm 3.
//!
//! Landlord maintains a *credit* in `[0, 1]` for every resident file. When
//! space is needed, every evictable file's credit is decreased by the
//! minimum credit and a zero-credit file is evicted; whenever a file is
//! referenced its credit is reset to 1. Credits are not scaled by file
//! size: greedy-dual-size with cost = size divides back out to this same
//! recurrence and ranks files identically (GDSF is the size-aware
//! comparator).
//!
//! A rent round inherently touches every tenant, so eviction stays `O(n)` —
//! but the indexed version runs it as two passes straight over the credit
//! ledger (no candidate `Vec`, no sort: the victim is the lowest-id file
//! that goes broke, which a running minimum finds order-independently) and
//! keeps a sorted *broke list* so the already-broke fast path is
//! `O(broke)` instead of a full scan. The global rent-offset trick usual
//! for Landlord priority queues is deliberately not used: files of the
//! in-flight bundle and pinned files are exempt from each round, so a
//! shared offset would charge them too and diverge from Algorithm 3.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{service_with_evictor, CachePolicy, RequestOutcome};
use fbc_core::types::FileId;
use fbc_obs::Obs;
use rustc_hash::FxHashMap;

fn broke_insert(broke: &mut Vec<FileId>, f: FileId) {
    if let Err(i) = broke.binary_search(&f) {
        broke.insert(i, f);
    }
}

fn broke_remove(broke: &mut Vec<FileId>, f: FileId) {
    if let Ok(i) = broke.binary_search(&f) {
        broke.remove(i);
    }
}

/// The Landlord policy, bundle-adapted (paper Algorithm 3).
#[derive(Debug, Clone)]
pub struct Landlord {
    credits: FxHashMap<FileId, f64>,
    /// Sorted ids of credited files whose credit is ≤ ε — the "surrender
    /// without a rent round" fast path. Entries are dropped lazily when the
    /// file is refreshed, evicted, or no longer resident.
    broke: Vec<FileId>,
    /// Observability sink (disabled unless a driver attaches one); counts
    /// rent rounds, broke-list evictions and credit refreshes.
    obs: Obs,
}

impl Landlord {
    /// Landlord as the paper's Algorithm 3.
    pub fn new() -> Self {
        Self {
            credits: FxHashMap::default(),
            broke: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Current credit of a file (for tests/diagnostics).
    pub fn credit(&self, file: FileId) -> Option<f64> {
        self.credits.get(&file).copied()
    }
}

impl Default for Landlord {
    fn default() -> Self {
        Self::new()
    }
}

impl CachePolicy for Landlord {
    fn name(&self) -> &str {
        "Landlord"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let credits = &mut self.credits;
        let broke = &mut self.broke;
        let obs = self.obs.clone();

        // The eviction closure implements Algorithm 3 Step 3: repeatedly
        // find the minimum credit among evictable files not in F(r_new),
        // charge that rent to everyone, and surrender a zero-credit file.
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            // A resident file can lack a ledger entry (e.g. the policy was
            // reset while the cache stayed warm). It must start at full
            // credit like any other tenant — treating it as credit 0
            // would hand it over as an "already-broke" victim without ever
            // charging it rent. When every resident is credited (the steady
            // state) the ledger length matches the cache and the scan is
            // skipped.
            if credits.len() != cache.len() {
                for (f, _) in cache.iter() {
                    if !bundle.contains(f) && !cache.is_pinned(f) && !credits.contains_key(&f) {
                        credits.insert(f, 1.0);
                    }
                }
            }

            // Look for an already-broke tenant before charging more rent:
            // the broke list is sorted, so the first evictable entry is the
            // reference scan's lowest-id choice.
            let mut i = 0;
            while i < broke.len() {
                let f = broke[i];
                if !cache.contains(f) || !credits.contains_key(&f) {
                    broke.remove(i);
                    continue;
                }
                if bundle.contains(f) || cache.is_pinned(f) {
                    i += 1;
                    continue;
                }
                broke.remove(i);
                credits.remove(&f);
                obs.incr("landlord.broke_evictions");
                return Some(f);
            }

            // Rent round, two passes over the ledger. Pass 1: δ = minimum
            // credit among candidates (a min fold is iteration-order
            // independent: credits are never NaN and never −0.0).
            let mut delta = f64::INFINITY;
            let mut candidates = 0usize;
            for (&f, &c) in credits.iter() {
                if !cache.contains(f) || bundle.contains(f) || cache.is_pinned(f) {
                    continue;
                }
                candidates += 1;
                delta = delta.min(c);
            }
            if candidates == 0 {
                return None;
            }
            obs.incr("landlord.rent_rounds");

            // Pass 2: charge every candidate; the victim is the lowest-id
            // file whose credit hits zero (a running id-minimum, so the map's
            // iteration order does not matter).
            let mut victim: Option<FileId> = None;
            for (&f, c) in credits.iter_mut() {
                if !cache.contains(f) || bundle.contains(f) || cache.is_pinned(f) {
                    continue;
                }
                *c = (*c - delta).max(0.0);
                if *c <= f64::EPSILON {
                    if victim.is_none_or(|v| f < v) {
                        victim = Some(f);
                    }
                    broke_insert(broke, f);
                }
            }
            if let Some(f) = victim {
                credits.remove(&f);
                broke_remove(broke, f);
            }
            victim
        });

        // Step 4: every file of the serviced bundle (newly fetched and
        // already resident alike) gets full credit.
        if outcome.serviced {
            for f in bundle.iter() {
                if !outcome.fetched_files.contains(&f) {
                    self.obs.incr("landlord.credit_refreshes");
                }
                self.credits.insert(f, 1.0);
                broke_remove(&mut self.broke, f);
            }
        }
        // Drop credit entries of files evicted by the run (already removed
        // inside the closure, but eviction can also bypass it on errors).
        for f in &outcome.evicted_files {
            self.credits.remove(f);
            broke_remove(&mut self.broke, *f);
        }
        outcome
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn reset(&mut self) {
        self.credits.clear();
        self.broke.clear();
    }
}

/// The pre-index Landlord (per-eviction candidate collect + sort), retained
/// verbatim so the differential suite can pin [`Landlord`]'s two-pass rent
/// round against it.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone)]
pub struct LandlordReference {
    credits: std::collections::HashMap<FileId, f64>,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl LandlordReference {
    /// Reference Landlord as the paper's Algorithm 3.
    pub fn new() -> Self {
        Self {
            credits: std::collections::HashMap::new(),
        }
    }

    /// Current credit of a file (for tests/diagnostics).
    pub fn credit(&self, file: FileId) -> Option<f64> {
        self.credits.get(&file).copied()
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl Default for LandlordReference {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl CachePolicy for LandlordReference {
    fn name(&self) -> &str {
        "Landlord"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let credits = &mut self.credits;

        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            let mut candidates: Vec<FileId> = cache
                .iter()
                .map(|(f, _)| f)
                .filter(|&f| !bundle.contains(f) && !cache.is_pinned(f))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            candidates.sort_unstable();

            for &f in &candidates {
                credits.entry(f).or_insert(1.0);
            }

            if let Some(&f) = candidates.iter().find(|&f| credits[f] <= f64::EPSILON) {
                credits.remove(&f);
                return Some(f);
            }

            let delta = candidates
                .iter()
                .map(|f| credits[f])
                .fold(f64::INFINITY, f64::min);
            let mut victim = None;
            for &f in &candidates {
                let c = credits.get_mut(&f).expect("entry created above");
                *c = (*c - delta).max(0.0);
                if *c <= f64::EPSILON && victim.is_none() {
                    victim = Some(f);
                }
            }
            if let Some(f) = victim {
                credits.remove(&f);
            }
            victim
        });

        if outcome.serviced {
            for f in bundle.iter() {
                self.credits.insert(f, 1.0);
            }
        }
        for f in &outcome.evicted_files {
            self.credits.remove(f);
        }
        outcome
    }

    fn reset(&mut self) {
        self.credits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn cold_fetch_assigns_full_credit() {
        let catalog = FileCatalog::from_sizes(vec![5, 5]);
        let mut cache = CacheState::new(10);
        let mut ll = Landlord::new();
        let out = ll.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(ll.credit(FileId(0)), Some(1.0));
        assert_eq!(ll.credit(FileId(1)), Some(1.0));
    }

    #[test]
    fn eviction_charges_rent_and_removes_broke_files() {
        let catalog = FileCatalog::from_sizes(vec![5, 5, 5]);
        let mut cache = CacheState::new(10);
        let mut ll = Landlord::new();
        ll.handle(&b(&[0]), &mut cache, &catalog);
        ll.handle(&b(&[1]), &mut cache, &catalog);
        // Cache full {0,1}. Request {2} forces one eviction; both have
        // credit 1, the minimum is charged, both drop to 0, and the lowest
        // id (f0) is evicted.
        let out = ll.handle(&b(&[2]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files, vec![FileId(0)]);
        assert!(cache.contains(FileId(1)));
        // f1 survives with zero credit; next eviction takes it for free.
        let out = ll.handle(&b(&[0]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
    }

    #[test]
    fn reference_refreshes_credit() {
        let catalog = FileCatalog::from_sizes(vec![5, 5, 5]);
        let mut cache = CacheState::new(10);
        let mut ll = Landlord::new();
        ll.handle(&b(&[0]), &mut cache, &catalog);
        ll.handle(&b(&[1]), &mut cache, &catalog);
        ll.handle(&b(&[2]), &mut cache, &catalog); // evicts f0, f1 at credit 0
        ll.handle(&b(&[1]), &mut cache, &catalog); // hit: refresh f1 to 1.0
        assert_eq!(ll.credit(FileId(1)), Some(1.0));
        // Now f2 (still credit 1.0 too) — request {0} evicts the lowest id
        // among ties after a rent round.
        let out = ll.handle(&b(&[0]), &mut cache, &catalog);
        assert_eq!(out.evicted_files.len(), 1);
    }

    #[test]
    fn credits_stay_in_unit_interval() {
        let catalog = FileCatalog::from_sizes(vec![1; 20]);
        let mut cache = CacheState::new(5);
        let mut ll = Landlord::new();
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let k = (next() % 3 + 1) as usize;
            let files: Vec<u32> = (0..k).map(|_| (next() % 20) as u32).collect();
            ll.handle(&Bundle::from_raw(files), &mut cache, &catalog);
            for (f, _) in cache.iter() {
                if let Some(c) = ll.credit(f) {
                    assert!((0.0..=1.0).contains(&c), "credit {c} out of range");
                }
            }
            assert!(cache.check_invariants());
        }
    }

    #[test]
    fn bundle_files_are_never_victims() {
        let catalog = FileCatalog::from_sizes(vec![4, 4, 4]);
        let mut cache = CacheState::new(8);
        let mut ll = Landlord::new();
        ll.handle(&b(&[0]), &mut cache, &catalog);
        ll.handle(&b(&[1]), &mut cache, &catalog);
        // {1,2} keeps f1 (part of the bundle) and evicts f0.
        let out = ll.handle(&b(&[1, 2]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files, vec![FileId(0)]);
        assert!(cache.contains(FileId(1)) && cache.contains(FileId(2)));
    }

    #[test]
    fn uncredited_resident_is_not_evicted_for_free() {
        // Regression: a resident file with no credit entry (here: the policy
        // was reset while the cache stayed warm) used to look "already
        // broke" and was surrendered without a rent round.
        let catalog = FileCatalog::from_sizes(vec![5, 5, 5]);
        let mut cache = CacheState::new(10);
        let mut ll = Landlord::new();
        ll.handle(&b(&[0]), &mut cache, &catalog);
        ll.handle(&b(&[1]), &mut cache, &catalog);
        ll.reset(); // credits gone, f0 and f1 still resident
        ll.handle(&b(&[0]), &mut cache, &catalog); // hit: only f0 re-credited
        assert_eq!(ll.credit(FileId(1)), None, "f1 resident but uncredited");

        // {2} forces one eviction. f1 must be initialised to full credit and
        // charged rent like f0 — then the tie breaks to the lowest id (f0),
        // not to the uncredited f1.
        let out = ll.handle(&b(&[2]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files, vec![FileId(0)]);
        assert!(cache.contains(FileId(1)));
    }

    #[test]
    fn reset_clears_credits() {
        let catalog = FileCatalog::from_sizes(vec![1]);
        let mut cache = CacheState::new(1);
        let mut ll = Landlord::new();
        ll.handle(&b(&[0]), &mut cache, &catalog);
        ll.reset();
        assert_eq!(ll.credit(FileId(0)), None);
    }

    /// The two-pass rent round and broke list must replay the reference's
    /// Algorithm 3 exactly, credits included.
    #[test]
    fn tracks_reference() {
        let catalog = FileCatalog::from_sizes((0..15).map(|i| (i % 4) + 1).collect());
        let mut state = 0x11AAu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut fast = Landlord::new();
        let mut slow = LandlordReference::new();
        let mut cache_fast = CacheState::new(8);
        let mut cache_slow = CacheState::new(8);
        for i in 0..300 {
            let k = (next() % 3 + 1) as usize;
            let r = Bundle::from_raw((0..k).map(|_| (next() % 15) as u32));
            let a = fast.handle(&r, &mut cache_fast, &catalog);
            let b = slow.handle(&r, &mut cache_slow, &catalog);
            assert_eq!(a, b, "diverged at request {i}");
            for f in (0..15u32).map(FileId) {
                assert_eq!(
                    fast.credit(f),
                    slow.credit(f),
                    "credit of {f:?} diverged at request {i}"
                );
            }
        }
    }
}
