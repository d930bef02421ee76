//! Random replacement: the victim is a uniformly random evictable resident
//! file. A seeded control baseline — any policy worth running should beat it.
//!
//! The reference implementation sorted the whole evictable set per eviction
//! just to index it with one RNG draw. The indexed version keeps a
//! [`SortedArena`] of residents and answers the same order statistic over
//! `residents \ excluded` by binary search, replaying the reference's RNG
//! stream draw-for-draw.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{service_with_evictor, CachePolicy, RequestOutcome};
use fbc_core::types::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::SortedArena;

/// Random replacement policy (deterministic per seed).
#[derive(Debug, Clone)]
pub struct RandomEvict {
    seed: u64,
    rng: StdRng,
    /// Sorted resident arena; the RNG draw indexes into it.
    arena: SortedArena,
    /// Reusable exclusion scratch (in-flight bundle ∩ residents, plus
    /// pinned files), kept sorted ascending.
    excl: Vec<FileId>,
}

impl RandomEvict {
    /// Creates the policy with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(seed),
            arena: SortedArena::new(),
            excl: Vec::new(),
        }
    }
}

impl CachePolicy for RandomEvict {
    fn name(&self) -> &str {
        "Random"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let rng = &mut self.rng;
        let arena = &mut self.arena;
        let excl = &mut self.excl;
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            if arena.len() != cache.len() {
                arena.rebuild(cache);
            }
            // Merge the resident bundle files with the pinned set (both
            // ascending) into the sorted, deduplicated exclusion list.
            excl.clear();
            let mut pins = cache.pinned_files().peekable();
            for f in bundle.iter().filter(|&f| cache.contains(f)) {
                while let Some(&p) = pins.peek() {
                    if p < f {
                        excl.push(p);
                        pins.next();
                    } else if p == f {
                        pins.next();
                    } else {
                        break;
                    }
                }
                excl.push(f);
            }
            excl.extend(pins);

            let count = arena.len() - excl.len();
            if count == 0 {
                // No candidate: the reference returns before drawing, so
                // the RNG stream must not advance here either.
                return None;
            }
            let idx = rng.gen_range(0..count);
            let victim = arena.select_excluding(idx, excl);
            arena.remove(victim);
            Some(victim)
        });
        for &f in &outcome.fetched_files {
            self.arena.insert(f);
        }
        outcome
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.arena.clear();
        self.excl.clear();
    }
}

/// The pre-index sort-per-eviction Random policy, retained verbatim so the
/// differential suite can pin [`RandomEvict`]'s draw replay against it.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone)]
pub struct RandomEvictReference {
    seed: u64,
    rng: StdRng,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl RandomEvictReference {
    /// Creates the reference policy with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl CachePolicy for RandomEvictReference {
    fn name(&self) -> &str {
        "Random"
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let rng = &mut self.rng;
        service_with_evictor(bundle, cache, catalog, |cache| {
            let mut candidates: Vec<_> = cache
                .iter()
                .map(|(f, _)| f)
                .filter(|&f| !bundle.contains(f) && !cache.is_pinned(f))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            candidates.sort_unstable(); // deterministic base order for the RNG draw
            Some(candidates[rng.gen_range(0..candidates.len())])
        })
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn is_deterministic_per_seed() {
        let catalog = FileCatalog::from_sizes(vec![1; 10]);
        let run = |seed: u64| {
            let mut cache = CacheState::new(3);
            let mut p = RandomEvict::new(seed);
            let mut evictions = Vec::new();
            for i in 0..20u32 {
                let out = p.handle(&b(&[i % 10]), &mut cache, &catalog);
                evictions.extend(out.evicted_files);
            }
            evictions
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // overwhelmingly likely to differ
    }

    #[test]
    fn never_evicts_bundle_files() {
        let catalog = FileCatalog::from_sizes(vec![1; 5]);
        let mut cache = CacheState::new(2);
        let mut p = RandomEvict::new(1);
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.handle(&b(&[1]), &mut cache, &catalog);
        for i in 2..5u32 {
            let keep = (i - 1) % 5;
            let out = p.handle(&b(&[keep, i]), &mut cache, &catalog);
            assert!(!out.evicted_files.contains(&FileId(keep)));
            assert!(cache.check_invariants());
        }
    }

    #[test]
    fn reset_restores_seed_determinism() {
        let catalog = FileCatalog::from_sizes(vec![1; 6]);
        let mut p = RandomEvict::new(42);
        let run_once = |p: &mut RandomEvict| {
            let mut cache = CacheState::new(2);
            let mut ev = Vec::new();
            for i in 0..12u32 {
                ev.extend(p.handle(&b(&[i % 6]), &mut cache, &catalog).evicted_files);
            }
            ev
        };
        let first = run_once(&mut p);
        p.reset();
        let second = run_once(&mut p);
        assert_eq!(first, second);
    }

    /// The arena draw must replay the reference's RNG stream exactly,
    /// including with pinned files narrowing the candidate set.
    #[test]
    fn replays_reference_rng_stream_with_pins() {
        let catalog = FileCatalog::from_sizes(vec![1; 12]);
        let mut state = 0xD1CEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut fast = RandomEvict::new(99);
        let mut slow = RandomEvictReference::new(99);
        let mut cache_fast = CacheState::new(4);
        let mut cache_slow = CacheState::new(4);
        let mut pinned: Option<FileId> = None;
        for i in 0..300 {
            // Occasionally pin one resident file in both caches.
            if next() % 5 == 0 {
                if let Some(p) = pinned.take() {
                    cache_fast.unpin(p).unwrap();
                    cache_slow.unpin(p).unwrap();
                }
                let candidates = cache_fast.resident_files_sorted();
                if let Some(&p) = candidates.first() {
                    if cache_slow.contains(p) {
                        cache_fast.pin(p).unwrap();
                        cache_slow.pin(p).unwrap();
                        pinned = Some(p);
                    }
                }
            }
            let k = (next() % 2 + 1) as usize;
            let r = Bundle::from_raw((0..k).map(|_| (next() % 12) as u32));
            let a = fast.handle(&r, &mut cache_fast, &catalog);
            let b = slow.handle(&r, &mut cache_slow, &catalog);
            assert_eq!(a, b, "diverged at request {i}");
        }
    }
}
