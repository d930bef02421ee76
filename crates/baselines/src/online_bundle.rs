//! Online file-bundle caching with competitive guarantees — the
//! marking-family algorithms of Qin & Etesami, *Optimal Online Algorithms
//! for File-Bundle Caching and Generalization to Distributed Caching*
//! (arXiv 2011.03212), the direct online successor of the source paper.
//!
//! # The model
//!
//! Queries arrive one *bundle* at a time; a query stalls (costs 1) unless
//! **every** file of its bundle is resident — the whole-bundle service
//! cost the source paper's SRM model shares. Classic paging is the
//! `ℓ = 1` special case. For a cache holding `k` unit files and bundles
//! of `ℓ` files, the optimal deterministic competitive ratio drops from
//! the classic `k` to
//!
//! ```text
//!     ρ(k, ℓ) = k − ℓ + 1
//! ```
//!
//! because an online algorithm sees ℓ requests' worth of information at
//! once. Both directions are exercised by this workspace:
//!
//! * **Upper bound.** [`BundleMarking`] generalizes the marking
//!   algorithm: files of a serviced bundle are *marked*; victims are
//!   drawn from the unmarked residents only; when a bundle cannot be
//!   accommodated without evicting a marked file, a new *phase* begins
//!   and every mark is cleared. Within one phase the first miss marks
//!   the ℓ files of the phase-opening bundle and every further missed
//!   query marks at least one previously unmarked file, so a phase
//!   suffers at most `k − ℓ + 1` missed queries while the offline
//!   optimum pays at least one miss per phase — the
//!   [`marking_competitive_bound`] checked end-to-end by the
//!   `perf_online` harness against the exact offline optimum
//!   (`fbc_core::offline`).
//! * **Lower bound.** `fbc_workload::adversary` generates the paper's
//!   sliding-window construction, which forces *every* online algorithm
//!   (marking or not) to miss every query while the prefetching offline
//!   optimum misses once per `k − ℓ + 1` queries — so the ratio is tight.
//!
//! Any unmarked-victim rule inherits the same per-phase guarantee, so the
//! family is written once: a [`Marking`] guard owns the marks and the
//! phase rule, over an [`UnmarkedOrder`] that picks each victim among the
//! unmarked residents. Two members are provided: the deterministic
//! [`BundleMarking`] (LRU flavour: the victim is the least recently
//! requested unmarked file, ties to the lowest id) and the randomized
//! [`BundleMarkingRandom`] (uniformly random unmarked victim, seeded and
//! deterministic per seed). Both satisfy the `k − ℓ + 1` bound; the
//! randomized flavour additionally dodges deterministic worst cases in
//! expectation, mirroring classic randomized marking. Under sequential
//! service the deterministic flavour evicts exactly as LRU (every
//! unmarked file is older than every marked one); they part only when
//! pinned files of in-flight jobs block the least recent file.
//!
//! The **distributed generalization** needs no second algorithm: the
//! sharded admission front-end (`fbc_grid::concurrent`, `replica`/`multi`
//! engines) routes each query to one of `m` independent caches of
//! capacity `k/m`, and each shard runs the unmodified policy on the
//! subsequence it is routed — retaining the single-cache guarantee
//! [`distributed_marking_bound`] `ρ(k/m, ℓ)` per shard against that
//! shard's own offline optimum. The `perf_online` harness measures
//! exactly this through `run_concurrent_grid`.
//!
//! Sizes generalize bytes-for-files: marks carry file sizes, and the
//! phase-reset test compares `bytes(marked ∪ bundle)` against the
//! capacity. The `k − ℓ + 1` arithmetic is stated (and asserted) for
//! unit-size catalogs, where bytes and file counts coincide.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{service_with_evictor, CachePolicy, RequestOutcome};
use fbc_core::types::{Bytes, FileId};
use fbc_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

use crate::util::{OrderedList, SortedArena, VictimIndex};

/// The provable competitive ratio of any bundle-marking algorithm on a
/// cache of `cache_files` unit-size files and bundles of at least
/// `bundle_files` files: `max(1, k − ℓ + 1)`.
///
/// This is the *query-miss* (stall-count) competitive ratio against the
/// prefetching offline optimum of `fbc_core::offline::opt_query_misses`;
/// it is tight — the sliding-window adversary of
/// `fbc_workload::adversary` forces it.
pub fn marking_competitive_bound(cache_files: u64, bundle_files: u64) -> f64 {
    (cache_files.saturating_sub(bundle_files) + 1).max(1) as f64
}

/// The per-shard competitive bound of the distributed generalization:
/// `m` independent caches splitting `cache_files` evenly, each serving
/// the subsequence routed to it — `ρ(⌊k/m⌋, ℓ)` against each shard's own
/// offline optimum.
pub fn distributed_marking_bound(cache_files: u64, shards: u64, bundle_files: u64) -> f64 {
    marking_competitive_bound(cache_files / shards.max(1), bundle_files)
}

/// The marks of the current phase: which residents are marked (and their
/// total bytes), each file's last-request tick, and the phase counter. A
/// [`Marking`] guard owns it; its [`UnmarkedOrder`] reads it.
#[derive(Debug, Clone, Default)]
pub struct Marks {
    /// Marked residents mapped to their sizes. Marked files are never
    /// victims; the map empties on every phase reset.
    marked: FxHashMap<FileId, Bytes>,
    marked_bytes: Bytes,
    /// Tick of each tracked file's most recent appearance in a serviced
    /// bundle (files never seen rank as tick 0).
    last_use: FxHashMap<FileId, u64>,
    tick: u64,
    phases: u64,
}

impl Marks {
    /// Whether `file` is marked in the current phase.
    pub fn is_marked(&self, file: FileId) -> bool {
        self.marked.contains_key(&file)
    }

    /// Tick of `file`'s most recent appearance in a serviced bundle; 0 if
    /// it has none since the last reset.
    pub fn last_use(&self, file: FileId) -> u64 {
        self.last_use.get(&file).copied().unwrap_or(0)
    }

    /// Bytes the marked set would grow to if `bundle` were marked:
    /// `bytes(marked ∪ bundle)`.
    fn marked_with(&self, bundle: &Bundle, catalog: &FileCatalog) -> Bytes {
        self.marked_bytes
            + bundle
                .iter()
                .filter(|&f| !self.is_marked(f))
                .map(|f| catalog.size(f))
                .sum::<Bytes>()
    }

    /// Marks every file of a just-serviced bundle at a fresh tick.
    fn mark_bundle(&mut self, bundle: &Bundle, catalog: &FileCatalog) {
        self.tick += 1;
        for f in bundle.iter() {
            if self.marked.insert(f, catalog.size(f)).is_none() {
                self.marked_bytes += catalog.size(f);
            }
            self.last_use.insert(f, self.tick);
        }
    }

    /// Forgets an evicted file entirely.
    fn forget(&mut self, f: FileId) {
        if let Some(size) = self.marked.remove(&f) {
            self.marked_bytes -= size;
        }
        self.last_use.remove(&f);
    }

    /// Unmarks every file (a phase reset), appending each as
    /// `(last_use, id)` to `unmarked`.
    fn unmark_all(&mut self, unmarked: &mut Vec<(u64, FileId)>) {
        self.phases += 1;
        unmarked.extend(self.marked.keys().map(|&f| (self.last_use(f), f)));
        self.marked.clear();
        self.marked_bytes = 0;
    }

    fn clear(&mut self) {
        *self = Self::default();
    }
}

/// The order in which a [`Marking`] guard takes victims from the unmarked
/// residents. The guard's phase rule alone gives the `k − ℓ + 1` bound,
/// whatever the order.
pub trait UnmarkedOrder {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Number of files the order indexes, or `None` for an order that keeps
    /// no index and reads the cache afresh at every eviction.
    fn tracked(&self) -> Option<usize>;

    /// Indexes `file`, unmarked with tick `last_use`. The guard hands files
    /// over in ascending `(last_use, id)` order, and each file a phase
    /// reset unmarks is more recent than every file already indexed.
    fn insert(&mut self, file: FileId, last_use: u64);

    /// Drops `file`, just marked, from the index.
    fn remove(&mut self, file: FileId);

    /// Removes and returns the next victim: an unmarked resident that is
    /// neither pinned nor part of the in-flight `bundle`.
    fn choose(&mut self, cache: &CacheState, bundle: &Bundle, marks: &Marks) -> Option<FileId>;

    /// Drops the whole index.
    fn clear(&mut self);

    /// Drops the whole index and restarts any random stream.
    fn reset(&mut self) {
        self.clear();
    }
}

/// Bundle-marking (Qin–Etesami), written once: the mark set, the
/// `bytes(marked ∪ bundle) > capacity` phase rule and the resync after a
/// warm reset, over an [`UnmarkedOrder`] that picks each victim among the
/// unmarked residents.
#[derive(Debug, Clone)]
pub struct Marking<O> {
    marks: Marks,
    order: O,
    /// Reusable `(last_use, id)` scratch for phase resets and resyncs.
    unmarked: Vec<(u64, FileId)>,
    obs: Obs,
}

impl<O: UnmarkedOrder> Marking<O> {
    /// The guard over `order`, with no marks.
    pub fn with_order(order: O) -> Self {
        Self {
            marks: Marks::default(),
            order,
            unmarked: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Number of completed phase resets so far.
    pub fn phases(&self) -> u64 {
        self.marks.phases
    }

    /// Number of currently marked files.
    pub fn marked_files(&self) -> usize {
        self.marks.marked.len()
    }

    /// Hands the `(last_use, id)` scratch to the order, oldest first.
    fn index_unmarked(&mut self) {
        self.unmarked.sort_unstable();
        for &(tick, f) in &self.unmarked {
            self.order.insert(f, tick);
        }
        self.unmarked.clear();
    }

    /// Re-indexes the unmarked residents when the order has lost sight of
    /// some (policy reset while the cache stayed warm, or a cache mutated
    /// externally), after pruning marks of files no longer resident.
    fn resync(&mut self, cache: &CacheState) {
        let Some(tracked) = self.order.tracked() else {
            return;
        };
        if self.marks.marked.len() + tracked == cache.len() {
            return;
        }
        let stale: Vec<FileId> = self
            .marks
            .marked
            .keys()
            .copied()
            .filter(|&f| !cache.contains(f))
            .collect();
        for f in stale {
            self.marks.forget(f);
        }
        let marks = &self.marks;
        self.unmarked.extend(
            cache
                .iter()
                .filter(|&(f, _)| !marks.is_marked(f))
                .map(|(f, _)| (marks.last_use(f), f)),
        );
        self.order.clear();
        self.index_unmarked();
    }
}

impl<O: UnmarkedOrder> CachePolicy for Marking<O> {
    fn name(&self) -> &str {
        self.order.name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        if bundle.total_size(catalog) <= cache.capacity() {
            self.resync(cache);
            if self.marks.marked_with(bundle, catalog) > cache.capacity() {
                self.obs.incr("marking.phase_resets");
                self.marks.unmark_all(&mut self.unmarked);
                self.index_unmarked();
            }
        }
        let (marks, order) = (&self.marks, &mut self.order);
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            order.choose(cache, bundle, marks)
        });
        for &f in &outcome.evicted_files {
            self.marks.forget(f);
        }
        if outcome.serviced {
            self.marks.mark_bundle(bundle, catalog);
            for f in bundle.iter() {
                self.order.remove(f);
            }
        }
        outcome
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn reset(&mut self) {
        self.marks.clear();
        self.order.reset();
    }
}

/// Least recently requested first, ties to the lowest [`FileId`]: the
/// deterministic flavour's order. A list suffices, not a heap: every
/// unmarked resident was last requested before the current phase began,
/// so the files a phase reset unmarks all go to the back.
#[derive(Debug, Clone, Default)]
pub struct LeastRecent(OrderedList<u64>);

impl UnmarkedOrder for LeastRecent {
    fn name(&self) -> &'static str {
        "BundleMarking"
    }

    fn tracked(&self) -> Option<usize> {
        Some(self.0.len())
    }

    fn insert(&mut self, file: FileId, last_use: u64) {
        self.0.rekey(file, last_use);
    }

    fn remove(&mut self, file: FileId) {
        self.0.remove(file);
    }

    fn choose(&mut self, cache: &CacheState, bundle: &Bundle, _marks: &Marks) -> Option<FileId> {
        self.0.choose(cache, bundle)
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// A uniform draw among the evictable unmarked residents: the randomized
/// flavour's order. The draw is one order statistic of a [`SortedArena`],
/// so a seed replays the stream of a sort-and-draw over the candidates.
#[derive(Debug, Clone)]
pub struct UniformDraw {
    seed: u64,
    rng: StdRng,
    /// Sorted unmarked residents.
    arena: SortedArena,
    /// Reusable exclusion scratch (unmarked files of the in-flight bundle
    /// plus unmarked pinned files), sorted ascending.
    excl: Vec<FileId>,
}

impl UniformDraw {
    /// The order drawing from a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(seed),
            arena: SortedArena::new(),
            excl: Vec::new(),
        }
    }
}

impl UnmarkedOrder for UniformDraw {
    fn name(&self) -> &'static str {
        "BundleMarking(rand)"
    }

    fn tracked(&self) -> Option<usize> {
        Some(self.arena.len())
    }

    fn insert(&mut self, file: FileId, _last_use: u64) {
        self.arena.insert(file);
    }

    fn remove(&mut self, file: FileId) {
        self.arena.remove(file);
    }

    fn choose(&mut self, cache: &CacheState, bundle: &Bundle, marks: &Marks) -> Option<FileId> {
        // Exclusion list: unmarked files of the in-flight bundle plus
        // unmarked pinned files — exactly the arena members that are not
        // evictable. Merged ascending and deduplicated, matching
        // `select_excluding`'s contract.
        let excl = &mut self.excl;
        excl.clear();
        let unmarked = |f: FileId| cache.contains(f) && !marks.is_marked(f);
        let mut pins = cache.pinned_files().filter(|&p| unmarked(p)).peekable();
        for f in bundle.iter().filter(|&f| unmarked(f)) {
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

        let count = self.arena.len() - excl.len();
        if count == 0 {
            // The sort-and-draw returns before drawing; the RNG stream
            // must not advance here either.
            return None;
        }
        let idx = self.rng.gen_range(0..count);
        let victim = self.arena.select_excluding(idx, excl);
        self.arena.remove(victim);
        Some(victim)
    }

    fn clear(&mut self) {
        self.arena.clear();
    }

    fn reset(&mut self) {
        self.arena.clear();
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Deterministic bundle-marking (Qin–Etesami, LRU flavour): the victim is
/// the least recently requested unmarked file, ties to the lowest
/// [`FileId`].
pub type BundleMarking = Marking<LeastRecent>;

impl BundleMarking {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::with_order(LeastRecent::default())
    }
}

impl Default for BundleMarking {
    fn default() -> Self {
        Self::new()
    }
}

/// Randomized bundle-marking (Qin–Etesami family): the victim is drawn
/// uniformly at random among the unmarked evictable residents.
/// Deterministic per seed — the same RNG-stream discipline as
/// [`crate::RandomEvict`].
pub type BundleMarkingRandom = Marking<UniformDraw>;

impl BundleMarkingRandom {
    /// Creates the policy with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_order(UniformDraw::new(seed))
    }
}

/// The evictable unmarked residents a scan order chooses among.
#[cfg(any(test, feature = "reference-kernels"))]
fn scan_candidates<'a>(
    cache: &'a CacheState,
    bundle: &'a Bundle,
    marks: &'a Marks,
) -> impl Iterator<Item = FileId> + 'a {
    cache
        .iter()
        .map(|(f, _)| f)
        .filter(|&f| !marks.is_marked(f) && !bundle.contains(f) && !cache.is_pinned(f))
}

/// The full-scan oracle of [`LeastRecent`]: the minimum
/// `(last_use, id)` over the cache's evictable unmarked residents.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone, Default)]
pub struct ScanLeastRecent;

#[cfg(any(test, feature = "reference-kernels"))]
impl UnmarkedOrder for ScanLeastRecent {
    fn name(&self) -> &'static str {
        "BundleMarking"
    }

    fn tracked(&self) -> Option<usize> {
        None
    }

    fn insert(&mut self, _file: FileId, _last_use: u64) {}

    fn remove(&mut self, _file: FileId) {}

    fn choose(&mut self, cache: &CacheState, bundle: &Bundle, marks: &Marks) -> Option<FileId> {
        scan_candidates(cache, bundle, marks).min_by_key(|&f| (marks.last_use(f), f))
    }

    fn clear(&mut self) {}
}

/// The sort-and-draw oracle of [`UniformDraw`]: sorts the evictable
/// unmarked residents and indexes them with one draw per eviction.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone)]
pub struct ScanDraw {
    seed: u64,
    rng: StdRng,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl ScanDraw {
    /// The order drawing from a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl UnmarkedOrder for ScanDraw {
    fn name(&self) -> &'static str {
        "BundleMarking(rand)"
    }

    fn tracked(&self) -> Option<usize> {
        None
    }

    fn insert(&mut self, _file: FileId, _last_use: u64) {}

    fn remove(&mut self, _file: FileId) {}

    fn choose(&mut self, cache: &CacheState, bundle: &Bundle, marks: &Marks) -> Option<FileId> {
        let mut candidates: Vec<FileId> = scan_candidates(cache, bundle, marks).collect();
        if candidates.is_empty() {
            return None;
        }
        candidates.sort_unstable();
        Some(candidates[self.rng.gen_range(0..candidates.len())])
    }

    fn clear(&mut self) {}

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

    fn unit_catalog(n: usize) -> FileCatalog {
        FileCatalog::from_sizes(vec![1; n])
    }

    #[test]
    fn bounds() {
        assert_eq!(marking_competitive_bound(4, 2), 3.0);
        assert_eq!(marking_competitive_bound(100, 1), 100.0); // classic paging
        assert_eq!(marking_competitive_bound(2, 5), 1.0); // floor at 1
        assert_eq!(distributed_marking_bound(100, 4, 5), 21.0);
        assert_eq!(distributed_marking_bound(100, 1, 5), 96.0);
    }

    #[test]
    fn phase_reset_clears_marks_and_evicts_oldest_unmarked_first() {
        let catalog = unit_catalog(8);
        let mut cache = CacheState::new(4);
        let mut p = BundleMarking::new();
        p.handle(&b(&[0, 1]), &mut cache, &catalog);
        p.handle(&b(&[2, 3]), &mut cache, &catalog);
        assert_eq!(p.marked_files(), 4);
        assert_eq!(p.phases(), 0);
        // {4,5} cannot fit next to 4 marked bytes: phase reset, then the
        // least-recently-requested unmarked files (f0, f1) are evicted.
        let out = p.handle(&b(&[4, 5]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(p.phases(), 1);
        assert_eq!(out.evicted_files, vec![FileId(0), FileId(1)]);
        assert_eq!(p.marked_files(), 2); // the new phase's bundle
        assert!(cache.contains(FileId(2)) && cache.contains(FileId(3)));
    }

    #[test]
    fn marked_files_survive_until_the_phase_ends() {
        let catalog = unit_catalog(8);
        let mut cache = CacheState::new(5);
        let mut p = BundleMarking::new();
        p.handle(&b(&[0, 1]), &mut cache, &catalog);
        p.handle(&b(&[2, 3]), &mut cache, &catalog);
        // One byte of slack: {4} fits without a reset and without evicting.
        let out = p.handle(&b(&[4]), &mut cache, &catalog);
        assert_eq!(p.phases(), 0);
        assert!(out.evicted_files.is_empty());
        // {5} overflows the marked set: reset, and the victim is the
        // oldest unmarked file (f0 at tick 1), not a marked one.
        let out = p.handle(&b(&[5]), &mut cache, &catalog);
        assert_eq!(p.phases(), 1);
        assert_eq!(out.evicted_files, vec![FileId(0)]);
    }

    #[test]
    fn a_hit_marks_its_files() {
        let catalog = unit_catalog(8);
        let mut cache = CacheState::new(4);
        let mut p = BundleMarking::new();
        p.handle(&b(&[0, 1]), &mut cache, &catalog);
        p.handle(&b(&[2, 3]), &mut cache, &catalog);
        let out = p.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.hit);
        // The hit refreshed f0/f1's recency; after the reset forced by
        // {4,5}, the oldest unmarked files are now f2/f3.
        let out = p.handle(&b(&[4, 5]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(2), FileId(3)]);
    }

    #[test]
    fn oversized_bundles_change_nothing() {
        let catalog = FileCatalog::from_sizes(vec![3, 3, 3]);
        let mut cache = CacheState::new(4);
        let mut p = BundleMarking::new();
        p.handle(&b(&[0]), &mut cache, &catalog);
        let out = p.handle(&b(&[1, 2]), &mut cache, &catalog);
        assert!(!out.serviced);
        assert_eq!(p.phases(), 0, "oversized bundle must not reset the phase");
        assert_eq!(p.marked_files(), 1);
    }

    #[test]
    fn pinned_unmarked_files_are_not_victims() {
        let catalog = unit_catalog(6);
        let mut cache = CacheState::new(3);
        let mut p = BundleMarking::new();
        p.handle(&b(&[0, 1, 2]), &mut cache, &catalog);
        cache.pin(FileId(0)).unwrap();
        // New phase: {3,4} overflows marked {0,1,2}; f0 is pinned so the
        // victims are f1 and f2.
        let out = p.handle(&b(&[3, 4]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files, vec![FileId(1), FileId(2)]);
        assert!(cache.contains(FileId(0)));
    }

    #[test]
    fn warm_cache_after_reset_is_resynced() {
        let catalog = unit_catalog(6);
        let mut cache = CacheState::new(3);
        let mut p = BundleMarking::new();
        p.handle(&b(&[0, 1, 2]), &mut cache, &catalog);
        p.reset(); // policy state gone, cache still warm
        let out = p.handle(&b(&[3]), &mut cache, &catalog);
        assert!(out.serviced, "resync must re-track warm residents");
        assert_eq!(
            out.evicted_files,
            vec![FileId(0)],
            "ties at tick 0 break by id"
        );
    }

    #[test]
    fn randomized_is_deterministic_per_seed_and_respects_marks() {
        let catalog = unit_catalog(16);
        let mut a = BundleMarkingRandom::new(7);
        let mut b2 = BundleMarkingRandom::new(7);
        let mut ca = CacheState::new(6);
        let mut cb = CacheState::new(6);
        let mut state = 0xABCDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let k = (next() % 3 + 1) as usize;
            let r = Bundle::from_raw((0..k).map(|_| (next() % 16) as u32));
            let oa = a.handle(&r, &mut ca, &catalog);
            let ob = b2.handle(&r, &mut cb, &catalog);
            assert_eq!(oa, ob);
            assert!(ca.check_invariants());
        }
        assert_eq!(a.phases(), b2.phases());
        assert!(a.phases() > 0, "the workload must exercise phase resets");
    }

    /// The indexed orders must replay their scan orders exactly, under
    /// pinning and policy resets: the list order against the full-scan
    /// minimum, and the arena draw against the sort-and-draw stream.
    #[test]
    fn tracks_scan_orders() {
        let catalog = FileCatalog::from_sizes((0..15).map(|i| (i % 4) + 1).collect());
        let mut state = 0x22BBu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut policies: Vec<(Box<dyn CachePolicy>, Box<dyn CachePolicy>)> = vec![
            (
                Box::new(BundleMarking::new()),
                Box::new(Marking::with_order(ScanLeastRecent)),
            ),
            (
                Box::new(BundleMarkingRandom::new(0xF1BC)),
                Box::new(Marking::with_order(ScanDraw::new(0xF1BC))),
            ),
        ];
        let mut caches: Vec<(CacheState, CacheState)> = (0..policies.len())
            .map(|_| (CacheState::new(9), CacheState::new(9)))
            .collect();
        for i in 0..400 {
            let k = (next() % 3 + 1) as usize;
            let r = Bundle::from_raw((0..k).map(|_| (next() % 15) as u32));
            let pin = (next() % 4 == 0).then(|| FileId((next() % 15) as u32));
            for ((fast, slow), (ca, cb)) in policies.iter_mut().zip(&mut caches) {
                let pinned = pin.filter(|&f| ca.contains(f) && ca.pin(f).is_ok());
                if let Some(f) = pinned {
                    cb.pin(f).unwrap();
                }
                let a = fast.handle(&r, ca, &catalog);
                let b = slow.handle(&r, cb, &catalog);
                assert_eq!(a, b, "{} diverged at request {i}", fast.name());
                if let Some(f) = pinned {
                    ca.unpin(f).unwrap();
                    cb.unpin(f).unwrap();
                }
                if i == 199 {
                    fast.reset();
                    slow.reset();
                }
            }
        }
    }
}
