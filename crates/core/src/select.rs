//! `OptCacheSelect` — the greedy heuristic at the heart of `OptFileBundle`
//! (paper §3, Algorithm 1).
//!
//! Given an FBC instance, the algorithm services requests in decreasing
//! order of adjusted relative value `v'(r)`, admitting each request whose
//! files still fit, and finally returns the better of the greedy set and the
//! single most valuable request (which is what makes the
//! `½(1 − e^{−1/d})` bound of Theorem 4.1 hold — see Appendix A).
//!
//! Three variants are provided:
//!
//! * [`GreedyVariant::PaperLiteral`] — Algorithm 1 exactly as printed: one
//!   sort, and each admitted request is charged the *full* size of its
//!   bundle even if some files were already loaded by an earlier selection.
//! * [`GreedyVariant::SortedOnce`] — one sort, but each request is charged
//!   only the *marginal* size of its not-yet-loaded files (the natural
//!   implementation of "load the files in `F(r_i)`").
//! * [`GreedyVariant::SharedCredit`] — the paper's "Note" refinement: after
//!   every selection the adjusted relative values are recomputed with the
//!   sizes of already-selected files set to zero, and the candidate list is
//!   effectively re-sorted. Never worse in solution quality on the
//!   workloads of §5.
//!
//! ## The incremental shared-credit kernel
//!
//! The naive recompute-and-resort loop costs `O(n² · b)` for `n` requests
//! of bundle size `b` — a full rescan of every candidate after every
//! selection. [`greedy_shared_credit`] instead runs an *incremental greedy*:
//! an inverted file→request adjacency built once per call (CSR layout), a
//! dense indexed 4-ary max-heap of `(v'(r), request index)` keys, and
//! localised marginal updates — when a selection loads file `f`, only the
//! ≤ `d(f)` requests containing `f` can change rank, so only they are
//! recomputed and repositioned. Because marginal adjusted sizes only shrink
//! as files load, priorities only *increase*, so a refreshed request merely
//! sifts up; feasibility (`marginal bytes ≤ remaining`) is checked at pop
//! time, and an infeasible pop *parks* the request (removes it) until an
//! adjacency refresh re-inserts it. The position map means the heap holds
//! at most one entry per request — no stale entries, no version stamps, and
//! the end-of-loop drain is `O(n)` pops instead of a churn of invalidated
//! copies. Each selection costs `O(b · d · log n)` instead of `O(n · b)`,
//! and the result is **bit-for-bit identical** to the reference loop: same
//! selections, same order, same tie-breaking by lower index.
//!
//! The naive rescan loop is retained as [`greedy_shared_credit_reference`]
//! — the one oracle the kernel is pinned against by property tests.

use crate::instance::{FbcInstance, Selection};
use serde::{Deserialize, Serialize};

/// Which flavour of the greedy loop to run. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GreedyVariant {
    /// Algorithm 1 verbatim (full-size charging, single sort).
    PaperLiteral,
    /// Single sort, marginal-size charging.
    SortedOnce,
    /// Recompute-and-resort after every selection (the paper's Note).
    #[default]
    SharedCredit,
}

/// Options for [`opt_cache_select`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectOptions {
    /// Greedy flavour.
    pub variant: GreedyVariant,
    /// Whether to apply Algorithm 1's Step 3 (return the single best request
    /// if it beats the greedy set). Disable only for ablation.
    pub max_single_fallback: bool,
}

impl Default for SelectOptions {
    fn default() -> Self {
        Self {
            variant: GreedyVariant::default(),
            max_single_fallback: true,
        }
    }
}

/// Runs `OptCacheSelect` on `inst` and returns the selected requests.
///
/// ```
/// use fbc_core::instance::FbcInstance;
/// use fbc_core::select::{opt_cache_select, SelectOptions};
///
/// // Two requests share file 0; capacity fits both bundles together.
/// let inst = FbcInstance::new(
///     30,
///     vec![10, 10, 10],
///     vec![(vec![0, 1], 2.0), (vec![0, 2], 2.0)],
/// ).unwrap();
/// let sel = opt_cache_select(&inst, &SelectOptions::default());
/// assert_eq!(sel.chosen.len(), 2);
/// assert_eq!(sel.bytes, 30); // union {0,1,2}, file 0 counted once
/// ```
pub fn opt_cache_select(inst: &FbcInstance, opts: &SelectOptions) -> Selection {
    let mut scratch = SelectScratch::default();
    opt_cache_select_with_scratch(inst, opts, &mut scratch)
}

/// [`opt_cache_select`] with caller-owned reusable buffers, for callers
/// that select over many instances in a row. Results are identical to the
/// allocating form.
pub fn opt_cache_select_with_scratch(
    inst: &FbcInstance,
    opts: &SelectOptions,
    scratch: &mut SelectScratch,
) -> Selection {
    let greedy = match opts.variant {
        GreedyVariant::PaperLiteral => greedy_sorted(inst, false),
        GreedyVariant::SortedOnce => greedy_sorted(inst, true),
        GreedyVariant::SharedCredit => {
            greedy_shared_credit_with_scratch(inst, &[], inst.capacity(), scratch)
        }
    };
    if opts.max_single_fallback {
        max_of(greedy, best_single(inst))
    } else {
        greedy
    }
}

/// Step 3 of Algorithm 1: the single feasible request of highest value.
///
/// Request sizes are memoised by [`FbcInstance`] at construction, so the
/// scan is a flat pass over two arrays rather than `n` bundle summations.
pub fn best_single(inst: &FbcInstance) -> Selection {
    let mut best: Option<usize> = None;
    for i in 0..inst.num_requests() {
        if inst.request_size(i) <= inst.capacity() {
            match best {
                Some(b) if inst.requests()[b].value >= inst.requests()[i].value => {}
                _ => best = Some(i),
            }
        }
    }
    match best {
        Some(i) => Selection::from_chosen(inst, vec![i]),
        None => Selection::empty(),
    }
}

fn max_of(a: Selection, b: Selection) -> Selection {
    if b.value > a.value {
        b
    } else {
        a
    }
}

/// Requests ordered by decreasing adjusted relative value, ties broken by
/// lower index for determinism. Keys are computed once and sorted with the
/// values inline (`sort_unstable_by` over `(key, index)` pairs), avoiding
/// the indirect `rv[b]` lookups of a comparator closure. The comparator is
/// a total order (ties fall through to the index), so the unstable sort
/// yields exactly the order the previous stable sort did.
fn order_by_relative_value(inst: &FbcInstance) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = (0..inst.num_requests())
        .map(|i| (inst.relative_value(i), i))
        .collect();
    keyed.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Single-sort greedy. With `marginal = false` this is Algorithm 1 verbatim
/// (each request charged its full bundle size); with `marginal = true`
/// already-loaded files are free.
fn greedy_sorted(inst: &FbcInstance, marginal: bool) -> Selection {
    let order = order_by_relative_value(inst);
    let mut loaded = vec![false; inst.num_files()];
    let mut remaining = inst.capacity();
    let mut chosen = Vec::new();
    for i in order {
        let req = &inst.requests()[i];
        let charge: u64 = if marginal {
            req.files()
                .iter()
                .filter(|&&f| !loaded[f as usize])
                .map(|&f| inst.file_size(f))
                .sum()
        } else {
            inst.request_size(i)
        };
        if charge <= remaining {
            remaining -= charge;
            for &f in req.files() {
                loaded[f as usize] = true;
            }
            chosen.push(i);
        }
    }
    Selection::from_chosen(inst, chosen)
}

/// A fixed-capacity bitset over dense indices (files or requests of one
/// instance). `Vec<bool>` would work; one bit per entry keeps the whole
/// loaded/taken state of a multi-thousand-request decision in a few cache
/// lines.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Clears and resizes to hold `n` bits, all zero.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }
}

/// Per-request hot state of the shared-credit kernels, packed into one
/// 24-byte record so a refresh touches a single cache line per request
/// (marginal, priority and value land together). Residency does not live
/// here: the [`BlockMax`] key itself encodes absence, selected requests
/// are tracked in the callers' `taken` sets, and refresh deduplication
/// stamps live in a dedicated dense epoch array — keeping the *filter*
/// path of the refresh loop (which rejects most adjacency entries) off
/// this comparatively large array.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReqState {
    /// Current marginal size in bytes under the loaded set.
    pub(crate) mb: u64,
    /// Current adjusted relative value — the source of truth for the
    /// argmax key.
    pub(crate) rv: f64,
    /// The request's value `v(r)` (cached here so the refresh does not
    /// gather it from the request table).
    pub(crate) value: f64,
}

/// Converts an `f64` key into a `u64` whose *unsigned* order is exactly
/// `f64::total_cmp`: negative values have all bits flipped, non-negative
/// values have the sign bit set. `0` is reserved as the **absent**
/// sentinel — it sorts below the image of every non-NaN value (only a
/// negative NaN could map at or below `ord_key(-inf)`, and kernel keys are
/// never NaN: values are finite and a non-positive denominator maps to
/// `+inf`).
#[inline]
pub(crate) fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Keys per block of the [`BlockMax`] index: one cache line of ordered
/// `u64` images per block, and for the kernel's instance sizes
/// (`n ~ 10^3..10^4`) a bound array of a few cache lines total.
const BLOCK: usize = 64;

/// A flat argmax index over the dense request indices `0..n`, replacing
/// the d-ary heap the kernel used previously. One `u64` per request holds
/// the [`ord_key`] image of its current `rv` — or `0` when the request is
/// *absent* (never inserted, popped, parked or taken) — plus one maximum
/// per [`BLOCK`]-sized block of requests.
///
/// The structure leans on the kernel's monotonicity invariant (asserted
/// in the refresh loops): a resident request's key only ever increases,
/// so an [`Self::update`] is two stores and a compare — write the key,
/// raise the block maximum — with no sift, no position map and no
/// per-request bookkeeping at all (insert, unpark and key-increase are
/// the same operation; the callers' `taken` sets keep selected requests
/// from re-entering). [`Self::pop`] removes a key and rescans just that
/// key's block, so block maxima are *exact* at all times: a pop is one
/// pass over the block maxima, one pass over the winning block and one
/// repair pass — three short, branch-light scans over contiguous `u64`s
/// (split into a pure-max pass and a find-index pass so they vectorise),
/// never a traversal of scattered heap lines.
///
/// [`Self::pop`] returns the reference loop's exact argmax — maximum
/// `total_cmp` key, ties to the lower index: the block scan takes the
/// *first* block attaining the maximum, the key scan takes the first
/// index attaining the block maximum, and the `u64` image order *is*
/// `total_cmp`. Unlike a heap there is no internal arrangement, so
/// determinism needs no argument about slot order.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockMax {
    /// `ord_key` image of each request's current `rv`; `0` = absent.
    key: Vec<u64>,
    /// Exact per-block maximum of `key`.
    bound: Vec<u64>,
}

impl BlockMax {
    /// Empties the index and sizes it for requests `0..n`, all absent.
    pub(crate) fn reset(&mut self, n: usize) {
        self.key.clear();
        self.key.resize(n, 0);
        self.bound.clear();
        self.bound.resize(n.div_ceil(BLOCK), 0);
    }

    /// (Re-)activates `i` at key `rv`: insertion, unpark and key-increase
    /// are all this one operation. The caller keeps taken requests out.
    #[inline]
    pub(crate) fn update(&mut self, i: u32, rv: f64) {
        debug_assert!(!rv.is_nan(), "kernel keys are never NaN");
        let i = i as usize;
        let k = ord_key(rv);
        debug_assert!(k >= self.key[i], "resident keys only increase");
        self.key[i] = k;
        let b = i / BLOCK;
        if k > self.bound[b] {
            self.bound[b] = k;
        }
    }

    /// Removes and returns the argmax index — maximum key, ties to the
    /// lower index — or `None` when every request is absent.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        // Maximum over the (exact) block maxima; `0` means all absent.
        let mut bk = 0u64;
        for &v in &self.bound {
            if v > bk {
                bk = v;
            }
        }
        if bk == 0 {
            return None;
        }
        // First block attaining it — earlier blocks are strictly below.
        let bb = self.bound.iter().position(|&v| v == bk).expect("present");
        let start = bb * BLOCK;
        let end = (start + BLOCK).min(self.key.len());
        let block = &mut self.key[start..end];
        // First in-block index attaining it: the global argmax.
        let ti = block.iter().position(|&k| k == bk).expect("exact bound");
        block[ti] = 0;
        // Repair eagerly: keys only increase while resident, so this is
        // the only place a block maximum can fall, and rescanning here
        // keeps every bound exact (pops never need a retry loop).
        let mut nb = 0u64;
        for &k in block.iter() {
            if k > nb {
                nb = k;
            }
        }
        self.bound[bb] = nb;
        Some((start + ti) as u32)
    }
}

/// Reusable buffers of the incremental shared-credit kernel. One instance
/// per policy (or per thread) amortises every allocation of the decision
/// path: bitsets, marginal tables and the heap are all `reset`
/// (length-adjusted, not freed) between calls. The file→request adjacency
/// lives on the instance ([`FbcInstance::file_request_adjacency`]), not
/// here — it is selection-invariant.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    /// Files already charged to the selection (local indices).
    loaded: BitSet,
    /// Requests already selected.
    taken: BitSet,
    /// Packed per-request hot state (marginal, priority, value). Entries
    /// are *not* cleared between calls — the kernel's init pass overwrites
    /// every record it will ever read (seeded requests in the seed loop,
    /// the rest in the priority loop), so the length-only reset below
    /// skips an O(n) memset per decision.
    req: Vec<ReqState>,
    /// Epoch stamps deduplicating refreshes within one selection step —
    /// dense and small so the refresh filter stays in close cache.
    touched: Vec<u32>,
    /// The block-bounded argmax index over request indices.
    heap: BlockMax,
    /// Files newly loaded by the current selection step.
    newly_loaded: Vec<u32>,
}

impl SelectScratch {
    /// Prepares the buffers for an instance with `n` requests, `m` files.
    fn reset(&mut self, n: usize, m: usize) {
        self.loaded.reset(m);
        self.taken.reset(n);
        self.req.resize(n, ReqState::default());
        self.touched.clear();
        self.touched.resize(n, 0);
        self.heap.reset(n);
        self.newly_loaded.clear();
    }
}

/// Marginal cost of request `i` under the current `loaded` set, computed
/// exactly as the reference loop does (same file order, same summation
/// order — float addition is not associative, and bit-for-bit equivalence
/// requires recomputing rather than incrementally adjusting the sums).
#[inline]
fn marginal_of(inst: &FbcInstance, i: usize, loaded: &BitSet) -> (u64, f64) {
    let mut marginal_bytes: u64 = 0;
    let mut marginal_adjusted = 0.0;
    for &f in inst.requests()[i].files() {
        if !loaded.get(f as usize) {
            marginal_bytes += inst.file_size(f);
            marginal_adjusted += inst.adjusted_size(f);
        }
    }
    (marginal_bytes, marginal_adjusted)
}

/// [`marginal_of`] over the instance's flat request CSR and fused
/// `(s(f), s'(f))` table — the same terms summed in the same (ascending
/// file) order, hence bit-identical, minus the dependent pointer chase
/// through each request's own `Vec` and the second gather per file.
#[inline]
fn marginal_flat(files: &[u32], table: &[(u64, f64)], loaded: &BitSet) -> (u64, f64) {
    let mut marginal_bytes: u64 = 0;
    let mut marginal_adjusted = 0.0;
    for &f in files {
        if !loaded.get(f as usize) {
            let (size, adjusted) = table[f as usize];
            marginal_bytes += size;
            marginal_adjusted += adjusted;
        }
    }
    (marginal_bytes, marginal_adjusted)
}

/// The reference's ranking key: `v(r)` over the marginal adjusted size,
/// `+∞` when every file is already loaded (or zero-sized) — free to take.
/// Shared with the resident-state decision kernel (`resident.rs`), which
/// must rank candidates with bit-identical keys.
#[inline]
pub(crate) fn rv_of(value: f64, marginal_adjusted: f64) -> f64 {
    if marginal_adjusted <= 0.0 {
        f64::INFINITY
    } else {
        value / marginal_adjusted
    }
}

/// The recompute-and-resort refinement (paper §3 "Note"), generalised to
/// start from a pre-selected seed (used by partial enumeration): `seed`
/// requests are taken as already chosen, their files pre-loaded, and
/// `capacity` is the space still available for *additional* files.
///
/// At every step the request maximising
/// `v(r) / Σ_{f ∈ F(r), f not loaded} s'(f)` among those whose marginal
/// size fits is selected; requests whose files are all loaded are free and
/// taken immediately. This is the incremental kernel described in the
/// module docs — bit-for-bit equivalent to
/// [`greedy_shared_credit_reference`] at `O(b · d · log n)` per selection
/// instead of `O(n · b)`.
pub fn greedy_shared_credit(inst: &FbcInstance, seed: &[usize], capacity: u64) -> Selection {
    let mut scratch = SelectScratch::default();
    greedy_shared_credit_with_scratch(inst, seed, capacity, &mut scratch)
}

/// [`greedy_shared_credit`] with caller-owned reusable buffers.
pub fn greedy_shared_credit_with_scratch(
    inst: &FbcInstance,
    seed: &[usize],
    capacity: u64,
    scratch: &mut SelectScratch,
) -> Selection {
    let n = inst.num_requests();
    let m = inst.num_files();
    scratch.reset(n, m);
    let SelectScratch {
        loaded,
        taken,
        req,
        touched,
        heap,
        newly_loaded,
    } = scratch;

    let mut chosen: Vec<usize> = seed.to_vec();
    for &i in seed {
        taken.set(i);
        req[i] = ReqState::default();
        for &f in inst.requests()[i].files() {
            loaded.set(f as usize);
        }
    }
    let mut remaining = capacity;

    // Inverted file→request adjacency, CSR layout — memoised on the
    // instance (a pure function of the immutable request structure), so
    // repeated selections over one instance skip the rebuild entirely.
    // Ditto the flat request→file CSR and the fused per-file size table,
    // which keep the hot refresh loop on contiguous memory.
    let (adj_offsets, adj_requests) = inst.file_request_adjacency();
    let (req_offsets, req_files) = inst.request_file_csr();
    let size_table = inst.file_size_adjusted_table();

    // Initial priorities for every unselected request. With no seed the
    // loaded set is empty, so each request's marginal is its full bundle —
    // both memoised by `FbcInstance` in the same ascending-local summation
    // order `marginal_of` uses, hence bit-identical and free of the O(n·b)
    // scan.
    // `min_positive_mb` is a monotone lower bound on the marginal size of
    // every unselected request whose marginal is positive: it is folded in
    // whenever a positive marginal is (re)computed and never raised, so it
    // can only under-estimate. `free_requests` exactly counts unselected
    // requests with a zero marginal (always heap-resident: a zero marginal
    // is always feasible, so they are never parked). Together they justify
    // the early exit in the main loop.
    let mut min_positive_mb: u64 = u64::MAX;
    let mut free_requests: usize = 0;
    if seed.is_empty() {
        for (i, slot) in req.iter_mut().enumerate().take(n) {
            let mb = inst.request_size(i);
            if mb == 0 {
                free_requests += 1;
            } else if mb < min_positive_mb {
                min_positive_mb = mb;
            }
            let value = inst.requests()[i].value;
            let rv = rv_of(value, inst.request_adjusted_size(i));
            *slot = ReqState { mb, rv, value };
            heap.update(i as u32, rv);
        }
    } else {
        for (i, slot) in req.iter_mut().enumerate().take(n) {
            if taken.get(i) {
                continue;
            }
            let (mb, ma) = marginal_of(inst, i, loaded);
            if mb == 0 {
                free_requests += 1;
            } else if mb < min_positive_mb {
                min_positive_mb = mb;
            }
            let value = inst.requests()[i].value;
            let rv = rv_of(value, ma);
            *slot = ReqState { mb, rv, value };
            heap.update(i as u32, rv);
        }
    }

    // Greedy main loop. Invariant: every unselected request is either in
    // the argmax index at its exact current rv, or was popped while infeasible
    // (parked) — and since `remaining` only shrinks and its marginal only
    // changes when one of its files loads (which re-inserts it below), a
    // parked request stays correctly excluded until then. A pop is
    // therefore always the reference loop's argmax.
    let mut epoch: u32 = 0;
    loop {
        // Early exit that skips the terminal drain: when no unselected
        // request is free and even the smallest positive marginal ever seen
        // exceeds `remaining`, nothing resident is feasible now — and since
        // marginals only change when a take loads files, none ever becomes
        // feasible. The reference loop would park every remaining entry one
        // by one; the selection is already complete. In practice this fires
        // just after the last take and cuts ~80% of all pops.
        if free_requests == 0 && remaining < min_positive_mb {
            break;
        }
        let Some(top) = heap.pop() else {
            break;
        };
        let i = top as usize;
        debug_assert!(!taken.get(i), "taken requests leave the index");
        if req[i].mb > remaining {
            continue; // parked: re-enters via adjacency refresh if ever viable
        }

        // Feasible at the top of the heap: the exact argmax.
        if req[i].mb == 0 {
            free_requests -= 1;
        }
        taken.set(i);
        chosen.push(i);
        newly_loaded.clear();
        for &f in &req_files[req_offsets[i] as usize..req_offsets[i + 1] as usize] {
            if !loaded.get(f as usize) {
                remaining -= size_table[f as usize].0;
                loaded.set(f as usize);
                newly_loaded.push(f);
            }
        }

        // Refresh exactly the requests whose marginal changed: those
        // adjacent to a freshly loaded file. All fresh loads are already in
        // `loaded`, so recomputed marginals are independent of refresh
        // order. Priorities only increase (terms leave the adjusted sum),
        // so a resident request sifts up in place; a parked one re-enters.
        epoch += 1;
        for &fl in newly_loaded.iter() {
            let f = fl as usize;
            let (start, end) = (adj_offsets[f] as usize, adj_offsets[f + 1] as usize);
            for &jr in &adj_requests[start..end] {
                let j = jr as usize;
                // Filter on the dense stamp array and the taken bitset —
                // both stay in close cache — so rejected entries (most of
                // them) never touch the record array.
                if touched[j] == epoch || taken.get(j) {
                    continue;
                }
                touched[j] = epoch;
                let files = &req_files[req_offsets[j] as usize..req_offsets[j + 1] as usize];
                let (mb, ma) = marginal_flat(files, size_table, loaded);
                if mb == 0 {
                    if req[j].mb != 0 {
                        free_requests += 1;
                    }
                } else if mb < min_positive_mb {
                    min_positive_mb = mb;
                }
                req[j].mb = mb;
                let rv = rv_of(req[j].value, ma);
                debug_assert!(
                    rv.total_cmp(&req[j].rv) != std::cmp::Ordering::Less,
                    "rv must be monotone under file loads"
                );
                req[j].rv = rv;
                heap.update(j as u32, rv);
            }
        }
    }
    Selection::from_chosen(inst, chosen)
}

/// The pre-incremental recompute-and-resort loop, kept verbatim as the
/// behavioural reference for the kernel: a full `O(n · b)` rescan of every
/// candidate per selection. Compiled for tests and, under the
/// `reference-kernels` feature, for benchmarks (`perf_decision` measures
/// the kernel's speedup against it). Differential property tests assert
/// the two agree bit for bit on `chosen`, `files`, `bytes` and `value`.
#[cfg(any(test, feature = "reference-kernels"))]
pub fn greedy_shared_credit_reference(
    inst: &FbcInstance,
    seed: &[usize],
    capacity: u64,
) -> Selection {
    let n = inst.num_requests();
    let mut loaded = vec![false; inst.num_files()];
    let mut taken = vec![false; n];
    let mut chosen: Vec<usize> = seed.to_vec();
    for &i in seed {
        taken[i] = true;
        for &f in inst.requests()[i].files() {
            loaded[f as usize] = true;
        }
    }
    let mut remaining = capacity;

    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, req) in inst.requests().iter().enumerate() {
            if taken[i] {
                continue;
            }
            let mut marginal_bytes: u64 = 0;
            let mut marginal_adjusted = 0.0;
            for &f in req.files() {
                if !loaded[f as usize] {
                    marginal_bytes += inst.file_size(f);
                    marginal_adjusted += inst.adjusted_size(f);
                }
            }
            if marginal_bytes > remaining {
                continue;
            }
            let rv = if marginal_adjusted <= 0.0 {
                // All files already loaded (or zero-sized): free to take.
                f64::INFINITY
            } else {
                req.value / marginal_adjusted
            };
            let better = match best {
                None => true,
                Some((bi, brv)) => rv > brv || (rv == brv && i < bi),
            };
            if better {
                best = Some((i, rv));
            }
        }
        match best {
            None => break,
            Some((i, _)) => {
                taken[i] = true;
                for &f in inst.requests()[i].files() {
                    if !loaded[f as usize] {
                        remaining -= inst.file_size(f);
                        loaded[f as usize] = true;
                    }
                }
                chosen.push(i);
            }
        }
    }
    Selection::from_chosen(inst, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn opts(variant: GreedyVariant) -> SelectOptions {
        SelectOptions {
            variant,
            max_single_fallback: true,
        }
    }

    /// The paper's worked example (Fig. 3): unit-size files, cache of 3.
    /// Popularity-based caching keeps {f5,f6,f7} (1 request-hit); the
    /// bundle-aware optimum keeps {f1,f3,f5} (3 request-hits).
    fn paper_example() -> FbcInstance {
        // Local file indices 0..=6 map to f1..=f7.
        // Local file indices 0..=6 map to f1..=f7; the request sets are the
        // assignment consistent with the paper's Tables 1 and 2.
        FbcInstance::new(
            3,
            vec![1; 7],
            vec![
                (vec![0, 2, 4], 1.0), // r1 = {f1,f3,f5}
                (vec![1, 5, 6], 1.0), // r2 = {f2,f6,f7}
                (vec![0, 4], 1.0),    // r3 = {f1,f5}
                (vec![3, 5, 6], 1.0), // r4 = {f4,f6,f7}
                (vec![2, 4], 1.0),    // r5 = {f3,f5}
                (vec![4, 5, 6], 1.0), // r6 = {f5,f6,f7}
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_selects_three_requests() {
        let inst = paper_example();
        // Marginal-charging variants find the optimum the paper describes:
        // requests r1, r3, r5 supported by cache content {f1,f3,f5}.
        for variant in [GreedyVariant::SortedOnce, GreedyVariant::SharedCredit] {
            let sel = opt_cache_select(&inst, &opts(variant));
            assert_eq!(sel.value, 3.0, "variant {variant:?}");
            assert_eq!(sel.files, vec![0, 2, 4], "variant {variant:?}");
            assert_eq!(sel.bytes, 3);
        }
        // Algorithm 1 verbatim charges each admitted request its *full*
        // bundle size, so after admitting r1 (2 of 3 units) nothing else
        // "fits" — it returns a single request. This is exactly why the
        // paper's Note recommends recomputation; the ablation bench
        // (`ablation_recompute`) quantifies the gap.
        let literal = opt_cache_select(&inst, &opts(GreedyVariant::PaperLiteral));
        assert_eq!(literal.value, 1.0);
    }

    #[test]
    fn shared_credit_exploits_overlap_where_literal_cannot() {
        // capacity 6, files of size 2 each; r0={0,1} v=10, r1={1,2} v=9.
        let inst = FbcInstance::new(
            6,
            vec![2, 2, 2],
            vec![(vec![0, 1], 10.0), (vec![1, 2], 9.0)],
        )
        .unwrap();
        let literal = opt_cache_select(&inst, &opts(GreedyVariant::PaperLiteral));
        let credit = opt_cache_select(&inst, &opts(GreedyVariant::SharedCredit));
        // Literal: r0 charged 4, then r1 charged its *full* 4 bytes > 2
        // remaining even though the shared file f1 is already loaded.
        assert_eq!(literal.value, 10.0);
        // Marginal charging sees r1's true cost (2 bytes for f2) and fits
        // both requests in the union {f0,f1,f2} of 6 bytes.
        assert_eq!(credit.value, 19.0);
        assert_eq!(credit.bytes, 6);
    }

    #[test]
    fn max_single_fallback_rescues_big_valuable_request() {
        // Many tiny low-value requests vs one huge high-value one.
        // v'(tiny) = 1/1 = 1.0 each; v'(big) = 50/100 = 0.5, so the greedy
        // fills the cache with tiny requests first; capacity 100 admits the
        // tiny ones (total value 3) and then cannot fit the big one.
        let inst = FbcInstance::new(
            100,
            vec![1, 1, 1, 100],
            vec![
                (vec![0], 1.0),
                (vec![1], 1.0),
                (vec![2], 1.0),
                (vec![3], 50.0),
            ],
        )
        .unwrap();
        let with = opt_cache_select(&inst, &opts(GreedyVariant::SharedCredit));
        assert_eq!(with.value, 50.0);
        assert_eq!(with.chosen, vec![3]);
        let without = opt_cache_select(
            &inst,
            &SelectOptions {
                variant: GreedyVariant::SharedCredit,
                max_single_fallback: false,
            },
        );
        assert_eq!(without.value, 3.0);
    }

    #[test]
    fn infeasible_requests_are_never_selected() {
        let inst =
            FbcInstance::new(5, vec![10, 1], vec![(vec![0], 100.0), (vec![1], 1.0)]).unwrap();
        for variant in [
            GreedyVariant::PaperLiteral,
            GreedyVariant::SortedOnce,
            GreedyVariant::SharedCredit,
        ] {
            let sel = opt_cache_select(&inst, &opts(variant));
            assert_eq!(sel.chosen, vec![1], "variant {variant:?}");
            assert!(sel.bytes <= inst.capacity());
        }
    }

    #[test]
    fn empty_instance_yields_empty_selection() {
        let inst = FbcInstance::new(10, vec![], vec![]).unwrap();
        let sel = opt_cache_select(&inst, &SelectOptions::default());
        assert_eq!(sel, Selection::empty());
    }

    #[test]
    fn zero_capacity_selects_only_free_requests() {
        let inst = FbcInstance::new(0, vec![5, 0], vec![(vec![0], 9.0), (vec![1], 1.0)]).unwrap();
        let sel = opt_cache_select(&inst, &SelectOptions::default());
        assert_eq!(sel.chosen, vec![1]);
        assert_eq!(sel.bytes, 0);
    }

    #[test]
    fn selection_is_always_feasible() {
        // Deterministic pseudo-random smoke check across variants.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let m = (next() % 10 + 2) as usize;
            let sizes: Vec<u64> = (0..m).map(|_| next() % 50 + 1).collect();
            let n = (next() % 12 + 1) as usize;
            let reqs: Vec<(Vec<u32>, f64)> = (0..n)
                .map(|_| {
                    let k = (next() % 4 + 1) as usize;
                    let files: Vec<u32> = (0..k).map(|_| (next() % m as u64) as u32).collect();
                    (files, (next() % 100) as f64)
                })
                .collect();
            let cap = next() % 120;
            let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
            for variant in [
                GreedyVariant::PaperLiteral,
                GreedyVariant::SortedOnce,
                GreedyVariant::SharedCredit,
            ] {
                let sel = opt_cache_select(&inst, &opts(variant));
                assert!(sel.bytes <= cap, "variant {variant:?} overflowed");
                assert!(inst.is_feasible(&sel.chosen));
            }
        }
    }

    #[test]
    fn seeded_shared_credit_respects_seed() {
        let inst = FbcInstance::new(
            10,
            vec![5, 5, 5],
            vec![(vec![0], 1.0), (vec![1], 100.0), (vec![2], 50.0)],
        )
        .unwrap();
        // Seed with request 0 (files {0}); 5 bytes remain for others.
        let sel = greedy_shared_credit(&inst, &[0], 5);
        assert!(sel.chosen.contains(&0));
        assert!(sel.chosen.contains(&1)); // highest value fits the remainder
        assert_eq!(sel.chosen.len(), 2);
    }

    /// Kernel ≡ reference on a hand-picked instance exercising parked
    /// (infeasible-now, feasible-later) requests: r2 does not fit until r0
    /// loads the shared file 0, shrinking r2's marginal below `remaining`.
    #[test]
    fn kernel_unparks_requests_when_shared_files_load() {
        let inst = FbcInstance::new(
            10,
            vec![6, 4, 5],
            vec![
                (vec![0, 1], 10.0), // loads {0,1}, remaining 0
                (vec![0, 2], 9.0),  // infeasible until f0 loads — then still 5 > 0
                (vec![0], 1.0),     // free once f0 is loaded
            ],
        )
        .unwrap();
        let a = greedy_shared_credit(&inst, &[], inst.capacity());
        let b = greedy_shared_credit_reference(&inst, &[], inst.capacity());
        assert_eq!(a, b);
        assert_eq!(a.chosen, vec![0, 2]); // r2 taken free after r0
    }

    /// Exhaustive differential sweep with a deterministic generator,
    /// covering seeds (partial enumeration's entry point) as well.
    #[test]
    fn kernel_matches_reference_on_random_instances_with_seeds() {
        let mut state = 0xC0FFEE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = SelectScratch::default();
        for round in 0..200 {
            let m = (next() % 12 + 1) as usize;
            let sizes: Vec<u64> = (0..m).map(|_| next() % 30).collect();
            let n = (next() % 15 + 1) as usize;
            let reqs: Vec<(Vec<u32>, f64)> = (0..n)
                .map(|_| {
                    let k = (next() % 5 + 1) as usize;
                    let files: Vec<u32> = (0..k).map(|_| (next() % m as u64) as u32).collect();
                    (files, (next() % 40) as f64)
                })
                .collect();
            let cap = next() % 200;
            let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
            let seed: Vec<usize> = if next() % 3 == 0 {
                vec![(next() % n as u64) as usize]
            } else {
                vec![]
            };
            // Seeded calls mirror partial enumeration: capacity is what's
            // left after the seed's own files.
            let seed_bytes = inst.union_size(&seed);
            if seed_bytes > cap {
                continue;
            }
            let capacity = cap - seed_bytes;
            let fast = greedy_shared_credit_with_scratch(&inst, &seed, capacity, &mut scratch);
            let slow = greedy_shared_credit_reference(&inst, &seed, capacity);
            assert_eq!(fast.chosen, slow.chosen, "round {round}");
            assert_eq!(fast.files, slow.files, "round {round}");
            assert_eq!(fast.bytes, slow.bytes, "round {round}");
            assert_eq!(
                fast.value.to_bits(),
                slow.value.to_bits(),
                "round {round}: value not bit-identical"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Differential property test: the incremental kernel is
        /// bit-for-bit equivalent to the reference loop on arbitrary
        /// instances — same chosen order, file union, bytes, and value.
        #[test]
        fn prop_shared_credit_kernel_equals_reference(
            sizes in proptest::collection::vec(0u64..60, 1..14),
            raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..64, 1..6), 0u64..50),
                1..20,
            ),
            cap in 0u64..300,
        ) {
            let m = sizes.len();
            let reqs: Vec<(Vec<u32>, f64)> = raw
                .into_iter()
                .map(|(files, v)| {
                    (files.into_iter().map(|f| (f % m) as u32).collect(), v as f64)
                })
                .collect();
            let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
            let fast = greedy_shared_credit(&inst, &[], inst.capacity());
            let slow = greedy_shared_credit_reference(&inst, &[], inst.capacity());
            prop_assert_eq!(&fast.chosen, &slow.chosen);
            prop_assert_eq!(&fast.files, &slow.files);
            prop_assert_eq!(fast.bytes, slow.bytes);
            prop_assert_eq!(fast.value.to_bits(), slow.value.to_bits());
        }

        /// All three variants through the public entry point agree with a
        /// reference-kernel composition of the same options, and scratch
        /// reuse across calls never leaks state between decisions.
        #[test]
        fn prop_opt_cache_select_with_scratch_is_pure(
            sizes in proptest::collection::vec(1u64..40, 1..10),
            raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..32, 1..5), 0u64..30),
                1..12,
            ),
            cap in 0u64..150,
        ) {
            let m = sizes.len();
            let reqs: Vec<(Vec<u32>, f64)> = raw
                .into_iter()
                .map(|(files, v)| {
                    (files.into_iter().map(|f| (f % m) as u32).collect(), v as f64)
                })
                .collect();
            let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
            let mut scratch = SelectScratch::default();
            for variant in [
                GreedyVariant::PaperLiteral,
                GreedyVariant::SortedOnce,
                GreedyVariant::SharedCredit,
            ] {
                let o = opts(variant);
                let fresh = opt_cache_select(&inst, &o);
                // Run twice through the same scratch: both must equal the
                // fresh-allocation result exactly.
                let first = opt_cache_select_with_scratch(&inst, &o, &mut scratch);
                let second = opt_cache_select_with_scratch(&inst, &o, &mut scratch);
                prop_assert_eq!(&first, &fresh);
                prop_assert_eq!(&second, &fresh);
                if variant == GreedyVariant::SharedCredit {
                    let reference = {
                        let g = greedy_shared_credit_reference(&inst, &[], inst.capacity());
                        if o.max_single_fallback { max_of(g, best_single(&inst)) } else { g }
                    };
                    prop_assert_eq!(&first, &reference);
                }
            }
        }
    }
}
