//! Persistent, incrementally maintained decision state for
//! [`OptFileBundle`](crate::optfilebundle::OptFileBundle).
//!
//! A replacement decision needs more than the request history `L(R)`
//! holds: which history entries the cache supports, each candidate's files
//! in the decision's ranking order with their adjusted-size sums, and the
//! kernel's working tables. [`ResidentInstance`] keeps that state alive
//! across decisions, indexed by the dense entry and file ids of the
//! [`RequestHistory`], and reads everything else — entries, values,
//! degrees, recency — from the history itself. Three O(Δ) hooks keep it
//! current:
//!
//! * [`on_record`](ResidentInstance::on_record) — after the history records
//!   a bundle: a first occurrence appends the entry's residency counter and
//!   adjacency; every occurrence makes the entry the *owner* of its files
//!   and dirties the cached file orders of the entries sharing them;
//! * [`on_insert`](ResidentInstance::on_insert) /
//!   [`on_evict`](ResidentInstance::on_evict) — flip a file's residency flag
//!   and walk its file→entry adjacency to maintain per-entry resident
//!   counters, pushing/removing entries from the *fully supported* set as
//!   their counter crosses the bundle size.
//!
//! A decision then *assembles* its candidate list without a hash probe per
//! candidate: `Full`/`Window` walk the history's recency list (already
//! recency-sorted), and `CacheSupported` takes the maintained supported set
//! plus the entries completed by the incoming bundle's files.
//!
//! Every greedy variant then runs *in place* over this state
//! ([`prepare_decision`](ResidentInstance::prepare_decision) → one of two
//! lanes → [`decision_outputs`](ResidentInstance::decision_outputs)); no
//! FBC instance is built. Shared credit re-ranks after every selection
//! ([`select_fast`](ResidentInstance::select_fast)); PaperLiteral and
//! SortedOnce sort once and make one admission pass
//! ([`select_sorted`](ResidentInstance::select_sorted)). Every float sum is
//! taken over each candidate's files in the rebuild path's first-touch
//! interning order, so the selection is **bit-for-bit identical** to the
//! instance path's. `Full`/`Window` read that order from a lazily cached
//! owner key; `CacheSupported` stamps it per decision, and under marginal
//! charging takes every candidate outright when their union fits.
//! The rebuild path itself survives verbatim behind the `reference-kernels`
//! feature and is pinned equal by differential proptests
//! (`crates/core/tests/resident_equivalence.rs`) and end-to-end
//! byte-equality sweeps (`tests/resident_equivalence.rs`).

use crate::bundle::Bundle;
use crate::cache::CacheState;
use crate::catalog::FileCatalog;
use crate::history::RequestHistory;
use crate::optfilebundle::HistoryMode;
use crate::select::{rv_of, GreedyVariant};
use crate::types::{Bytes, FileId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no entry" in the owner and position maps.
const NONE: u32 = u32::MAX;

/// Per-candidate hot state of the in-place kernels, packed into one
/// 24-byte record so a refresh touches a single cache line per candidate
/// (marginal, priority and value land together).
#[derive(Debug, Clone, Copy, Default)]
struct ReqState {
    /// Current marginal size in bytes under the loaded set.
    mb: u64,
    /// Current adjusted relative value — the source of truth for the
    /// argmax key.
    rv: f64,
    /// The candidate's value `v(r)` (cached here so the refresh does not
    /// gather it from the history).
    value: f64,
}

/// Converts an `f64` key into a `u64` whose *unsigned* order is exactly
/// `f64::total_cmp`: negative values have all bits flipped, non-negative
/// values have the sign bit set. `0` is reserved as the **absent**
/// sentinel — it sorts below the image of every non-NaN value (only a
/// negative NaN could map at or below `ord_key(-inf)`, and kernel keys are
/// never NaN: values are finite and a non-positive denominator maps to
/// `+inf`).
#[inline]
fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The persistent decision state living inside `OptFileBundle`.
///
/// Indexed by the history's file ids (`fid`) and entry ids (`eid`), which
/// stay stable for the lifetime of the history; all per-decision work is
/// array reads over those ids. See the module docs for the maintenance
/// protocol.
#[derive(Debug, Clone, Default)]
pub struct ResidentInstance {
    // ---- files (indexed by fid) ----
    /// Whether the file is currently resident in the cache.
    resident: Vec<bool>,
    /// File → entries using it (the transpose of the history's entry files).
    adj: Vec<Vec<u32>>,
    /// fid → the most recently *recorded* entry containing it, or [`NONE`]
    /// for files never part of a recorded bundle (interned by `on_insert`).
    /// Because Full/Window candidate lists are recency prefixes, the owner
    /// of any candidate's file is itself a candidate, and the rebuild
    /// path's first-touch local index of a file is exactly the lexicographic
    /// key `(recency rank of owner, position in owner's bundle)` — the sort
    /// key of the incrementally maintained per-entry file orders.
    owner: Vec<u32>,
    /// fid → its index within the owner's canonical bundle order.
    owner_pos: Vec<u32>,
    /// fid → epoch mark "loaded by the current decision's greedy loop".
    loaded_stamp: Vec<u32>,

    // ---- entries (indexed by eid) ----
    /// Number of the entry's files currently resident.
    resident_count: Vec<u32>,
    /// Entries whose files are all resident (`resident_count == len`), in
    /// arbitrary order, with a position map for O(1) removal.
    supported: Vec<u32>,
    supported_pos: Vec<u32>,
    /// Payload parallel to the history's entry files (same spans): the
    /// entry's fids sorted in ascending *decision-local* order (the owner
    /// key above). Maintained lazily: `on_record` marks affected entries
    /// dirty, and the next decision that uses a dirty candidate re-sorts
    /// its slice.
    entry_sorted: Vec<u32>,
    /// Cached `Σ s'(f)` over `entry_sorted` order with true catalog sizes
    /// (no incoming overlay) — the candidate's full adjusted size. Valid
    /// only while `order_dirty` is clear; assumes catalog sizes are stable
    /// across a run (they are: the catalog is immutable once built).
    entry_adjusted: Vec<f64>,
    /// Cached `Σ s(f)` companion of `entry_adjusted`.
    entry_bytes: Vec<u64>,
    /// Whether `entry_sorted`/`entry_adjusted`/`entry_bytes` must be
    /// rebuilt before the entry's next use as a candidate.
    order_dirty: Vec<bool>,
    /// eid → epoch at which `rank_val` was stamped (eid is a candidate).
    rank_stamp: Vec<u32>,
    /// eid → its rank (index) in this decision's candidate list.
    rank_val: Vec<u32>,
    /// eid → epoch mark "contains an incoming file, cached sums do not
    /// apply this decision" (the size-0 overlay invalidation).
    eff_stamp: Vec<u32>,

    // ---- per-decision epoch-stamped scratch ----
    /// Decision epoch; a stamp equal to `epoch` means "set this decision".
    epoch: u32,
    /// fid → epoch at which `file_local` was assigned.
    file_stamp: Vec<u32>,
    /// fid → local index in the decision's dense instance: the rank of the
    /// file's first touch, walking the candidates most recent first and
    /// each bundle in canonical order. Stamped by `prepare_decision` when
    /// the candidates are not a recency prefix.
    file_local: Vec<u32>,
    /// fid → epoch mark "belongs to the incoming bundle" (the size-0
    /// overlay: incoming files are pre-reserved and cost nothing).
    incoming_stamp: Vec<u32>,
    /// eid → epoch at which `bonus` was reset.
    bonus_stamp: Vec<u32>,
    /// eid → support gained from the incoming bundle's non-resident files.
    bonus: Vec<u32>,
    /// Entries touched by the bonus pass this epoch.
    touched: Vec<u32>,
    /// The assembled candidate list (eids, most recent first).
    candidates: Vec<u32>,
    /// Whether `candidates` is a prefix of the recency list (`Full` /
    /// `Window`). Only then does the cached owner key give the decision's
    /// file order; otherwise `prepare_decision` stamps `file_local`.
    prefix: bool,
    /// Set by `prepare_decision` when the union of all candidates fits the
    /// capacity under marginal charging: the greedy would take every
    /// candidate, so the lanes skip their loops and `union_fids` already
    /// holds the union.
    take_all: bool,
    /// Fids of the incoming bundle's known files (stamped by
    /// [`assemble_candidates`](Self::assemble_candidates)).
    incoming_fids: Vec<u32>,

    // ---- in-place kernel scratch (indexed by candidate rank) ----
    /// Packed per-candidate kernel state — marginal, priority and value,
    /// indexed by candidate rank.
    kr_req: Vec<ReqState>,
    /// Dense total-order images (`ord_key`) of the candidate priorities —
    /// 0 marks taken. Prefix (Full/Window) decisions are capacity-starved
    /// (most candidates never fit), so instead of a heap that pops every
    /// infeasible candidate individually, each greedy round runs one
    /// branchless feasibility-masked argmax scan over this array and
    /// `kr_mb`. Rounds ≈ selections (a couple dozen), not ≈ candidates.
    kr_key: Vec<u64>,
    /// Lazy max-heap of `(key, Reverse(rank))` for CacheSupported
    /// decisions, which take nearly every candidate (rounds ≈ candidates,
    /// so a per-round scan would be quadratic). A refresh pushes a fresh
    /// entry and leaves the superseded one in place.
    kr_heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// Dense copy of `kr_req[r].mb` so the feasibility mask in the
    /// argmax scan reads a flat `u64` lane instead of striding `ReqState`.
    kr_mb: Vec<u64>,
    /// Dense epoch stamps deduplicating refreshes within one greedy step.
    kr_touched: Vec<u32>,
    /// Candidates already selected this decision (rank-indexed).
    kr_taken: Vec<bool>,
    /// The sorted lane's admission order: ranks by `(key desc, rank asc)`.
    kr_order: Vec<u32>,
    /// Union of the selected candidates' fids, in load order.
    union_fids: Vec<u32>,
    /// Fids loaded by the current selection step.
    newly_loaded: Vec<u32>,
}

impl ResidentInstance {
    /// An empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate list assembled by the last
    /// [`assemble_candidates`](Self::assemble_candidates) call (eids, most
    /// recent first).
    #[inline]
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Grows the per-file arrays to cover `files` file ids.
    fn grow_files(&mut self, files: usize) {
        if files <= self.resident.len() {
            return;
        }
        self.resident.resize(files, false);
        self.adj.resize_with(files, Vec::new);
        self.owner.resize(files, NONE);
        self.owner_pos.resize(files, 0);
        self.loaded_stamp.resize(files, 0);
        self.file_stamp.resize(files, 0);
        self.file_local.resize(files, 0);
        self.incoming_stamp.resize(files, 0);
    }

    /// Syncs one record: call with the id [`RequestHistory::record`]
    /// returned. O(b) adjacency appends for a first occurrence, plus the
    /// owner update of every occurrence.
    pub fn on_record(&mut self, history: &RequestHistory, eid: u32) {
        if eid as usize == self.resident_count.len() {
            self.add_entry(history, eid);
        }
        self.take_ownership(history, eid);
    }

    /// Appends the per-entry state of the history's next entry.
    fn add_entry(&mut self, history: &RequestHistory, eid: u32) {
        self.grow_files(history.file_ids().len());
        let files = &history.entry_files()[history.span(eid as usize)];
        let mut rcount = 0u32;
        for &fid in files {
            self.adj[fid as usize].push(eid);
            rcount += u32::from(self.resident[fid as usize]);
        }
        self.entry_sorted.extend_from_slice(files);
        self.resident_count.push(rcount);
        self.bonus_stamp.push(0);
        self.bonus.push(0);
        self.entry_adjusted.push(0.0);
        self.entry_bytes.push(0);
        self.order_dirty.push(true);
        self.rank_stamp.push(0);
        self.rank_val.push(0);
        self.eff_stamp.push(0);
        if rcount as usize == files.len() {
            self.supported_pos.push(self.supported.len() as u32);
            self.supported.push(eid);
        } else {
            self.supported_pos.push(NONE);
        }
    }

    /// Makes `eid`, just recorded, the owner of each of its files. Any
    /// entry sharing a file with it may see an owner change, an owner rank
    /// move, or (on a first record) a degree change — all three invalidate
    /// the cached per-entry order and adjusted sums, so this dirties the
    /// whole file-sharing neighbourhood. Entries sharing no file are
    /// unaffected: their owners keep their relative recency order, which
    /// is all the cached key encodes.
    fn take_ownership(&mut self, history: &RequestHistory, eid: u32) {
        let span = history.span(eid as usize);
        let start = span.start;
        for k in span {
            let fid = history.entry_files()[k] as usize;
            self.owner[fid] = eid;
            self.owner_pos[fid] = (k - start) as u32;
            for &e in &self.adj[fid] {
                self.order_dirty[e as usize] = true;
            }
        }
    }

    /// Marks `file` resident, updating the resident counters (and the
    /// supported set) of the entries using it. O(d(f)). Interns `file` in
    /// the history, so a later record of a bundle naming it counts it
    /// resident.
    pub fn on_insert(&mut self, history: &mut RequestHistory, file: FileId) {
        let fid = history.intern_file(file) as usize;
        self.grow_files(history.file_ids().len());
        if self.resident[fid] {
            return;
        }
        self.resident[fid] = true;
        for &eid in &self.adj[fid] {
            let e = eid as usize;
            self.resident_count[e] += 1;
            if self.resident_count[e] as usize == history.span(e).len() {
                self.supported_pos[e] = self.supported.len() as u32;
                self.supported.push(eid);
            }
        }
    }

    /// Marks `file` evicted, the inverse of [`on_insert`](Self::on_insert).
    pub fn on_evict(&mut self, history: &RequestHistory, file: FileId) {
        let Some(fid) = history.file_id(file) else {
            return;
        };
        let fid = fid as usize;
        if !self.resident[fid] {
            return;
        }
        self.resident[fid] = false;
        for &eid in &self.adj[fid] {
            let e = eid as usize;
            if self.resident_count[e] as usize == history.span(e).len() {
                let pos = self.supported_pos[e] as usize;
                self.supported.swap_remove(pos);
                if pos < self.supported.len() {
                    self.supported_pos[self.supported[pos] as usize] = pos as u32;
                }
                self.supported_pos[e] = NONE;
            }
            self.resident_count[e] -= 1;
        }
    }

    /// Builds the state for a warm-start history. Owners are taken in
    /// ascending `last_seen` order, as the records would have left them.
    /// The cache is empty at warm start, so residency starts false.
    pub fn populate(&mut self, history: &RequestHistory) {
        debug_assert!(
            self.resident_count.is_empty(),
            "populate() expects a fresh state"
        );
        for eid in 0..history.len() as u32 {
            self.add_entry(history, eid);
        }
        let recency: Vec<u32> = history.recency().collect();
        for &eid in recency.iter().rev() {
            self.take_ownership(history, eid);
        }
    }

    /// Starts a new decision epoch, invalidating all stamps in O(1).
    fn begin_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Stamp wrap (once per 2^32 decisions): reset all stamps so no
            // stale stamp can collide with the restarted epoch counter.
            self.file_stamp.iter_mut().for_each(|s| *s = 0);
            self.incoming_stamp.iter_mut().for_each(|s| *s = 0);
            self.bonus_stamp.iter_mut().for_each(|s| *s = 0);
            self.loaded_stamp.iter_mut().for_each(|s| *s = 0);
            self.rank_stamp.iter_mut().for_each(|s| *s = 0);
            self.eff_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Assembles the decision's candidate list (into
    /// [`candidates`](Self::candidates)) for the given truncation mode —
    /// the "apply the pending delta" step of the decision path.
    ///
    /// Reproduces the rebuild path's candidate *set and order* exactly:
    /// most recent first, capped by the window size.
    pub fn assemble_candidates(
        &mut self,
        history: &RequestHistory,
        mode: HistoryMode,
        incoming: &Bundle,
    ) {
        self.begin_epoch();
        let epoch = self.epoch;
        self.candidates.clear();
        self.incoming_fids.clear();
        // Stamp the incoming bundle's known files: the decision's size-0
        // overlay and the bonus pass below both key off this.
        for f in incoming.iter() {
            if let Some(fid) = history.file_id(f) {
                self.incoming_stamp[fid as usize] = epoch;
                self.incoming_fids.push(fid);
            }
        }
        self.prefix = !matches!(mode, HistoryMode::CacheSupported);
        match mode {
            HistoryMode::Full => self.candidates.extend(history.recency()),
            HistoryMode::Window(n) => self.candidates.extend(history.recency().take(n)),
            HistoryMode::CacheSupported => {
                // Entries fully supported by the resident set alone...
                self.candidates.extend_from_slice(&self.supported);
                // ...plus entries completed by the incoming bundle's
                // non-resident files (whose space is reserved).
                self.touched.clear();
                for &fid in &self.incoming_fids {
                    if self.resident[fid as usize] {
                        continue;
                    }
                    for &eid in &self.adj[fid as usize] {
                        let e = eid as usize;
                        if self.bonus_stamp[e] != epoch {
                            self.bonus_stamp[e] = epoch;
                            self.bonus[e] = 0;
                            self.touched.push(eid);
                        }
                        self.bonus[e] += 1;
                    }
                }
                for &eid in &self.touched {
                    let e = eid as usize;
                    // `bonus > 0` implies `resident_count < len`, so these
                    // entries are disjoint from the supported set above.
                    if (self.resident_count[e] + self.bonus[e]) as usize == history.span(e).len() {
                        self.candidates.push(eid);
                    }
                }
                // Recency order; `last_seen` ticks are unique, so this is a
                // total order matching the rebuild path's sort.
                self.candidates
                    .sort_unstable_by_key(|&e| Reverse(history.entry(e).last_seen));
            }
        }
    }

    /// The size `fid` is charged this decision: 0 for the incoming bundle's
    /// files (their space is already reserved), its catalog size otherwise.
    #[inline]
    fn charged_size(&self, history: &RequestHistory, catalog: &FileCatalog, fid: usize) -> Bytes {
        if self.incoming_stamp[fid] == self.epoch {
            0
        } else {
            catalog.size(history.file_ids()[fid])
        }
    }

    /// Prepares the in-place decision after
    /// [`assemble_candidates`](Self::assemble_candidates): stamps candidate
    /// ranks, brings each candidate's file order and adjusted sums up to
    /// date, and fills the rank-indexed value/marginal/priority tables —
    /// the sizes, values and keys an FBC instance of the candidates would
    /// hold, without building the instance.
    ///
    /// The file order is the instance path's local-index order: the rank
    /// of each file's first touch over the candidates. For a recency
    /// prefix (`Full`/`Window`) every candidate file's owner is itself a
    /// candidate, so the cached owner key is that order. `CacheSupported`
    /// candidates are not a prefix, so this stamps the first touches
    /// directly; the same pass sums the union's bytes (incoming files
    /// count 0). When the union fits `capacity` and `variant` charges
    /// marginal bytes, the cumulative charge never exceeds the union, the
    /// greedy takes every candidate, and the tables are skipped (both lanes
    /// then return at once). PaperLiteral charges full bundles, which can
    /// overrun the capacity even when the union fits, so it never skips.
    pub fn prepare_decision(
        &mut self,
        history: &RequestHistory,
        catalog: &FileCatalog,
        capacity: Bytes,
        variant: GreedyVariant,
    ) {
        let epoch = self.epoch;
        let ncand = self.candidates.len();
        self.union_fids.clear();
        self.take_all = false;
        if !self.prefix {
            let mut union_bytes: Bytes = 0;
            for r in 0..ncand {
                let e = self.candidates[r] as usize;
                for &fid in &history.entry_files()[history.span(e)] {
                    let fid = fid as usize;
                    if self.file_stamp[fid] == epoch {
                        continue;
                    }
                    self.file_stamp[fid] = epoch;
                    self.file_local[fid] = self.union_fids.len() as u32;
                    self.union_fids.push(fid as u32);
                    union_bytes += self.charged_size(history, catalog, fid);
                }
            }
            if union_bytes <= capacity && variant != GreedyVariant::PaperLiteral {
                self.take_all = true;
                return;
            }
            self.union_fids.clear();
        }
        for r in 0..ncand {
            let e = self.candidates[r] as usize;
            self.rank_stamp[e] = epoch;
            self.rank_val[e] = r as u32;
        }
        // Candidates containing an incoming file get the size-0 overlay:
        // their cached full-size sums do not apply this decision.
        for &fid in &self.incoming_fids {
            for &e in &self.adj[fid as usize] {
                if self.rank_stamp[e as usize] == epoch {
                    self.eff_stamp[e as usize] = epoch;
                }
            }
        }
        // Length-only reset for the records (the loop below overwrites
        // every one); the stamp/taken arrays are cleared — both one small
        // memset — because the kernel reads them before first write.
        self.kr_req.resize(ncand, ReqState::default());
        self.kr_touched.clear();
        self.kr_touched.resize(ncand, 0);
        self.kr_taken.clear();
        self.kr_taken.resize(ncand, false);
        self.kr_key.clear();
        self.kr_key.resize(ncand, 0);
        self.kr_mb.clear();
        self.kr_mb.resize(ncand, 0);

        let (now, value_fn) = (history.total_requests(), history.value_fn());
        for r in 0..ncand {
            let e = self.candidates[r] as usize;
            self.refresh_entry_order(history, catalog, e);
            let (adjusted, bytes) = if self.eff_stamp[e] == epoch {
                // Recompute with the incoming files' sizes overlaid to 0 —
                // the 0-size terms contribute exactly the `+0.0` the
                // instance path's sum would, in the same order.
                self.entry_sums(history, catalog, e, true)
            } else {
                (self.entry_adjusted[e], self.entry_bytes[e])
            };
            let value = history.entry(e as u32).value_at(now, value_fn);
            let rv = rv_of(value, adjusted);
            self.kr_req[r] = ReqState {
                mb: bytes,
                rv,
                value,
            };
            self.kr_key[r] = ord_key(rv);
            self.kr_mb[r] = bytes;
        }
    }

    /// Puts a candidate's file slice into ascending decision-local order
    /// and refreshes its cached full-size sums if the order or a degree
    /// changed. A prefix decision re-sorts only entries `on_record` marked
    /// dirty (the owner key); otherwise the slice is checked against this
    /// decision's first-touch stamps — 2–6 files, usually already in order.
    fn refresh_entry_order(&mut self, history: &RequestHistory, catalog: &FileCatalog, e: usize) {
        let span = history.span(e);
        if self.prefix {
            if !self.order_dirty[e] {
                return;
            }
            let owner = &self.owner;
            let owner_pos = &self.owner_pos;
            let rank_val = &self.rank_val;
            #[cfg(debug_assertions)]
            let (rank_stamp, epoch) = (&self.rank_stamp, self.epoch);
            self.entry_sorted[span].sort_unstable_by_key(|&fid| {
                let o = owner[fid as usize] as usize;
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    rank_stamp[o], epoch,
                    "owner of a candidate's file must itself be a candidate"
                );
                (rank_val[o], owner_pos[fid as usize])
            });
        } else {
            let local = &self.file_local;
            let files = &mut self.entry_sorted[span];
            if files
                .windows(2)
                .all(|w| local[w[0] as usize] < local[w[1] as usize])
            {
                if !self.order_dirty[e] {
                    return;
                }
            } else {
                files.sort_unstable_by_key(|&fid| local[fid as usize]);
            }
        }
        let (adjusted, bytes) = self.entry_sums(history, catalog, e, false);
        self.entry_adjusted[e] = adjusted;
        self.entry_bytes[e] = bytes;
        self.order_dirty[e] = false;
    }

    /// `(Σ s'(f), Σ s(f))` over the entry's files in ascending
    /// decision-local (`entry_sorted`) order — term-for-term the sums the
    /// instance path's `memoise_adjusted`/`request_sizes` computed. With
    /// `overlay`, incoming files count as size 0.
    #[inline]
    fn entry_sums(
        &self,
        history: &RequestHistory,
        catalog: &FileCatalog,
        e: usize,
        overlay: bool,
    ) -> (f64, u64) {
        let degrees = history.degrees();
        let mut adjusted = 0.0_f64;
        let mut bytes = 0_u64;
        for &fid in &self.entry_sorted[history.span(e)] {
            let fid = fid as usize;
            let sz = if overlay {
                self.charged_size(history, catalog, fid)
            } else {
                catalog.size(history.file_ids()[fid])
            };
            bytes += sz;
            adjusted += sz as f64 / degrees[fid].max(1) as f64;
        }
        (adjusted, bytes)
    }

    /// Algorithm 1's Step 3 fallback over the *initial* marginals (the
    /// memoised request sizes of the instance path): the earliest maximum
    /// value among the feasible candidates. The same pass returns the
    /// select kernel's early-exit bound: `min_positive_mb`, a lower bound on
    /// every positive marginal, and `free_candidates`, the exact count of
    /// zero-marginal (always feasible, hence never parked) candidates.
    fn fallback_scan(&self, capacity: Bytes) -> (Option<usize>, u64, usize) {
        let mut single: Option<usize> = None;
        let mut min_positive_mb: u64 = u64::MAX;
        let mut free_candidates: usize = 0;
        for r in 0..self.candidates.len() {
            let mb = self.kr_req[r].mb;
            if mb == 0 {
                free_candidates += 1;
            } else if mb < min_positive_mb {
                min_positive_mb = mb;
            }
            if mb <= capacity {
                match single {
                    Some(b) if self.kr_req[b].value >= self.kr_req[r].value => {}
                    _ => single = Some(r),
                }
            }
        }
        (single, min_positive_mb, free_candidates)
    }

    /// `Some(rank)` when the single fallback strictly beats a greedy set
    /// worth `value_sum` (the `max_of` tie-break), `None` otherwise.
    fn single_if_better(&self, single: Option<usize>, value_sum: f64) -> Option<usize> {
        single.filter(|&s| self.kr_req[s].value > value_sum)
    }

    /// Runs the shared-credit greedy (plus Algorithm 1's single-request
    /// fallback) directly over the prepared resident state — the in-place
    /// mirror of [`opt_cache_select`](crate::select::opt_cache_select) on
    /// the instance the rebuild path would have built. Returns
    /// `Some(rank)` when the single fallback strictly beats the greedy set
    /// (the `max_of` tie-break), `None` when the greedy selection (left in
    /// `union_fids`) wins.
    pub fn select_fast(
        &mut self,
        history: &RequestHistory,
        catalog: &FileCatalog,
        capacity: Bytes,
    ) -> Option<usize> {
        if self.take_all {
            // Every candidate fits at once, so the greedy takes them all, and
            // a float sum of non-negative values is at least each of its
            // terms, so the single fallback cannot strictly beat it.
            return None;
        }
        let epoch = self.epoch;
        let ncand = self.candidates.len();
        let degrees = history.degrees();
        let (single, mut min_positive_mb, mut free_candidates) = self.fallback_scan(capacity);

        // A greedy round takes the feasible maximum of the reference pop
        // order's key, `(rv desc, rank asc)`. Parking is unobservable: a
        // parked candidate re-enters only through the adjacency refresh,
        // which rewrites its priority and marginal wholesale, and an
        // infeasible candidate never becomes feasible otherwise, because
        // `remaining` only shrinks. Capacity-starved prefix decisions take
        // a couple dozen of their candidates, so each round is one
        // branchless feasibility-masked argmax scan. CacheSupported
        // decisions take nearly every candidate, so a round pops a lazy
        // max-heap instead; entries a refresh superseded are skipped.
        let heap_rounds = !self.prefix;
        if heap_rounds {
            self.kr_heap.clear();
            self.kr_heap.extend(
                self.kr_key
                    .iter()
                    .enumerate()
                    .map(|(r, &k)| (k, Reverse(r as u32))),
            );
        }
        let mut remaining = capacity;
        let mut value_sum = 0.0_f64;
        let mut step: u32 = 0;
        loop {
            // Early exit skipping the terminal drain — same argument as
            // the select kernel: nothing resident is feasible now, and
            // with no takes possible no marginal ever changes again.
            if free_candidates == 0 && remaining < min_positive_mb {
                break;
            }
            let r = if heap_rounds {
                let Some((_, Reverse(r))) = self.kr_heap.pop() else {
                    break;
                };
                let r = r as usize;
                // A superseded entry never carries a higher key than its
                // refresh, so it pops after the candidate was taken or
                // parked and fails one of these two tests as well.
                if self.kr_taken[r] || self.kr_mb[r] > remaining {
                    continue; // taken or parked
                }
                r
            } else {
                let mut best = 0_u64;
                for (&k, &m) in self.kr_key.iter().zip(self.kr_mb.iter()) {
                    let masked = if m <= remaining { k } else { 0 };
                    best = best.max(masked);
                }
                if best == 0 {
                    break; // no feasible candidate left — terminal drain
                }
                let found =
                    (0..ncand).find(|&i| self.kr_key[i] == best && self.kr_mb[i] <= remaining);
                found.expect("masked maximum must be attained")
            };
            if self.kr_req[r].mb == 0 {
                free_candidates -= 1;
            }
            self.kr_key[r] = 0;
            self.kr_taken[r] = true;
            value_sum += self.kr_req[r].value;
            let e = self.candidates[r] as usize;
            self.newly_loaded.clear();
            for k in history.span(e) {
                let fid = self.entry_sorted[k] as usize;
                if self.loaded_stamp[fid] != epoch {
                    self.loaded_stamp[fid] = epoch;
                    remaining -= self.charged_size(history, catalog, fid);
                    self.union_fids.push(fid as u32);
                    self.newly_loaded.push(fid as u32);
                }
            }

            // Refresh the candidates adjacent to a freshly loaded file,
            // exactly as the select kernel does over its CSR.
            step += 1;
            for li in 0..self.newly_loaded.len() {
                let fid = self.newly_loaded[li] as usize;
                for ai in 0..self.adj[fid].len() {
                    let e2 = self.adj[fid][ai] as usize;
                    if self.rank_stamp[e2] != epoch {
                        continue; // not a candidate this decision
                    }
                    let r2 = self.rank_val[e2] as usize;
                    if self.kr_touched[r2] == step || self.kr_taken[r2] {
                        continue;
                    }
                    self.kr_touched[r2] = step;
                    let mut mb = 0_u64;
                    let mut ma = 0.0_f64;
                    for k in history.span(e2) {
                        let p = self.entry_sorted[k] as usize;
                        if self.loaded_stamp[p] == epoch {
                            continue;
                        }
                        let sz = self.charged_size(history, catalog, p);
                        mb += sz;
                        ma += sz as f64 / degrees[p].max(1) as f64;
                    }
                    if mb == 0 {
                        if self.kr_req[r2].mb != 0 {
                            free_candidates += 1;
                        }
                    } else if mb < min_positive_mb {
                        min_positive_mb = mb;
                    }
                    let rv = rv_of(self.kr_req[r2].value, ma);
                    let key = ord_key(rv);
                    debug_assert!(key >= self.kr_key[r2], "refresh only raises priorities");
                    self.kr_req[r2].mb = mb;
                    self.kr_req[r2].rv = rv;
                    self.kr_key[r2] = key;
                    self.kr_mb[r2] = mb;
                    if heap_rounds {
                        self.kr_heap.push((key, Reverse(r2 as u32)));
                    }
                }
            }
        }

        self.single_if_better(single, value_sum)
    }

    /// Runs a single-sort greedy (plus the single-request fallback) over the
    /// prepared resident state — the in-place mirror of `greedy_sorted`:
    /// candidates in `(key desc, rank asc)` order, one admission pass.
    /// With `marginal` (SortedOnce) a candidate is charged only its files
    /// not yet loaded; otherwise (PaperLiteral, Algorithm 1 as printed) its
    /// full size, the incoming bundle's files counting 0. Keys are never
    /// NaN or `-0`, so the `u64` key order is `greedy_sorted`'s
    /// `partial_cmp` order. (A candidate of zero adjusted size and zero
    /// value ranks `+∞` here and 0 in `FbcInstance::relative_value`; it is
    /// charged 0 and adds 0 wherever it lands, so the selection is the
    /// same.) Returns as [`select_fast`](Self::select_fast).
    pub fn select_sorted(
        &mut self,
        history: &RequestHistory,
        catalog: &FileCatalog,
        capacity: Bytes,
        marginal: bool,
    ) -> Option<usize> {
        if self.take_all {
            return None; // as in `select_fast`
        }
        let epoch = self.epoch;
        let (single, _, _) = self.fallback_scan(capacity);
        let mut order = std::mem::take(&mut self.kr_order);
        order.clear();
        order.extend(0..self.candidates.len() as u32);
        let key = &self.kr_key;
        order.sort_unstable_by_key(|&r| (Reverse(key[r as usize]), r));
        let mut remaining = capacity;
        let mut value_sum = 0.0_f64;
        for &r in &order {
            let r = r as usize;
            let e = self.candidates[r] as usize;
            let files = history.span(e);
            let charge = if marginal {
                files
                    .clone()
                    .map(|k| self.entry_sorted[k] as usize)
                    .filter(|&p| self.loaded_stamp[p] != epoch)
                    .map(|p| self.charged_size(history, catalog, p))
                    .sum()
            } else {
                self.kr_req[r].mb
            };
            if charge > remaining {
                continue;
            }
            remaining -= charge;
            value_sum += self.kr_req[r].value;
            for k in files {
                let fid = self.entry_sorted[k] as usize;
                if self.loaded_stamp[fid] != epoch {
                    self.loaded_stamp[fid] = epoch;
                    self.union_fids.push(fid as u32);
                }
            }
        }
        self.kr_order = order;
        self.single_if_better(single, value_sum)
    }

    /// Materialises the decision's `(retained, prefetch)` file lists from
    /// the winning selection: the same retained set as the instance path's
    /// `selection.files` (in load order, not sorted), and the same
    /// prefetch list, in ascending local order.
    pub fn decision_outputs(
        &mut self,
        history: &RequestHistory,
        cache: &CacheState,
        prefetch_enabled: bool,
        single: Option<usize>,
    ) -> (Vec<FileId>, Vec<FileId>) {
        let epoch = self.epoch;
        if let Some(r) = single {
            let e = self.candidates[r] as usize;
            self.union_fids.clear();
            self.union_fids
                .extend_from_slice(&self.entry_sorted[history.span(e)]);
        }
        let file_ids = history.file_ids();
        let retained: Vec<FileId> = self
            .union_fids
            .iter()
            .map(|&p| file_ids[p as usize])
            .collect();
        // A CacheSupported candidate's files are all resident or incoming,
        // so only prefix decisions can prefetch.
        if !(prefetch_enabled && self.prefix) {
            return (retained, Vec::new());
        }
        let mut prefetch: Vec<u32> = self
            .union_fids
            .iter()
            .copied()
            .filter(|&p| {
                self.incoming_stamp[p as usize] != epoch && !cache.contains(file_ids[p as usize])
            })
            .collect();
        // The instance path lists prefetches in ascending local order.
        let (owner, owner_pos, rank_val) = (&self.owner, &self.owner_pos, &self.rank_val);
        prefetch.sort_unstable_by_key(|&p| {
            (rank_val[owner[p as usize] as usize], owner_pos[p as usize])
        });
        let prefetch = prefetch.iter().map(|&p| file_ids[p as usize]).collect();
        (retained, prefetch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ValueFn;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    /// A history and its decision state, driven together as the policy
    /// drives them.
    #[derive(Default)]
    struct Pair {
        history: RequestHistory,
        state: ResidentInstance,
    }

    impl Pair {
        fn record(&mut self, bundle: &Bundle) {
            let eid = self.history.record(bundle);
            self.state.on_record(&self.history, eid);
        }

        fn insert(&mut self, file: u32) {
            self.state.on_insert(&mut self.history, FileId(file));
        }

        fn evict(&mut self, file: u32) {
            self.state.on_evict(&self.history, FileId(file));
        }

        fn assemble(&mut self, mode: HistoryMode, incoming: &Bundle) -> Vec<Bundle> {
            self.state
                .assemble_candidates(&self.history, mode, incoming);
            self.state
                .candidates()
                .iter()
                .map(|&e| self.history.entry(e).bundle.clone())
                .collect()
        }
    }

    impl ResidentInstance {
        /// Builds the FBC instance of the assembled candidates the way the
        /// instance path did: local interning in first-touch order
        /// (candidates most recent first, files in canonical bundle order),
        /// sizes with the incoming bundle's files overlaid to 0, degrees
        /// and values from the history.
        fn fill_instance(
            &mut self,
            history: &RequestHistory,
            catalog: &FileCatalog,
        ) -> crate::instance::FbcInstance {
            let epoch = self.epoch;
            let (now, value_fn) = (history.total_requests(), history.value_fn());
            let (mut sizes, mut degrees, mut requests) = (Vec::new(), Vec::new(), Vec::new());
            for c in 0..self.candidates.len() {
                let eid = self.candidates[c];
                let mut files = Vec::new();
                for &fid in &history.entry_files()[history.span(eid as usize)] {
                    let fid = fid as usize;
                    if self.file_stamp[fid] != epoch {
                        self.file_stamp[fid] = epoch;
                        self.file_local[fid] = sizes.len() as u32;
                        sizes.push(self.charged_size(history, catalog, fid));
                        degrees.push(history.degrees()[fid]);
                    }
                    files.push(self.file_local[fid]);
                }
                requests.push((files, history.entry(eid).value_at(now, value_fn)));
            }
            crate::instance::FbcInstance::with_degrees(0, sizes, requests, Some(degrees)).unwrap()
        }

        /// Exhaustive check of the residency counters and the supported
        /// set against a residency oracle — O(|R| · b).
        fn check_consistency<F: Fn(FileId) -> bool>(
            &self,
            history: &RequestHistory,
            resident: F,
        ) -> bool {
            self.resident_count.len() == history.len()
                && history.entries().enumerate().all(|(e, entry)| {
                    let rcount = entry.bundle.iter().filter(|&f| resident(f)).count() as u32;
                    let supported_ok = if rcount as usize == entry.bundle.len() {
                        self.supported_pos[e] != NONE
                            && self.supported[self.supported_pos[e] as usize] == e as u32
                    } else {
                        self.supported_pos[e] == NONE
                    };
                    self.resident_count[e] == rcount && supported_ok
                })
        }
    }

    /// Drives the state + history pair through a random interleaving and
    /// checks the residency bookkeeping after every step.
    #[test]
    fn residency_stays_consistent_under_random_interleavings() {
        let mut pair = Pair::default();
        let mut resident = std::collections::HashSet::new();
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            match next() % 4 {
                0 | 1 => {
                    let k = (next() % 3 + 1) as usize;
                    let files: Vec<u32> = (0..k).map(|_| (next() % 16) as u32).collect();
                    pair.record(&Bundle::from_raw(files));
                }
                2 => {
                    let f = (next() % 16) as u32;
                    resident.insert(FileId(f));
                    pair.insert(f);
                }
                _ => {
                    let f = (next() % 16) as u32;
                    resident.remove(&FileId(f));
                    pair.evict(f);
                }
            }
            assert!(pair
                .state
                .check_consistency(&pair.history, |f| resident.contains(&f)));
        }
    }

    /// A file inserted before any bundle naming it is recorded counts as
    /// resident once one is.
    #[test]
    fn files_inserted_before_their_first_record_count_as_resident() {
        let mut pair = Pair::default();
        pair.insert(4);
        pair.insert(5);
        pair.record(&b(&[4, 5]));
        assert_eq!(
            pair.assemble(HistoryMode::CacheSupported, &b(&[9])),
            vec![b(&[4, 5])]
        );
        assert!(pair
            .state
            .check_consistency(&pair.history, |f| f.0 == 4 || f.0 == 5));
    }

    #[test]
    fn recency_list_matches_last_seen_order() {
        let mut pair = Pair::default();
        for ids in [&[1u32, 2][..], &[3], &[4, 5], &[1, 2], &[3]] {
            pair.record(&b(ids));
        }
        assert_eq!(
            pair.assemble(HistoryMode::Full, &b(&[])),
            vec![b(&[3]), b(&[1, 2]), b(&[4, 5])]
        );
        // Window truncation takes a prefix of the same order.
        assert_eq!(pair.assemble(HistoryMode::Window(2), &b(&[])).len(), 2);
    }

    /// A warm start assigns every file the owner (and position) the same
    /// records would have left online, which a repeat can move to an
    /// entry minted earlier.
    #[test]
    fn populate_matches_a_state_grown_online() {
        let mut online = Pair::default();
        for ids in [&[1u32, 2][..], &[2, 3], &[4], &[1, 2], &[3, 4], &[4]] {
            online.record(&b(ids));
        }
        let mut warm = ResidentInstance::new();
        warm.populate(&online.history);
        assert!(warm.check_consistency(&online.history, |_| false));
        assert_eq!(warm.owner, online.state.owner);
        assert_eq!(warm.owner_pos, online.state.owner_pos);
        // f2 was last recorded by the repeat of {1,2}, minted first.
        let fid = online.history.file_id(FileId(2)).unwrap() as usize;
        assert_eq!(warm.owner[fid], 0);
    }

    /// CacheSupported candidates are not a recency prefix, so the in-place
    /// path orders each candidate's files by this decision's first touches.
    /// Its per-candidate marginal bytes and keys must be bit-identical to
    /// those of the instance `fill_instance` builds for the same decision.
    #[test]
    fn cache_supported_keys_match_the_filled_instance() {
        let sizes: Vec<u64> = (0..24u64).map(|i| (i * 7919) % 997 + 3).collect();
        let catalog = FileCatalog::from_sizes(sizes);
        let mut pair = Pair {
            history: RequestHistory::with_value_fn(ValueFn::Decay { half_life: 7.0 }),
            state: ResidentInstance::new(),
        };
        let mut state = 0xBADC0DEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut checked = 0;
        for _ in 0..400 {
            let k = (next() % 5 + 1) as usize;
            let files: Vec<u32> = (0..k).map(|_| (next() % 24) as u32).collect();
            let bundle = Bundle::from_raw(files);
            let f = (next() % 24) as u32;
            if next() % 3 == 0 {
                pair.evict(f);
            } else {
                pair.insert(f);
            }

            let Pair { history, state } = &mut pair;
            state.assemble_candidates(history, HistoryMode::CacheSupported, &bundle);
            let inst = state.fill_instance(history, &catalog);
            state.assemble_candidates(history, HistoryMode::CacheSupported, &bundle);
            state.prepare_decision(history, &catalog, 0, GreedyVariant::SharedCredit);
            if !state.take_all {
                for r in 0..inst.num_requests() {
                    let value = inst.requests()[r].value;
                    let rv = rv_of(value, inst.request_adjusted_size(r));
                    assert_eq!(state.kr_req[r].mb, inst.request_size(r));
                    assert_eq!(state.kr_req[r].rv.to_bits(), rv.to_bits());
                    checked += 1;
                }
            }
            pair.record(&bundle);
        }
        assert!(checked > 100, "only {checked} candidates compared");
    }

    #[test]
    fn cache_supported_uses_residency_plus_incoming_bonus() {
        let mut pair = Pair::default();
        for ids in [&[0u32, 1][..], &[1, 2], &[7]] {
            pair.record(&b(ids));
        }
        pair.insert(1);
        // {1} alone supports nothing.
        assert!(pair
            .assemble(HistoryMode::CacheSupported, &b(&[9]))
            .is_empty());
        // Incoming {0} completes {0,1}.
        assert_eq!(
            pair.assemble(HistoryMode::CacheSupported, &b(&[0])),
            vec![b(&[0, 1])]
        );
        // Fully resident entries appear without bonus help.
        pair.insert(0);
        pair.insert(2);
        assert_eq!(
            pair.assemble(HistoryMode::CacheSupported, &b(&[9])).len(),
            2
        );
    }
}
