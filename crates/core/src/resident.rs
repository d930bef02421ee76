//! Persistent, incrementally maintained decision state for
//! [`OptFileBundle`](crate::optfilebundle::OptFileBundle).
//!
//! Before this module, every replacement decision rebuilt its FBC instance
//! from scratch: re-hash every candidate bundle through the history map,
//! re-intern every file into a per-decision `FxHashMap`, re-read every
//! degree, recompute every value and re-sort the whole candidate set by
//! recency — even though between consecutive decisions the world changes by
//! a tiny delta (one recorded bundle, a few inserted/evicted files).
//!
//! [`ResidentInstance`] keeps that state *alive across decisions* and
//! updates it with O(Δ) hooks mirroring the
//! [`SupportIndex`](crate::index::SupportIndex) lifecycle:
//!
//! * [`on_record`](ResidentInstance::on_record) — interns a newly recorded
//!   bundle's files, appends its file list to an append-only CSR, bumps the
//!   dense degree mirror, syncs the dense value accumulators from the
//!   history entry, and moves the entry to the front of an intrusive
//!   recency list;
//! * [`on_insert`](ResidentInstance::on_insert) /
//!   [`on_evict`](ResidentInstance::on_evict) — flip a file's residency flag
//!   and walk its file→entry adjacency to maintain per-entry resident
//!   counters, pushing/removing entries from the *fully supported* set as
//!   their counter crosses the bundle size.
//!
//! A decision then *assembles* its candidate list without touching the
//! history hash map at all: `Full`/`Window` walk the recency list (already
//! recency-sorted — the sort the rebuild path paid per decision is free
//! here), and `CacheSupported` takes the maintained supported set plus the
//! entries completed by the incoming bundle's files.
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
use crate::history::{HistoryEntry, RequestHistory, ValueFn};
use crate::optfilebundle::HistoryMode;
use crate::select::{ord_key, rv_of, GreedyVariant, ReqState};
use crate::types::{Bytes, FileId};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

/// Sentinel for "no entry" in the intrusive recency list and position maps.
const NONE: u32 = u32::MAX;

/// The persistent dense FBC instance living inside `OptFileBundle`.
///
/// Files and history entries are interned once, on first contact, into
/// dense ids (`pid` for files, `eid` for entries) that stay stable for the
/// lifetime of the policy; all per-decision work is array reads over those
/// ids. See the module docs for the maintenance protocol.
#[derive(Debug, Clone)]
pub struct ResidentInstance {
    // ---- files (indexed by pid) ----
    /// Global `FileId` → dense pid. The only hash lookup left on the
    /// maintenance path; the decision path itself is hash-free.
    file_of: FxHashMap<FileId, u32>,
    /// pid → global id (inverse of `file_of`).
    file_ids: Vec<FileId>,
    /// Dense mirror of the history's `d(f)` degrees.
    degrees: Vec<u32>,
    /// Whether the file is currently resident in the cache.
    resident: Vec<bool>,
    /// File → entries using it (the transpose of the entry CSR).
    adj: Vec<Vec<u32>>,
    /// pid → the most recently *recorded* entry containing it, or [`NONE`]
    /// for files never part of a recorded bundle (interned by `on_insert`).
    /// Because Full/Window candidate lists are recency prefixes, the owner
    /// of any candidate's file is itself a candidate, and the rebuild
    /// path's first-touch local index of a file is exactly the lexicographic
    /// key `(recency rank of owner, position in owner's bundle)` — the sort
    /// key of the incrementally maintained per-entry file orders.
    owner: Vec<u32>,
    /// pid → its index within the owner's canonical bundle order.
    owner_pos: Vec<u32>,
    /// pid → epoch mark "loaded by the current decision's greedy loop".
    loaded_stamp: Vec<u32>,

    // ---- entries (indexed by eid) ----
    /// Canonical bundle → eid (hit only by `on_record`).
    ids: FxHashMap<Bundle, u32>,
    /// eid → its bundle (for mapping candidates back to bundles).
    bundles: Vec<Bundle>,
    /// Append-only CSR of entry files (pids, in canonical bundle order —
    /// the same order the rebuild path iterated `bundle.iter()` in).
    entry_files: Vec<u32>,
    /// CSR offsets; `entry_offsets[eid]..entry_offsets[eid + 1]` slices
    /// `entry_files`.
    entry_offsets: Vec<u32>,
    /// Number of the entry's files currently resident.
    resident_count: Vec<u32>,
    /// Dense mirrors of the history entry's value state, synced by
    /// `on_record` so values can be recomputed bit-identically without
    /// touching the history map.
    count: Vec<u64>,
    value_acc: Vec<f64>,
    value_tick: Vec<u64>,
    last_seen: Vec<u64>,
    priority: Vec<f64>,
    /// Intrusive doubly-linked recency list (most recent first). Since
    /// `last_seen` ticks are unique, walking it front-to-back reproduces
    /// the rebuild path's `sort_by_key(Reverse(last_seen))` exactly.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    /// Entries whose files are all resident (`resident_count == len`), in
    /// arbitrary order, with a position map for O(1) removal.
    supported: Vec<u32>,
    supported_pos: Vec<u32>,
    /// CSR payload parallel to `entry_files`: the entry's pids sorted in
    /// ascending *decision-local* order (the owner key above). Maintained
    /// lazily: `on_record` marks affected entries dirty, and the next
    /// decision that uses a dirty candidate re-sorts its slice.
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
    /// pid → epoch at which `file_local` was assigned.
    file_stamp: Vec<u32>,
    /// pid → local index in the decision's dense instance: the rank of the
    /// file's first touch, walking the candidates most recent first and
    /// each bundle in canonical order. Stamped by `prepare_decision` when
    /// the candidates are not a recency prefix.
    file_local: Vec<u32>,
    /// pid → epoch mark "belongs to the incoming bundle" (the size-0
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
    /// candidate, so the lanes skip their loops and `union_pids` already
    /// holds the union.
    take_all: bool,
    /// Interned pids of the incoming bundle (stamped by
    /// [`assemble_candidates`](Self::assemble_candidates)).
    incoming_pids: Vec<u32>,

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
    /// Dense mirror of `kr_req[r].mb` so the feasibility mask in the
    /// argmax scan reads a flat `u64` lane instead of striding `ReqState`.
    kr_mb: Vec<u64>,
    /// Dense epoch stamps deduplicating refreshes within one greedy step.
    kr_touched: Vec<u32>,
    /// Candidates already selected this decision (rank-indexed).
    kr_taken: Vec<bool>,
    /// The sorted lane's admission order: ranks by `(key desc, rank asc)`.
    kr_order: Vec<u32>,
    /// Union of the selected candidates' pids, in load order.
    union_pids: Vec<u32>,
    /// Pids loaded by the current selection step.
    newly_loaded: Vec<u32>,
}

impl Default for ResidentInstance {
    fn default() -> Self {
        Self {
            file_of: FxHashMap::default(),
            file_ids: Vec::new(),
            degrees: Vec::new(),
            resident: Vec::new(),
            adj: Vec::new(),
            owner: Vec::new(),
            owner_pos: Vec::new(),
            loaded_stamp: Vec::new(),
            ids: FxHashMap::default(),
            bundles: Vec::new(),
            entry_files: Vec::new(),
            entry_offsets: vec![0],
            resident_count: Vec::new(),
            count: Vec::new(),
            value_acc: Vec::new(),
            value_tick: Vec::new(),
            last_seen: Vec::new(),
            priority: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NONE,
            supported: Vec::new(),
            supported_pos: Vec::new(),
            entry_sorted: Vec::new(),
            entry_adjusted: Vec::new(),
            entry_bytes: Vec::new(),
            order_dirty: Vec::new(),
            rank_stamp: Vec::new(),
            rank_val: Vec::new(),
            eff_stamp: Vec::new(),
            epoch: 0,
            file_stamp: Vec::new(),
            file_local: Vec::new(),
            incoming_stamp: Vec::new(),
            bonus_stamp: Vec::new(),
            bonus: Vec::new(),
            touched: Vec::new(),
            candidates: Vec::new(),
            prefix: true,
            take_all: false,
            incoming_pids: Vec::new(),
            kr_req: Vec::new(),
            kr_key: Vec::new(),
            kr_heap: BinaryHeap::new(),
            kr_mb: Vec::new(),
            kr_touched: Vec::new(),
            kr_taken: Vec::new(),
            kr_order: Vec::new(),
            union_pids: Vec::new(),
            newly_loaded: Vec::new(),
        }
    }
}

impl ResidentInstance {
    /// An empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// Whether no entry has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// The bundle of entry `eid`.
    #[inline]
    pub fn bundle(&self, eid: u32) -> &Bundle {
        &self.bundles[eid as usize]
    }

    /// The candidate list assembled by the last
    /// [`assemble_candidates`](Self::assemble_candidates) call (eids, most
    /// recent first).
    #[inline]
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    #[inline]
    fn entry_len(&self, eid: usize) -> u32 {
        self.entry_offsets[eid + 1] - self.entry_offsets[eid]
    }

    fn intern_file(&mut self, f: FileId) -> u32 {
        match self.file_of.entry(f) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let pid = self.file_ids.len() as u32;
                v.insert(pid);
                self.file_ids.push(f);
                self.degrees.push(0);
                self.resident.push(false);
                self.adj.push(Vec::new());
                self.owner.push(NONE);
                self.owner_pos.push(0);
                self.loaded_stamp.push(0);
                self.file_stamp.push(0);
                self.file_local.push(0);
                self.incoming_stamp.push(0);
                pid
            }
        }
    }

    fn unlink(&mut self, eid: u32) {
        let (p, n) = (self.prev[eid as usize], self.next[eid as usize]);
        if p != NONE {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
    }

    fn push_front(&mut self, eid: u32) {
        self.prev[eid as usize] = NONE;
        self.next[eid as usize] = self.head;
        if self.head != NONE {
            self.prev[self.head as usize] = eid;
        }
        self.head = eid;
    }

    /// Syncs one recorded bundle: O(b) for a first occurrence, O(1) for a
    /// repeat (plus the recency-list relink). Call with the entry returned
    /// by [`RequestHistory::record`].
    pub fn on_record(&mut self, entry: &HistoryEntry) {
        let bundle = &entry.bundle;
        let eid = if let Some(&e) = self.ids.get(bundle) {
            // Repeat occurrence: degrees and adjacency are unchanged.
            self.unlink(e);
            e
        } else {
            let e = self.bundles.len() as u32;
            self.ids.insert(bundle.clone(), e);
            self.bundles.push(bundle.clone());
            let mut rcount = 0u32;
            let mut blen = 0u32;
            for f in bundle.iter() {
                let pid = self.intern_file(f);
                // A first occurrence increments d(f) of each of its files,
                // exactly as the history does.
                self.degrees[pid as usize] += 1;
                self.adj[pid as usize].push(e);
                self.entry_files.push(pid);
                self.entry_sorted.push(pid);
                if self.resident[pid as usize] {
                    rcount += 1;
                }
                blen += 1;
            }
            self.entry_offsets.push(self.entry_files.len() as u32);
            self.resident_count.push(rcount);
            self.count.push(0);
            self.value_acc.push(0.0);
            self.value_tick.push(0);
            self.last_seen.push(0);
            self.priority.push(1.0);
            self.prev.push(NONE);
            self.next.push(NONE);
            self.bonus_stamp.push(0);
            self.bonus.push(0);
            self.entry_adjusted.push(0.0);
            self.entry_bytes.push(0);
            self.order_dirty.push(true);
            self.rank_stamp.push(0);
            self.rank_val.push(0);
            self.eff_stamp.push(0);
            if rcount == blen {
                self.supported_pos.push(self.supported.len() as u32);
                self.supported.push(e);
            } else {
                self.supported_pos.push(NONE);
            }
            e
        };
        let i = eid as usize;
        let (acc, tick) = entry.value_state();
        self.count[i] = entry.count;
        self.value_acc[i] = acc;
        self.value_tick[i] = tick;
        self.last_seen[i] = entry.last_seen;
        self.priority[i] = entry.priority;
        self.push_front(eid);
        // Owner maintenance: this entry is now the most recently recorded
        // holder of each of its files. Any entry sharing a file with it may
        // see an owner change, an owner rank move, or (on a first record) a
        // degree change — all three invalidate the cached per-entry order
        // and adjusted sums, so dirty the whole file-sharing neighbourhood.
        // Entries sharing no file are unaffected: their owners keep their
        // relative recency order, which is all the cached key encodes.
        let (start, end) = (
            self.entry_offsets[i] as usize,
            self.entry_offsets[i + 1] as usize,
        );
        for k in start..end {
            let pid = self.entry_files[k] as usize;
            self.owner[pid] = eid;
            self.owner_pos[pid] = (k - start) as u32;
            for ai in 0..self.adj[pid].len() {
                self.order_dirty[self.adj[pid][ai] as usize] = true;
            }
        }
    }

    /// Marks `file` resident, updating the resident counters (and the
    /// supported set) of the entries using it. O(d(f)).
    pub fn on_insert(&mut self, file: FileId) {
        let pid = self.intern_file(file) as usize;
        if self.resident[pid] {
            return;
        }
        self.resident[pid] = true;
        for i in 0..self.adj[pid].len() {
            let eid = self.adj[pid][i];
            let e = eid as usize;
            self.resident_count[e] += 1;
            if self.resident_count[e] == self.entry_offsets[e + 1] - self.entry_offsets[e] {
                self.supported_pos[e] = self.supported.len() as u32;
                self.supported.push(eid);
            }
        }
    }

    /// Marks `file` evicted, the inverse of [`on_insert`](Self::on_insert).
    pub fn on_evict(&mut self, file: FileId) {
        let Some(&pid) = self.file_of.get(&file) else {
            return;
        };
        let pid = pid as usize;
        if !self.resident[pid] {
            return;
        }
        self.resident[pid] = false;
        for i in 0..self.adj[pid].len() {
            let eid = self.adj[pid][i];
            let e = eid as usize;
            if self.resident_count[e] == self.entry_offsets[e + 1] - self.entry_offsets[e] {
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

    /// Rebuilds the mirror from a warm-start history (entries are replayed
    /// oldest-first so the recency list matches the history's `last_seen`
    /// order). The cache is empty at warm start, so residency starts false.
    pub fn populate(&mut self, history: &RequestHistory) {
        debug_assert!(self.is_empty(), "populate() expects a fresh mirror");
        let mut entries: Vec<&HistoryEntry> = history.entries().collect();
        entries.sort_unstable_by_key(|e| e.last_seen);
        for e in entries {
            self.on_record(e);
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
    /// most recent first, capped by `max_candidates` (and the window size).
    pub fn assemble_candidates(
        &mut self,
        mode: HistoryMode,
        max_candidates: Option<usize>,
        incoming: &Bundle,
    ) {
        self.begin_epoch();
        let epoch = self.epoch;
        self.candidates.clear();
        self.incoming_pids.clear();
        // Stamp the incoming bundle's interned files: the decision's size-0
        // overlay and the bonus pass below both key off this.
        for f in incoming.iter() {
            if let Some(&pid) = self.file_of.get(&f) {
                self.incoming_stamp[pid as usize] = epoch;
                self.incoming_pids.push(pid);
            }
        }
        self.prefix = !matches!(mode, HistoryMode::CacheSupported);
        match mode {
            HistoryMode::Full | HistoryMode::Window(_) => {
                let limit = match mode {
                    HistoryMode::Window(n) => n.min(max_candidates.unwrap_or(usize::MAX)),
                    _ => max_candidates.unwrap_or(usize::MAX),
                };
                let mut cur = self.head;
                while cur != NONE && self.candidates.len() < limit {
                    self.candidates.push(cur);
                    cur = self.next[cur as usize];
                }
            }
            HistoryMode::CacheSupported => {
                // Entries fully supported by the resident set alone...
                self.candidates.extend_from_slice(&self.supported);
                // ...plus entries completed by the incoming bundle's
                // non-resident files (whose space is reserved).
                let mut touched = std::mem::take(&mut self.touched);
                touched.clear();
                for f in incoming.iter() {
                    let Some(&pid) = self.file_of.get(&f) else {
                        continue;
                    };
                    if self.resident[pid as usize] {
                        continue;
                    }
                    for i in 0..self.adj[pid as usize].len() {
                        let eid = self.adj[pid as usize][i];
                        let e = eid as usize;
                        if self.bonus_stamp[e] != epoch {
                            self.bonus_stamp[e] = epoch;
                            self.bonus[e] = 0;
                            touched.push(eid);
                        }
                        self.bonus[e] += 1;
                    }
                }
                for &eid in &touched {
                    let e = eid as usize;
                    // `bonus > 0` implies `resident_count < len`, so these
                    // entries are disjoint from the supported set above.
                    if self.resident_count[e] + self.bonus[e] == self.entry_len(e) {
                        self.candidates.push(eid);
                    }
                }
                self.touched = touched;
                // Recency order; `last_seen` ticks are unique, so this is a
                // total order matching the rebuild path's sort.
                let last_seen = &self.last_seen;
                self.candidates
                    .sort_unstable_by_key(|&e| Reverse(last_seen[e as usize]));
                if let Some(cap) = max_candidates {
                    self.candidates.truncate(cap);
                }
            }
        }
    }

    /// The entry's value `v(r)` as of `now` — bit-identical to
    /// [`HistoryEntry::value_at`] on the mirrored state.
    #[inline]
    fn value_of(&self, eid: usize, now: u64, value_fn: ValueFn) -> f64 {
        let base = match value_fn {
            ValueFn::Count => self.count[eid] as f64,
            ValueFn::Decay { half_life } => {
                let dt = now.saturating_sub(self.value_tick[eid]) as f64;
                self.value_acc[eid] * 0.5_f64.powf(dt / half_life)
            }
        };
        base * self.priority[eid]
    }

    /// The size `pid` is charged this decision: 0 for the incoming bundle's
    /// files (their space is already reserved), its catalog size otherwise.
    #[inline]
    fn charged_size(&self, catalog: &FileCatalog, pid: usize) -> Bytes {
        if self.incoming_stamp[pid] == self.epoch {
            0
        } else {
            catalog.size(self.file_ids[pid])
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
        catalog: &FileCatalog,
        now: u64,
        value_fn: ValueFn,
        capacity: Bytes,
        variant: GreedyVariant,
    ) {
        let epoch = self.epoch;
        let ncand = self.candidates.len();
        self.union_pids.clear();
        self.take_all = false;
        if !self.prefix {
            let mut union_bytes: Bytes = 0;
            for r in 0..ncand {
                let e = self.candidates[r] as usize;
                for k in self.entry_offsets[e] as usize..self.entry_offsets[e + 1] as usize {
                    let pid = self.entry_files[k] as usize;
                    if self.file_stamp[pid] == epoch {
                        continue;
                    }
                    self.file_stamp[pid] = epoch;
                    self.file_local[pid] = self.union_pids.len() as u32;
                    self.union_pids.push(pid as u32);
                    union_bytes += self.charged_size(catalog, pid);
                }
            }
            if union_bytes <= capacity && variant != GreedyVariant::PaperLiteral {
                self.take_all = true;
                return;
            }
            self.union_pids.clear();
        }
        for r in 0..ncand {
            let e = self.candidates[r] as usize;
            self.rank_stamp[e] = epoch;
            self.rank_val[e] = r as u32;
        }
        // Candidates containing an incoming file get the size-0 overlay:
        // their cached full-size sums do not apply this decision.
        for ii in 0..self.incoming_pids.len() {
            let pid = self.incoming_pids[ii] as usize;
            for ai in 0..self.adj[pid].len() {
                let e = self.adj[pid][ai] as usize;
                if self.rank_stamp[e] == epoch {
                    self.eff_stamp[e] = epoch;
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

        for r in 0..ncand {
            let e = self.candidates[r] as usize;
            self.refresh_entry_order(catalog, e);
            let (adjusted, bytes) = if self.eff_stamp[e] == epoch {
                // Recompute with the incoming files' sizes overlaid to 0 —
                // the 0-size terms contribute exactly the `+0.0` the
                // instance path's sum would, in the same order.
                self.entry_sums(catalog, e, true)
            } else {
                (self.entry_adjusted[e], self.entry_bytes[e])
            };
            let value = self.value_of(e, now, value_fn);
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
    fn refresh_entry_order(&mut self, catalog: &FileCatalog, e: usize) {
        let start = self.entry_offsets[e] as usize;
        let end = self.entry_offsets[e + 1] as usize;
        if self.prefix {
            if !self.order_dirty[e] {
                return;
            }
            let owner = &self.owner;
            let owner_pos = &self.owner_pos;
            let rank_val = &self.rank_val;
            #[cfg(debug_assertions)]
            let (rank_stamp, epoch) = (&self.rank_stamp, self.epoch);
            self.entry_sorted[start..end].sort_unstable_by_key(|&pid| {
                let o = owner[pid as usize] as usize;
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    rank_stamp[o], epoch,
                    "owner of a candidate's file must itself be a candidate"
                );
                (rank_val[o], owner_pos[pid as usize])
            });
        } else {
            let local = &self.file_local;
            let files = &mut self.entry_sorted[start..end];
            if files
                .windows(2)
                .all(|w| local[w[0] as usize] < local[w[1] as usize])
            {
                if !self.order_dirty[e] {
                    return;
                }
            } else {
                files.sort_unstable_by_key(|&pid| local[pid as usize]);
            }
        }
        let (adjusted, bytes) = self.entry_sums(catalog, e, false);
        self.entry_adjusted[e] = adjusted;
        self.entry_bytes[e] = bytes;
        self.order_dirty[e] = false;
    }

    /// `(Σ s'(f), Σ s(f))` over the entry's files in ascending
    /// decision-local (`entry_sorted`) order — term-for-term the sums the
    /// instance path's `memoise_adjusted`/`request_sizes` computed. With
    /// `overlay`, incoming files count as size 0.
    #[inline]
    fn entry_sums(&self, catalog: &FileCatalog, e: usize, overlay: bool) -> (f64, u64) {
        let mut adjusted = 0.0_f64;
        let mut bytes = 0_u64;
        for k in self.entry_offsets[e] as usize..self.entry_offsets[e + 1] as usize {
            let pid = self.entry_sorted[k] as usize;
            let sz = if overlay {
                self.charged_size(catalog, pid)
            } else {
                catalog.size(self.file_ids[pid])
            };
            bytes += sz;
            adjusted += sz as f64 / self.degrees[pid].max(1) as f64;
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
    /// mirror of `opt_cache_select_with_scratch` on the instance the
    /// rebuild path would have built. Returns `Some(rank)` when the single
    /// fallback strictly beats the greedy set (the `max_of` tie-break),
    /// `None` when the greedy selection (left in `union_pids`) wins.
    pub fn select_fast(&mut self, catalog: &FileCatalog, capacity: Bytes) -> Option<usize> {
        if self.take_all {
            // Every candidate fits at once, so the greedy takes them all, and
            // a float sum of non-negative values is at least each of its
            // terms, so the single fallback cannot strictly beat it.
            return None;
        }
        let epoch = self.epoch;
        let ncand = self.candidates.len();
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
            for k in self.entry_offsets[e] as usize..self.entry_offsets[e + 1] as usize {
                let pid = self.entry_sorted[k] as usize;
                if self.loaded_stamp[pid] != epoch {
                    self.loaded_stamp[pid] = epoch;
                    remaining -= self.charged_size(catalog, pid);
                    self.union_pids.push(pid as u32);
                    self.newly_loaded.push(pid as u32);
                }
            }

            // Refresh the candidates adjacent to a freshly loaded file,
            // exactly as the select kernel does over its CSR.
            step += 1;
            for li in 0..self.newly_loaded.len() {
                let pid = self.newly_loaded[li] as usize;
                for ai in 0..self.adj[pid].len() {
                    let e2 = self.adj[pid][ai] as usize;
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
                    for k in self.entry_offsets[e2] as usize..self.entry_offsets[e2 + 1] as usize {
                        let p = self.entry_sorted[k] as usize;
                        if self.loaded_stamp[p] == epoch {
                            continue;
                        }
                        let sz = self.charged_size(catalog, p);
                        mb += sz;
                        ma += sz as f64 / self.degrees[p].max(1) as f64;
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
            let files = self.entry_offsets[e] as usize..self.entry_offsets[e + 1] as usize;
            let charge = if marginal {
                files
                    .clone()
                    .map(|k| self.entry_sorted[k] as usize)
                    .filter(|&p| self.loaded_stamp[p] != epoch)
                    .map(|p| self.charged_size(catalog, p))
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
                let pid = self.entry_sorted[k] as usize;
                if self.loaded_stamp[pid] != epoch {
                    self.loaded_stamp[pid] = epoch;
                    self.union_pids.push(pid as u32);
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
        cache: &CacheState,
        prefetch_enabled: bool,
        single: Option<usize>,
    ) -> (Vec<FileId>, Vec<FileId>) {
        let epoch = self.epoch;
        if let Some(r) = single {
            let e = self.candidates[r] as usize;
            self.union_pids.clear();
            let (start, end) = (
                self.entry_offsets[e] as usize,
                self.entry_offsets[e + 1] as usize,
            );
            self.union_pids
                .extend_from_slice(&self.entry_sorted[start..end]);
        }
        let retained: Vec<FileId> = self
            .union_pids
            .iter()
            .map(|&p| self.file_ids[p as usize])
            .collect();
        // A CacheSupported candidate's files are all resident or incoming,
        // so only prefix decisions can prefetch.
        if !(prefetch_enabled && self.prefix) {
            return (retained, Vec::new());
        }
        let mut prefetch: Vec<u32> = self
            .union_pids
            .iter()
            .copied()
            .filter(|&p| {
                self.incoming_stamp[p as usize] != epoch
                    && !cache.contains(self.file_ids[p as usize])
            })
            .collect();
        // The instance path lists prefetches in ascending local order.
        let (owner, owner_pos, rank_val) = (&self.owner, &self.owner_pos, &self.rank_val);
        prefetch.sort_unstable_by_key(|&p| {
            (rank_val[owner[p as usize] as usize], owner_pos[p as usize])
        });
        let prefetch = prefetch
            .iter()
            .map(|&p| self.file_ids[p as usize])
            .collect();
        (retained, prefetch)
    }

    /// Exhaustive consistency check against the history and a residency
    /// oracle (tests only — O(|R| · b)).
    pub fn check_consistency<F: Fn(FileId) -> bool>(
        &self,
        history: &RequestHistory,
        resident: F,
    ) -> bool {
        if self.len() != history.len() {
            return false;
        }
        self.bundles.iter().enumerate().all(|(e, b)| {
            let Some(entry) = history.get(b) else {
                return false;
            };
            let rcount = b.iter().filter(|&f| resident(f)).count() as u32;
            let supported_ok = if rcount == b.len() as u32 {
                self.supported_pos[e] != NONE
                    && self.supported[self.supported_pos[e] as usize] == e as u32
            } else {
                self.supported_pos[e] == NONE
            };
            self.resident_count[e] == rcount
                && supported_ok
                && self.count[e] == entry.count
                && self.last_seen[e] == entry.last_seen
                && b.iter().all(|f| {
                    self.file_of
                        .get(&f)
                        .is_some_and(|&pid| self.degrees[pid as usize] == history.degree(f))
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    impl ResidentInstance {
        /// Builds the FBC instance of the assembled candidates the way the
        /// instance path did: local interning in first-touch order
        /// (candidates most recent first, files in canonical bundle order),
        /// sizes with the incoming bundle's files overlaid to 0, degrees
        /// from the dense mirror, values from the mirrored accumulators.
        fn fill_instance(
            &mut self,
            catalog: &FileCatalog,
            now: u64,
            value_fn: ValueFn,
        ) -> crate::instance::FbcInstance {
            let epoch = self.epoch;
            let (mut sizes, mut degrees, mut requests) = (Vec::new(), Vec::new(), Vec::new());
            for c in 0..self.candidates.len() {
                let eid = self.candidates[c] as usize;
                let mut files = Vec::new();
                for k in self.entry_offsets[eid] as usize..self.entry_offsets[eid + 1] as usize {
                    let pid = self.entry_files[k] as usize;
                    if self.file_stamp[pid] != epoch {
                        self.file_stamp[pid] = epoch;
                        self.file_local[pid] = sizes.len() as u32;
                        sizes.push(self.charged_size(catalog, pid));
                        degrees.push(self.degrees[pid]);
                    }
                    files.push(self.file_local[pid]);
                }
                requests.push((files, self.value_of(eid, now, value_fn)));
            }
            crate::instance::FbcInstance::with_degrees(0, sizes, requests, Some(degrees)).unwrap()
        }
    }

    /// Drives a mirror + history pair through a random interleaving and
    /// checks full consistency after every step.
    #[test]
    fn mirror_stays_consistent_under_random_interleavings() {
        let mut history = RequestHistory::new();
        let mut mirror = ResidentInstance::new();
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
                    let bundle = Bundle::from_raw(files);
                    let entry = history.record(&bundle);
                    mirror.on_record(entry);
                }
                2 => {
                    let f = FileId((next() % 16) as u32);
                    resident.insert(f);
                    mirror.on_insert(f);
                }
                _ => {
                    let f = FileId((next() % 16) as u32);
                    resident.remove(&f);
                    mirror.on_evict(f);
                }
            }
            assert!(mirror.check_consistency(&history, |f| resident.contains(&f)));
        }
    }

    #[test]
    fn recency_list_matches_last_seen_order() {
        let mut history = RequestHistory::new();
        let mut mirror = ResidentInstance::new();
        for ids in [&[1u32, 2][..], &[3], &[4, 5], &[1, 2], &[3]] {
            let entry = history.record(&b(ids));
            mirror.on_record(entry);
        }
        mirror.assemble_candidates(HistoryMode::Full, None, &b(&[]));
        let got: Vec<Bundle> = mirror
            .candidates()
            .iter()
            .map(|&e| mirror.bundle(e).clone())
            .collect();
        assert_eq!(got, vec![b(&[3]), b(&[1, 2]), b(&[4, 5])]);
        // Window truncation takes a prefix of the same order.
        mirror.assemble_candidates(HistoryMode::Window(2), None, &b(&[]));
        assert_eq!(mirror.candidates().len(), 2);
    }

    #[test]
    fn populate_replays_history_in_recency_order() {
        let mut history = RequestHistory::new();
        for ids in [&[1u32][..], &[2], &[3], &[1]] {
            history.record(&b(ids));
        }
        let mut mirror = ResidentInstance::new();
        mirror.populate(&history);
        assert!(mirror.check_consistency(&history, |_| false));
        mirror.assemble_candidates(HistoryMode::Full, None, &b(&[]));
        let got: Vec<Bundle> = mirror
            .candidates()
            .iter()
            .map(|&e| mirror.bundle(e).clone())
            .collect();
        assert_eq!(got, vec![b(&[1]), b(&[3]), b(&[2])]);
    }

    /// CacheSupported candidates are not a recency prefix, so the in-place
    /// path orders each candidate's files by this decision's first touches.
    /// Its per-candidate marginal bytes and keys must be bit-identical to
    /// those of the instance `fill_instance` builds for the same decision.
    #[test]
    fn cache_supported_keys_match_the_filled_instance() {
        let sizes: Vec<u64> = (0..24u64).map(|i| (i * 7919) % 997 + 3).collect();
        let catalog = FileCatalog::from_sizes(sizes);
        let mut history = RequestHistory::new();
        let mut mirror = ResidentInstance::new();
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
            let f = FileId((next() % 24) as u32);
            if next() % 3 == 0 {
                mirror.on_evict(f);
            } else {
                mirror.on_insert(f);
            }

            mirror.assemble_candidates(HistoryMode::CacheSupported, None, &bundle);
            let now = history.total_requests();
            let inst = mirror.fill_instance(&catalog, now, ValueFn::Count);
            mirror.assemble_candidates(HistoryMode::CacheSupported, None, &bundle);
            mirror.prepare_decision(
                &catalog,
                now,
                ValueFn::Count,
                0,
                GreedyVariant::SharedCredit,
            );
            if !mirror.take_all {
                for r in 0..inst.num_requests() {
                    let value = inst.requests()[r].value;
                    let rv = rv_of(value, inst.request_adjusted_size(r));
                    assert_eq!(mirror.kr_req[r].mb, inst.request_size(r));
                    assert_eq!(mirror.kr_req[r].rv.to_bits(), rv.to_bits());
                    checked += 1;
                }
            }
            let entry = history.record(&bundle);
            mirror.on_record(entry);
        }
        assert!(checked > 100, "only {checked} candidates compared");
    }

    #[test]
    fn cache_supported_uses_residency_plus_incoming_bonus() {
        let mut history = RequestHistory::new();
        let mut mirror = ResidentInstance::new();
        for ids in [&[0u32, 1][..], &[1, 2], &[7]] {
            let entry = history.record(&b(ids));
            mirror.on_record(entry);
        }
        mirror.on_insert(FileId(1));
        // {1} alone supports nothing.
        mirror.assemble_candidates(HistoryMode::CacheSupported, None, &b(&[9]));
        assert!(mirror.candidates().is_empty());
        // Incoming {0} completes {0,1}.
        mirror.assemble_candidates(HistoryMode::CacheSupported, None, &b(&[0]));
        let got: Vec<Bundle> = mirror
            .candidates()
            .iter()
            .map(|&e| mirror.bundle(e).clone())
            .collect();
        assert_eq!(got, vec![b(&[0, 1])]);
        // Fully resident entries appear without bonus help.
        mirror.on_insert(FileId(0));
        mirror.on_insert(FileId(2));
        mirror.assemble_candidates(HistoryMode::CacheSupported, None, &b(&[9]));
        assert_eq!(mirror.candidates().len(), 2);
    }
}
