//! The request-history structure `L(R)` of the paper (§3).
//!
//! For every request (identified by its canonical [`Bundle`]) that the system
//! has served, the history stores a value `v(r)` — by default a hit counter,
//! optionally an exponentially-decayed counter or an externally supplied
//! priority — and the set of files it needs. From this it derives the three
//! quantities `OptCacheSelect` ranks by:
//!
//! * degree `d(f)` — the number of *distinct* requests that use file `f`;
//! * adjusted size `s'(f) = s(f) / d(f)`;
//! * adjusted relative value `v'(r) = v(r) / Σ_{f ∈ F(r)} s'(f)`.
//!
//! The paper's `L(R)` is "basically a hash-table with pointers to other
//! structures". Here the hash table maps each canonical bundle to a dense
//! *entry id*, minted at the bundle's first record, and the structures it
//! points to are append-only slabs indexed by ids:
//!
//! * the entries themselves, in first-record order;
//! * each entry's files as dense *file ids*, in canonical bundle order;
//! * the file id of each [`FileId`], in a slab indexed by the `FileId`
//!   itself (an index into its catalog, see [`crate::catalog`]), with
//!   file ids minted in first-contact order;
//! * `d(f)` per file id;
//! * an intrusive recency list over entry ids, most recent first.
//!
//! Entries are never removed, so ids stay valid for the history's lifetime
//! and other structures can index their own per-entry and per-file state
//! by them — [`crate::resident`], the decision state of `OptFileBundle`,
//! does.

use crate::bundle::Bundle;
use crate::catalog::FileCatalog;
use crate::types::FileId;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::ops::Range;

/// Sentinel for "no entry" in the recency list.
const NONE: u32 = u32::MAX;

/// How the value `v(r)` of a request evolves as the request recurs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ValueFn {
    /// `v(r)` = number of times the request has been seen (the paper's
    /// "counter incremented by 1 each time this request appeared").
    #[default]
    Count,
    /// Exponentially decayed counter: each occurrence contributes 1, and a
    /// contribution from `Δ` requests ago is worth `0.5^(Δ / half_life)`.
    /// Ages out stale popularity in non-stationary workloads (an extension
    /// the paper's `v(r)` hook explicitly allows).
    Decay {
        /// Number of subsequent requests after which a contribution halves.
        half_life: f64,
    },
}

/// Per-request record stored in the history.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The canonical file-bundle identifying the request.
    pub bundle: Bundle,
    /// Number of occurrences observed.
    pub count: u64,
    /// Decayed value accumulator (equals `count` under [`ValueFn::Count`]).
    value_acc: f64,
    /// Tick at which `value_acc` was last brought current.
    value_tick: u64,
    /// Tick (1-based request ordinal) of the most recent occurrence.
    pub last_seen: u64,
    /// Tick of the first occurrence.
    pub first_seen: u64,
    /// Optional externally assigned priority multiplier (paper: the value
    /// "can also reflect request priority or some other measure of
    /// importance"). Defaults to 1.
    pub priority: f64,
}

impl HistoryEntry {
    /// The request's value `v(r)` as of `now`, under `value_fn`.
    #[inline]
    pub fn value_at(&self, now: u64, value_fn: ValueFn) -> f64 {
        let base = match value_fn {
            ValueFn::Count => self.count as f64,
            ValueFn::Decay { half_life } => {
                let dt = now.saturating_sub(self.value_tick) as f64;
                self.value_acc * 0.5_f64.powf(dt / half_life)
            }
        };
        base * self.priority
    }
}

/// The request history `L(R)`.
///
/// Every recency order relies on ticks being unique: each record takes the
/// next tick, and a loaded history is rejected unless its ticks are.
#[derive(Debug, Clone)]
pub struct RequestHistory {
    /// Canonical bundle → entry id: the one hash probe of a record. FxHash;
    /// no iteration order escapes (consumers walk the slab or the list).
    ids: FxHashMap<Bundle, u32>,
    /// Entry id → entry, in first-record order.
    entries: Vec<HistoryEntry>,
    /// Each entry's file ids, in canonical bundle order:
    /// `entry_files[entry_offsets[id]..entry_offsets[id + 1]]`.
    entry_files: Vec<u32>,
    entry_offsets: Vec<u32>,
    /// `(prev, next)` links of the recency list by entry id, most recent
    /// first from `head`.
    links: Vec<(u32, u32)>,
    head: u32,
    /// `FileId` → file id (`NONE` for none), minted at a file's first
    /// contact and grown to cover the largest `FileId` seen.
    file_of: Vec<u32>,
    /// File id → `FileId`.
    file_ids: Vec<FileId>,
    /// `d(f)` by file id: number of distinct requests using each file.
    degrees: Vec<u32>,
    /// Total requests recorded (including repeats).
    tick: u64,
    value_fn: ValueFn,
}

impl Default for RequestHistory {
    fn default() -> Self {
        Self::with_value_fn(ValueFn::Count)
    }
}

impl RequestHistory {
    /// Creates an empty history with counting values.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty history with the given value function.
    pub fn with_value_fn(value_fn: ValueFn) -> Self {
        Self {
            ids: FxHashMap::default(),
            entries: Vec::new(),
            entry_files: Vec::new(),
            entry_offsets: vec![0],
            links: Vec::new(),
            head: NONE,
            file_of: Vec::new(),
            file_ids: Vec::new(),
            degrees: Vec::new(),
            tick: 0,
            value_fn,
        }
    }

    /// The configured value function.
    pub fn value_fn(&self) -> ValueFn {
        self.value_fn
    }

    /// Records one occurrence of `bundle` (the paper's Step 4: "update the
    /// data structure `L(R)` with all relevant information about `r_new`"),
    /// returning its entry id. One hash probe of the bundle; a first
    /// occurrence also mints its entry id and bumps `d(f)` of its files.
    /// The bundle's files are ids of the catalog the history serves: the
    /// file slab grows to cover the largest one.
    pub fn record(&mut self, bundle: &Bundle) -> u32 {
        self.tick += 1;
        let tick = self.tick;
        let fresh = self.entries.len() as u32;
        let id = match self.ids.entry(bundle.clone()) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => *v.insert(fresh),
        };
        if id == fresh {
            // A zeroed seed entry: the shared update below brings it to the
            // exact state a fresh entry had before (count 1, value_acc 1.0).
            self.push_entry(HistoryEntry {
                bundle: bundle.clone(),
                count: 0,
                value_acc: 0.0,
                value_tick: tick,
                last_seen: tick,
                first_seen: tick,
                priority: 1.0,
            });
        } else {
            self.unlink(id);
        }
        let value_fn = self.value_fn;
        let e = &mut self.entries[id as usize];
        // Bring the decayed accumulator current before adding 1.
        e.value_acc = match value_fn {
            ValueFn::Count => (e.count + 1) as f64,
            ValueFn::Decay { half_life } => {
                let dt = tick.saturating_sub(e.value_tick) as f64;
                e.value_acc * 0.5_f64.powf(dt / half_life) + 1.0
            }
        };
        e.value_tick = tick;
        e.count += 1;
        e.last_seen = tick;
        self.push_front(id);
        id
    }

    /// Appends `entry` under the next id (unlinked), interning its files
    /// and bumping their degrees.
    fn push_entry(&mut self, entry: HistoryEntry) {
        for f in entry.bundle.iter() {
            let fid = self.intern_file(f);
            self.degrees[fid as usize] += 1;
            self.entry_files.push(fid);
        }
        self.entry_offsets.push(self.entry_files.len() as u32);
        self.links.push((NONE, NONE));
        self.entries.push(entry);
    }

    /// The file id of `file`, minting one (degree 0) on first contact. The
    /// decision state interns cache insertions here, so a file resident
    /// before any recorded bundle names it keeps its id when one does.
    pub(crate) fn intern_file(&mut self, file: FileId) -> u32 {
        let idx = file.index();
        if idx >= self.file_of.len() {
            self.file_of.resize(idx + 1, NONE);
        }
        if self.file_of[idx] == NONE {
            self.file_of[idx] = self.file_ids.len() as u32;
            self.file_ids.push(file);
            self.degrees.push(0);
        }
        self.file_of[idx]
    }

    fn unlink(&mut self, id: u32) {
        let (p, n) = self.links[id as usize];
        if p != NONE {
            self.links[p as usize].1 = n;
        } else {
            self.head = n;
        }
        if n != NONE {
            self.links[n as usize].0 = p;
        }
    }

    fn push_front(&mut self, id: u32) {
        self.links[id as usize] = (NONE, self.head);
        if self.head != NONE {
            self.links[self.head as usize].0 = id;
        }
        self.head = id;
    }

    /// Sets the priority multiplier of a known request.
    ///
    /// # Panics
    ///
    /// If `priority` is negative (`-0.0` included) or not finite: values
    /// are `base · priority`, and the selection kernels need them finite
    /// and non-negative, with zero as `+0.0` so every kernel orders it
    /// alike.
    pub fn set_priority(&mut self, bundle: &Bundle, priority: f64) -> bool {
        assert!(
            is_non_negative(priority),
            "priority must be finite and non-negative, got {priority}"
        );
        match self.ids.get(bundle) {
            Some(&id) => {
                self.entries[id as usize].priority = priority;
                true
            }
            None => false,
        }
    }

    /// Number of *distinct* requests recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no request has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total occurrences recorded (including repeats).
    pub fn total_requests(&self) -> u64 {
        self.tick
    }

    /// Degree `d(f)`: distinct requests using `f`. Zero for unseen files.
    #[inline]
    pub fn degree(&self, file: FileId) -> u32 {
        self.file_id(file)
            .map_or(0, |fid| self.degrees[fid as usize])
    }

    /// Maximum degree `d` over all files — the `d` of Theorem 4.1.
    pub fn max_degree(&self) -> u32 {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Adjusted size `s'(f) = s(f) / d(f)`. Files never seen get their full
    /// size (degree clamped to 1), matching the intuition that an unshared
    /// file yields no discount.
    pub fn adjusted_size(&self, file: FileId, catalog: &FileCatalog) -> f64 {
        catalog.size(file) as f64 / self.degree(file).max(1) as f64
    }

    /// The value `v(r)` of a known request as of now.
    pub fn value_of(&self, bundle: &Bundle) -> Option<f64> {
        self.get(bundle)
            .map(|e| e.value_at(self.tick, self.value_fn))
    }

    /// Adjusted relative value `v'(r) = v(r) / Σ s'(f)` of a bundle.
    ///
    /// For bundles not (yet) in the history the value defaults to 1 (a first
    /// occurrence), which is what the queue scheduler needs when ranking
    /// brand-new arrivals.
    pub fn relative_value(&self, bundle: &Bundle, catalog: &FileCatalog) -> f64 {
        let v = self.value_of(bundle).unwrap_or(1.0);
        let denom: f64 = bundle.iter().map(|f| self.adjusted_size(f, catalog)).sum();
        if denom <= 0.0 {
            // An empty bundle consumes no cache resources; rank it first.
            f64::INFINITY
        } else {
            v / denom
        }
    }

    /// Looks up the entry for `bundle`.
    pub fn get(&self, bundle: &Bundle) -> Option<&HistoryEntry> {
        self.ids.get(bundle).map(|&id| &self.entries[id as usize])
    }

    /// Iterates over all entries in first-record order.
    pub fn entries(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.entries.iter()
    }

    /// The `n` most recently seen distinct requests, most recent first
    /// (windowed-history truncation, paper §5.2): `n` steps along the
    /// recency list.
    pub fn most_recent(&self, n: usize) -> Vec<&HistoryEntry> {
        self.recency()
            .take(n)
            .map(|id| &self.entries[id as usize])
            .collect()
    }

    /// Entry ids, most recently seen first.
    pub(crate) fn recency(&self) -> impl Iterator<Item = u32> + '_ {
        let first = (self.head != NONE).then_some(self.head);
        std::iter::successors(first, |&id| {
            let next = self.links[id as usize].1;
            (next != NONE).then_some(next)
        })
    }

    /// The entry with id `id`.
    #[inline]
    pub(crate) fn entry(&self, id: u32) -> &HistoryEntry {
        &self.entries[id as usize]
    }

    /// The positions of entry `id`'s files in [`Self::entry_files`].
    #[inline]
    pub(crate) fn span(&self, id: usize) -> Range<usize> {
        self.entry_offsets[id] as usize..self.entry_offsets[id + 1] as usize
    }

    /// Every entry's file ids, back to back (see [`Self::span`]).
    #[inline]
    pub(crate) fn entry_files(&self) -> &[u32] {
        &self.entry_files
    }

    /// The file id of `file`, if it has one.
    #[inline]
    pub(crate) fn file_id(&self, file: FileId) -> Option<u32> {
        self.file_of
            .get(file.index())
            .copied()
            .filter(|&fid| fid != NONE)
    }

    /// File id → `FileId`.
    #[inline]
    pub(crate) fn file_ids(&self) -> &[FileId] {
        &self.file_ids
    }

    /// `d(f)` by file id.
    #[inline]
    pub(crate) fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Probability that a random request (drawn from the empirical
    /// distribution of recorded occurrences) uses `file` — the rows of the
    /// paper's Table 1.
    pub fn file_request_probability(&self, file: FileId) -> f64 {
        if self.tick == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .entries
            .iter()
            .filter(|e| e.bundle.contains(file))
            .map(|e| e.count)
            .sum();
        hits as f64 / self.tick as f64
    }

    /// Probability that a random request finds *all* its files in the set
    /// described by `contains` — the *request-hit probability* of the
    /// paper's Table 2.
    pub fn request_hit_probability<F: Fn(FileId) -> bool>(&self, contains: F) -> f64 {
        if self.tick == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .entries
            .iter()
            .filter(|e| e.bundle.is_subset_of(&contains))
            .map(|e| e.count)
            .sum();
        hits as f64 / self.tick as f64
    }
}

impl RequestHistory {
    /// Serialises the history in a dependency-free line format, so an SRM
    /// can persist its learned request popularity across restarts:
    ///
    /// ```text
    /// # fbc-history v1
    /// value_fn count
    /// tick 42
    /// entries 2
    /// 3 3 40 40 7 1 0 2 5
    /// 1 1 42 42 42 1 4
    /// ```
    ///
    /// Entry fields: `count value_acc value_tick last_seen first_seen
    /// priority file...`, entries in first-record order (floats printed
    /// exactly via their bit patterns would be overkill; the accumulator
    /// round-trips through decimal with enough digits for the ranking to be
    /// preserved).
    pub fn write_to<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(w);
        writeln!(w, "# fbc-history v1")?;
        match self.value_fn {
            ValueFn::Count => writeln!(w, "value_fn count")?,
            ValueFn::Decay { half_life } => writeln!(w, "value_fn decay {half_life}")?,
        }
        writeln!(w, "tick {}", self.tick)?;
        writeln!(w, "entries {}", self.entries.len())?;
        for e in &self.entries {
            write!(
                w,
                "{} {} {} {} {} {}",
                e.count, e.value_acc, e.value_tick, e.last_seen, e.first_seen, e.priority
            )?;
            for f in e.bundle.iter() {
                write!(w, " {}", f.0)?;
            }
            writeln!(w)?;
        }
        w.flush()
    }

    /// Reads a history previously written by [`RequestHistory::write_to`],
    /// for use with `catalog`. Every file the history names must be in the
    /// catalog: a warm start over another catalog fails here, with
    /// `InvalidData`, instead of panicking at its first decision. So does
    /// a history whose ticks could not have been recorded: a tick above
    /// the header's, a first occurrence after the last, or two entries
    /// sharing a first or a last occurrence.
    pub fn read_from<R: std::io::Read>(r: R, catalog: &FileCatalog) -> std::io::Result<Self> {
        use std::io::BufRead as _;
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut lines = std::io::BufReader::new(r).lines();
        let mut next_line = move || -> std::io::Result<String> {
            loop {
                match lines.next() {
                    None => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "truncated history",
                        ))
                    }
                    Some(line) => {
                        let line = line?;
                        let t = line.trim();
                        if !t.is_empty() && !t.starts_with('#') {
                            return Ok(t.to_string());
                        }
                    }
                }
            }
        };

        let vf_line = next_line()?;
        let value_fn = if vf_line == "value_fn count" {
            ValueFn::Count
        } else if let Some(hl) = vf_line.strip_prefix("value_fn decay ") {
            let half_life: f64 = hl.parse().map_err(|_| bad("bad half_life"))?;
            // A zero half-life decays by 0/0 = NaN on a same-tick record.
            if !(half_life.is_finite() && half_life > 0.0) {
                return Err(bad("half_life must be finite and positive"));
            }
            ValueFn::Decay { half_life }
        } else {
            return Err(bad("expected 'value_fn ...'"));
        };
        let tick: u64 = next_line()?
            .strip_prefix("tick ")
            .ok_or_else(|| bad("expected 'tick <n>'"))?
            .parse()
            .map_err(|_| bad("bad tick"))?;
        let n: usize = next_line()?
            .strip_prefix("entries ")
            .ok_or_else(|| bad("expected 'entries <n>'"))?
            .parse()
            .map_err(|_| bad("bad entry count"))?;

        let mut entries = Vec::new();
        for _ in 0..n {
            let line = next_line()?;
            let mut tok = line.split_whitespace();
            let mut take = |name: &str| tok.next().ok_or_else(|| bad(&format!("missing {name}")));
            let count: u64 = take("count")?.parse().map_err(|_| bad("bad count"))?;
            let value_acc: f64 = take("value_acc")?.parse().map_err(|_| bad("bad value"))?;
            if !is_non_negative(value_acc) {
                return Err(bad("value must be finite and non-negative"));
            }
            let value_tick: u64 = take("value_tick")?
                .parse()
                .map_err(|_| bad("bad value_tick"))?;
            let last_seen: u64 = take("last_seen")?
                .parse()
                .map_err(|_| bad("bad last_seen"))?;
            let first_seen: u64 = take("first_seen")?
                .parse()
                .map_err(|_| bad("bad first_seen"))?;
            // A tick above the header's would be taken again by the next
            // record.
            if value_tick.max(last_seen).max(first_seen) > tick {
                return Err(bad("entry tick above the history's tick"));
            }
            if first_seen > last_seen {
                return Err(bad("first_seen after last_seen"));
            }
            let priority: f64 = take("priority")?.parse().map_err(|_| bad("bad priority"))?;
            // Values are `base · priority`, and the selection kernels need
            // them finite and non-negative.
            if !is_non_negative(priority) {
                return Err(bad("priority must be finite and non-negative"));
            }
            let files: Vec<FileId> = tok
                .map(|t| t.parse::<u32>().map(FileId).map_err(|_| bad("bad file id")))
                .collect::<std::io::Result<_>>()?;
            if let Some(f) = files.iter().find(|&&f| !catalog.contains(f)) {
                return Err(bad(&format!("file {} is not in the catalog", f.0)));
            }
            if files.is_empty() {
                return Err(bad("entry without files"));
            }
            entries.push(HistoryEntry {
                bundle: Bundle::new(files),
                count,
                value_acc,
                value_tick,
                last_seen,
                first_seen,
                priority,
            });
        }

        // Ids follow first-record order and the recency list last-record
        // order; equal ticks would leave either order ambiguous.
        let ticks = |tick: fn(&HistoryEntry) -> u64| {
            let mut t: Vec<u64> = entries.iter().map(tick).collect();
            t.sort_unstable();
            t
        };
        if ticks(|e| e.first_seen).windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("two entries share a first_seen tick"));
        }
        if ticks(|e| e.last_seen).windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("two entries share a last_seen tick"));
        }
        entries.sort_unstable_by_key(|e| e.first_seen);
        let mut history = RequestHistory::with_value_fn(value_fn);
        history.tick = tick;
        for (id, e) in entries.into_iter().enumerate() {
            if history.ids.insert(e.bundle.clone(), id as u32).is_some() {
                return Err(bad("duplicate bundle entry"));
            }
            history.push_entry(e);
        }
        let mut by_recency: Vec<u32> = (0..history.len() as u32).collect();
        by_recency.sort_unstable_by_key(|&id| history.entries[id as usize].last_seen);
        for id in by_recency {
            history.push_front(id);
        }
        Ok(history)
    }
}

/// Finite and `+0.0` or above. `-0.0 >= 0.0` holds, but `-0.0` and `0.0`
/// tie under `partial_cmp` and not under `total_cmp`, so the kernels that
/// rank by either would order a `-0.0` value differently.
fn is_non_negative(x: f64) -> bool {
    x.is_finite() && x.is_sign_positive()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn degree_of_a_never_seen_file_is_zero_and_grows_nothing() {
        let mut h = RequestHistory::new();
        h.record(&b(&[1, 2]));
        let slab = h.file_of.len();
        for f in [FileId(0), FileId(3), FileId(1 << 20), FileId(u32::MAX)] {
            assert_eq!(h.degree(f), 0);
            assert_eq!(h.file_id(f), None);
        }
        assert_eq!(h.file_of.len(), slab, "lookups grow no slab");
        assert_eq!(h.file_ids().len(), 2, "lookups mint no file id");
    }

    #[test]
    fn record_counts_and_degrees() {
        let mut h = RequestHistory::new();
        h.record(&b(&[1, 2]));
        h.record(&b(&[2, 3]));
        h.record(&b(&[1, 2])); // repeat: degrees unchanged
        assert_eq!(h.len(), 2);
        assert_eq!(h.total_requests(), 3);
        assert_eq!(h.degree(FileId(1)), 1);
        assert_eq!(h.degree(FileId(2)), 2);
        assert_eq!(h.degree(FileId(3)), 1);
        assert_eq!(h.degree(FileId(9)), 0);
        assert_eq!(h.max_degree(), 2);
        assert_eq!(h.value_of(&b(&[1, 2])), Some(2.0));
    }

    #[test]
    fn adjusted_size_divides_by_degree() {
        let catalog = FileCatalog::from_sizes(vec![0, 100, 60]);
        let mut h = RequestHistory::new();
        h.record(&b(&[1, 2]));
        h.record(&b(&[1]));
        // d(f1)=2 -> s' = 50; d(f2)=1 -> s' = 60.
        assert!((h.adjusted_size(FileId(1), &catalog) - 50.0).abs() < 1e-12);
        assert!((h.adjusted_size(FileId(2), &catalog) - 60.0).abs() < 1e-12);
        // Unseen file keeps its full size.
        assert!((h.adjusted_size(FileId(0), &catalog) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn relative_value_matches_definition() {
        let catalog = FileCatalog::from_sizes(vec![100, 100]);
        let mut h = RequestHistory::new();
        let r = b(&[0, 1]);
        h.record(&r);
        h.record(&r);
        // v = 2, s'(f0)=s'(f1)=100 (degree 1 each) -> v' = 2/200.
        assert!((h.relative_value(&r, &catalog) - 0.01).abs() < 1e-12);
        // Unseen bundle defaults to value 1.
        let unseen = b(&[0]);
        assert!((h.relative_value(&unseen, &catalog) - 1.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn decayed_values_shrink_with_time() {
        let mut h = RequestHistory::with_value_fn(ValueFn::Decay { half_life: 2.0 });
        let hot = b(&[1]);
        h.record(&hot);
        // Four unrelated requests age the first one by 4 ticks = 2 half-lives.
        for i in 10..14 {
            h.record(&b(&[i]));
        }
        let v = h.value_of(&hot).unwrap();
        assert!((v - 0.25).abs() < 1e-9, "expected 0.25, got {v}");
        // Re-recording brings it back above 1.
        h.record(&hot);
        assert!(h.value_of(&hot).unwrap() > 1.0);
    }

    #[test]
    fn count_values_ignore_time() {
        let mut h = RequestHistory::new();
        let r = b(&[1]);
        h.record(&r);
        for i in 10..20 {
            h.record(&b(&[i]));
        }
        assert_eq!(h.value_of(&r), Some(1.0));
    }

    #[test]
    fn priority_scales_value() {
        let mut h = RequestHistory::new();
        let r = b(&[1]);
        h.record(&r);
        assert!(h.set_priority(&r, 5.0));
        assert_eq!(h.value_of(&r), Some(5.0));
        assert!(!h.set_priority(&b(&[99]), 2.0));
    }

    #[test]
    #[should_panic(expected = "priority must be finite and non-negative")]
    fn negative_priority_is_rejected() {
        let mut h = RequestHistory::new();
        h.record(&b(&[1]));
        h.set_priority(&b(&[1]), -1.0);
    }

    #[test]
    #[should_panic(expected = "priority must be finite and non-negative")]
    fn negative_zero_priority_is_rejected() {
        let mut h = RequestHistory::new();
        h.record(&b(&[1]));
        h.set_priority(&b(&[1]), -0.0);
    }

    #[test]
    fn most_recent_orders_by_last_seen() {
        let mut h = RequestHistory::new();
        h.record(&b(&[1]));
        h.record(&b(&[2]));
        h.record(&b(&[3]));
        h.record(&b(&[1])); // refresh
        let recent: Vec<_> = h
            .most_recent(2)
            .into_iter()
            .map(|e| e.bundle.clone())
            .collect();
        assert_eq!(recent, vec![b(&[1]), b(&[3])]);
    }

    #[test]
    fn most_recent_matches_full_sort_for_every_n() {
        // Regression for the partial-selection rewrite: the returned order
        // must be unchanged vs collecting and fully sorting the history.
        let mut h = RequestHistory::new();
        let mut state = 0x9e37_79b9_u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) as u32 % 60;
            let bb = (state >> 17) as u32 % 60;
            h.record(&b(&[a, bb]));
        }
        let naive: Vec<Bundle> = {
            let mut v: Vec<&HistoryEntry> = h.entries().collect();
            v.sort_unstable_by_key(|e| std::cmp::Reverse(e.last_seen));
            v.into_iter().map(|e| e.bundle.clone()).collect()
        };
        for n in [
            0,
            1,
            2,
            7,
            naive.len().saturating_sub(1),
            naive.len(),
            naive.len() + 10,
        ] {
            let got: Vec<Bundle> = h
                .most_recent(n)
                .into_iter()
                .map(|e| e.bundle.clone())
                .collect();
            assert_eq!(got.len(), n.min(naive.len()), "n={n}");
            assert_eq!(got[..], naive[..n.min(naive.len())], "n={n}");
        }
    }

    /// The paper's worked example (§3, Fig. 3 / Table 1): six equally likely
    /// requests over seven files.
    fn paper_example() -> RequestHistory {
        let mut h = RequestHistory::new();
        // r1={f1,f3,f5}, r2={f2,f6,f7}, r3={f1,f5}, r4={f4,f6,f7},
        // r5={f3,f5}, r6={f5,f6,f7}.
        // This is the unique-style assignment consistent with BOTH paper
        // tables: Table 1's file-request counts (d(f1)=2, d(f2)=1, d(f3)=2,
        // d(f4)=1, d(f5)=4, d(f6)=3, d(f7)=3) and every row of Table 2,
        // including "{f1,f5,f6} supports r3".
        for r in [
            b(&[1, 3, 5]),
            b(&[2, 6, 7]),
            b(&[1, 5]),
            b(&[4, 6, 7]),
            b(&[3, 5]),
            b(&[5, 6, 7]),
        ] {
            h.record(&r);
        }
        h
    }

    #[test]
    fn table1_file_request_probabilities() {
        let h = paper_example();
        let p = |f: u32| h.file_request_probability(FileId(f));
        assert!((p(1) - 2.0 / 6.0).abs() < 1e-12);
        assert!((p(2) - 1.0 / 6.0).abs() < 1e-12);
        assert!((p(3) - 2.0 / 6.0).abs() < 1e-12);
        assert!((p(4) - 1.0 / 6.0).abs() < 1e-12);
        assert!((p(5) - 4.0 / 6.0).abs() < 1e-12);
        assert!((p(6) - 3.0 / 6.0).abs() < 1e-12);
        assert!((p(7) - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.max_degree(), 4); // f5, as the paper notes
    }

    #[test]
    fn table2_request_hit_probabilities() {
        let h = paper_example();
        let hit = |cache: &[u32]| h.request_hit_probability(|f| cache.contains(&f.0));
        // Row 1: {f5,f6,f7} supports only r6 -> 1/6.
        assert!((hit(&[5, 6, 7]) - 1.0 / 6.0).abs() < 1e-12);
        // Row 2: {f1,f3,f5} supports r1, r3, r5 -> 1/2 (the paper's best).
        assert!((hit(&[1, 3, 5]) - 0.5).abs() < 1e-12);
        // Row 3: {f1,f5,f6} supports only r3 = {f1,f5}, as the paper lists.
        assert!((hit(&[1, 5, 6]) - 1.0 / 6.0).abs() < 1e-12);
        // Row 4: {f3,f5,f6} supports only r5 -> 1/6.
        assert!((hit(&[3, 5, 6]) - 1.0 / 6.0).abs() < 1e-12);
        // Row 5: {f1,f2,f3} supports nothing.
        assert_eq!(hit(&[1, 2, 3]), 0.0);
    }

    #[test]
    fn persistence_roundtrip_preserves_everything() {
        let mut h = RequestHistory::with_value_fn(ValueFn::Decay { half_life: 3.5 });
        for r in [b(&[1, 2]), b(&[2, 3]), b(&[1, 2]), b(&[4])] {
            h.record(&r);
        }
        h.set_priority(&b(&[4]), 2.5);
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        let catalog = FileCatalog::from_sizes(vec![0, 10, 10, 10, 10]);
        let back = RequestHistory::read_from(&buf[..], &catalog).unwrap();
        assert_eq!(back.len(), h.len());
        assert_eq!(back.total_requests(), h.total_requests());
        assert_eq!(back.value_fn(), h.value_fn());
        for f in 1..=4u32 {
            assert_eq!(back.degree(FileId(f)), h.degree(FileId(f)));
        }
        for r in [b(&[1, 2]), b(&[2, 3]), b(&[4])] {
            let (a, bb) = (h.value_of(&r).unwrap(), back.value_of(&r).unwrap());
            assert!((a - bb).abs() < 1e-9, "{a} vs {bb}");
            assert_eq!(
                h.get(&r).unwrap().last_seen,
                back.get(&r).unwrap().last_seen
            );
        }
        // A restarted SRM keeps ranking identically.
        assert!(
            (h.relative_value(&b(&[1, 2]), &catalog) - back.relative_value(&b(&[1, 2]), &catalog))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn persistence_rejects_malformed_input() {
        for text in [
            "value_fn sometimes
tick 0
entries 0
",
            "value_fn count
tick x
entries 0
",
            "value_fn count
tick 1
entries 1
1 1 1 1 1 1
", // no files
            "value_fn count
tick 1
entries 2
1 1 1 1 1 1 3
1 1 1 1 1 1 3
", // dup
            "value_fn count
tick 1
entries 1
", // truncated
        ] {
            assert!(
                RequestHistory::read_from(text.as_bytes(), &catalog_of(8)).is_err(),
                "{text:?}"
            );
        }
    }

    fn catalog_of(files: usize) -> FileCatalog {
        FileCatalog::from_sizes(vec![1; files])
    }

    /// Warm-start values feed the selection keys, which must never be NaN.
    fn assert_invalid(text: &str) {
        let err = RequestHistory::read_from(text.as_bytes(), &catalog_of(8)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
    }

    #[test]
    fn persistence_rejects_bad_half_life() {
        for half_life in ["nan", "inf", "0", "-1"] {
            assert_invalid(&format!("value_fn decay {half_life}\ntick 0\nentries 0\n"));
        }
    }

    #[test]
    fn persistence_rejects_bad_value_acc() {
        for value_acc in ["nan", "inf", "-inf", "-1"] {
            assert_invalid(&format!(
                "value_fn count\ntick 1\nentries 1\n1 {value_acc} 1 1 1 1 3\n"
            ));
        }
    }

    #[test]
    fn persistence_rejects_non_finite_priority() {
        for priority in ["nan", "inf", "-inf"] {
            assert_invalid(&format!(
                "value_fn count\ntick 1\nentries 1\n1 1 1 1 1 {priority} 3\n"
            ));
        }
    }

    /// A negative priority makes a negative value, which the selection
    /// kernels do not accept (the instance builder panics on it mid-run).
    #[test]
    fn persistence_rejects_negative_priority() {
        assert_invalid("value_fn count\ntick 1\nentries 1\n1 1 1 1 1 -1 3\n");
    }

    #[test]
    fn persistence_rejects_negative_zero() {
        // value_acc, then priority.
        assert_invalid("value_fn count\ntick 1\nentries 1\n1 -0 1 1 1 1 3\n");
        assert_invalid("value_fn count\ntick 1\nentries 1\n1 1 1 1 1 -0 3\n");
        // Positive zero stays valid for both.
        let ok = "value_fn count\ntick 1\nentries 1\n1 0 1 1 1 0 3\n";
        assert!(RequestHistory::read_from(ok.as_bytes(), &catalog_of(8)).is_ok());
    }

    /// Every recency order relies on unique ticks, and the next record
    /// takes the header's tick + 1: a file breaking either fails at load.
    #[test]
    fn persistence_rejects_entry_ticks_above_the_header() {
        // value_tick, then last_seen, then first_seen above tick 3.
        for ticks in ["4 3 1", "3 4 1", "3 3 4"] {
            assert_invalid(&format!(
                "value_fn count\ntick 3\nentries 1\n1 1 {ticks} 1 3\n"
            ));
        }
    }

    #[test]
    fn persistence_rejects_first_seen_after_last_seen() {
        assert_invalid("value_fn count\ntick 5\nentries 1\n1 1 2 2 3 1 3\n");
    }

    #[test]
    fn persistence_rejects_shared_last_seen() {
        assert_invalid("value_fn count\ntick 5\nentries 2\n1 1 4 4 1 1 3\n1 1 4 4 2 1 4\n");
    }

    #[test]
    fn persistence_rejects_shared_first_seen() {
        assert_invalid("value_fn count\ntick 5\nentries 2\n1 1 4 4 1 1 3\n1 1 5 5 1 1 4\n");
    }

    /// The same entries with distinct ticks load, and the recency list is
    /// rebuilt from `last_seen` whatever order the file lists them in.
    #[test]
    fn persistence_rebuilds_recency_from_ticks() {
        let text =
            "value_fn count\ntick 5\nentries 3\n1 1 5 5 2 1 4\n1 1 4 4 1 1 3\n1 1 3 3 3 1 5\n";
        let h = RequestHistory::read_from(text.as_bytes(), &catalog_of(8)).unwrap();
        let recent: Vec<Bundle> = h
            .most_recent(3)
            .into_iter()
            .map(|e| e.bundle.clone())
            .collect();
        assert_eq!(recent, vec![b(&[4]), b(&[3]), b(&[5])]);
        let firsts: Vec<u64> = h.entries().map(|e| e.first_seen).collect();
        assert_eq!(firsts, vec![1, 2, 3]);
    }

    #[test]
    fn empty_history_probabilities_are_zero() {
        let h = RequestHistory::new();
        assert_eq!(h.file_request_probability(FileId(0)), 0.0);
        assert_eq!(h.request_hit_probability(|_| true), 0.0);
    }
}
