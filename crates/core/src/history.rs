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
//! structures"; this is that hash table.

use crate::bundle::Bundle;
use crate::catalog::FileCatalog;
use crate::types::FileId;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

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
    /// The raw decayed-value accumulator state `(value_acc, value_tick)`,
    /// for mirrors that must reproduce [`HistoryEntry::value_at`] bit for
    /// bit from dense storage (see [`crate::resident`]).
    pub(crate) fn value_state(&self) -> (f64, u64) {
        (self.value_acc, self.value_tick)
    }

    /// The request's value `v(r)` as of `now`, under `value_fn`.
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
#[derive(Debug, Clone, Default)]
pub struct RequestHistory {
    /// FxHash on both maps: `degree()` sits on the decision hot path, and
    /// no iteration order ever escapes (consumers sort by the unique
    /// `last_seen`/`first_seen` ticks, or take order-free integer sums).
    entries: FxHashMap<Bundle, HistoryEntry>,
    /// `d(f)`: number of distinct requests using each file.
    degrees: FxHashMap<FileId, u32>,
    /// Total requests recorded (including repeats).
    tick: u64,
    value_fn: ValueFn,
}

impl RequestHistory {
    /// Creates an empty history with counting values.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty history with the given value function.
    pub fn with_value_fn(value_fn: ValueFn) -> Self {
        Self {
            value_fn,
            ..Self::default()
        }
    }

    /// The configured value function.
    pub fn value_fn(&self) -> ValueFn {
        self.value_fn
    }

    /// Records one occurrence of `bundle` (the paper's Step 4: "update the
    /// data structure `L(R)` with all relevant information about `r_new`"),
    /// returning the updated entry so mirrors can sync from it in O(1).
    pub fn record(&mut self, bundle: &Bundle) -> &HistoryEntry {
        self.tick += 1;
        let tick = self.tick;
        let value_fn = self.value_fn;
        if !self.entries.contains_key(bundle) {
            for f in bundle.iter() {
                *self.degrees.entry(f).or_insert(0) += 1;
            }
            // A zeroed seed entry: the shared update below brings it to the
            // exact state a fresh entry had before (count 1, value_acc 1.0).
            self.entries.insert(
                bundle.clone(),
                HistoryEntry {
                    bundle: bundle.clone(),
                    count: 0,
                    value_acc: 0.0,
                    value_tick: tick,
                    last_seen: tick,
                    first_seen: tick,
                    priority: 1.0,
                },
            );
        }
        let e = self
            .entries
            .get_mut(bundle)
            .expect("present or just inserted");
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
        e
    }

    /// Sets the priority multiplier of a known request.
    pub fn set_priority(&mut self, bundle: &Bundle, priority: f64) -> bool {
        match self.entries.get_mut(bundle) {
            Some(e) => {
                e.priority = priority;
                true
            }
            None => false,
        }
    }

    /// Removes a request from the history (used by windowed truncation),
    /// decrementing the degrees of its files.
    pub fn forget(&mut self, bundle: &Bundle) -> bool {
        if self.entries.remove(bundle).is_some() {
            for f in bundle.iter() {
                if let Some(d) = self.degrees.get_mut(&f) {
                    *d -= 1;
                    if *d == 0 {
                        self.degrees.remove(&f);
                    }
                }
            }
            true
        } else {
            false
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
        self.degrees.get(&file).copied().unwrap_or(0)
    }

    /// Maximum degree `d` over all files — the `d` of Theorem 4.1.
    pub fn max_degree(&self) -> u32 {
        self.degrees.values().copied().max().unwrap_or(0)
    }

    /// Adjusted size `s'(f) = s(f) / d(f)`. Files never seen get their full
    /// size (degree clamped to 1), matching the intuition that an unshared
    /// file yields no discount.
    pub fn adjusted_size(&self, file: FileId, catalog: &FileCatalog) -> f64 {
        catalog.size(file) as f64 / self.degree(file).max(1) as f64
    }

    /// The value `v(r)` of a known request as of now.
    pub fn value_of(&self, bundle: &Bundle) -> Option<f64> {
        self.entries
            .get(bundle)
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
        self.entries.get(bundle)
    }

    /// Iterates over all entries in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.entries.values()
    }

    /// The `n` most recently seen distinct requests, most recent first
    /// (windowed-history truncation, paper §5.2).
    ///
    /// Partial-selects the top `n` before sorting, so the cost is
    /// `O(|R| + n log n)` instead of `O(|R| log |R|)` — under
    /// `HistoryMode::Window(n)` this runs on every decision, and `n` is
    /// typically far smaller than the full history. `last_seen` ticks are
    /// unique per distinct request, so selection + sort reproduces the full
    /// sort's order exactly.
    pub fn most_recent(&self, n: usize) -> Vec<&HistoryEntry> {
        if n == 0 {
            return Vec::new();
        }
        let mut v: Vec<&HistoryEntry> = self.entries.values().collect();
        if n < v.len() {
            v.select_nth_unstable_by_key(n - 1, |e| std::cmp::Reverse(e.last_seen));
            v.truncate(n);
        }
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.last_seen));
        v
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
            .values()
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
            .values()
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
    /// priority file...` (floats printed exactly via their bit patterns
    /// would be overkill; the accumulator round-trips through decimal with
    /// enough digits for the ranking to be preserved).
    pub fn write_to<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(w);
        writeln!(w, "# fbc-history v1")?;
        match self.value_fn {
            ValueFn::Count => writeln!(w, "value_fn count")?,
            ValueFn::Decay { half_life } => writeln!(w, "value_fn decay {half_life}")?,
        }
        writeln!(w, "tick {}", self.tick)?;
        // Deterministic order: by first_seen.
        let mut entries: Vec<&HistoryEntry> = self.entries.values().collect();
        entries.sort_unstable_by_key(|e| e.first_seen);
        writeln!(w, "entries {}", entries.len())?;
        for e in entries {
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

    /// Reads a history previously written by [`RequestHistory::write_to`].
    pub fn read_from<R: std::io::Read>(r: R) -> std::io::Result<Self> {
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

        let mut history = RequestHistory::with_value_fn(value_fn);
        history.tick = tick;
        for _ in 0..n {
            let line = next_line()?;
            let mut tok = line.split_whitespace();
            let mut take = |name: &str| tok.next().ok_or_else(|| bad(&format!("missing {name}")));
            let count: u64 = take("count")?.parse().map_err(|_| bad("bad count"))?;
            let value_acc: f64 = take("value_acc")?.parse().map_err(|_| bad("bad value"))?;
            if !(value_acc.is_finite() && value_acc >= 0.0) {
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
            let priority: f64 = take("priority")?.parse().map_err(|_| bad("bad priority"))?;
            if !priority.is_finite() {
                return Err(bad("priority must be finite"));
            }
            let files: Vec<FileId> = tok
                .map(|t| t.parse::<u32>().map(FileId).map_err(|_| bad("bad file id")))
                .collect::<std::io::Result<_>>()?;
            if files.is_empty() {
                return Err(bad("entry without files"));
            }
            let bundle = Bundle::new(files);
            if history.entries.contains_key(&bundle) {
                return Err(bad("duplicate bundle entry"));
            }
            for f in bundle.iter() {
                *history.degrees.entry(f).or_insert(0) += 1;
            }
            history.entries.insert(
                bundle.clone(),
                HistoryEntry {
                    bundle,
                    count,
                    value_acc,
                    value_tick,
                    last_seen,
                    first_seen,
                    priority,
                },
            );
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
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
    fn forget_decrements_degrees() {
        let mut h = RequestHistory::new();
        h.record(&b(&[1, 2]));
        h.record(&b(&[2, 3]));
        assert!(h.forget(&b(&[1, 2])));
        assert_eq!(h.degree(FileId(1)), 0);
        assert_eq!(h.degree(FileId(2)), 1);
        assert!(!h.forget(&b(&[1, 2])));
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
        let back = RequestHistory::read_from(&buf[..]).unwrap();
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
        let catalog = FileCatalog::from_sizes(vec![0, 10, 10, 10, 10]);
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
                RequestHistory::read_from(text.as_bytes()).is_err(),
                "{text:?}"
            );
        }
    }

    /// Warm-start values feed the selection keys, which must never be NaN.
    fn assert_invalid(text: &str) {
        let err = RequestHistory::read_from(text.as_bytes()).unwrap_err();
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

    #[test]
    fn empty_history_probabilities_are_zero() {
        let h = RequestHistory::new();
        assert_eq!(h.file_request_probability(FileId(0)), 0.0);
        assert_eq!(h.request_hit_probability(|_| true), 0.0);
    }
}
