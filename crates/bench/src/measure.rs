//! The one measurement core under every `perf_*` gate.
//!
//! A perf bin measures through this module and nothing else:
//!
//! * **The clock.** [`repeat`] times whole calls: warmup, then N repeats.
//!   [`paired_ratio`] interleaves two sides batch by batch, so both sides
//!   of every ratio sample run under the same frequency drift; it is the
//!   only way a gated ratio is computed. Both report [`Summary`]
//!   statistics: min, median, interquartile spread and nearest-rank
//!   p50/p99 ([`fbc_obs::quantile::nearest_rank_index`]).
//! * **The workload generator.** [`xorshift`].
//! * **The `BENCH_core.json` layout.** The file is one object of
//!   `"perf_<bin>"` sections. A bin builds its [`Section`], which starts
//!   with the machine it ran on (hardware threads, build profile, repeat
//!   count), and writes it with one [`Section::write`] call. [`lookup`]
//!   reads a number back, scoped to one section.
//! * **The committed-baseline gate.** [`check_baseline`] compares a
//!   `--smoke` headline with the same headline measured at smoke size by
//!   the last full run (`smoke_<key>`), so the gate compares like with
//!   like. A full run records each such value with [`smoke_baseline`]:
//!   the median of [`SMOKE_RUNS`] fresh smoke-size runs.
//!
//! Result tables are [`Rows`]: one set of rows printed as the terminal
//! table, saved as the `results/` CSV and embedded as the section's JSON
//! rows. Column names double as CSV headers and JSON keys.

use fbc_obs::quantile::nearest_rank_index;
use fbc_sim::report::Table;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The summary file every perf bin writes its section into (repo root).
pub const BENCH_JSON: &str = "BENCH_core.json";

/// One xorshift64 step: the perf workloads' deterministic generator.
pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Whether `--smoke` was passed: reduced sizes, gates enforced, nothing
/// written.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Hardware threads this process may run on.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Order statistics of a sample set. Quantiles are nearest-rank, so each
/// is an actual sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile (p50).
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sum of the samples.
    pub total: f64,
}

impl Summary {
    /// Summarises `samples`, given in any order. Every measurement takes
    /// at least one sample, so an empty set is a bug.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a measurement took no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[nearest_rank_index(q, sorted.len()).expect("non-empty")];
        Self {
            n: sorted.len(),
            min: sorted[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            p99: at(0.99),
            total: sorted.iter().sum(),
        }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.total / self.n as f64
    }

    /// Interquartile range relative to the median: the noise figure
    /// recorded next to every timed headline (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    ((start.elapsed().as_nanos() as f64).max(1.0), result)
}

/// Times `repeats` calls of `f` after `warmup` untimed ones. Returns the
/// per-call wall ns and the last call's result.
pub fn repeat<R>(warmup: usize, repeats: usize, mut f: impl FnMut() -> R) -> (Summary, R) {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let (ns, result) = time_ns(&mut f);
        samples.push(ns);
        last = Some(result);
    }
    (Summary::of(&samples), last.expect("at least one repeat"))
}

/// The layout of a [`paired_ratio`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed calls of each side before the first batch.
    pub warmup: usize,
    /// Interleaved batches (A's calls, then B's), at most.
    pub batches: usize,
    /// Calls of each side per batch.
    pub per_batch: usize,
    /// Wall-clock budget: no batch starts once both sides together have
    /// spent this many ns. The first [`MIN_BATCHES`] batches always run.
    pub budget_ns: f64,
}

/// Batches a [`paired_ratio`] runs before its budget may end it (fewer
/// only when the plan asks for fewer). A ratio needs more than one
/// sample before its median and spread say anything: one slow side
/// could otherwise spend the whole budget in one batch and report a
/// single sample with spread 0.
pub const MIN_BATCHES: usize = 3;

impl Plan {
    /// A plan without a time budget.
    pub fn new(warmup: usize, batches: usize, per_batch: usize) -> Self {
        Self {
            warmup,
            batches,
            per_batch,
            budget_ns: f64::INFINITY,
        }
    }
}

/// Result of [`paired_ratio`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Per-batch `time_b / time_a`. The median is how many times faster
    /// side A ran than side B; it is what a gate compares.
    pub ratio: Summary,
    /// Side A's wall ns per batch.
    pub a: Summary,
    /// Side B's wall ns per batch.
    pub b: Summary,
}

/// Measures `a` against `b` in interleaved batches (A, B, A, B, ...).
///
/// A ratio assembled from two phase-separated measurements inherits the
/// machine's frequency drift between the phases (easily ±15% on a shared
/// box). Interleaving puts both sides of each ratio sample under the same
/// drift, and the median discards the batches an interrupt landed in.
/// Each batch is timed whole: timing every call inside it perturbs
/// short calls enough to move a ratio.
pub fn paired_ratio(plan: Plan, mut a: impl FnMut(), mut b: impl FnMut()) -> Paired {
    for _ in 0..plan.warmup {
        a();
        b();
    }
    let calls = plan.per_batch.max(1);
    let (mut a_ns, mut b_ns) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    for i in 0..plan.batches.max(1) {
        if i >= MIN_BATCHES && spent >= plan.budget_ns {
            break;
        }
        let (ta, ()) = time_ns(|| (0..calls).for_each(|_| a()));
        let (tb, ()) = time_ns(|| (0..calls).for_each(|_| b()));
        spent += ta + tb;
        a_ns.push(ta);
        b_ns.push(tb);
    }
    let ratios: Vec<f64> = a_ns.iter().zip(&b_ns).map(|(ta, tb)| tb / ta).collect();
    Paired {
        ratio: Summary::of(&ratios),
        a: Summary::of(&a_ns),
        b: Summary::of(&b_ns),
    }
}

/// One cell of a [`Rows`] table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A number printed with a fixed number of decimals.
    Num(f64, usize),
    /// A label.
    Text(String),
}

impl Cell {
    /// A number with `decimals` decimals.
    pub fn num(value: f64, decimals: usize) -> Self {
        Self::Num(value, decimals)
    }

    fn plain(&self) -> String {
        match self {
            Self::Num(v, d) => format!("{v:.d$}"),
            Self::Text(s) => s.clone(),
        }
    }

    fn json(&self) -> String {
        match self {
            Self::Num(v, _) if !v.is_finite() => "null".to_string(),
            Self::Num(..) => self.plain(),
            Self::Text(s) => format!("\"{s}\""),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Self::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Self::Text(s)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Self::Num(v as f64, 0)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Self::Num(v as f64, 0)
    }
}

/// A result table, rendered three ways from one set of rows: the terminal
/// table, the `results/` CSV, and a section's JSON rows.
#[derive(Debug, Clone)]
pub struct Rows {
    columns: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
}

impl Rows {
    /// An empty table with these column names.
    pub fn new<const N: usize>(columns: [&'static str; N]) -> Self {
        Self {
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; it must have one cell per column.
    pub fn push<const N: usize>(&mut self, row: [Cell; N]) {
        assert_eq!(N, self.columns.len(), "row width differs from the table's");
        self.rows.push(row.to_vec());
    }

    fn table(&self) -> Table {
        let mut table = Table::new(self.columns.iter().copied());
        for row in &self.rows {
            table.add_row(row.iter().map(Cell::plain));
        }
        table
    }

    /// Prints the aligned terminal table.
    pub fn print(&self) {
        print!("{}", self.table().to_ascii());
    }

    /// Writes the CSV as `name` under [`crate::results_dir`].
    pub fn save_csv(&self, name: &str) {
        let out: PathBuf = crate::results_dir().join(name);
        self.table().save_csv(&out).expect("write CSV");
        println!("CSV written to {}", out.display());
    }

    fn json(&self) -> String {
        let objects: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(k, c)| format!("\"{k}\": {}", c.json()))
                    .collect();
                format!("      {{{}}}", fields.join(", "))
            })
            .collect();
        format!("[\n{}\n    ]", objects.join(",\n"))
    }
}

/// One bin's `"perf_<bin>"` section of [`BENCH_JSON`].
#[derive(Debug, Clone)]
pub struct Section {
    name: &'static str,
    fields: Vec<(String, String)>,
}

impl Section {
    /// A section that starts with the machine it was measured on: hardware
    /// threads, build profile, and `repeats`, the number of timed samples
    /// behind the first headline's median and spread (the `n` of its
    /// [`Summary`]; 1 for a deterministic, untimed headline).
    pub fn new(name: &'static str, repeats: usize) -> Self {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let mut section = Self {
            name,
            fields: Vec::new(),
        };
        section
            .set("hardware_threads", hardware_threads().into())
            .set("profile", profile.into())
            .set("repeats", repeats.into());
        section
    }

    /// Sets a scalar field.
    pub fn set(&mut self, key: &str, value: Cell) -> &mut Self {
        self.fields.push((key.to_string(), value.json()));
        self
    }

    /// A measured quantity: its median under `key`, its relative spread
    /// ([`Summary::spread`]) under `<key>_spread`.
    pub fn stat(&mut self, key: &str, median: f64, spread: f64) -> &mut Self {
        self.set(key, Cell::num(median, 3))
            .set(&format!("{key}_spread"), Cell::num(spread, 3))
    }

    /// A timed headline: [`Section::stat`], plus the same headline measured
    /// at smoke size under `smoke_<key>`, the value `--smoke` is gated
    /// against ([`check_baseline`]).
    pub fn headline(&mut self, key: &str, median: f64, spread: f64, smoke: f64) -> &mut Self {
        self.stat(key, median, spread)
            .set(&format!("smoke_{key}"), Cell::num(smoke, 3))
    }

    /// Embeds a table as an array of row objects under `key`.
    pub fn rows(&mut self, key: &str, rows: &Rows) -> &mut Self {
        self.fields.push((key.to_string(), rows.json()));
        self
    }

    fn body(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n  }}", fields.join(",\n"))
    }

    /// `json` with this section replaced in place, or appended when
    /// absent; every other section is kept as it was.
    pub fn splice(&self, json: &str) -> String {
        let entry = format!("\"{}\": {}", self.name, self.body());
        if let Some((start, end)) = section_span(json, self.name) {
            return format!("{}{entry}{}", &json[..start], &json[end..]);
        }
        let text = json.trim_end();
        let close = text.rfind('}').unwrap_or(text.len());
        let head = text[..close].trim_end();
        let head = if head.is_empty() { "{" } else { head };
        let comma = if head.ends_with('{') { "" } else { "," };
        format!("{head}{comma}\n  {entry}\n}}\n")
    }

    /// Splices this section into [`BENCH_JSON`] in the current directory.
    pub fn write(&self) {
        let old = std::fs::read_to_string(BENCH_JSON).unwrap_or_default();
        std::fs::write(BENCH_JSON, self.splice(&old)).expect("write BENCH_core.json");
        println!("section \"{}\" written to {BENCH_JSON}", self.name);
    }
}

/// Byte span of the `"name": { … }` entry: from the key's opening quote
/// to the matching closing brace (inclusive). Brace matching ignores
/// strings, which is fine for this file: no value holds a brace.
fn section_span(json: &str, name: &str) -> Option<(usize, usize)> {
    let marker = format!("\"{name}\":");
    let start = json.find(&marker)?;
    let open = start + marker.len() + json[start + marker.len()..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, open + i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// The number under `key` inside `section` of a `BENCH_core.json` text.
/// Scoped lookup: the same key may live in several sections.
pub fn lookup(json: &str, section: &str, key: &str) -> Option<f64> {
    let (start, end) = section_span(json, section)?;
    let body = &json[start..end];
    let marker = format!("\"{key}\":");
    let rest = body[body.find(&marker)? + marker.len()..].trim_start();
    let len = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..len].parse().ok()
}

/// The number under `key` in `section` of the committed [`BENCH_JSON`].
pub fn committed(section: &str, key: &str) -> Option<f64> {
    lookup(&std::fs::read_to_string(BENCH_JSON).ok()?, section, key)
}

/// Fresh smoke-size runs behind each committed `smoke_<key>` value.
pub const SMOKE_RUNS: usize = 5;

/// The committed smoke baselines of a full run. `measure` runs the
/// headlines at smoke size exactly as `--smoke` does and returns them;
/// this calls it [`SMOKE_RUNS`] times and returns each headline's median,
/// so one slow run cannot set a floor the gate then trips over.
pub fn smoke_baseline<const K: usize>(mut measure: impl FnMut() -> [f64; K]) -> [f64; K] {
    let runs: Vec<[f64; K]> = (0..SMOKE_RUNS).map(|_| measure()).collect();
    std::array::from_fn(|k| Summary::of(&runs.iter().map(|r| r[k]).collect::<Vec<_>>()).median)
}

/// Outcome of [`check_baseline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Baseline {
    /// No committed smoke-size value in that section: nothing to compare.
    Missing,
    /// Above half the committed value.
    Within(f64),
    /// At or below half the committed value: a 2× regression.
    Regressed(f64),
}

/// The committed-baseline gate for a timed, higher-is-better headline:
/// `measured` (at smoke size) against the `smoke_<key>` value that the
/// last full run recorded in `section` of the committed `json`.
pub fn check_baseline(json: &str, section: &str, key: &str, measured: f64) -> Baseline {
    match lookup(json, section, &format!("smoke_{key}")) {
        None => Baseline::Missing,
        Some(committed) if measured > committed / 2.0 => Baseline::Within(committed),
        Some(committed) => Baseline::Regressed(committed),
    }
}

/// [`check_baseline`] against the [`BENCH_JSON`] on disk: panics on a 2×
/// regression, prints the comparison otherwise.
pub fn gate_baseline(section: &str, key: &str, measured: f64) {
    let json = std::fs::read_to_string(BENCH_JSON).unwrap_or_default();
    match check_baseline(&json, section, key, measured) {
        Baseline::Missing => println!("smoke: no committed smoke_{key} in {section}; skipped"),
        Baseline::Within(c) => {
            println!("smoke: {key} {measured:.1} vs committed {c:.1} at smoke size — within 2x")
        }
        Baseline::Regressed(c) => panic!(
            "REGRESSION: {key} {measured:.1} is at least 2x below the committed {c:.1} \
             measured at the same (smoke) size"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_fixed_samples() {
        // 1..=100 in a scrambled order.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let s = Summary::of(&samples);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let rank = |q| sorted[nearest_rank_index(q, 100).unwrap()];
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, rank(0.5));
        assert_eq!(s.p99, rank(0.99));
        assert_eq!((s.q1, s.median, s.q3, s.p99), (25.0, 50.0, 75.0, 99.0));
        assert_eq!(s.mean(), 50.5);
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[7.0]);
        assert_eq!(
            (one.min, one.median, one.p99, one.spread()),
            (7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn paired_ratio_follows_its_plan() {
        let (mut a_calls, mut b_calls) = (0, 0);
        let p = paired_ratio(Plan::new(2, 3, 4), || a_calls += 1, || b_calls += 1);
        assert_eq!((a_calls, b_calls), (2 + 3 * 4, 2 + 3 * 4));
        assert_eq!((p.ratio.n, p.a.n, p.b.n), (3, 3, 3));
        let (timed, last) = repeat(1, 3, || 42);
        assert_eq!((timed.n, last), (3, 42));
    }

    #[test]
    fn a_spent_budget_still_runs_min_batches() {
        let budgeted = |batches| Plan {
            budget_ns: 0.0,
            ..Plan::new(0, batches, 1)
        };
        let (mut a_calls, mut b_calls) = (0, 0);
        let p = paired_ratio(budgeted(5), || a_calls += 1, || b_calls += 1);
        assert_eq!((p.ratio.n, a_calls, b_calls), (MIN_BATCHES, 3, 3));
        // A plan of fewer batches than the minimum runs all of them.
        assert_eq!(paired_ratio(budgeted(2), || {}, || {}).ratio.n, 2);
        // An open budget runs the whole plan.
        assert_eq!(paired_ratio(Plan::new(0, 5, 1), || {}, || {}).ratio.n, 5);
    }

    #[test]
    fn smoke_baseline_takes_each_headline_median() {
        let mut runs = [[5.0, 1.0], [1.0, 9.0], [4.0, 3.0], [2.0, 7.0], [3.0, 5.0]].into_iter();
        assert_eq!(smoke_baseline(|| runs.next().unwrap()), [3.0, 5.0]);
        assert_eq!(runs.next(), None);
    }

    #[test]
    fn baseline_gate_passes_fails_at_2x_and_skips_when_missing() {
        let json = "{\n  \"perf_x\": {\n    \"smoke_jobs\": 100.0\n  }\n}\n";
        assert_eq!(
            check_baseline(json, "perf_x", "jobs", 60.0),
            Baseline::Within(100.0)
        );
        assert_eq!(
            check_baseline(json, "perf_x", "jobs", 50.0),
            Baseline::Regressed(100.0)
        );
        assert_eq!(
            check_baseline(json, "perf_x", "other", 1.0),
            Baseline::Missing
        );
        assert_eq!(
            check_baseline(json, "perf_y", "jobs", 1.0),
            Baseline::Missing
        );
    }

    #[test]
    fn lookup_is_scoped_to_its_section() {
        let mut json = String::new();
        for (name, overhead) in [("perf_decision", 1.05), ("perf_eviction", 1.41)] {
            let mut s = Section::new(name, 3);
            s.set("obs_on_overhead", Cell::num(overhead, 2));
            json = s.splice(&json);
        }
        assert_eq!(
            lookup(&json, "perf_decision", "obs_on_overhead"),
            Some(1.05)
        );
        assert_eq!(
            lookup(&json, "perf_eviction", "obs_on_overhead"),
            Some(1.41)
        );
        assert_eq!(lookup(&json, "perf_grid", "obs_on_overhead"), None);
        assert_eq!(lookup(&json, "perf_eviction", "repeats"), Some(3.0));
    }

    #[test]
    fn bench_json_sections_round_trip() {
        let mut rows = Rows::new(["policy", "speedup"]);
        rows.push(["LRU".into(), Cell::num(2.5, 2)]);
        let mut eviction = Section::new("perf_eviction", 5);
        eviction
            .headline("headline_evictions_per_sec", 42.0, 0.1, 40.0)
            .rows("results", &rows);
        let mut decision = Section::new("perf_decision", 9);
        decision.stat("decision_path_speedup", 2.0, 0.05);
        // Inserting into an empty file needs no comma.
        let json = eviction.splice(&decision.splice(""));
        assert!(json.starts_with("{\n  \"perf_decision\": {"), "{json}");
        assert!(json.contains("{\"policy\": \"LRU\", \"speedup\": 2.50}"));
        let get = |json: &str, s, k| lookup(json, s, k);
        assert_eq!(
            get(&json, "perf_eviction", "headline_evictions_per_sec"),
            Some(42.0)
        );
        assert_eq!(
            get(&json, "perf_eviction", "headline_evictions_per_sec_spread"),
            Some(0.1)
        );
        assert_eq!(
            get(&json, "perf_eviction", "smoke_headline_evictions_per_sec"),
            Some(40.0)
        );
        assert_eq!(
            get(&json, "perf_decision", "decision_path_speedup"),
            Some(2.0)
        );
        // Replacing is in place: no duplicates, order and other keys kept.
        let mut replaced = Section::new("perf_decision", 9);
        replaced.stat("decision_path_speedup", 3.5, 0.05);
        let json2 = replaced.splice(&json);
        assert_eq!(json2.matches("\"perf_decision\"").count(), 1);
        assert!(json2.find("perf_decision") < json2.find("perf_eviction"));
        assert_eq!(
            get(&json2, "perf_decision", "decision_path_speedup"),
            Some(3.5)
        );
        assert_eq!(
            get(&json2, "perf_eviction", "headline_evictions_per_sec"),
            Some(42.0)
        );
        assert_eq!(replaced.splice(&json2), json2);
    }
}
