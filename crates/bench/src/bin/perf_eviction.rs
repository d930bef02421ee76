//! Eviction-path micro-benchmark: eviction throughput (evictions/sec) of
//! every baseline policy's indexed victim selection against its retained
//! pre-index full-scan twin (`reference-kernels` feature), across resident
//! set sizes `n`.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin perf_eviction            # full run
//! cargo run --release -p fbc-bench --bin perf_eviction -- --smoke # CI gate
//! ```
//!
//! The workload: a catalog of `2n` unit-size files over a cache of `n`
//! bytes. A warm phase fills the cache to exactly `n` resident files, then
//! a churn phase requests random pairs from the whole population — about
//! half of each pair misses, so nearly every request runs the victim
//! selection path under a full cache.
//!
//! The indexed policy and its twin run the churn in lockstep: chunk by
//! chunk, interleaved (`fbc_bench::measure::paired_ratio`), so each
//! per-chunk speedup sample compares the same requests under the same
//! machine state, and the two sides' evicted files are asserted equal
//! request by request. The pair gets a time budget instead of a fixed
//! churn length (the pre-index ARC is quadratic per eviction, so a full
//! 10k churn would take hours); rates are evictions over measured time
//! either way. The indexed policy's own rate is measured alone, over the
//! whole churn: next to the scan twin it loses its cache locality, which
//! lowers the paired speedup (a conservative gate) but would misstate a
//! throughput.
//!
//! The full run writes `results/perf_eviction.csv` and the
//! `"perf_eviction"` section of `BENCH_core.json`. The `--smoke` mode
//! writes nothing; it runs reduced sizes and fails (non-zero exit) when
//! either
//!
//! * the geometric-mean indexed-vs-reference speedup at the largest smoke
//!   size is below 2× (machine-independent ratio), or
//! * the headline evictions/sec is at or below half the committed value
//!   measured at the same smoke size (`smoke_headline_evictions_per_sec`).

use fbc_baselines::PolicyKind;
use fbc_bench::measure::{
    gate_baseline, paired_ratio, repeat, smoke_mode, xorshift, Cell, Paired, Plan, Rows, Section,
};
use fbc_bench::{banner, quick_mode};
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::CachePolicy;
use fbc_core::types::{Bytes, FileId};
use fbc_obs::Obs;

/// Churn requests per timed call; the budget is checked between calls.
const CHUNK: usize = 64;

/// Smoke sizes and budget; the full run repeats them for the committed
/// smoke-size headline.
const SMOKE_SIZES: [usize; 2] = [250, 1_000];
const SMOKE_BUDGET_NS: f64 = 1.5e9;

/// The warm + churn workload at resident-set size `n`.
struct Workload {
    n: usize,
    catalog: FileCatalog,
    /// Bundles of 4 consecutive ids covering files `0..n` exactly, so
    /// every policy ends the warm phase with the same `n` resident files.
    warm: Vec<Bundle>,
    /// `n` random pairs from the `2n`-file population.
    churn: Vec<Bundle>,
}

impl Workload {
    fn new(n: usize) -> Self {
        let mut state = 0xE71C ^ ((n as u64) << 4);
        let mut pick = || (xorshift(&mut state) % (2 * n) as u64) as u32;
        Self {
            n,
            catalog: FileCatalog::from_sizes(vec![1; 2 * n]),
            warm: (0..n / 4)
                .map(|i| Bundle::from_raw((0..4u32).map(|j| (i * 4) as u32 + j)))
                .collect(),
            churn: (0..n).map(|_| Bundle::from_raw([pick(), pick()])).collect(),
        }
    }
}

/// One policy on its own warmed cache, stepping through the churn.
struct Churner<'w> {
    policy: Box<dyn CachePolicy>,
    cache: CacheState,
    w: &'w Workload,
    /// Evicted files per processed churn request, in order.
    evicted: Vec<Vec<FileId>>,
}

impl<'w> Churner<'w> {
    /// Prepares the policy on the full trace and replays the warm phase.
    fn new(mut policy: Box<dyn CachePolicy>, w: &'w Workload) -> Self {
        let full: Vec<Bundle> = w.warm.iter().chain(&w.churn).cloned().collect();
        policy.prepare(&full);
        let mut cache = CacheState::new(w.n as Bytes);
        for b in &w.warm {
            policy.handle(b, &mut cache, &w.catalog);
        }
        Self {
            policy,
            cache,
            w,
            evicted: Vec::with_capacity(w.churn.len()),
        }
    }

    /// Handles the next chunk of the churn.
    fn step(&mut self) {
        let start = self.evicted.len();
        for b in &self.w.churn[start..(start + CHUNK).min(self.w.churn.len())] {
            let outcome = self.policy.handle(b, &mut self.cache, &self.w.catalog);
            self.evicted.push(outcome.evicted_files);
        }
    }

    fn evictions(&self) -> u64 {
        self.evicted.iter().map(|e| e.len() as u64).sum()
    }

    /// Evictions per second over the churn handled so far in `ns`.
    fn rate(&self, ns: f64) -> f64 {
        self.evictions() as f64 * 1e9 / ns
    }
}

/// Runs `a` and `b` through the churn in lockstep within `budget_ns`,
/// asserts they evicted the same files request by request, and returns
/// the measurement with side B's evictions/sec.
fn lockstep(
    a: Box<dyn CachePolicy>,
    b: Box<dyn CachePolicy>,
    w: &Workload,
    budget_ns: f64,
    what: &str,
) -> (Paired, f64) {
    let (mut a, mut b) = (Churner::new(a, w), Churner::new(b, w));
    let plan = Plan {
        budget_ns,
        ..Plan::new(0, (w.churn.len() / CHUNK).max(1), 1)
    };
    let paired = paired_ratio(plan, || a.step(), || b.step());
    assert_eq!(
        a.evicted, b.evicted,
        "{what} diverged at n={} (evicted files)",
        w.n
    );
    let eps = b.rate(paired.b.total);
    (paired, eps)
}

struct Row {
    n: usize,
    policy: String,
    indexed_eps: f64,
    reference_eps: f64,
    speedup: f64,
    speedup_spread: f64,
    eps_spread: f64,
    batches: usize,
}

/// Every twin-carrying policy, indexed against its reference, at each size.
fn sweep(sizes: &[usize], budget_ns: f64) -> Vec<Row> {
    let mut kinds: Vec<PolicyKind> = PolicyKind::ONLINE.to_vec();
    kinds.push(PolicyKind::BeladyMin);
    let mut rows = Vec::new();
    for &n in sizes {
        let w = Workload::new(n);
        for &kind in &kinds {
            // OptFileBundle has no twin here; perf_decision covers it.
            let Some(reference) = kind.build_reference() else {
                continue;
            };
            let name = kind.build().name().to_string();
            let (p, reference_eps) = lockstep(kind.build(), reference, &w, budget_ns, &name);
            // The indexed rate is measured alone: interleaved with the
            // scan twin, the indexed side loses its cache locality, which
            // the paired speedup absorbs but a throughput must not.
            let mut alone = Churner::new(kind.build(), &w);
            let (chunks, ()) = repeat(0, (w.churn.len() / CHUNK).max(1), || alone.step());
            rows.push(Row {
                n,
                policy: name,
                indexed_eps: alone.rate(chunks.total),
                reference_eps,
                speedup: p.ratio.median,
                speedup_spread: p.ratio.spread(),
                eps_spread: chunks.spread(),
                batches: p.ratio.n,
            });
        }
    }
    rows
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        return 0.0;
    }
    (sum / count as f64).exp()
}

/// The headline at the largest size: geomean indexed evictions/sec with
/// the median per-policy spread, and geomean speedup likewise.
fn headline(rows: &[Row]) -> ((f64, f64), (f64, f64)) {
    let largest = rows.iter().map(|r| r.n).max().expect("rows measured");
    let at: Vec<&Row> = rows.iter().filter(|r| r.n == largest).collect();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (
        (
            geomean(at.iter().map(|r| r.indexed_eps)),
            median(at.iter().map(|r| r.eps_spread).collect()),
        ),
        (
            geomean(at.iter().map(|r| r.speedup)),
            median(at.iter().map(|r| r.speedup_spread).collect()),
        ),
    )
}

fn main() {
    let smoke = smoke_mode();
    banner(if smoke {
        "perf_eviction — CI smoke (regression gate)"
    } else {
        "perf_eviction — baseline victim-selection throughput"
    });

    let reduced = smoke || quick_mode();
    let (sizes, budget_ns): (&[usize], f64) = if reduced {
        (&SMOKE_SIZES, SMOKE_BUDGET_NS)
    } else {
        (&[1_000, 10_000], 4e9)
    };
    let rows = sweep(sizes, budget_ns);

    let mut table = Rows::new([
        "n",
        "policy",
        "indexed_eps",
        "reference_eps",
        "speedup",
        "speedup_spread",
        "batches",
    ]);
    for r in &rows {
        table.push([
            r.n.into(),
            r.policy.clone().into(),
            Cell::num(r.indexed_eps, 0),
            Cell::num(r.reference_eps, 1),
            Cell::num(r.speedup, 1),
            Cell::num(r.speedup_spread, 3),
            r.batches.into(),
        ]);
    }
    table.print();

    let largest = *sizes.last().expect("non-empty size sweep");
    let ((eps, eps_spread), (speedup, speedup_spread)) = headline(&rows);
    println!(
        "\nheadline (n={largest}): geomean indexed {eps:.0} evictions/s (spread {eps_spread:.3}) \
         — geomean speedup vs reference {speedup:.1}x"
    );

    // Observability overhead on the eviction path, measured on LRU (the
    // cheapest per-request policy, so a per-call branch is most visible):
    // plain against a disabled sink attached, and against an enabled one.
    // Observation must not perturb evictions, so these pairs are
    // differential too.
    let w = Workload::new(largest);
    let overhead = |obs: Obs| {
        let mut observed = PolicyKind::Lru.build();
        observed.attach_obs(obs);
        lockstep(
            PolicyKind::Lru.build(),
            observed,
            &w,
            f64::INFINITY,
            "observed LRU",
        )
        .0
    };
    let off = overhead(Obs::disabled());
    let on = overhead(Obs::enabled());
    println!(
        "obs overhead (LRU, n={largest}): attached-off {:.3}x, enabled {:.2}x the plain path",
        off.ratio.median, on.ratio.median
    );

    if smoke {
        assert!(
            speedup >= 2.0,
            "REGRESSION: indexed victim selection only {speedup:.2}x the reference scan at \
             n={largest} (acceptance floor: 2x)"
        );
        gate_baseline("perf_eviction", "headline_evictions_per_sec", eps);
        println!("smoke: OK (geomean speedup {speedup:.1}x >= 2x)");
        return;
    }

    let smoke_eps = if reduced {
        eps
    } else {
        println!("\nsmoke-size headline (the committed baseline --smoke gates against):");
        headline(&sweep(&SMOKE_SIZES, SMOKE_BUDGET_NS)).0 .0
    };
    table.save_csv("perf_eviction.csv");
    Section::new("perf_eviction", (w.churn.len() / CHUNK).max(1))
        .headline("headline_evictions_per_sec", eps, eps_spread, smoke_eps)
        .stat("headline_eviction_speedup", speedup, speedup_spread)
        .stat("obs_off_overhead", off.ratio.median, off.ratio.spread())
        .stat("obs_on_overhead", on.ratio.median, on.ratio.spread())
        .set("largest_n", largest.into())
        .rows("results", &table)
        .write();
}
