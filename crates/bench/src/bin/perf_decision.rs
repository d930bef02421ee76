//! Decision-path benchmark: `OptFileBundle::handle` at steady state, the
//! path every online decision takes.
//!
//! 1. **Decision path per history mode** — throughput (decisions/sec) and
//!    p50/p99 latency with a history of `n` requests at `d ≈ 8`, where
//!    nearly every job forces a replacement decision. The resident
//!    incremental state (`with_config`) runs against the per-decision
//!    rebuild reference (`with_config_reference`, which builds an FBC
//!    instance per decision and selects with `opt_cache_select`). Both
//!    engines replay the identical trace in lockstep for the paired
//!    speedup, and their outcomes are asserted equal, so every benchmark
//!    run is also a differential test; each engine's throughput and
//!    per-decision latency are then measured alone.
//! 2. **SharedCredit against PaperLiteral** on the resident cache-supported
//!    path at `n = 2000`, paired.
//! 3. **One instance row** — `opt_cache_select` (SharedCredit) on one FBC
//!    instance at the size the offline solvers use (tens of requests).
//!    Reported, not gated.
//! 4. **Observability overhead** of an attached sink, off and on.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin perf_decision            # full run
//! cargo run --release -p fbc-bench --bin perf_decision -- --smoke # CI gate
//! ```
//!
//! Every gated ratio is an interleaved paired measurement
//! (`fbc_bench::measure::paired_ratio`). The full run writes
//! `results/perf_decision.csv` and the `"perf_decision"` section of
//! `BENCH_core.json`. The `--smoke` mode writes nothing; it runs a reduced
//! measurement and fails (non-zero exit) when either
//!
//! * the incremental decision path is not at least 2× the rebuild
//!   reference on the history-scaling workload (n = 8000, fixed cache
//!   size), or
//! * the full-history decision path is not at least 2× the rebuild
//!   reference — the committed pre-residency baseline sat at 1.12×, so
//!   this floor only passes with the Full/Window fast path live, or
//! * `SharedCredit` falls below half of `PaperLiteral`'s decisions/sec on
//!   the cache-supported decision path at `n = 2000` (the "within 2×"
//!   acceptance ratio), or
//! * the incremental decisions/sec of any history mode (cache-supported,
//!   full, window(1000); all at `n = 2000`) is at or below half the
//!   committed value measured at the same smoke size (the full run records
//!   the median of five fresh smoke-size runs per mode), or
//! * the instrumented-but-disabled observability path (`fbc-obs` handle
//!   attached, sink off) exceeds 1.05× the never-attached decision path.

use fbc_bench::measure::{
    gate_baseline, paired_ratio, repeat, smoke_baseline, smoke_mode, xorshift, Cell, Plan, Rows,
    Section, Summary,
};
use fbc_bench::{banner, quick_mode};
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::instance::FbcInstance;
use fbc_core::optfilebundle::{HistoryMode, OfbConfig, OptFileBundle};
use fbc_core::policy::{CachePolicy, OutcomeObsSlots, RequestOutcome};
use fbc_core::select::{opt_cache_select, GreedyVariant, SelectOptions};
use fbc_obs::Obs;
use std::hint::black_box;

/// Decision-path jobs per engine at smoke size.
const SMOKE_JOBS: usize = 400;
/// Decision-path jobs per timed batch of each engine.
const PER_BATCH: usize = 50;
/// Requests of the instance row: the offline solvers' size.
const INSTANCE_N: usize = 40;

/// Builds a synthetic selection instance with `n` requests of ~`b` files
/// each over `m = n·b/d` files, so the expected file degree is `d`.
fn instance(n: usize, b: usize, d: usize) -> FbcInstance {
    let mut state = ((0xBE0001 + n as u64) << 8) | d as u64;
    let m = ((n * b) / d).max(b + 1);
    let sizes: Vec<u64> = (0..m).map(|_| xorshift(&mut state) % 100 + 1).collect();
    let total: u64 = sizes.iter().sum();
    let requests: Vec<(Vec<u32>, f64)> = (0..n)
        .map(|_| {
            let k = b / 2 + (xorshift(&mut state) as usize) % b;
            let files: Vec<u32> = (0..k.max(1))
                .map(|_| (xorshift(&mut state) % m as u64) as u32)
                .collect();
            (files, (xorshift(&mut state) % 100 + 1) as f64)
        })
        .collect();
    // 25% of the population fits: enough pressure that the greedy loop runs
    // many selection iterations without degenerating to "take everything".
    FbcInstance::new(total / 4, sizes, requests).expect("valid synthetic instance")
}

/// One decision-path configuration: a history mode at history size `n`,
/// with the cache at `1/cap_div` of the file population.
#[derive(Clone, Copy)]
struct Path {
    mode: HistoryMode,
    label: &'static str,
    n: usize,
    cap_div: u64,
}

/// The four measured paths:
///
/// * cache-supported, n=2000 — the paper's default, the headline;
/// * cache-supported, n=8000 with the same absolute cache size — the
///   history-scaling row the smoke ratio gate uses: the select work is
///   unchanged, only the O(n) scan the rebuild pays per decision grows;
/// * full-history, n=2000 — every decision selects over all n candidates;
///   the incremental engine serves it from the resident state (cached
///   owner-key ordering, in-place lanes) while the rebuild reference
///   re-walks the recency list, re-sorts and re-builds the instance per
///   decision — the Full-mode gate;
/// * window(1000), n=2000 — the same fast path under window truncation.
const PATHS: [Path; 4] = [
    Path {
        mode: HistoryMode::CacheSupported,
        label: "CacheSupported",
        n: 2000,
        cap_div: 60,
    },
    Path {
        mode: HistoryMode::CacheSupported,
        label: "CacheSupported",
        n: 8000,
        cap_div: 240,
    },
    Path {
        mode: HistoryMode::Full,
        label: "Full",
        n: 2000,
        cap_div: 60,
    },
    Path {
        mode: HistoryMode::Window(1000),
        label: "Window(1000)",
        n: 2000,
        cap_div: 60,
    },
];

/// The paths whose incremental throughput carries a smoke baseline, with
/// its `BENCH_core.json` key: one per history mode, all at n = 2000.
const BASELINES: [(usize, &str); 3] = [
    (0, "headline_decisions_per_sec"),
    (2, "full_mode_decisions_per_sec"),
    (3, "window_decisions_per_sec"),
];

/// Steady-state decision-path workload: a catalog, a pool of `n` distinct
/// bundles of ~4 files over `m = n·4/8` files (expected degree 8), a job
/// trace sampling the pool, and a cache capacity small enough that almost
/// every miss forces a replacement decision.
struct Workload {
    mode: HistoryMode,
    catalog: FileCatalog,
    pool: Vec<Bundle>,
    trace: Vec<Bundle>,
    capacity: u64,
}

impl Workload {
    fn new(path: Path, jobs: usize) -> Self {
        let (n, b, d) = (path.n, 4, 8);
        let mut state = 0xD3C1DE;
        let m = ((n * b) / d).max(b + 1);
        let sizes: Vec<u64> = (0..m).map(|_| xorshift(&mut state) % 100 + 1).collect();
        let total: u64 = sizes.iter().sum();
        let pool: Vec<Bundle> = (0..n)
            .map(|_| {
                let k = b / 2 + (xorshift(&mut state) as usize) % b;
                Bundle::from_raw((0..k.max(1)).map(|_| (xorshift(&mut state) % m as u64) as u32))
            })
            .collect();
        let trace: Vec<Bundle> = (0..jobs)
            .map(|_| pool[(xorshift(&mut state) % n as u64) as usize].clone())
            .collect();
        // The cache holds only a sliver of the population (the data-grid
        // regime: long history, small working cache), so nearly every job
        // forces a replacement decision whose select step is cheap relative
        // to a full history scan. `cap_div` lets callers pin the *absolute*
        // cache size while growing the history, keeping the per-decision
        // select work constant as the scan the rebuild pays grows with `n`.
        Self {
            mode: path.mode,
            catalog: FileCatalog::from_sizes(sizes),
            pool,
            trace,
            capacity: total / path.cap_div,
        }
    }

    /// A policy on its own cache, warmed over the full pool (so the history
    /// holds all `n` entries and the cache is hot).
    fn engine(&self, variant: GreedyVariant, reference: bool) -> Engine<'_> {
        let config = OfbConfig {
            variant,
            history_mode: self.mode,
            ..OfbConfig::default()
        };
        let mut policy = if reference {
            OptFileBundle::with_config_reference(config)
        } else {
            OptFileBundle::with_config(config)
        };
        let mut cache = CacheState::new(self.capacity);
        for b in &self.pool {
            black_box(policy.handle(b, &mut cache, &self.catalog));
        }
        Engine {
            policy,
            cache,
            workload: self,
            outcomes: Vec::with_capacity(self.trace.len()),
        }
    }
}

/// One warmed engine stepping through its workload's trace.
struct Engine<'w> {
    policy: OptFileBundle,
    cache: CacheState,
    workload: &'w Workload,
    outcomes: Vec<RequestOutcome>,
}

impl Engine<'_> {
    fn step(&mut self) {
        let w = self.workload;
        let b = &w.trace[self.outcomes.len()];
        let outcome = self.policy.handle(b, &mut self.cache, &w.catalog);
        self.outcomes.push(outcome);
    }

    /// Runs the whole trace alone, timed per job: interleaved, an engine
    /// loses cache locality to the other, which a paired ratio absorbs but
    /// a throughput must not.
    fn alone(mut self) -> Summary {
        let jobs = self.workload.trace.len();
        repeat(0, jobs, || self.step()).0
    }
}

/// The incremental decision path (side A) against the rebuild reference
/// (side B) on `path`: first in lockstep, interleaved batch by batch, with
/// their outcomes asserted equal — that pair gives the speedup — then each
/// engine alone. Returns the paired ratio and each engine's per-job ns.
fn decision_path(path: Path, jobs: usize) -> (Summary, [Summary; 2]) {
    let w = Workload::new(path, jobs);
    let sc = GreedyVariant::SharedCredit;
    let (mut inc, mut reb) = (w.engine(sc, false), w.engine(sc, true));
    let plan = Plan::new(0, jobs / PER_BATCH, PER_BATCH);
    let paired = paired_ratio(plan, || inc.step(), || reb.step());
    assert_eq!(
        inc.outcomes, reb.outcomes,
        "decision-path engines diverged in {:?} mode at n={}",
        path.mode, path.n
    );
    let alone = |reference| w.engine(sc, reference).alone();
    (paired.ratio, [alone(false), alone(true)])
}

/// SharedCredit (side A) against PaperLiteral (side B) on the resident
/// path, paired; returns the ratio (PaperLiteral's time over SharedCredit's,
/// so ≥ 0.5 means "within 2×") and PaperLiteral's per-job ns alone.
fn variant_ratio(path: Path, jobs: usize) -> (Summary, Summary) {
    let w = Workload::new(path, jobs);
    let (sc, pl) = (GreedyVariant::SharedCredit, GreedyVariant::PaperLiteral);
    let (mut a, mut b) = (w.engine(sc, false), w.engine(pl, false));
    let plan = Plan::new(0, jobs / PER_BATCH, PER_BATCH);
    let ratio = paired_ratio(plan, || a.step(), || b.step()).ratio;
    (ratio, w.engine(pl, false).alone())
}

fn main() {
    let smoke = smoke_mode();
    banner(if smoke {
        "perf_decision — CI smoke (regression gate)"
    } else {
        "perf_decision — OptFileBundle decision-path throughput"
    });

    let reduced = smoke || quick_mode();
    let jobs = if reduced { SMOKE_JOBS } else { 4000 };
    let mut table = Rows::new([
        "mode",
        "n",
        "variant",
        "engine",
        "samples",
        "decisions_per_sec",
        "p50_us",
        "p99_us",
    ]);
    let mut push = |mode: &str, n: usize, variant: &str, engine: &str, s: &Summary| {
        table.push([
            mode.into(),
            n.into(),
            variant.into(),
            engine.into(),
            s.n.into(),
            Cell::num(1e9 / s.mean(), 1),
            Cell::num(s.median / 1e3, 1),
            Cell::num(s.p99 / 1e3, 1),
        ]);
    };

    let mut paths: Vec<(Summary, [Summary; 2])> = Vec::new();
    for path in PATHS {
        let (ratio, engines) = decision_path(path, jobs);
        for (engine, s) in ["incremental", "rebuild"].iter().zip(&engines) {
            push(path.label, path.n, "SharedCredit", engine, s);
        }
        paths.push((ratio, engines));
    }
    let [supported, scaling, full, window] = [0, 1, 2, 3].map(|i| paths[i].0);
    let dps = |i: usize| 1e9 / paths[i].1[0].mean();
    let (sc_vs_pl, paper_literal) = variant_ratio(PATHS[0], jobs);
    push(
        PATHS[0].label,
        PATHS[0].n,
        "PaperLiteral",
        "incremental",
        &paper_literal,
    );

    // The instance row: the offline solvers' entry point, alone.
    let inst = instance(INSTANCE_N, 4, 4);
    let opts = SelectOptions::default();
    let (inst_s, ()) = repeat(20, if reduced { 200 } else { 2000 }, || {
        black_box(opt_cache_select(black_box(&inst), &opts));
    });
    push(
        "instance",
        INSTANCE_N,
        "SharedCredit",
        "opt_cache_select",
        &inst_s,
    );

    println!("\ndecision path (steady state, d=8; each engine alone):");
    table.print();
    let [headline, rebuild] = paths[0].1;
    println!(
        "headline (cache-supported decision path, n=2000): incremental {:.1}/s vs \
         rebuild {:.1}/s — paired speedup {:.1}x (history-scaling row n=8000: {:.1}x; \
         full-history mode: {:.1}x; window(1000): {:.1}x); SharedCredit/PaperLiteral {:.2}",
        dps(0),
        1e9 / rebuild.mean(),
        supported.median,
        scaling.median,
        full.median,
        window.median,
        sc_vs_pl.median
    );

    // Observability overhead on the instrumented decision path: the same
    // handle-call trace plain (never attached) against a disabled sink
    // attached, and against an enabled one. The cache holds the whole
    // population, so each handle call is dominated by admit bookkeeping —
    // the regime where a per-call branch is most visible.
    let obs_jobs = if reduced { 20_000 } else { 100_000 };
    let obs_files = 2_000usize;
    let mut state = 0xB5EEDu64;
    let catalog = FileCatalog::from_sizes(vec![1u64; obs_files]);
    let trace: Vec<Bundle> = (0..obs_jobs)
        .map(|_| {
            Bundle::from_raw([
                (xorshift(&mut state) % obs_files as u64) as u32,
                (xorshift(&mut state) % obs_files as u64) as u32,
            ])
        })
        .collect();
    // Each side flushes `policy.*` after `handle` as a driver does: the
    // plain side into a disabled sink, the others into the attached one.
    let run = |obs: Option<&Obs>| {
        let mut policy = OptFileBundle::new();
        let sink = obs.cloned().unwrap_or_else(Obs::disabled);
        if let Some(o) = obs {
            o.clear();
            policy.attach_obs(o.clone());
        }
        let mut obs_slots = OutcomeObsSlots::default();
        let mut cache = CacheState::new(obs_files as u64);
        for b in &trace {
            let outcome = policy.handle(b, &mut cache, &catalog);
            outcome.record_obs(&sink, &mut obs_slots);
            black_box(outcome);
        }
    };
    let obs_plan = Plan::new(1, 25, 1);
    let (off, on) = (Obs::disabled(), Obs::enabled());
    let off_p = paired_ratio(obs_plan, || run(None), || run(Some(&off)));
    let on_p = paired_ratio(obs_plan, || run(None), || run(Some(&on)));
    let per_job = |side: &Summary| side.median / obs_jobs as f64;
    let (plain_ns, off_ns, on_ns) = (per_job(&off_p.a), per_job(&off_p.b), per_job(&on_p.b));
    let (off_overhead, on_overhead) = (off_p.ratio, on_p.ratio);
    println!(
        "obs overhead: plain {plain_ns:.0} ns/job, attached-off {off_ns:.0} ns/job \
         ({:.3}x paired), enabled {on_ns:.0} ns/job ({:.2}x paired)",
        off_overhead.median, on_overhead.median
    );

    if smoke {
        // A disabled sink must cost at most one branch per call.
        assert!(
            off_overhead.median <= 1.05,
            "REGRESSION: instrumented-but-disabled decision path is {:.3}x the plain \
             path (budget: 1.05x)",
            off_overhead.median
        );
        // The history-scaling row (n=8000, fixed cache size) is the regime
        // the O(Δ) maintenance targets: the rebuild's per-decision scan is
        // material rather than drowned by the select step.
        assert!(
            scaling.median >= 2.0,
            "REGRESSION: incremental decision path only {:.2}x the rebuild reference on \
             the history-scaling workload (acceptance floor: 2x)",
            scaling.median
        );
        assert!(
            full.median >= 2.0,
            "REGRESSION: full-history decision path only {:.2}x the rebuild reference \
             (acceptance floor: 2x, committed baseline before the resident fast path: 1.12x)",
            full.median
        );
        assert!(
            sc_vs_pl.median >= 0.5,
            "REGRESSION: SharedCredit at only {:.2}x PaperLiteral's throughput on the \
             cache-supported decision path at n=2000 (acceptance floor: within 2x, i.e. \
             ratio >= 0.5)",
            sc_vs_pl.median
        );
        for (i, key) in BASELINES {
            gate_baseline("perf_decision", key, dps(i));
        }
        println!(
            "smoke: OK (decision path at n=8000 {:.1}x >= 2x, full mode {:.1}x >= 2x, \
             SharedCredit/PaperLiteral {:.2} >= 0.5, obs-off {:.3}x <= 1.05x)",
            scaling.median, full.median, sc_vs_pl.median, off_overhead.median
        );
        return;
    }

    // Each smoke baseline is measured the way the gate measures it: a
    // fresh smoke-size run of the incremental engine alone, per mode.
    let smoke_dps = if reduced {
        BASELINES.map(|(i, _)| dps(i))
    } else {
        smoke_baseline(|| {
            BASELINES.map(|(i, _)| {
                let w = Workload::new(PATHS[i], SMOKE_JOBS);
                let sc = GreedyVariant::SharedCredit;
                1e9 / w.engine(sc, false).alone().mean()
            })
        })
    };
    table.save_csv("perf_decision.csv");
    let mut section = Section::new("perf_decision", headline.n);
    for ((i, key), smoke) in BASELINES.into_iter().zip(smoke_dps) {
        section.headline(key, dps(i), paths[i].1[0].spread(), smoke);
    }
    section.stat(
        "decision_path_rebuild_per_sec",
        1e9 / rebuild.mean(),
        rebuild.spread(),
    );
    for (key, ratio) in [
        ("decision_path_speedup", supported),
        ("decision_path_scaling_speedup", scaling),
        ("decision_path_full_mode_speedup", full),
        ("decision_path_window_speedup", window),
        ("decision_path_sc_vs_paperliteral_ratio", sc_vs_pl),
        ("obs_off_overhead", off_overhead),
        ("obs_on_overhead", on_overhead),
    ] {
        section.stat(key, ratio.median, ratio.spread());
    }
    section
        .set(
            "instance_decisions_per_sec",
            Cell::num(1e9 / inst_s.mean(), 1),
        )
        .set("obs_plain_ns_per_job", Cell::num(plain_ns, 1))
        .set("obs_off_ns_per_job", Cell::num(off_ns, 1))
        .set("obs_on_ns_per_job", Cell::num(on_ns, 1))
        .rows("results", &table)
        .write();
}
