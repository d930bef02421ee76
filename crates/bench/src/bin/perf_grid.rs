//! End-to-end grid throughput through the sharded SRM service
//! (`fbc_grid::concurrent`) in two regimes, plus the residency membership
//! kernel every hit check runs on.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin perf_grid            # full run
//! cargo run --release -p fbc-bench --bin perf_grid -- --smoke # CI gate
//! ```
//!
//! The regimes:
//!
//! * **hit** — all jobs cycle through a small pool of distinct bundles
//!   over a catalog that fits in cache whole, so after a brief cold phase
//!   every request is a full-cache hit and the event loop spends its time
//!   on the `contains_all` check the dense slab/bitset `CacheState`
//!   serves.
//! * **decision** — random triples over a catalog modestly larger than
//!   the cache. Most distinct bundles of the history stay cache-supported,
//!   so every replacement decision ranks a candidate set that keeps
//!   growing with the supported history. Sharding splits capacity and stream `N` ways, so each shard
//!   decides over a supported history `~N×` smaller. That state
//!   shrinkage is a speedup even on one hardware thread; worker threads
//!   stack on top on multi-core hosts. It is not capacity-fair: each
//!   shard caches out of `capacity/N`, and the `miss_delta` column (byte
//!   miss ratio over the 1-shard run) is the price to quote with it.
//!
//! Both regimes run through one shard sweep. The 1-shard row is timed
//! alone (`fbc_bench::measure::repeat`): interleaved with threaded runs,
//! it would lose cache locality that a throughput must not. Each shard
//! count `N > 1` is then measured paired against the 1-shard service
//! (`fbc_bench::measure::paired_ratio`) for its speedup. Before the sweep,
//! the 1-shard service must be bit-identical to the single-threaded
//! `run_grid` (`GridStats` and `GridReport`) on a prefix of each stream:
//! 4 000 jobs of the hit stream, 2 000 of the decision stream.
//!
//! The membership kernel compares the dense `CacheState` with its
//! retained `HashMap`+`BTreeSet` reference twin on the same probe stream,
//! paired pass by pass; hit counts and final resident sets are asserted
//! equal, so every run is also a differential test.
//!
//! The trace reader every replay starts with is measured the same way:
//! the hit stream's requests serialised once to v1 text in memory, read by
//! the streaming `Trace::read_from` (side A) and by its reference twin
//! `Trace::read_from_reference` (side B), paired pass by pass. Both must
//! read back the written trace. Its row (`regime` `trace_read`) reports
//! the streaming reader's requests/s and the paired speedup, and the
//! section records both sides in ns/request.
//!
//! The full run writes `results/perf_grid.csv` (one table, with a
//! `regime` column) and the `"perf_grid"` section of `BENCH_core.json`.
//! The `--smoke` mode writes nothing; it runs reduced sizes and fails
//! (non-zero exit) when
//!
//! * the dense membership kernel is slower than the reference twin
//!   (speedup < 1.0), or
//! * the streaming trace reader is below 1.2× its reference twin, or
//! * the 4-shard decision regime is below 1.5× the 1-shard run, or
//! * a divergence check fails (1-shard vs `run_grid`, dense vs reference
//!   kernel, either trace reader vs the written trace), or
//! * either headline (1-shard hit jobs/s, 4-shard decision jobs/s) is at
//!   or below half the committed value measured at the same smoke size
//!   (the full run records the median of five fresh smoke-size runs).

use fbc_bench::measure::{
    gate_baseline, hardware_threads, paired_ratio, repeat, smoke_baseline, smoke_mode, xorshift,
    Cell, Paired, Plan, Rows, Section, Summary,
};
use fbc_bench::{banner, quick_mode};
use fbc_core::bundle::Bundle;
use fbc_core::cache::{CacheState, CacheStateReference};
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::SendPolicy;
use fbc_core::types::{Bytes, FileId};
use fbc_grid::client::{schedule_arrivals, ArrivalProcess, JobArrival};
use fbc_grid::concurrent::{run_concurrent_grid, ConcurrentConfig, ConcurrentStats};
use fbc_grid::engine::{run_grid, GridConfig};
use fbc_grid::srm::SrmConfig;
use fbc_workload::Trace;
use std::hint::black_box;

const FILE_SIZE: u64 = 1_000_000;

fn factory() -> SendPolicy {
    Box::new(fbc_core::optfilebundle::OptFileBundle::new())
}

/// One regime's job stream and the grid it runs on.
struct Stream {
    regime: &'static str,
    catalog: FileCatalog,
    arrivals: Vec<JobArrival>,
    config: GridConfig,
    plan: Plan,
    /// Jobs the 1-shard equivalence check replays.
    equiv_prefix: usize,
}

impl Stream {
    /// The hit-dominated stream: `jobs` arrivals cycling through `pool`
    /// distinct 3-file bundles over a `files`-file catalog that fits in
    /// cache whole.
    fn hit(reduced: bool) -> Self {
        let (files, pool, jobs) = if reduced {
            (2_000, 256, 20_000)
        } else {
            (4_000, 512, 100_000)
        };
        let mut state = 0x6121D ^ jobs as u64;
        let distinct: Vec<Bundle> = (0..pool)
            .map(|_| Bundle::from_raw([0; 3].map(|_| (xorshift(&mut state) % files) as u32)))
            .collect();
        let bundles: Vec<Bundle> = (0..jobs)
            .map(|i| distinct[(xorshift(&mut state) as usize ^ i) % pool].clone())
            .collect();
        Self::new("hit", files, files, &bundles, Plan::new(1, 5, 1), 4_000)
    }

    /// The decision-dominated stream: `jobs` random triples over a
    /// `files`-file catalog with room for `resident` files. Random triples
    /// over a large population are almost all distinct, which keeps the
    /// history growing and the candidate selection busy. Three timed
    /// batches per shard count, so the headline is a median with a
    /// spread: single runs of the 4-shard row have differed by nearly 2×
    /// back to back on a shared 2-thread host.
    fn decision(reduced: bool) -> Self {
        let (files, jobs, resident) = if reduced {
            (6_000, 6_000, 4_000)
        } else {
            (24_000, 12_000, 16_000)
        };
        let mut state = 0xC0 ^ jobs as u64;
        let bundles: Vec<Bundle> = (0..jobs)
            .map(|_| Bundle::from_raw([0; 3].map(|_| (xorshift(&mut state) % files) as u32)))
            .collect();
        Self::new(
            "decision",
            files,
            resident,
            &bundles,
            Plan::new(0, 3, 1),
            2_000,
        )
    }

    fn new(
        regime: &'static str,
        files: u64,
        cached: u64,
        bundles: &[Bundle],
        plan: Plan,
        equiv_prefix: usize,
    ) -> Self {
        let config = GridConfig {
            srm: SrmConfig {
                cache_size: cached * FILE_SIZE,
                max_concurrent_jobs: 4,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        Self {
            regime,
            catalog: FileCatalog::from_sizes(vec![FILE_SIZE; files as usize]),
            arrivals: schedule_arrivals(bundles, ArrivalProcess::Batch),
            config,
            plan,
            equiv_prefix,
        }
    }

    fn run(&self, arrivals: &[JobArrival], shards: usize) -> ConcurrentStats {
        let config = ConcurrentConfig::sharded(self.config, shards);
        let stats = run_concurrent_grid(&factory, &self.catalog, arrivals, &config, None);
        let o = &stats.overall;
        assert_eq!(
            o.completed + o.rejected + o.failed,
            arrivals.len() as u64,
            "every job must be decided"
        );
        stats
    }
}

/// One swept shard count of one regime.
struct Row {
    regime: &'static str,
    shards: usize,
    jobs: usize,
    /// Wall ns per run.
    runs: Summary,
    /// Speedup over the 1-shard run it was paired with (1 for the 1-shard
    /// row itself).
    speedup: Summary,
    byte_miss: f64,
    /// Byte miss ratio of the 1-shard run.
    base_miss: f64,
}

impl Row {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 * 1e9 / self.runs.median
    }
}

/// The divergence check, the 1-shard run alone, then every other shard
/// count paired against 1 shard.
fn sweep(s: &Stream, shard_counts: &[usize]) -> Vec<Row> {
    let equiv = &s.arrivals[..s.arrivals.len().min(s.equiv_prefix)];
    let seq = run_grid(factory().as_mut(), &s.catalog, equiv, &s.config);
    let con = s.run(equiv, 1).overall;
    assert_eq!(
        seq, con,
        "DIVERGENCE ({} regime): 1-shard GridStats differ from run_grid",
        s.regime
    );
    assert_eq!(
        seq.report("OptFileBundle").as_str(),
        con.report("OptFileBundle").as_str(),
        "DIVERGENCE ({} regime): 1-shard GridReport differs from run_grid",
        s.regime
    );
    println!(
        "equivalence ({} regime): 1-shard run is bit-identical to run_grid",
        s.regime
    );

    let miss = |stats: ConcurrentStats| stats.overall.cache.byte_miss_ratio();
    let (single, base) = repeat(s.plan.warmup, s.plan.batches, || s.run(&s.arrivals, 1));
    let base_miss = miss(base);
    let row = |shards, runs, speedup, byte_miss| Row {
        regime: s.regime,
        shards,
        jobs: s.arrivals.len(),
        runs,
        speedup,
        byte_miss,
        base_miss,
    };
    let mut rows = vec![row(1, single, Summary::of(&[1.0]), base_miss)];
    for &shards in shard_counts.iter().filter(|&&n| n > 1) {
        let mut sharded = None;
        let paired = paired_ratio(
            s.plan,
            || sharded = Some(s.run(&s.arrivals, shards)),
            || {
                s.run(&s.arrivals, 1);
            },
        );
        let byte_miss = miss(sharded.expect("measured"));
        rows.push(row(shards, paired.a, paired.ratio, byte_miss));
    }
    rows
}

/// Residency membership micro-kernel: `passes` sweeps of `n` four-file
/// bundle probes (`supports`) over a full cache of `n` unit files from a
/// `2n` population, each miss churning one eviction plus one insertion.
/// Dense `CacheState` (side A) against `CacheStateReference` (side B), pass
/// by pass on the identical op stream; hit counts and final resident sets
/// must agree. Returns the measurement and the ns per probe of each side.
fn membership_kernel(n: usize, passes: usize) -> (Paired, f64, f64) {
    let catalog = FileCatalog::from_sizes(vec![1; 2 * n]);
    let mut state = 0xC0FFEE ^ ((n as u64) << 3);
    let probes: Vec<Bundle> = (0..n)
        .map(|_| Bundle::from_raw([0; 4].map(|_| (xorshift(&mut state) % (2 * n) as u64) as u32)))
        .collect();
    let ring = (2 * n) as u32;
    // The op stream is textually identical for both cache types, which
    // share no trait to be generic over.
    macro_rules! filled {
        ($cache:expr) => {{
            let mut cache = $cache;
            for f in 0..n as u32 {
                cache.insert(FileId(f), &catalog).expect("warm fill fits");
            }
            (cache, 0u64, 0u32)
        }};
    }
    macro_rules! pass {
        ($side:ident) => {
            || {
                let (cache, hits, victim) = &mut $side;
                for b in &probes {
                    if cache.contains_all(b) {
                        *hits += 1;
                    } else {
                        // Make room (next resident victim on the id ring),
                        // then admit the first missing file.
                        while cache.evict(FileId(*victim)).is_err() {
                            *victim = (*victim + 1) % ring;
                        }
                        *victim = (*victim + 1) % ring;
                        if let Some(f) = b.iter().find(|&f| !cache.contains(f)) {
                            cache.insert(f, &catalog).expect("room was made");
                        }
                    }
                }
            }
        };
    }
    let mut dense = filled!(CacheState::with_catalog(n as Bytes, &catalog));
    let mut reference = filled!(CacheStateReference::new(n as Bytes));
    let paired = paired_ratio(Plan::new(1, passes, 1), pass!(dense), pass!(reference));
    assert_eq!(
        dense.1, reference.1,
        "dense CacheState diverged from its reference twin (hit counts)"
    );
    assert_eq!(
        dense.0.resident_files_sorted(),
        reference.0.resident_files_sorted(),
        "dense CacheState diverged from its reference twin (final resident set)"
    );
    let per_probe = |ns: f64| ns / n as f64;
    (
        paired,
        per_probe(paired.a.median),
        per_probe(paired.b.median),
    )
}

/// The trace reader: the streaming `Trace::read_from` (side A) against
/// its reference twin `read_from_reference` (side B), paired pass by pass
/// over the hit stream's requests serialised once to v1 text in memory.
/// Both must read the text back to the same trace. Returns the
/// measurement and the ns per request of each side.
fn trace_read(s: &Stream, passes: usize) -> (Paired, f64, f64) {
    let requests: Vec<Bundle> = s.arrivals.iter().map(|a| a.bundle.clone()).collect();
    let trace = Trace::new(s.catalog.clone(), requests);
    let mut text = Vec::new();
    trace
        .write_to(&mut text)
        .expect("writing to memory cannot fail");
    let read = |reader: fn(&[u8]) -> std::io::Result<Trace>| {
        let back = reader(&text).expect("the trace reads back");
        assert_eq!(back, trace, "a trace reader changed the trace");
    };
    read(|t| Trace::read_from(t));
    read(|t| Trace::read_from_reference(t));
    let paired = paired_ratio(
        Plan::new(1, passes, 1),
        || {
            black_box(Trace::read_from(&text[..]).expect("checked above"));
        },
        || {
            black_box(Trace::read_from_reference(&text[..]).expect("checked above"));
        },
    );
    let per_request = |ns: f64| ns / trace.len() as f64;
    (
        paired,
        per_request(paired.a.median),
        per_request(paired.b.median),
    )
}

/// Both regimes through the shard sweep.
fn regimes(reduced: bool) -> Vec<Row> {
    let shard_counts: &[usize] = if reduced { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut rows = sweep(&Stream::hit(reduced), shard_counts);
    rows.extend(sweep(&Stream::decision(reduced), shard_counts));
    rows
}

/// The headline rows: 1-shard hit regime and 4-shard decision regime.
fn headlines(rows: &[Row]) -> (&Row, &Row) {
    let at = |regime, shards| {
        rows.iter()
            .find(|r| r.regime == regime && r.shards == shards)
            .expect("swept")
    };
    (at("hit", 1), at("decision", 4))
}

fn main() {
    let smoke = smoke_mode();
    banner(if smoke {
        "perf_grid — CI smoke (regression gate)"
    } else {
        "perf_grid — end-to-end sharded grid throughput, hit and decision regimes"
    });
    let reduced = smoke || quick_mode();

    let rows = regimes(reduced);
    let (hit, decision) = headlines(&rows);
    let mut table = Rows::new([
        "regime",
        "shards",
        "repeats",
        "jobs_per_sec",
        "spread",
        "speedup",
        "speedup_spread",
        "byte_miss",
        "miss_delta",
    ]);
    for r in &rows {
        table.push([
            r.regime.into(),
            r.shards.into(),
            r.runs.n.into(),
            Cell::num(r.jobs_per_sec(), 0),
            Cell::num(r.runs.spread(), 3),
            Cell::num(r.speedup.median, 2),
            Cell::num(r.speedup.spread(), 3),
            Cell::num(r.byte_miss, 4),
            Cell::num(r.byte_miss - r.base_miss, 4),
        ]);
    }
    let (reader, reader_ns, reference_reader_ns) =
        trace_read(&Stream::hit(reduced), if reduced { 9 } else { 15 });
    table.push([
        "trace_read".into(),
        1usize.into(),
        reader.a.n.into(),
        Cell::num(1e9 / reader_ns, 0),
        Cell::num(reader.a.spread(), 3),
        Cell::num(reader.ratio.median, 2),
        Cell::num(reader.ratio.spread(), 3),
        "".into(),
        "".into(),
    ]);
    println!();
    table.print();
    let threads = hardware_threads();
    for r in rows
        .iter()
        .filter(|r| r.shards > threads && r.speedup.median > threads as f64)
    {
        println!(
            "note: {} regime, {} shards on {threads} hardware thread(s): parallelism explains \
             at most {threads}x of the {:.2}x; the rest is smaller per-shard state, not \
             parallelism",
            r.regime, r.shards, r.speedup.median
        );
    }

    let kernel_n = if reduced { 1_000 } else { 10_000 };
    let (kernel, dense_ns, reference_ns) =
        membership_kernel(kernel_n, if reduced { 8 } else { 32 });
    println!(
        "\nhit-check kernel (n={kernel_n}): dense {dense_ns:.1} ns/probe vs reference \
         {reference_ns:.1} ns/probe ({:.1}x paired)",
        kernel.ratio.median
    );
    println!(
        "trace reader (hit stream as v1 text): streaming {reader_ns:.1} ns/request vs \
         reference {reference_reader_ns:.1} ns/request ({:.2}x paired)",
        reader.ratio.median
    );
    println!(
        "\nheadline: hit regime 1-shard {:.0} jobs/s; decision regime 4-shard {:.0} jobs/s \
         ({:.2}x 1-shard)",
        hit.jobs_per_sec(),
        decision.jobs_per_sec(),
        decision.speedup.median
    );

    if smoke {
        // The dense representation must never lose to the hash twin it
        // replaced.
        assert!(
            kernel.ratio.median >= 1.0,
            "REGRESSION: dense membership kernel only {:.2}x the reference twin \
             (acceptance floor: 1.0x — dense must never be slower)",
            kernel.ratio.median
        );
        assert!(
            reader.ratio.median >= 1.2,
            "REGRESSION: streaming trace reader only {:.2}x the reference reader \
             (acceptance floor: 1.2x)",
            reader.ratio.median
        );
        assert!(
            decision.speedup.median >= 1.5,
            "REGRESSION: 4-shard decision throughput only {:.2}x single-shard \
             (acceptance floor: 1.5x)",
            decision.speedup.median
        );
        let (hit_jps, decision_jps) = (hit.jobs_per_sec(), decision.jobs_per_sec());
        gate_baseline("perf_grid", "headline_hit_jobs_per_sec", hit_jps);
        gate_baseline("perf_grid", "headline_decision_jobs_per_sec", decision_jps);
        println!(
            "smoke: OK (dense kernel {:.1}x >= 1.0x, trace reader {:.2}x >= 1.2x, \
             4-shard decision {:.2}x >= 1.5x, 1-shard equivalence held in both regimes)",
            kernel.ratio.median, reader.ratio.median, decision.speedup.median
        );
        return;
    }

    let smoke = if reduced {
        [hit.jobs_per_sec(), decision.jobs_per_sec()]
    } else {
        println!("\nsmoke-size headlines (the committed baselines --smoke gates against):");
        smoke_baseline(|| {
            let rows = regimes(true);
            let (hit, decision) = headlines(&rows);
            [hit.jobs_per_sec(), decision.jobs_per_sec()]
        })
    };
    table.save_csv("perf_grid.csv");
    Section::new("perf_grid", hit.runs.n)
        .headline(
            "headline_hit_jobs_per_sec",
            hit.jobs_per_sec(),
            hit.runs.spread(),
            smoke[0],
        )
        .headline(
            "headline_decision_jobs_per_sec",
            decision.jobs_per_sec(),
            decision.runs.spread(),
            smoke[1],
        )
        .stat(
            "decision_shard_speedup",
            decision.speedup.median,
            decision.speedup.spread(),
        )
        .stat(
            "hit_check_speedup",
            kernel.ratio.median,
            kernel.ratio.spread(),
        )
        .set("hit_check_dense_ns_per_probe", Cell::num(dense_ns, 1))
        .set(
            "hit_check_reference_ns_per_probe",
            Cell::num(reference_ns, 1),
        )
        .stat(
            "trace_read_speedup",
            reader.ratio.median,
            reader.ratio.spread(),
        )
        .set("trace_read_ns_per_request", Cell::num(reader_ns, 1))
        .set(
            "trace_read_reference_ns_per_request",
            Cell::num(reference_reader_ns, 1),
        )
        .rows("results", &table)
        .write();
}
