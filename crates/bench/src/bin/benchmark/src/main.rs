//! The benchmark of record: four named grid workloads, bounded end-to-end
//! metrics, and a traced per-layer breakdown. README.md has the metric
//! table, the bounds and why each workload was chosen.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload paper-zipf --seed 1 [--seconds 25] [--trace 0|1]
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke
//! ```
//!
//! A plain run generates the workload's trace from the seed (untimed),
//! serialises it to v1 text, then repeats passes while another fits in
//! `--seconds` (at least three): each pass times its setup (parse, arrival
//! schedule, policy construction) and one engine call on a fresh policy.
//! `setup_s` is the median over the passes. `jobs_per_s` is their upper
//! quartile: on a shared host, interference only ever slows a pass, and
//! the upper quartile moved less between runs than the median did.
//!
//! A traced run makes a plain pass, one through `TimedPolicy`, one with
//! observability on and a second plain pass, and reports the per-layer
//! metrics. The last stdout line is the result JSON; the line before it
//! records the run's metadata. Any failed check exits 1.

mod report;
mod timed;
mod workloads;

use fbc_core::policy::{PolicyFactory, SendPolicy};
use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
use fbc_grid::concurrent::{
    run_concurrent_grid, run_concurrent_grid_observed, ConcurrentConfig, ConcurrentStats,
};
use fbc_grid::engine::{run_grid, run_grid_observed};
use fbc_grid::stats::GridStats;
use fbc_obs::Obs;
use fbc_workload::trace::Trace;
use report::{
    highest_supported, json_str, median, metric, peak_rss_mib, ratio, result_line, samples_beyond,
    tail_quantile, upper_quartile, Metric,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timed::{LayerRecord, Sink, TimedPolicy};
use workloads::{Engine, Kind};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 25;
/// Fewest timed passes of a plain run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Prefix of `sharded-churn` that must give the same stats on 1 and 2 workers.
const WORKER_CHECK_JOBS: usize = 20_000;
/// The deepest response percentile the run line records (not a bounded
/// metric: it moves 10–15 % between seeds on the paper workloads).
const RESPONSE_TAIL: f64 = 0.9999;
/// Completed jobs that must lie beyond [`RESPONSE_TAIL`] in a full run.
const MIN_TAIL_BEYOND: usize = 20;
/// `--smoke` runs every workload at 1/100 of its jobs.
const SMOKE_SCALE: usize = 100;

const USAGE: &str =
    "usage: benchmark --workload <hit-flood|paper-zipf|paper-zipf-window|sharded-churn> \
[--seed <u64>] [--seconds <n>] [--trace [0|1]]\n       benchmark --smoke";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                let kind = Kind::from_name(&v).ok_or(format!("unknown workload '{v}'"))?;
                out.workload = Some(kind);
            }
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                out.seconds = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
            }
            "--trace" => {
                // A bare `--trace` means `--trace 1`.
                let explicit = args.next_if(|v| v == "0" || v == "1");
                out.trace = explicit.as_deref() != Some("0");
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.workload.is_none() && !out.smoke {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

/// Failed checks, in the order they were found.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    fn passed(&self) -> bool {
        self.0.is_empty()
    }
}

/// A workload ready to run: its trace as v1 text and how to simulate it.
struct Bench {
    jobs: usize,
    text: Vec<u8>,
    arrival: ArrivalProcess,
    engine: Engine,
    policy: fn() -> SendPolicy,
}

impl Bench {
    /// Generates and serialises the trace, checking the v1 round trip and,
    /// for a sharded workload, that 1 and 2 workers agree on a prefix.
    fn prepare(kind: Kind, seed: u64, jobs: usize, checks: &mut Checks) -> Self {
        let trace = kind.generate(seed, jobs);
        let mut text = Vec::new();
        trace
            .write_to(&mut text)
            .expect("writing to memory cannot fail");
        let back = Trace::read_from(&text[..]);
        checks.check(back.as_ref().is_ok_and(|t| *t == trace), || {
            "the v1 round trip differs from the generated trace".to_string()
        });
        let bench = Self {
            jobs,
            text,
            arrival: kind.arrivals(seed),
            engine: kind.engine(),
            policy: kind.policy(),
        };
        if let Engine::Sharded(config, plan) = &bench.engine {
            let prefix = &trace.requests[..jobs.min(WORKER_CHECK_JOBS)];
            let arrivals = schedule_arrivals(prefix, bench.arrival);
            let run = |workers| {
                let config = ConcurrentConfig { workers, ..*config };
                run_concurrent_grid(
                    &bench.policy,
                    &trace.catalog,
                    &arrivals,
                    &config,
                    Some(plan),
                )
            };
            checks.check(run(1) == run(2), || {
                format!(
                    "{} jobs give different stats on 1 and 2 workers",
                    prefix.len()
                )
            });
        }
        bench
    }

    fn workers(&self) -> usize {
        match &self.engine {
            Engine::Sequential(_) => 1,
            Engine::Sharded(config, _) => config.workers,
        }
    }

    fn shards(&self) -> usize {
        match &self.engine {
            Engine::Sequential(_) => 1,
            Engine::Sharded(config, _) => config.shards,
        }
    }
}

#[derive(Debug, PartialEq)]
enum Stats {
    Grid(GridStats),
    Sharded(ConcurrentStats),
}

impl Stats {
    fn overall(&self) -> &GridStats {
        match self {
            Stats::Grid(s) => s,
            Stats::Sharded(s) => &s.overall,
        }
    }
}

/// Wall-clock timings of one pass.
struct Timing {
    parse: Duration,
    schedule: Duration,
    /// Parse + schedule + policy construction.
    setup: Duration,
    start: Instant,
    end: Instant,
}

impl Timing {
    fn engine_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

enum Mode<'a> {
    Plain,
    Timed(&'a Sink),
    Observed(&'a Obs),
}

/// One pass: timed setup from the v1 text, then one engine call.
fn run_pass(b: &Bench, mode: &Mode) -> (Timing, Stats) {
    let t0 = Instant::now();
    let trace = Trace::read_from(&b.text[..]).expect("the trace round-tripped before the passes");
    let t1 = Instant::now();
    let arrivals = schedule_arrivals(&trace.requests, b.arrival);
    let t2 = Instant::now();
    let make = b.policy;
    let (start, stats, end) = match &b.engine {
        Engine::Sequential(config) => {
            let mut policy: SendPolicy = match mode {
                Mode::Timed(sink) => Box::new(TimedPolicy::new(make(), Arc::clone(sink), b.jobs)),
                _ => make(),
            };
            let start = Instant::now();
            let stats = match mode {
                Mode::Observed(obs) => run_grid_observed(
                    policy.as_mut(),
                    &trace.catalog,
                    &arrivals,
                    config,
                    None,
                    obs,
                ),
                _ => run_grid(policy.as_mut(), &trace.catalog, &arrivals, config),
            };
            (start, Stats::Grid(stats), Instant::now())
        }
        Engine::Sharded(config, plan) => {
            let factory: Box<dyn PolicyFactory> = match mode {
                Mode::Timed(sink) => {
                    let sink = Arc::clone(sink);
                    let capacity = b.jobs;
                    Box::new(move || -> SendPolicy {
                        Box::new(TimedPolicy::new(make(), Arc::clone(&sink), capacity))
                    })
                }
                _ => Box::new(make),
            };
            let start = Instant::now();
            let stats = match mode {
                Mode::Observed(obs) => run_concurrent_grid_observed(
                    factory.as_ref(),
                    &trace.catalog,
                    &arrivals,
                    config,
                    Some(plan),
                    obs,
                ),
                _ => run_concurrent_grid(
                    factory.as_ref(),
                    &trace.catalog,
                    &arrivals,
                    config,
                    Some(plan),
                ),
            };
            (start, Stats::Sharded(stats), Instant::now())
        }
    };
    let timing = Timing {
        parse: t1 - t0,
        schedule: t2 - t1,
        setup: start - t0,
        start,
        end,
    };
    (timing, stats)
}

fn check_conservation(b: &Bench, stats: &Stats, checks: &mut Checks) {
    let o = stats.overall();
    checks.check(o.completed + o.failed + o.rejected == b.jobs as u64, || {
        format!(
            "completed {} + failed {} + rejected {} != {} jobs",
            o.completed, o.failed, o.rejected, b.jobs
        )
    });
}

/// A plain run: the passes' timings, the first pass's stats, and the
/// process's peak resident memory right after the first pass.
struct PlainRun {
    timings: Vec<Timing>,
    stats: Stats,
    peak_mib: Option<f64>,
}

/// Plain passes while another one fits in `budget` (at least
/// [`MIN_PASSES`]); every pass must return the first pass's stats. Peak
/// memory is read after the first pass, because freed memory that later
/// passes do not reuse exactly would make it grow with the pass count.
fn plain_run(b: &Bench, budget: Duration, checks: &mut Checks) -> PlainRun {
    let began = Instant::now();
    let (timing, stats) = run_pass(b, &Mode::Plain);
    let peak_mib = peak_rss_mib();
    check_conservation(b, &stats, checks);
    let mut timings = vec![timing];
    let mut last = began.elapsed();
    while timings.len() < MIN_PASSES || began.elapsed() + last <= budget {
        let pass_began = Instant::now();
        let (timing, other) = run_pass(b, &Mode::Plain);
        timings.push(timing);
        checks.check(other == stats, || {
            format!("pass {} returned other stats than pass 1", timings.len())
        });
        last = pass_began.elapsed();
    }
    PlainRun {
        timings,
        stats,
        peak_mib,
    }
}

fn end_to_end(b: &Bench, run: &PlainRun) -> Vec<Metric> {
    let o = run.stats.overall();
    let rates: Vec<f64> = run
        .timings
        .iter()
        .map(|t| b.jobs as f64 / t.engine_s())
        .collect();
    let setups: Vec<f64> = run.timings.iter().map(|t| t.setup.as_secs_f64()).collect();
    vec![
        metric("jobs_per_s", upper_quartile(&rates), "jobs/s"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", run.peak_mib.unwrap_or(0.0), "MiB"),
        metric("byte_miss_ratio", o.cache.byte_miss_ratio(), "ratio"),
        metric("request_hit_ratio", o.cache.request_hit_ratio(), "ratio"),
        metric(
            "response_p50_s",
            o.percentile_response(0.5).as_secs_f64(),
            "s",
        ),
        metric(
            "response_p99_s",
            o.percentile_response(0.99).as_secs_f64(),
            "s",
        ),
    ]
}

/// The traced run's outcome: per-layer metrics, the plain pass's stats, and
/// the quantile `core.policy.miss_ns_p99` actually stands for.
struct Traced {
    metrics: Vec<Metric>,
    stats: Stats,
    miss_tail_q: f64,
}

/// A plain pass, one through `TimedPolicy`, one with obs on, and a second
/// plain pass; every pass must return the first one's stats. The mean of
/// the two plain passes, which bracket the others, is the untraced wall
/// the overhead ratios divide by, so drift during the run cancels.
fn traced_run(b: &Bench, checks: &mut Checks) -> Traced {
    let (plain, stats) = run_pass(b, &Mode::Plain);
    check_conservation(b, &stats, checks);
    let sink = Sink::default();
    let obs = Obs::enabled();
    let mut passes = Vec::with_capacity(3);
    for (mode, name) in [
        (Mode::Timed(&sink), "timed"),
        (Mode::Observed(&obs), "obs-on"),
        (Mode::Plain, "second plain"),
    ] {
        let (timing, other) = run_pass(b, &mode);
        checks.check(other == stats, || {
            format!("the {name} pass returned other stats than the first")
        });
        passes.push(timing);
    }
    let records = std::mem::take(&mut *sink.lock().expect("no policy panicked while recording"));
    checks.check(records.len() == b.shards(), || {
        format!("{} layer records for {} shards", records.len(), b.shards())
    });
    let untraced_s = (plain.engine_s() + passes[2].engine_s()) / 2.0;
    let (metrics, miss_tail_q) = layer_metrics(
        b,
        &plain,
        untraced_s,
        [&passes[0], &passes[1]],
        &stats,
        &records,
    );
    Traced {
        metrics,
        stats,
        miss_tail_q,
    }
}

fn layer_metrics(
    b: &Bench,
    plain: &Timing,
    untraced_s: f64,
    [timed, observed]: [&Timing; 2],
    stats: &Stats,
    records: &[LayerRecord],
) -> (Vec<Metric>, f64) {
    let jobs = b.jobs as f64;
    let o = stats.overall();
    let total = |f: fn(&LayerRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let (policy_ns, probe_ns, probes) = (
        total(LayerRecord::policy_ns),
        total(|r| r.probe_ns),
        total(|r| r.probes),
    );
    let (calls, serviced, hits) = (total(|r| r.calls), total(|r| r.serviced), total(|r| r.hits));
    let mut misses: Vec<u64> = records
        .iter()
        .flat_map(|r| r.miss_ns.iter().copied())
        .collect();
    misses.sort_unstable();
    let (miss_p99, miss_tail_q) = match tail_quantile(&misses, 0.99) {
        Some(v) => (v, 0.99),
        None => highest_supported(&misses).unwrap_or((0, 0.0)),
    };
    let miss_p50 = tail_quantile(&misses, 0.5).unwrap_or(0);

    // The sequential engine is the one-shard case: no admission, no merge.
    let (shard_s, admit_s, merge_s, imbalance) = match stats {
        Stats::Grid(_) => (vec![timed.engine_s()], 0.0, 0.0, 1.0),
        Stats::Sharded(s) => {
            let shard_s: Vec<f64> = records
                .iter()
                .map(|r| (r.dropped - r.created).as_secs_f64())
                .collect();
            let first = records
                .iter()
                .map(|r| r.created)
                .min()
                .unwrap_or(timed.start);
            let last = records.iter().map(|r| r.dropped).max().unwrap_or(timed.end);
            let routed_max = s.routed.iter().copied().max().unwrap_or(0) as f64;
            let routed_mean = s.routed.iter().sum::<u64>() as f64 / s.routed.len().max(1) as f64;
            (
                shard_s,
                first.saturating_duration_since(timed.start).as_secs_f64(),
                timed.end.saturating_duration_since(last).as_secs_f64(),
                ratio(routed_max, routed_mean),
            )
        }
    };
    let busy_ns = shard_s.iter().sum::<f64>() * 1e9;
    let shard_max = shard_s.iter().copied().fold(0.0, f64::max);
    let shard_mean = ratio(shard_s.iter().sum(), shard_s.len() as f64);

    let metrics = vec![
        metric("workload.trace.parse_s", plain.parse.as_secs_f64(), "s"),
        metric("grid.client.schedule_s", plain.schedule.as_secs_f64(), "s"),
        metric("core.policy.miss_ns_p50", miss_p50 as f64, "ns"),
        metric("core.policy.miss_ns_p99", miss_p99 as f64, "ns"),
        metric("core.policy.miss_calls", misses.len() as f64, "count"),
        metric(
            "core.policy.hit_ns_mean",
            ratio(total(|r| r.hit_ns), hits),
            "ns",
        ),
        metric(
            "core.policy.jobs_per_batch",
            ratio(total(|r| r.batch_jobs), total(|r| r.batch_calls)),
            "jobs",
        ),
        metric("core.policy.busy_share", ratio(policy_ns, busy_ns), "ratio"),
        metric("core.policy.calls_per_job", calls / jobs, "ratio"),
        metric(
            "core.policy.serviced_per_call",
            ratio(serviced, calls),
            "ratio",
        ),
        metric(
            "core.policy.evicted_files_per_miss",
            ratio(total(|r| r.evicted_files), misses.len() as f64),
            "files",
        ),
        metric(
            "core.policy.fetched_gib",
            total(|r| r.fetched_bytes) / (1u64 << 30) as f64,
            "GiB",
        ),
        metric("core.cache.contains_all_ns", ratio(probe_ns, probes), "ns"),
        metric(
            "grid.engine.self_ns_per_job",
            (busy_ns - policy_ns - probe_ns) / jobs,
            "ns",
        ),
        metric(
            "grid.engine.fetch_attempts_per_job",
            o.fetch_attempts as f64 / jobs,
            "ratio",
        ),
        metric(
            "grid.engine.retries_per_job",
            o.fetch_retries as f64 / jobs,
            "ratio",
        ),
        metric("grid.concurrent.admit_s", admit_s, "s"),
        metric("grid.concurrent.shard_s_max", shard_max, "s"),
        metric("grid.concurrent.shard_s_mean", shard_mean, "s"),
        metric("grid.concurrent.merge_s", merge_s, "s"),
        metric("grid.concurrent.routed_imbalance", imbalance, "ratio"),
        metric("obs.on_overhead", observed.engine_s() / untraced_s, "ratio"),
        metric("trace.overhead", timed.engine_s() / untraced_s, "ratio"),
    ];
    (metrics, miss_tail_q)
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn report_failures(kind: Kind, checks: &Checks) {
    for failure in &checks.0 {
        eprintln!("check failed [{}]: {failure}", kind.name());
    }
}

/// Every workload at 1/[`SMOKE_SCALE`] size, plain and traced, with every
/// check. Returns the exit code.
fn smoke() -> i32 {
    let mut code = 0;
    for kind in workloads::ALL {
        let began = Instant::now();
        let mut checks = Checks::default();
        let bench = Bench::prepare(kind, DEFAULT_SEED, kind.jobs(SMOKE_SCALE), &mut checks);
        let plain = plain_run(&bench, Duration::ZERO, &mut checks);
        let traced = traced_run(&bench, &mut checks);
        checks.check(traced.stats == plain.stats, || {
            "the traced run returned other stats than the plain run".to_string()
        });
        let e2e = end_to_end(&bench, &plain);
        for metrics in [&e2e, &traced.metrics] {
            if let Err(e) = result_line(true, 1, 0, metrics) {
                checks.0.push(e);
            }
        }
        report_failures(kind, &checks);
        let verdict = if checks.passed() { "ok" } else { "FAILED" };
        println!(
            "smoke {:<18} {verdict} ({} jobs, {:.2} s)",
            kind.name(),
            bench.jobs,
            began.elapsed().as_secs_f64()
        );
        if !checks.passed() {
            code = 1;
        }
    }
    code
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        std::process::exit(smoke());
    }
    if cfg!(debug_assertions) {
        eprintln!("error: full runs need an optimized build (cargo run --release); only --smoke runs in a debug build");
        std::process::exit(2);
    }
    let kind = args
        .workload
        .expect("parse_args requires --workload without --smoke");
    let mut checks = Checks::default();
    let bench = Bench::prepare(kind, args.seed, kind.jobs(1), &mut checks);

    let mut run = vec![
        ("workload", json_str(kind.name())),
        ("seed", args.seed.to_string()),
        ("jobs", bench.jobs.to_string()),
    ];
    let (metrics, stats, passes) = if args.trace {
        let traced = traced_run(&bench, &mut checks);
        run.push(("miss_ns_p99_q", traced.miss_tail_q.to_string()));
        (traced.metrics, traced.stats, 4)
    } else {
        let plain = plain_run(&bench, Duration::from_secs(args.seconds), &mut checks);
        checks.check(plain.peak_mib.is_some(), || {
            "VmHWM is unreadable".to_string()
        });
        let metrics = end_to_end(&bench, &plain);
        (metrics, plain.stats, plain.timings.len())
    };
    let o = stats.overall();
    let tail_beyond = samples_beyond(RESPONSE_TAIL, o.completed as usize);
    checks.check(tail_beyond >= MIN_TAIL_BEYOND, || {
        format!("only {tail_beyond} completed jobs beyond the response p99.99")
    });
    let (hw, workers) = (hw_threads(), bench.workers());
    run.extend([
        ("jobs_completed", o.completed.to_string()),
        (
            "response_p99.99_s",
            o.percentile_response(RESPONSE_TAIL)
                .as_secs_f64()
                .to_string(),
        ),
        ("response_p99.99_beyond", tail_beyond.to_string()),
        ("passes", passes.to_string()),
        ("hw_threads", hw.to_string()),
        ("workers", workers.to_string()),
        ("profile", json_str(profile())),
        ("trace", args.trace.to_string()),
    ]);
    if bench.shards() > 1 && hw <= workers {
        let note = format!(
            "hw_threads {hw} <= workers {workers}: the gain of {} shards comes from smaller per-shard state, not parallelism",
            bench.shards()
        );
        run.push(("note", json_str(&note)));
    }
    let run_line: Vec<String> = run
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"run\": {{{}}}}}", run_line.join(", "));

    report_failures(kind, &checks);
    let attempted = (bench.jobs * passes) as u64;
    let failed = (o.failed + o.rejected) * passes as u64;
    match result_line(checks.passed(), attempted, failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(if checks.passed() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments() {
        let a = parse(&["--workload", "hit-flood", "--seed", "9", "--trace"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Some(Kind::HitFlood), 9, true)
        );
        let a = parse(&["--trace", "0", "--workload", "paper-zipf", "--seconds", "3"]).unwrap();
        assert_eq!((a.trace, a.seconds), (false, 3));
        assert!(
            parse(&["--trace", "1", "--workload", "sharded-churn"])
                .unwrap()
                .trace
        );
        assert!(parse(&["--smoke"]).unwrap().smoke);
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload"],
            &["--workload", "hit-flood", "--seed", "x"],
            &["--workload", "hit-flood", "--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
