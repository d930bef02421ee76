//! Golden JSONL traces: the observability trace of a fixed run is a
//! committed file, compared byte for byte.
//!
//! Each case drives one of the two engines that attach a sink to a policy
//! — `run_trace` with an HRV queue of 4, and the grid engine under the
//! `flaky-wan` fault preset — over one generated ~300-job trace, for
//! `OptFileBundle`, Landlord, SLRU and ARC. A change that moves, adds or
//! drops any event or counter fails here with the first differing line;
//! each run's counter table is a golden file too.
//!
//! After a deliberate change to the trace format, rewrite the files with
//! `cargo test --test golden_traces -- --ignored regenerate_golden_traces`
//! and review the diff.

use file_bundle_cache::grid::client::schedule_arrivals;
use file_bundle_cache::prelude::*;
use std::path::PathBuf;

const POLICIES: [(&str, PolicyKind); 4] = [
    ("ofb", PolicyKind::OptFileBundle),
    ("landlord", PolicyKind::Landlord),
    ("slru", PolicyKind::Slru),
    ("arc", PolicyKind::Arc),
];

fn workload() -> Trace {
    Workload::generate(WorkloadConfig {
        cache_size: 400 * MIB,
        num_files: 120,
        max_file_frac: 0.02,
        pool_requests: 60,
        jobs: 300,
        files_per_request: (1, 4),
        popularity: Popularity::zipf(),
        seed: 2004,
    })
    .into_trace()
}

/// The trace simulator's JSONL for `kind`: HRV queue of 4, 40 MiB cache.
fn sim_run(kind: PolicyKind, trace: &Trace) -> Obs {
    let cfg = RunConfig {
        queue: QueueConfig {
            queue_len: 4,
            discipline: Discipline::HighestRelativeValue,
        },
        ..RunConfig::new(40 * MIB)
    };
    let obs = Obs::enabled();
    run_trace(kind.build().as_mut(), trace, &cfg, &obs);
    obs
}

/// The grid engine's JSONL for `kind` under `preset:flaky-wan`.
fn grid_run(kind: PolicyKind, trace: &Trace) -> Obs {
    let arrivals = schedule_arrivals(
        &trace.requests,
        ArrivalProcess::Poisson { rate: 3.0, seed: 7 },
    );
    let config = GridConfig {
        srm: SrmConfig {
            cache_size: 40 * MIB,
            max_concurrent_jobs: 3,
            ..SrmConfig::default()
        },
        retry: RetryPolicy {
            max_retries: 3,
            fetch_timeout: Some(SimDuration::from_secs(60)),
            ..RetryPolicy::default()
        },
        ..GridConfig::default()
    };
    let plan = FaultPlan::parse("preset:flaky-wan").expect("a known preset");
    let obs = Obs::enabled();
    run_grid_observed(
        kind.build().as_mut(),
        &trace.catalog,
        &arrivals,
        &config,
        Some(&plan),
        &obs,
    );
    obs
}

/// Every golden case as `(file name, contents)`: each run's JSONL trace
/// and its counter table.
fn cases() -> Vec<(String, String)> {
    let trace = workload();
    let mut out = Vec::new();
    for (name, kind) in POLICIES {
        for (engine, obs) in [
            ("sim", sim_run(kind, &trace)),
            ("grid", grid_run(kind, &trace)),
        ] {
            out.push((format!("{engine}_{name}.jsonl"), obs.jsonl()));
            out.push((format!("{engine}_{name}.table"), obs.render_table()));
        }
    }
    out
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

#[test]
fn traces_match_the_committed_golden_files() {
    for (file, got) in cases() {
        let path = golden_path(&file);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if want == got {
            continue;
        }
        let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
            (want.lines().collect(), got.lines().collect());
        let first = want_lines
            .iter()
            .zip(&got_lines)
            .position(|(w, g)| w != g)
            .unwrap_or(want_lines.len().min(got_lines.len()));
        panic!(
            "{file} differs from the golden file at line {}\n  golden: {}\n  got:    {}",
            first + 1,
            want_lines.get(first).unwrap_or(&"<end of file>"),
            got_lines.get(first).unwrap_or(&"<end of trace>"),
        );
    }
}

#[test]
fn golden_runs_exercise_evictions_and_faults() {
    let trace = workload();
    let sim = sim_run(PolicyKind::Slru, &trace).jsonl();
    assert!(
        sim.contains("\"ev\":\"evict\""),
        "the cache must be under pressure"
    );
    let grid = grid_run(PolicyKind::Arc, &trace).jsonl();
    assert!(grid.contains("\"ev\":\"evict\""));
    assert!(
        grid.contains("\"ev\":\"retry\""),
        "flaky-wan must cause retries"
    );
}

/// Rewrites the golden files from the current code.
#[test]
#[ignore = "rewrites tests/golden; run by hand after a deliberate trace change"]
fn regenerate_golden_traces() {
    std::fs::create_dir_all(golden_path("x").parent().unwrap()).unwrap();
    for (file, got) in cases() {
        std::fs::write(golden_path(&file), got).unwrap();
    }
}
