//! Integration tests for the extension features — hybrid execution,
//! admission gating, history persistence / warm start, replication
//! statistics — driven through the public facade.

use fbc_baselines::AdmissionGate;
use fbc_sim::hybrid::run_hybrid;
use fbc_sim::replicate::replicate;
use fbc_workload::transform;
use file_bundle_cache::core::history::RequestHistory;
use file_bundle_cache::prelude::*;

fn standard(seed: u64, jobs: usize) -> (Trace, Bytes) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 400,
        max_file_frac: 0.01,
        pool_requests: 120,
        jobs,
        files_per_request: (2, 5),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    });
    let cache = (w.mean_request_bytes() * 10.0) as Bytes;
    (w.into_trace(), cache)
}

#[test]
fn hybrid_fraction_zero_matches_plain_run_end_to_end() {
    let (trace, cache) = standard(1, 800);
    let mut a = OptFileBundle::new();
    let plain = run_trace(&mut a, &trace, &RunConfig::new(cache), &Obs::disabled());
    let mut b = OptFileBundle::new();
    let hybrid = run_hybrid(&mut b, &trace, cache, 0.0, 99);
    assert_eq!(plain, hybrid.overall);
}

#[test]
fn admission_gate_wins_on_scan_heavy_workloads() {
    let (trace, cache) = standard(2, 1_200);
    let scanned = transform::with_scans(&trace, 0.8, 7);
    let run = |policy: &mut dyn CachePolicy| {
        run_trace(policy, &scanned, &RunConfig::new(cache), &Obs::disabled()).byte_miss_ratio()
    };
    let plain = run(&mut Lru::new());
    let gated = run(&mut AdmissionGate::second_hit(Lru::new()));
    assert!(
        gated < plain,
        "gated LRU {gated} not below plain LRU {plain} under scans"
    );
}

#[test]
fn warm_start_never_loses_to_cold_start() {
    let (trace, cache) = standard(3, 2_000);
    let (a, b) = trace.requests.split_at(trace.len() / 2);
    let first = Trace::new(trace.catalog.clone(), a.to_vec());
    let second = Trace::new(trace.catalog.clone(), b.to_vec());

    let mut learner = OptFileBundle::new();
    let _ = run_trace(
        &mut learner,
        &first,
        &RunConfig::new(cache),
        &Obs::disabled(),
    );
    let mut buf = Vec::new();
    learner.history().write_to(&mut buf).unwrap();
    let restored = RequestHistory::read_from(&buf[..], &trace.catalog).unwrap();

    let mut cold = OptFileBundle::new();
    let cold_m = run_trace(&mut cold, &second, &RunConfig::new(cache), &Obs::disabled());
    let mut warm = OptFileBundle::with_history(OfbConfig::default(), restored);
    let warm_m = run_trace(&mut warm, &second, &RunConfig::new(cache), &Obs::disabled());
    assert!(
        warm_m.byte_miss_ratio() <= cold_m.byte_miss_ratio() + 0.02,
        "warm {} much worse than cold {}",
        warm_m.byte_miss_ratio(),
        cold_m.byte_miss_ratio()
    );
}

#[test]
fn replicated_runs_have_low_seed_variance() {
    let seeds: Vec<u64> = (10..16).collect();
    let r = replicate(&seeds, 3, |seed| {
        let (trace, cache) = standard(seed, 600);
        let mut p = OptFileBundle::new();
        run_trace(&mut p, &trace, &RunConfig::new(cache), &Obs::disabled()).byte_miss_ratio()
    });
    assert_eq!(r.n, 6);
    assert!(r.mean > 0.0 && r.mean < 1.0);
    assert!(
        r.std_dev < 0.1,
        "byte miss ratio varies too much across seeds: {r:?}"
    );
    assert!(r.min <= r.mean && r.mean <= r.max);
}

#[test]
fn scan_injection_composes_with_queueing() {
    let (trace, cache) = standard(4, 600);
    let scanned = transform::with_scans(&trace, 0.5, 3);
    let mut policy = OptFileBundle::new();
    let cfg = RunConfig {
        queue: QueueConfig::hrv(20),
        ..RunConfig::new(cache)
    };
    let m = run_trace(&mut policy, &scanned, &cfg, &Obs::disabled());
    assert_eq!(m.jobs, scanned.len() as u64);
    assert_eq!(m.serviced, scanned.len() as u64);
}
