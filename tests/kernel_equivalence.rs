//! Determinism of the decision path across runs: the resident state and
//! kernel lanes of `OptFileBundle` are reused from one decision to the
//! next and must leak nothing between decisions or runs, and the
//! simulator's latency sampling must not perturb the decisions it times.

use fbc_core::optfilebundle::{OfbConfig, OptFileBundle};
use fbc_core::select::GreedyVariant;
use file_bundle_cache::prelude::*;

fn thousand_job_trace(seed: u64) -> (Trace, Bytes) {
    let cfg = WorkloadConfig {
        num_files: 400,
        max_file_frac: 0.02,
        pool_requests: 120,
        jobs: 1_000,
        files_per_request: (2, 6),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    };
    let w = Workload::generate(cfg);
    let cache = (w.mean_request_bytes() * 6.0) as Bytes;
    (w.into_trace(), cache)
}

/// A 1000-job workload produces byte-identical outcomes (per-request hits,
/// fetched/evicted file lists) and final cache content across repeated runs
/// and across all greedy variants' policy configurations — i.e. the
/// scratch-reusing `decide_retained` carries nothing from one decision (or
/// one run) into the next.
#[test]
fn thousand_job_runs_are_byte_identical_under_scratch_reuse() {
    let (trace, cache_size) = thousand_job_trace(0xFEED);
    for variant in [
        GreedyVariant::PaperLiteral,
        GreedyVariant::SortedOnce,
        GreedyVariant::SharedCredit,
    ] {
        let run = || {
            let mut policy = OptFileBundle::with_config(OfbConfig {
                variant,
                ..OfbConfig::default()
            });
            let mut cache = CacheState::new(cache_size);
            let mut outcomes = Vec::with_capacity(trace.requests.len());
            for bundle in &trace.requests {
                outcomes.push(policy.handle(bundle, &mut cache, &trace.catalog));
            }
            (outcomes, cache.resident_files_sorted())
        };
        let (first, cache_a) = run();
        let (second, cache_b) = run();
        assert_eq!(first, second, "{variant:?}: repeat run diverged");
        assert_eq!(cache_a, cache_b);
    }
}

/// The simulator facade end-to-end: metrics of two identical runs are equal
/// (including when latency sampling is enabled, which must not perturb the
/// decisions themselves).
#[test]
fn simulator_metrics_unchanged_by_latency_sampling() {
    let (trace, cache_size) = thousand_job_trace(0xBEEF);
    let base = {
        let mut p = OptFileBundle::new();
        run_trace(
            &mut p,
            &trace,
            &RunConfig::new(cache_size),
            &Obs::disabled(),
        )
    };
    let sampled = {
        let mut p = OptFileBundle::new();
        let cfg = RunConfig {
            record_latency: true,
            ..RunConfig::new(cache_size)
        };
        run_trace(&mut p, &trace, &cfg, &Obs::disabled())
    };
    assert_eq!(sampled.decision_latency.len(), trace.requests.len());
    assert_eq!(base.jobs, sampled.jobs);
    assert_eq!(base.hits, sampled.hits);
    assert_eq!(base.fetched_bytes, sampled.fetched_bytes);
    assert_eq!(base.evicted_bytes, sampled.evicted_bytes);
}
