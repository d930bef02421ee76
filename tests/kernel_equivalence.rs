//! Differential integration tests for the incremental selection kernel:
//! the heap-based `greedy_shared_credit` must be bit-for-bit equivalent to
//! the retained reference loop (`reference-kernels` feature), and the
//! scratch-reusing decision path of `OptFileBundle` must leak no state
//! between decisions over a full simulated workload.

use fbc_core::instance::FbcInstance;
use fbc_core::optfilebundle::{OfbConfig, OptFileBundle};
use fbc_core::select::{greedy_shared_credit, greedy_shared_credit_reference, GreedyVariant};
use file_bundle_cache::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Kernel ≡ reference across random instances, through the public API of
/// the core crate (the in-crate property tests cover more shapes; this one
/// guards the exported surface and runs under the tier-1 `cargo test`).
#[test]
fn incremental_kernel_is_bit_identical_to_reference() {
    let mut state = 0x0DDBA11u64;
    for round in 0..300 {
        let m = (xorshift(&mut state) % 20 + 1) as usize;
        let sizes: Vec<u64> = (0..m).map(|_| xorshift(&mut state) % 40).collect();
        let n = (xorshift(&mut state) % 25 + 1) as usize;
        let reqs: Vec<(Vec<u32>, f64)> = (0..n)
            .map(|_| {
                let k = (xorshift(&mut state) % 6 + 1) as usize;
                let files: Vec<u32> = (0..k)
                    .map(|_| (xorshift(&mut state) % m as u64) as u32)
                    .collect();
                (files, (xorshift(&mut state) % 64) as f64)
            })
            .collect();
        let cap = xorshift(&mut state) % 400;
        let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
        let fast = greedy_shared_credit(&inst, &[], inst.capacity());
        let slow = greedy_shared_credit_reference(&inst, &[], inst.capacity());
        assert_eq!(fast.chosen, slow.chosen, "round {round}");
        assert_eq!(fast.files, slow.files, "round {round}");
        assert_eq!(fast.bytes, slow.bytes, "round {round}");
        assert_eq!(
            fast.value.to_bits(),
            slow.value.to_bits(),
            "round {round}: selection value not bit-identical"
        );
    }
}

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
