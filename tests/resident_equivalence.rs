//! End-to-end byte-equality sweep for the persistent resident decision
//! state: over a seeded 1000-job simulated workload, `OptFileBundle`'s
//! incremental O(Δ) candidate-maintenance path must produce outcomes that
//! are byte-identical to the per-decision rebuild reference
//! (`with_config_reference`, `reference-kernels` feature) for every greedy
//! variant × history mode, including decayed values and warm starts. A
//! second sweep drives the shared-credit tournament tree at depth: hundreds
//! of candidates, most of them feasible on every round.

use fbc_core::history::ValueFn;
use fbc_core::optfilebundle::{HistoryMode, OfbConfig, OptFileBundle};
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

fn drive(
    policy: OptFileBundle,
    trace: &Trace,
    cache_size: Bytes,
) -> (Vec<RequestOutcome>, Vec<FileId>) {
    drive_observed(policy, trace, cache_size, &Obs::disabled())
}

fn drive_observed(
    mut policy: OptFileBundle,
    trace: &Trace,
    cache_size: Bytes,
    obs: &Obs,
) -> (Vec<RequestOutcome>, Vec<FileId>) {
    policy.attach_obs(obs.clone());
    let mut cache = CacheState::new(cache_size);
    let mut outcomes = Vec::with_capacity(trace.requests.len());
    for bundle in &trace.requests {
        outcomes.push(policy.handle(bundle, &mut cache, &trace.catalog));
    }
    (outcomes, cache.resident_files_sorted())
}

/// Every (variant × history-mode × value-fn) combination: the incremental
/// path's per-request outcomes (hits, fetched/evicted file lists, byte
/// counts) and final cache content equal the rebuild reference's, over
/// 1000 jobs.
#[test]
fn thousand_job_incremental_path_matches_rebuild_reference() {
    let (trace, cache_size) = thousand_job_trace(0xC0FFEE);
    for variant in [
        GreedyVariant::PaperLiteral,
        GreedyVariant::SortedOnce,
        GreedyVariant::SharedCredit,
    ] {
        for history_mode in [
            HistoryMode::Full,
            HistoryMode::Window(64),
            HistoryMode::CacheSupported,
        ] {
            for value_fn in [ValueFn::Count, ValueFn::Decay { half_life: 200.0 }] {
                let config = OfbConfig {
                    variant,
                    history_mode,
                    value_fn,
                    ..OfbConfig::default()
                };
                let fast = drive(OptFileBundle::with_config(config), &trace, cache_size);
                let slow = drive(
                    OptFileBundle::with_config_reference(config),
                    &trace,
                    cache_size,
                );
                assert_eq!(
                    fast.0, slow.0,
                    "{variant:?}/{history_mode:?}/{value_fn:?}: outcomes diverged"
                );
                assert_eq!(
                    fast.1, slow.1,
                    "{variant:?}/{history_mode:?}/{value_fn:?}: final caches diverged"
                );
            }
        }
    }
}

/// The shared-credit greedy at tree scale, in the regime of the paper's
/// Zipf workload under a long window: a 600-request pool, so decisions see
/// two to three hundred candidates (trees of 256 and 512 leaves), and a
/// cache of about a fifth of the pool's bytes, so most candidates stay
/// feasible round after round and a decision takes over a hundred of
/// them. Every history mode × value function must match the rebuild
/// reference outcome for outcome, and the sweep checks that it reached
/// that regime.
#[test]
fn deep_tree_shared_credit_matches_rebuild_reference() {
    let w = Workload::generate(WorkloadConfig {
        num_files: 1_500,
        max_file_frac: 0.01,
        pool_requests: 600,
        jobs: 1_500,
        files_per_request: (2, 6),
        popularity: Popularity::zipf(),
        seed: 0xDEE9,
        ..WorkloadConfig::default()
    });
    let cache_size = (w.mean_request_bytes() * 120.0) as Bytes;
    let trace = w.into_trace();
    for history_mode in [
        HistoryMode::Full,
        HistoryMode::Window(300),
        HistoryMode::Window(1000),
        HistoryMode::CacheSupported,
    ] {
        for value_fn in [ValueFn::Count, ValueFn::Decay { half_life: 200.0 }] {
            let config = OfbConfig {
                variant: GreedyVariant::SharedCredit,
                history_mode,
                value_fn,
                ..OfbConfig::default()
            };
            let obs = Obs::enabled();
            let fast = drive_observed(OptFileBundle::with_config(config), &trace, cache_size, &obs);
            let slow = drive(
                OptFileBundle::with_config_reference(config),
                &trace,
                cache_size,
            );
            assert_eq!(
                fast.0, slow.0,
                "{history_mode:?}/{value_fn:?}: outcomes diverged"
            );
            assert_eq!(
                fast.1, slow.1,
                "{history_mode:?}/{value_fn:?}: final caches diverged"
            );
            let p95 = |name| obs.histogram_quantile(name, 0.95).unwrap_or(0);
            let (candidates, takes) = (p95("ofb.candidates"), p95("ofb.greedy_takes"));
            assert!(
                candidates > 128 && takes >= 20,
                "{history_mode:?}/{value_fn:?}: p95 {candidates} candidates, {takes} takes"
            );
        }
    }
}

/// Warm starts: a history accumulated over one trace, persisted, and fed
/// back through `with_history` must leave the resident mirror in a state
/// that reproduces the reference twin's behaviour on a second trace.
#[test]
fn warm_started_incremental_path_matches_reference() {
    let (warm_trace, cache_size) = thousand_job_trace(0xFACADE);
    let (trace, _) = thousand_job_trace(0x5EED);

    let mut warm = OptFileBundle::new();
    let mut cache = CacheState::new(cache_size);
    for bundle in &warm_trace.requests {
        warm.handle(bundle, &mut cache, &warm_trace.catalog);
    }
    let mut buf = Vec::new();
    warm.history().write_to(&mut buf).unwrap();

    for history_mode in [
        HistoryMode::Full,
        HistoryMode::Window(64),
        HistoryMode::CacheSupported,
    ] {
        let config = OfbConfig {
            history_mode,
            ..OfbConfig::default()
        };
        let restored = || RequestHistory::read_from(&buf[..], &trace.catalog).unwrap();
        let fast = drive(
            OptFileBundle::with_history(config, restored()),
            &trace,
            cache_size,
        );
        let slow = drive(
            OptFileBundle::with_history_reference(config, restored()),
            &trace,
            cache_size,
        );
        assert_eq!(
            fast.0, slow.0,
            "{history_mode:?}: warm-start outcomes diverged"
        );
        assert_eq!(
            fast.1, slow.1,
            "{history_mode:?}: warm-start caches diverged"
        );
    }
}
