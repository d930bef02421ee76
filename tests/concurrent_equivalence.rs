//! Differential suite pinning the sharded SRM front-end to the
//! single-threaded engine.
//!
//! With one shard the concurrent service must be *bit-for-bit* identical
//! to `run_grid_observed` — same `GridStats`, same rendered `GridReport`,
//! same JSONL observability trace — for every policy in the roster and
//! under fault injection. With several shards the result must be a pure
//! function of `(trace, config)`: independent of the worker count and
//! stable across repeated runs.

use file_bundle_cache::grid::client::schedule_arrivals;
use file_bundle_cache::grid::JobArrival;
use file_bundle_cache::prelude::*;

fn grid_config(cache_size: Bytes) -> GridConfig {
    GridConfig {
        srm: SrmConfig {
            cache_size,
            max_concurrent_jobs: 3,
            ..SrmConfig::default()
        },
        mss: MssConfig {
            drives: 2,
            mount_latency: SimDuration::from_secs(1),
            drive_bandwidth: 50.0e6,
        },
        link: LinkConfig {
            latency: SimDuration::from_millis(20),
            bandwidth: 125.0e6,
        },
        retry: RetryPolicy::default(),
    }
}

fn workload(seed: u64, jobs: usize) -> (FileCatalog, Vec<JobArrival>) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 80,
        max_file_frac: 0.02,
        pool_requests: 40,
        jobs,
        files_per_request: (1, 4),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    });
    let arrivals = schedule_arrivals(
        &w.jobs,
        ArrivalProcess::Poisson {
            rate: 3.0,
            seed: seed.wrapping_add(1),
        },
    );
    (w.catalog, arrivals)
}

/// Runs the sequential engine and the one-shard concurrent service over
/// the same inputs and asserts bit-identity of stats, report and trace.
fn assert_single_shard_identity(
    kind: PolicyKind,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
) {
    let mut policy = kind.build();
    let seq_obs = Obs::enabled();
    let seq = run_grid_observed(policy.as_mut(), catalog, arrivals, config, plan, &seq_obs);

    let factory = move || -> SendPolicy { kind.build_send() };
    let con_obs = Obs::enabled();
    let con = run_concurrent_grid_observed(
        &factory,
        catalog,
        arrivals,
        &ConcurrentConfig::sharded(*config, 1),
        plan,
        &con_obs,
    );

    assert_eq!(seq, con.overall, "{kind:?}: GridStats diverged");
    assert_eq!(
        seq.report(policy.name()).as_str(),
        con.overall.report(policy.name()).as_str(),
        "{kind:?}: GridReport bytes diverged"
    );
    assert_eq!(
        seq_obs.jsonl(),
        con_obs.jsonl(),
        "{kind:?}: observability trace diverged"
    );
}

#[test]
fn single_shard_matches_engine_for_every_policy() {
    let (catalog, arrivals) = workload(11, 150);
    let config = grid_config(GIB / 4);
    for kind in PolicyKind::ONLINE {
        assert_single_shard_identity(kind, &catalog, &arrivals, &config, None);
    }
}

#[test]
fn single_shard_matches_engine_under_faults() {
    let (catalog, arrivals) = workload(23, 120);
    let config = grid_config(GIB / 4);
    let mut plans: Vec<FaultPlan> = ["tape-outage", "flaky-wan", "blackout"]
        .iter()
        .map(|p| FaultPlan::preset(p).expect("known preset"))
        .collect();
    plans.push(FaultPlan::parse("transient=0.05;seed=11").unwrap());
    for plan in &plans {
        for kind in [
            PolicyKind::OptFileBundle,
            PolicyKind::Landlord,
            PolicyKind::Lru,
        ] {
            assert_single_shard_identity(kind, &catalog, &arrivals, &config, Some(plan));
        }
    }
}

#[test]
fn single_shard_preserves_completion_order_responses() {
    let (catalog, arrivals) = workload(31, 100);
    let config = grid_config(GIB / 4);
    assert_single_shard_identity(
        PolicyKind::OptFileBundle,
        &catalog,
        &arrivals,
        &config,
        None,
    );

    // The samples are the response times of the `job_done` events, in
    // the order the jobs completed.
    let mut policy = PolicyKind::OptFileBundle.build();
    let obs = Obs::enabled();
    let seq = run_grid_observed(&mut *policy, &catalog, &arrivals, &config, None, &obs);
    let traced: Vec<SimDuration> = obs
        .jsonl()
        .lines()
        .filter(|l| l.contains("\"ev\":\"job_done\""))
        .map(|l| {
            let us = &l[l.find("\"response_us\":").expect("response field") + 14..];
            SimDuration(us.trim_end_matches('}').parse().expect("integer"))
        })
        .collect();
    assert_eq!(traced.len() as u64, seq.completed);
    assert_eq!(seq.responses.samples(), traced.as_slice());
}

#[test]
fn sharded_result_is_independent_of_worker_count() {
    let (catalog, arrivals) = workload(47, 200);
    let factory = || -> SendPolicy { PolicyKind::OptFileBundle.build_send() };
    let run_with = |workers: usize| {
        let cfg = ConcurrentConfig {
            workers,
            ..ConcurrentConfig::sharded(grid_config(GIB / 2), 4)
        };
        let obs = Obs::enabled();
        let stats = run_concurrent_grid_observed(&factory, &catalog, &arrivals, &cfg, None, &obs);
        (stats, obs.jsonl())
    };
    let (base_stats, base_trace) = run_with(1);
    for workers in [2, 4, 8] {
        let (stats, trace) = run_with(workers);
        assert_eq!(base_stats, stats, "workers={workers}: stats diverged");
        assert_eq!(base_trace, trace, "workers={workers}: trace diverged");
    }
    // Repeatability: the same config twice is bit-identical.
    let again = run_with(4);
    assert_eq!(base_stats, again.0);
    assert_eq!(base_trace, again.1);
}

#[test]
fn full_admission_queue_cannot_lock_out_requests() {
    let (catalog, arrivals) = workload(53, 500);
    let factory = || -> SendPolicy { PolicyKind::Lru.build_send() };
    let cfg = ConcurrentConfig {
        queue_capacity: 1, // every send blocks until the router drains
        batch: 1,
        ..ConcurrentConfig::sharded(grid_config(GIB / 2), 3)
    };
    let stats = run_concurrent_grid(&factory, &catalog, &arrivals, &cfg, None);
    assert_eq!(
        stats.routed.iter().sum::<u64>(),
        500,
        "jobs lost at admission"
    );
    assert_eq!(
        stats.overall.completed + stats.overall.rejected + stats.overall.failed,
        500,
        "admitted jobs must all be decided"
    );
}
