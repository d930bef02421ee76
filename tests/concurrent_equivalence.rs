//! Differential suite pinning the sharded SRM front-end to the
//! single-threaded engine.
//!
//! With one shard the concurrent service must be *bit-for-bit* identical
//! to `run_grid_observed` — same `GridStats`, same rendered `GridReport`,
//! same JSONL observability trace — for every policy in the roster and
//! under fault injection. With several shards the result must be a pure
//! function of `(trace, config)`: independent of the worker count,
//! stable across repeated runs, and equal to copying each shard's
//! arrivals out and running the engine on each copy alone (the routing
//! oracle).

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

/// The routing oracle: what the service must compute, built from public
/// API only. Copy each shard's arrivals out by `ShardMap::shard_of`, run
/// the sequential engine on each copy over an equal slice of the cache,
/// and fold stats and traces in shard order.
fn routed_by_copy(
    factory: &dyn PolicyFactory,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &ConcurrentConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> ConcurrentStats {
    let map = ShardMap::new(config.shards, config.shard_by);
    let mut shard_grid = config.grid;
    shard_grid.srm.cache_size /= config.shards as u64;
    let mut expected = ConcurrentStats::default();
    for s in 0..config.shards {
        let mine: Vec<JobArrival> = arrivals
            .iter()
            .filter(|a| map.shard_of(&a.bundle) == s)
            .cloned()
            .collect();
        let child = obs.child();
        let mut policy = factory.build_policy();
        let stats = run_grid_observed(policy.as_mut(), catalog, &mine, &shard_grid, plan, &child);
        obs.merge_from(&child);
        expected.overall.merge_shard(&stats);
        expected.per_shard.push(stats);
        expected.routed.push(mine.len() as u64);
    }
    expected
}

/// Shards read the caller's arrivals through index views; the result
/// must equal copying each shard's arrivals out and running them alone.
#[test]
fn sharded_run_matches_the_routing_oracle() {
    let (catalog, arrivals) = workload(61, 240);
    let plan = FaultPlan::preset("flaky-wan").expect("known preset");
    let factory = || -> SendPolicy { PolicyKind::Landlord.build_send() };
    for shard_by in [ShardBy::File, ShardBy::Bundle] {
        for shards in [2, 3, 5] {
            let config = ConcurrentConfig {
                workers: 2,
                shard_by,
                ..ConcurrentConfig::sharded(grid_config(GIB / 2), shards)
            };
            let expected_obs = Obs::enabled();
            let expected = routed_by_copy(
                &factory,
                &catalog,
                &arrivals,
                &config,
                Some(&plan),
                &expected_obs,
            );
            let obs = Obs::enabled();
            let got = run_concurrent_grid_observed(
                &factory,
                &catalog,
                &arrivals,
                &config,
                Some(&plan),
                &obs,
            );
            let at = format!("{shards} shards by {}", shard_by.label());
            assert_eq!(expected.routed, got.routed, "{at}: routed counts diverged");
            assert_eq!(
                expected.per_shard, got.per_shard,
                "{at}: shard stats diverged"
            );
            assert_eq!(expected.overall, got.overall, "{at}: merged stats diverged");
            assert_eq!(expected_obs.jsonl(), obs.jsonl(), "{at}: trace diverged");
        }
    }
}

/// More shards than jobs: most shards read an empty index view, and
/// still every job is routed once and every routed job is decided.
#[test]
fn more_shards_than_jobs_cannot_lock_out_requests() {
    let (catalog, arrivals) = workload(53, 5);
    let factory = || -> SendPolicy { PolicyKind::Lru.build_send() };
    for workers in [1, 2] {
        let cfg = ConcurrentConfig {
            workers,
            ..ConcurrentConfig::sharded(grid_config(GIB / 2), 8)
        };
        let stats = run_concurrent_grid(&factory, &catalog, &arrivals, &cfg, None);
        assert_eq!(
            stats.routed.iter().sum::<u64>(),
            5,
            "jobs lost at admission"
        );
        assert!(stats.routed.contains(&0), "some shard must be empty");
        assert_eq!(
            stats.overall.completed + stats.overall.rejected + stats.overall.failed,
            5,
            "admitted jobs must all be decided"
        );
        for (s, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(
                shard.completed + shard.rejected + shard.failed,
                stats.routed[s],
                "shard {s}: routed jobs must all be decided"
            );
        }
    }
}
