//! Integration tests for the observability layer: the determinism
//! contract end to end, and the guarantee that observation never
//! perturbs a simulation.

use file_bundle_cache::grid::client::schedule_arrivals;
use file_bundle_cache::prelude::*;

fn workload(seed: u64) -> Trace {
    Workload::generate(WorkloadConfig {
        num_files: 120,
        max_file_frac: 0.02,
        pool_requests: 60,
        jobs: 500,
        files_per_request: (1, 4),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    })
    .into_trace()
}

/// Two same-seed observed trace-simulator runs produce byte-identical
/// JSONL traces and counter tables.
#[test]
fn sim_trace_is_byte_identical_across_same_seed_runs() {
    let trace = workload(11);
    let cfg = RunConfig::new(40 * MIB);
    let run = || {
        let obs = Obs::enabled();
        let mut policy = OptFileBundle::new();
        run_trace(&mut policy, &trace, &cfg, &obs);
        (obs.jsonl(), obs.render_table())
    };
    let (trace1, table1) = run();
    let (trace2, table2) = run();
    assert!(!trace1.is_empty());
    assert_eq!(trace1, trace2);
    assert_eq!(table1, table2);
}

/// Same for the grid engine under fault injection — the adversarial case
/// for determinism, since faults drive an internal RNG.
#[test]
fn grid_trace_is_byte_identical_across_same_seed_runs_with_faults() {
    let trace = workload(13);
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
            fetch_timeout: Some(SimDuration::from_secs(30)),
            ..RetryPolicy::default()
        },
        ..GridConfig::default()
    };
    let plan = FaultPlan::parse("transient=0.05;seed=5").unwrap();
    let run = || {
        let obs = Obs::enabled();
        let mut policy = OptFileBundle::new();
        let stats = run_grid_observed(
            &mut policy,
            &trace.catalog,
            &arrivals,
            &config,
            Some(&plan),
            &obs,
        );
        (obs.jsonl(), obs.render_table(), stats)
    };
    let (trace1, table1, stats1) = run();
    let (trace2, table2, stats2) = run();
    assert!(trace1.contains("\"ev\":\"fetch\""));
    assert_eq!(trace1, trace2);
    assert_eq!(table1, table2);
    assert_eq!(stats1, stats2);
}

/// A 3-node cluster under the `flaky-wan` preset speaks the same `grid.*`
/// vocabulary as the single-node engine: its counters equal its stats and
/// its trace replays byte-identically under the same seed.
#[test]
fn cluster_trace_matches_stats_and_replays_byte_identically() {
    let trace = workload(29);
    let arrivals = schedule_arrivals(
        &trace.requests,
        ArrivalProcess::Poisson { rate: 3.0, seed: 3 },
    );
    let config = GridConfig {
        srm: SrmConfig {
            cache_size: 20 * MIB,
            max_concurrent_jobs: 2,
            ..SrmConfig::default()
        },
        retry: RetryPolicy {
            max_retries: 2,
            fetch_timeout: Some(SimDuration::from_secs(120)),
            ..RetryPolicy::default()
        },
        ..GridConfig::default()
    };
    let plan = FaultPlan::preset("flaky-wan").unwrap();
    let run = || {
        let obs = Obs::enabled();
        let mut policies: Vec<OptFileBundle> = (0..3).map(|_| OptFileBundle::new()).collect();
        let mut refs: Vec<&mut dyn CachePolicy> = policies
            .iter_mut()
            .map(|p| p as &mut dyn CachePolicy)
            .collect();
        let opts = RunOptions {
            plan: Some(&plan),
            obs: Some(&obs),
            ..RunOptions::default()
        };
        let stats = run_grid_nodes(&mut refs, &trace.catalog, &arrivals, &config, opts);
        (obs, stats)
    };
    let (obs1, stats1) = run();
    let (obs2, stats2) = run();
    let s = &stats1.overall;
    assert_eq!(s.completed + s.failed + s.rejected, arrivals.len() as u64);
    assert_eq!(obs1.counter("grid.jobs_completed"), s.completed);
    assert_eq!(obs1.counter("grid.fetch_attempts"), s.fetch_attempts);
    assert_eq!(stats1, stats2);
    assert_eq!(obs1.jsonl(), obs2.jsonl());
}

/// An attached-but-disabled sink leaves every policy's results identical
/// to a never-attached run — across the whole policy roster.
#[test]
fn disabled_observation_never_perturbs_any_policy() {
    let trace = workload(17);
    let cfg = RunConfig::new(40 * MIB);
    for kind in PolicyKind::ONLINE {
        let mut plain_policy = kind.build();
        let plain = run_trace(plain_policy.as_mut(), &trace, &cfg, &Obs::disabled());
        let mut off_policy = kind.build();
        off_policy.attach_obs(Obs::disabled());
        let off = run_trace(off_policy.as_mut(), &trace, &cfg, &Obs::disabled());
        assert_eq!(plain, off, "{kind:?} perturbed by a disabled sink");
    }
}

/// An *enabled* sink doesn't perturb results either — observation is
/// read-only with respect to the simulation.
#[test]
fn enabled_observation_never_perturbs_metrics() {
    let trace = workload(19);
    let cfg = RunConfig::new(40 * MIB);
    for kind in [
        PolicyKind::OptFileBundle,
        PolicyKind::Landlord,
        PolicyKind::Arc,
    ] {
        let mut plain_policy = kind.build();
        let plain = run_trace(plain_policy.as_mut(), &trace, &cfg, &Obs::disabled());
        let obs = Obs::enabled();
        let mut obs_policy = kind.build();
        let observed = run_trace(obs_policy.as_mut(), &trace, &cfg, &obs);
        assert_eq!(plain, observed, "{kind:?} perturbed by an enabled sink");
        // The sink's counters agree with the aggregate metrics.
        assert_eq!(obs.counter("policy.requests"), plain.jobs);
        assert_eq!(obs.counter("policy.hits"), plain.hits);
        assert_eq!(obs.counter("policy.fetched_bytes"), plain.fetched_bytes);
        assert_eq!(obs.counter("policy.evicted_bytes"), plain.evicted_bytes);
    }
}

/// The OFB decision path feeds its phase spans and histograms into the
/// shared sink the driver attached.
#[test]
fn ofb_decision_phases_are_visible_in_the_trace() {
    let trace = workload(23);
    let obs = Obs::enabled();
    let mut policy = OptFileBundle::new();
    run_trace(&mut policy, &trace, &RunConfig::new(10 * MIB), &obs);
    assert!(
        obs.counter("ofb.replacements") > 0,
        "cache pressure expected"
    );
    assert_eq!(
        obs.counter("ofb.instance_build.calls"),
        obs.counter("ofb.greedy_select.calls")
    );
    assert!(obs.histogram_quantile("ofb.retained_files", 0.5).is_some());
    assert!(obs.jsonl().contains("\"ev\":\"decision\""));
}
