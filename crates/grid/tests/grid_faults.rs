//! Integration tests for the fault-injection + retry/backoff layer.
//!
//! Three contracts from DESIGN.md are nailed down here:
//! 1. a faulted run under a fixed `(workload, arrivals, FaultPlan)` is
//!    bit-for-bit reproducible;
//! 2. a zero-fault plan is byte-identical to running with no injector at
//!    all — `--faults` with an empty plan is a true no-op;
//! 3. a permanently dead MSS degrades gracefully: every fetch-dependent
//!    job is reported `failed` after exhausting its retry budget, and the
//!    simulation terminates without panicking.

use fbc_core::bundle::Bundle;
use fbc_core::catalog::FileCatalog;
use fbc_core::optfilebundle::OptFileBundle;
use fbc_core::policy::CachePolicy;
use fbc_grid::client::{schedule_arrivals, ArrivalProcess, JobArrival};
use fbc_grid::concurrent::ConcurrentStats;
use fbc_grid::engine::{run_grid, run_grid_nodes, run_grid_observed, GridConfig, RunOptions};
use fbc_grid::faults::FaultPlan;
use fbc_grid::mss::MssConfig;
use fbc_grid::multi::Dispatch;
use fbc_grid::network::LinkConfig;
use fbc_grid::replica::Placement;
use fbc_grid::srm::{RetryPolicy, SrmConfig};
use fbc_grid::stats::GridStats;
use fbc_grid::time::SimDuration;
use fbc_obs::Obs;

fn workload(jobs: usize, files: u32) -> (FileCatalog, Vec<JobArrival>) {
    let catalog = FileCatalog::from_sizes(vec![1_000_000; files as usize]);
    let bundles: Vec<Bundle> = (0..jobs as u32)
        .map(|i| Bundle::from_raw([i % files, (i * 7 + 1) % files]))
        .collect();
    let arrivals = schedule_arrivals(
        &bundles,
        ArrivalProcess::Poisson {
            rate: 1.5,
            seed: 11,
        },
    );
    (catalog, arrivals)
}

fn config() -> GridConfig {
    GridConfig {
        srm: SrmConfig {
            cache_size: 5_000_000,
            max_concurrent_jobs: 3,
            processing_rate: 50e6,
            processing_overhead: SimDuration::from_millis(50),
        },
        mss: MssConfig {
            drives: 2,
            mount_latency: SimDuration::from_millis(500),
            drive_bandwidth: 20e6,
        },
        link: LinkConfig {
            latency: SimDuration::from_millis(5),
            bandwidth: 50e6,
        },
        retry: RetryPolicy::default(),
    }
}

fn run(cfg: &GridConfig, plan: Option<&FaultPlan>) -> GridStats {
    let (catalog, arrivals) = workload(40, 12);
    let mut policy = OptFileBundle::new();
    run_grid_observed(
        &mut policy,
        &catalog,
        &arrivals,
        cfg,
        plan,
        &Obs::disabled(),
    )
}

/// A 3-node cluster over the [`workload`] under `opts`.
fn run_cluster(cfg: &GridConfig, opts: RunOptions) -> ConcurrentStats {
    let (catalog, arrivals) = workload(40, 12);
    let mut policies: Vec<OptFileBundle> = (0..3).map(|_| OptFileBundle::new()).collect();
    let mut refs: Vec<&mut dyn CachePolicy> = policies
        .iter_mut()
        .map(|p| p as &mut dyn CachePolicy)
        .collect();
    run_grid_nodes(&mut refs, &catalog, &arrivals, cfg, opts)
}

#[test]
fn faulted_run_is_bit_for_bit_reproducible() {
    let cfg = config();
    let plan =
        FaultPlan::parse("drive=0,20,120;link-slow=0,200,0.5;transient=0.1;seed=42").unwrap();
    let a = run(&cfg, Some(&plan));
    let b = run(&cfg, Some(&plan));
    // Full structural equality of every counter and every response time…
    assert_eq!(a, b);
    // …and the rendered report, byte for byte.
    assert_eq!(
        a.report("optfilebundle").as_str(),
        b.report("optfilebundle").as_str()
    );
    // The plan actually bit: some attempt failed or was slowed.
    assert!(a.fetch_attempts > 0);
    assert!(
        a.transient_fetch_errors > 0 || a.fetch_retries > 0,
        "plan with transient=0.1 over 40 jobs should perturb something"
    );
}

#[test]
fn different_fault_seed_changes_the_run() {
    let cfg = config();
    let p1 = FaultPlan::parse("transient=0.3;seed=1").unwrap();
    let p2 = FaultPlan::parse("transient=0.3;seed=2").unwrap();
    let a = run(&cfg, Some(&p1));
    let b = run(&cfg, Some(&p2));
    // 30% transient errors over ~80 fetch attempts: the two seeds drawing
    // identical failure patterns is vanishingly unlikely.
    assert_ne!(
        (a.transient_fetch_errors, a.responses.clone()),
        (b.transient_fetch_errors, b.responses.clone())
    );
}

#[test]
fn zero_fault_plan_is_byte_identical_to_no_injector() {
    let cfg = config();
    let (catalog, arrivals) = workload(40, 12);
    let mut p1 = OptFileBundle::new();
    let plain = run_grid(&mut p1, &catalog, &arrivals, &cfg);
    for plan in [FaultPlan::none(), FaultPlan::parse("seed=123").unwrap()] {
        assert!(plan.is_zero_fault());
        let faulted = run(&cfg, Some(&plan));
        assert_eq!(plain, faulted);
        assert_eq!(
            plain.report("optfilebundle").as_str(),
            faulted.report("optfilebundle").as_str()
        );
    }
}

#[test]
fn permanently_dead_mss_fails_all_fetching_jobs() {
    let mut cfg = config();
    cfg.retry.max_retries = 3;
    let plan = FaultPlan::preset("blackout").unwrap();
    // Disjoint bundles: every job must fetch, so every job must fail.
    let catalog = FileCatalog::from_sizes(vec![500_000; 8]);
    let bundles: Vec<Bundle> = (0..8).map(|i| Bundle::from_raw([i])).collect();
    let arrivals = schedule_arrivals(&bundles, ArrivalProcess::Batch);
    let mut policy = OptFileBundle::new();
    let stats = run_grid_observed(
        &mut policy,
        &catalog,
        &arrivals,
        &cfg,
        Some(&plan),
        &Obs::disabled(),
    );
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.failed, 8);
    assert_eq!(stats.availability(), 0.0);
    // Retry budget fully spent on every job: 4 attempts, 3 retries each.
    assert_eq!(stats.fetch_attempts, 8 * 4);
    assert_eq!(stats.fetch_retries, 8 * 3);
    assert_eq!(stats.fetch_timeouts, 8 * 4);
    // Graceful degradation, not a wedged queue: nothing completed, so the
    // makespan (last successful completion) stays at zero.
    assert_eq!(stats.makespan, SimDuration::ZERO);
}

#[test]
fn mid_run_outage_with_timeout_recovers() {
    let mut cfg = config();
    cfg.retry = RetryPolicy {
        max_retries: 10,
        base_backoff: SimDuration::from_secs(5),
        max_backoff: SimDuration::from_secs(30),
        jitter_frac: 0.1,
        fetch_timeout: Some(SimDuration::from_secs(4)),
    };
    // Both drives out for [10 s, 60 s): jobs in that window stall, back
    // off, and complete after the repair.
    let plan = FaultPlan::parse("drive=*,10,60;seed=9").unwrap();
    let stats = run(&cfg, Some(&plan));
    assert_eq!(stats.failed, 0, "outage ends, so no job should fail");
    assert_eq!(stats.completed + stats.rejected, 40);
    assert!(stats.fetch_timeouts > 0, "the outage must strand attempts");
    assert!(stats.fetch_retries >= stats.fetch_timeouts);
    assert_eq!(stats.availability(), 1.0);
}

#[test]
fn presets_parse_and_run_to_termination() {
    let mut cfg = config();
    cfg.retry.max_retries = 2;
    cfg.retry.fetch_timeout = Some(SimDuration::from_secs(120));
    for name in ["tape-outage", "flaky-wan", "blackout"] {
        let plan = FaultPlan::parse(&format!("preset:{name}")).unwrap();
        let stats = run(&cfg, Some(&plan));
        assert_eq!(
            stats.completed + stats.failed + stats.rejected,
            40,
            "preset {name}: every job must be accounted for"
        );
    }
}

#[test]
fn zero_fault_plan_is_a_no_op_on_clusters_and_replicated_storage() {
    let cfg = config();
    let placement = Placement::random(12, 3, 2, 4);
    for (dispatch, placement) in [
        (Dispatch::LeastLoaded, None),
        (Dispatch::BundleAffinity, Some(&placement)),
    ] {
        let opts = RunOptions {
            dispatch,
            placement,
            ..RunOptions::default()
        };
        let plain = run_cluster(&cfg, opts);
        let plan = FaultPlan::none();
        let zero = run_cluster(
            &cfg,
            RunOptions {
                plan: Some(&plan),
                ..opts
            },
        );
        assert_eq!(
            plain,
            zero,
            "{dispatch:?}, replicated: {}",
            placement.is_some()
        );
    }
}

#[test]
fn flaky_wan_cluster_conserves_jobs() {
    let mut cfg = config();
    cfg.retry.max_retries = 2;
    cfg.retry.fetch_timeout = Some(SimDuration::from_secs(120));
    let plan = FaultPlan::preset("flaky-wan").unwrap();
    let placement = Placement::full(12, 2);
    for placement in [None, Some(&placement)] {
        let stats = run_cluster(
            &cfg,
            RunOptions {
                dispatch: Dispatch::RoundRobin,
                placement,
                plan: Some(&plan),
                ..RunOptions::default()
            },
        );
        let s = &stats.overall;
        assert_eq!(s.completed + s.failed + s.rejected, 40);
        assert!(s.fetch_attempts > 0);
        for (node, routed) in stats.per_shard.iter().zip(&stats.routed) {
            assert_eq!(node.completed + node.failed + node.rejected, *routed);
        }
    }
}
