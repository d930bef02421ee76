//! Integration tests for the discrete-event grid substrate driven through
//! the public facade.

use file_bundle_cache::grid::client::schedule_arrivals;
use file_bundle_cache::prelude::*;

fn config(cache_size: Bytes) -> GridConfig {
    GridConfig {
        srm: SrmConfig {
            cache_size,
            max_concurrent_jobs: 3,
            processing_rate: 100.0e6,
            processing_overhead: SimDuration::from_millis(50),
        },
        mss: MssConfig {
            drives: 2,
            mount_latency: SimDuration::from_secs(2),
            drive_bandwidth: 50.0e6,
        },
        link: LinkConfig {
            latency: SimDuration::from_millis(20),
            bandwidth: 125.0e6,
        },
        retry: RetryPolicy::default(),
    }
}

fn workload(seed: u64) -> (FileCatalog, Vec<Bundle>) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 100,
        max_file_frac: 0.02,
        pool_requests: 60,
        jobs: 400,
        files_per_request: (1, 4),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    });
    (w.catalog, w.jobs)
}

#[test]
fn conservation_of_jobs() {
    let (catalog, jobs) = workload(1);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 3.0, seed: 2 });
    let mut policy = OptFileBundle::new();
    let stats = run_grid(&mut policy, &catalog, &arrivals, &config(2 * GIB));
    assert_eq!(stats.completed + stats.rejected, jobs.len() as u64);
    assert_eq!(stats.responses.len(), stats.completed);
    assert_eq!(stats.cache.jobs, jobs.len() as u64);
}

#[test]
fn response_times_bounded_by_makespan() {
    let (catalog, jobs) = workload(3);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
    let mut policy = Landlord::new();
    let stats = run_grid(&mut policy, &catalog, &arrivals, &config(2 * GIB));
    assert!(stats.percentile_response(1.0) <= stats.makespan);
    assert!(stats.mean_response() <= stats.percentile_response(1.0));
    assert!(stats.percentile_response(0.5) <= stats.percentile_response(0.95));
}

#[test]
fn slower_mss_increases_response_times() {
    let (catalog, jobs) = workload(5);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 1.0, seed: 4 });
    let run_with_mount = |mount_secs: u64| {
        let mut cfg = config(2 * GIB);
        cfg.mss.mount_latency = SimDuration::from_secs(mount_secs);
        let mut policy = OptFileBundle::new();
        run_grid(&mut policy, &catalog, &arrivals, &cfg)
    };
    let fast = run_with_mount(1);
    let slow = run_with_mount(30);
    assert!(
        slow.mean_response() > fast.mean_response(),
        "slow {} <= fast {}",
        slow.mean_response(),
        fast.mean_response()
    );
    // Byte-level behaviour shifts slightly (timing changes the order in
    // which queued jobs reach the cache) but stays in the same regime.
    let ratio = slow.cache.fetched_bytes as f64 / fast.cache.fetched_bytes as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "fetched-byte ratio {ratio} out of range"
    );
}

#[test]
fn bigger_cache_helps_throughput() {
    let (catalog, jobs) = workload(7);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
    let run_with_cache = |cache: Bytes| {
        let mut policy = OptFileBundle::new();
        run_grid(&mut policy, &catalog, &arrivals, &config(cache))
    };
    let small = run_with_cache(GIB / 2);
    let large = run_with_cache(8 * GIB);
    assert!(large.cache.byte_miss_ratio() < small.cache.byte_miss_ratio());
    assert!(large.makespan <= small.makespan);
}

#[test]
fn scenario_wrapper_matches_manual_pipeline() {
    let scenario = ScenarioConfig {
        workload: WorkloadConfig {
            num_files: 100,
            max_file_frac: 0.02,
            pool_requests: 60,
            jobs: 200,
            files_per_request: (1, 4),
            popularity: Popularity::zipf(),
            seed: 9,
            ..WorkloadConfig::default()
        },
        grid: config(2 * GIB),
        arrivals: ArrivalProcess::Poisson {
            rate: 3.0,
            seed: 10,
        },
    };
    let mut p1 = OptFileBundle::new();
    let via_scenario = run_scenario(&mut p1, &scenario, None);

    // Manual pipeline with the same inputs.
    let mut wl_cfg = scenario.workload;
    wl_cfg.cache_size = scenario.grid.srm.cache_size;
    let w = Workload::generate(wl_cfg);
    let arrivals = schedule_arrivals(&w.jobs, scenario.arrivals);
    let mut p2 = OptFileBundle::new();
    let manual = run_grid(&mut p2, &w.catalog, &arrivals, &scenario.grid);

    assert_eq!(via_scenario.completed, manual.completed);
    assert_eq!(via_scenario.cache.fetched_bytes, manual.cache.fetched_bytes);
    assert_eq!(via_scenario.makespan, manual.makespan);
}

#[test]
fn fault_injection_through_the_facade() {
    let (catalog, jobs) = workload(9);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 4.0, seed: 6 });
    let plan = FaultPlan::parse("transient=0.2;seed=3").expect("valid spec");
    let run = || {
        let mut policy = OptFileBundle::new();
        run_grid_observed(
            &mut policy,
            &catalog,
            &arrivals,
            &config(2 * GIB),
            Some(&plan),
            &Obs::disabled(),
        )
    };
    let a = run();
    assert_eq!(a, run(), "faulted runs must be reproducible");
    assert!(a.completed > 0);
    assert!(a.transient_fetch_errors > 0, "20% transient rate must bite");
    assert_eq!(
        a.completed + a.rejected + a.failed,
        jobs.len() as u64,
        "every job accounted for"
    );
    // The rendered report carries the availability metrics.
    let report = a.report("optfilebundle");
    assert!(report.as_str().contains("availability"));
}
