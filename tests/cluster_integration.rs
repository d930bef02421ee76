//! Integration tests for the multi-SRM and replicated-storage extensions,
//! driven through the public facade.

use fbc_grid::multi::Dispatch;
use fbc_grid::replica::Placement;
use file_bundle_cache::grid::client::{schedule_arrivals, JobArrival};
use file_bundle_cache::prelude::*;

fn workload(seed: u64) -> (FileCatalog, Vec<Bundle>) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 80,
        max_file_frac: 0.02,
        pool_requests: 40,
        jobs: 300,
        files_per_request: (1, 4),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    });
    (w.catalog, w.jobs)
}

fn grid(srm: SrmConfig) -> GridConfig {
    GridConfig {
        srm,
        ..GridConfig::default()
    }
}

/// `nodes` OptFileBundle SRM nodes on one grid.
fn run_cluster(
    nodes: usize,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    opts: RunOptions,
) -> ConcurrentStats {
    let mut policies: Vec<Box<dyn CachePolicy>> = (0..nodes)
        .map(|_| PolicyKind::OptFileBundle.build())
        .collect();
    let mut refs: Vec<&mut dyn CachePolicy> = policies
        .iter_mut()
        .map(|p| p.as_mut() as &mut dyn CachePolicy)
        .collect();
    run_grid_nodes(&mut refs, catalog, arrivals, config, opts)
}

#[test]
fn multi_grid_conserves_jobs_across_dispatches() {
    let (catalog, jobs) = workload(1);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 5.0, seed: 2 });
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        let config = grid(SrmConfig {
            cache_size: GIB,
            ..SrmConfig::default()
        });
        let opts = RunOptions {
            dispatch,
            ..RunOptions::default()
        };
        let stats = run_cluster(3, &catalog, &arrivals, &config, opts);
        assert_eq!(
            stats.overall.completed + stats.overall.rejected,
            jobs.len() as u64,
            "{dispatch:?}"
        );
        assert_eq!(stats.routed.iter().sum::<u64>(), jobs.len() as u64);
        // Per-node stats sum to the overall.
        assert_eq!(
            stats.per_shard.iter().map(|s| s.completed).sum::<u64>(),
            stats.overall.completed
        );
        assert_eq!(
            stats
                .per_shard
                .iter()
                .map(|s| s.cache.fetched_bytes)
                .sum::<u64>(),
            stats.overall.cache.fetched_bytes
        );
    }
}

#[test]
fn affinity_beats_round_robin_on_hits() {
    let (catalog, jobs) = workload(3);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
    let run = |dispatch: Dispatch| {
        let config = grid(SrmConfig {
            cache_size: GIB / 2,
            ..SrmConfig::default()
        });
        let opts = RunOptions {
            dispatch,
            ..RunOptions::default()
        };
        run_cluster(4, &catalog, &arrivals, &config, opts)
    };
    let rr = run(Dispatch::RoundRobin);
    let aff = run(Dispatch::BundleAffinity);
    assert!(
        aff.overall.cache.hits >= rr.overall.cache.hits,
        "affinity {} < round-robin {}",
        aff.overall.cache.hits,
        rr.overall.cache.hits
    );
}

#[test]
fn replication_changes_timing_not_bytes() {
    let (catalog, jobs) = workload(5);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
    let run = |placement: Placement| {
        let config = grid(SrmConfig {
            cache_size: 2 * GIB,
            max_concurrent_jobs: 1, // sequential: decisions independent of timing
            ..SrmConfig::default()
        });
        let opts = RunOptions {
            placement: Some(&placement),
            ..RunOptions::default()
        };
        run_cluster(1, &catalog, &arrivals, &config, opts).overall
    };
    let files = catalog.len();
    let one = run(Placement::random(files, 4, 1, 11));
    let four = run(Placement::full(files, 4));
    // With sequential service, the byte accounting is timing-independent.
    assert_eq!(one.cache.fetched_bytes, four.cache.fetched_bytes);
    assert!(four.makespan <= one.makespan);
    assert_eq!(one.completed, four.completed);
}

#[test]
fn single_node_multi_grid_equals_engine() {
    let (catalog, jobs) = workload(7);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 2.0, seed: 8 });
    let config = grid(SrmConfig {
        cache_size: GIB,
        ..SrmConfig::default()
    });
    let opts = RunOptions {
        dispatch: Dispatch::LeastLoaded,
        ..RunOptions::default()
    };
    let multi = run_cluster(1, &catalog, &arrivals, &config, opts);
    let mut policy = OptFileBundle::new();
    let single = run_grid(&mut policy, &catalog, &arrivals, &config);
    assert_eq!(multi.overall, single);
    assert_eq!(multi.per_shard, vec![single]);
    assert_eq!(multi.routed, vec![jobs.len() as u64]);
}
