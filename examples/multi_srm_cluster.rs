//! Multi-SRM cluster example: jobs dispatched across four SRM nodes that
//! share a replicated mass-storage fabric — the "cluster of machines" SRM
//! deployment the paper's §2 sketches, with the two extensions combined in
//! one simulation: bundle-affinity dispatch (cache locality) and 2-way file
//! replication (drive-contention relief).
//!
//! ```text
//! cargo run --release --example multi_srm_cluster
//! ```

use fbc_grid::multi::Dispatch;
use fbc_grid::replica::Placement;
use file_bundle_cache::prelude::*;

fn main() {
    let workload = Workload::generate(WorkloadConfig {
        num_files: 300,
        max_file_frac: 0.02,
        pool_requests: 150,
        jobs: 2_000,
        files_per_request: (2, 5),
        popularity: Popularity::zipf(),
        seed: 4_242,
        ..WorkloadConfig::default()
    });
    let arrivals = fbc_grid::client::schedule_arrivals(
        &workload.jobs,
        ArrivalProcess::Poisson { rate: 4.0, seed: 1 },
    );
    println!(
        "cluster workload: {} jobs over {} files ({})\n",
        workload.jobs.len(),
        workload.catalog.len(),
        fbc_core::types::format_bytes(workload.catalog.total_bytes()),
    );

    println!("--- 4 SRM nodes (1 GiB cache each): dispatch x storage ---");
    let config = GridConfig {
        srm: SrmConfig {
            cache_size: GIB,
            ..SrmConfig::default()
        },
        ..GridConfig::default()
    };
    let two_way = Placement::random(workload.catalog.len(), 4, 2, 99);
    let mut table = Table::new([
        "dispatch",
        "storage",
        "byte miss ratio",
        "hit ratio",
        "mean resp (s)",
        "p95 resp (s)",
        "imbalance",
    ]);
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        for (storage, placement) in [("1 MSS", None), ("2-way, 4 sites", Some(&two_way))] {
            let mut policies: Vec<OptFileBundle> = (0..4).map(|_| OptFileBundle::new()).collect();
            let mut nodes: Vec<&mut dyn CachePolicy> = policies
                .iter_mut()
                .map(|p| p as &mut dyn CachePolicy)
                .collect();
            let opts = RunOptions {
                dispatch,
                placement,
                ..RunOptions::default()
            };
            let stats = run_grid_nodes(&mut nodes, &workload.catalog, &arrivals, &config, opts);
            let overall = &stats.overall;
            table.add_row([
                dispatch.label().to_string(),
                storage.to_string(),
                format!("{:.4}", overall.cache.byte_miss_ratio()),
                format!("{:.4}", overall.cache.request_hit_ratio()),
                format!("{:.1}", overall.mean_response().as_secs_f64()),
                format!("{:.1}", overall.percentile_response(0.95).as_secs_f64()),
                format!("{:.2}", stats.routing_imbalance()),
            ]);
        }
    }
    println!("{}", table.to_ascii());
    println!(
        "Affinity dispatch keeps recurring bundles on one node's cache; replication\n\
         spreads tape-drive contention. The two compose: locality saves bytes,\n\
         replication saves time on the bytes that still move."
    );
}
