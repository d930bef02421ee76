//! Extension experiment: multi-SRM cluster dispatch (paper §2 notes SRMs
//! may run on "a cluster of machines" with distributed disk caches).
//! Compares round-robin, least-loaded and bundle-affinity routing of jobs
//! to 4 SRM nodes sharing one mass storage system.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin grid_dispatch
//! ```

use fbc_bench::{banner, paper_workload, results_dir};
use fbc_core::policy::CachePolicy;
use fbc_core::types::GIB;
use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
use fbc_grid::engine::{run_grid_nodes, GridConfig, RunOptions};
use fbc_grid::multi::Dispatch;
use fbc_grid::srm::SrmConfig;
use fbc_sim::report::{f2, f4, Table};
use fbc_workload::{Popularity, Workload};

const NODES: usize = 4;

fn main() {
    banner("Multi-SRM dispatch — routing jobs across a 4-node SRM cluster");
    let mut wl_cfg = paper_workload(Popularity::zipf(), 0.01, 16_001);
    wl_cfg.jobs = if fbc_bench::quick_mode() { 800 } else { 6_000 };
    let workload = Workload::generate(wl_cfg);
    let arrivals = schedule_arrivals(
        &workload.jobs,
        ArrivalProcess::Poisson {
            rate: 4.0,
            seed: 61,
        },
    );
    // Each node gets a quarter of the single-node cache budget.
    let config = GridConfig {
        srm: SrmConfig {
            cache_size: (10 * GIB) / NODES as u64,
            max_concurrent_jobs: 2,
            ..SrmConfig::default()
        },
        ..GridConfig::default()
    };

    let mut table = Table::new([
        "dispatch",
        "byte miss ratio",
        "request-hit ratio",
        "mean resp (s)",
        "throughput (jobs/s)",
        "routing imbalance",
    ]);
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        let mut policies: Vec<Box<dyn CachePolicy>> = (0..NODES)
            .map(|_| fbc_baselines::PolicyKind::OptFileBundle.build())
            .collect();
        let mut refs: Vec<&mut dyn CachePolicy> = policies
            .iter_mut()
            .map(|p| p.as_mut() as &mut dyn CachePolicy)
            .collect();
        let opts = RunOptions {
            dispatch,
            ..RunOptions::default()
        };
        let stats = run_grid_nodes(&mut refs, &workload.catalog, &arrivals, &config, opts);
        table.add_row([
            dispatch.label().to_string(),
            f4(stats.overall.cache.byte_miss_ratio()),
            f4(stats.overall.cache.request_hit_ratio()),
            f2(stats.overall.mean_response().as_secs_f64()),
            f2(stats.overall.throughput()),
            f2(stats.routing_imbalance()),
        ]);
    }
    print!("{}", table.to_ascii());
    println!(
        "\nReading: bundle-affinity routing sends every recurrence of a request to\n\
         the same node's cache, preserving the locality bundle-aware caching\n\
         feeds on — at the price of some load imbalance."
    );

    let out = results_dir().join("grid_dispatch.csv");
    table.save_csv(&out).expect("write CSV");
    println!("CSV written to {}", out.display());
}
