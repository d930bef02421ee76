//! End-to-end data-grid experiment (paper §2): jobs arrive at an SRM by a
//! Poisson process, misses are read from tape-backed mass storage over a
//! WAN link, and the policies are compared on what the user ultimately
//! sees — job response time and throughput — in addition to the byte miss
//! ratio.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin grid_endtoend
//! ```

use fbc_baselines::{Landlord, Lru, PolicyKind};
use fbc_bench::{banner, paper_workload, results_dir};
use fbc_core::policy::CachePolicy;
use fbc_core::types::GIB;
use fbc_grid::{run_scenario, ArrivalProcess, GridConfig, ScenarioConfig, SimDuration, SrmConfig};
use fbc_sim::report::{f2, f4, Table};
use fbc_workload::Popularity;

fn scenario(popularity: Popularity) -> ScenarioConfig {
    let mut workload = paper_workload(popularity, 0.01, 13_001);
    workload.jobs = if fbc_bench::quick_mode() { 400 } else { 3_000 };
    ScenarioConfig {
        workload,
        grid: GridConfig {
            srm: SrmConfig {
                // 4 average requests' worth of cache: replacement pressure on.
                cache_size: 2 * GIB,
                max_concurrent_jobs: 4,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        },
        arrivals: ArrivalProcess::Poisson {
            rate: 2.0,
            seed: 99,
        },
    }
}

type PolicyFactory = Box<dyn Fn() -> Box<dyn CachePolicy>>;

fn main() {
    banner("Grid end-to-end — response time & throughput under an SRM");
    let policies: Vec<(&str, PolicyFactory)> = vec![
        (
            "OptFileBundle",
            Box::new(|| PolicyKind::OptFileBundle.build()),
        ),
        ("Landlord", Box::new(|| Box::new(Landlord::new()))),
        ("LRU", Box::new(|| Box::new(Lru::new()))),
    ];

    for popularity in [Popularity::Uniform, Popularity::zipf()] {
        println!("--- popularity: {} ---", popularity.label());
        let cfg = scenario(popularity);
        let mut table = Table::new([
            "policy",
            "completed",
            "byte miss ratio",
            "mean resp (s)",
            "p95 resp (s)",
            "throughput (jobs/s)",
        ]);
        for (name, make) in &policies {
            let mut policy = make();
            let stats = run_scenario(policy.as_mut(), &cfg, None);
            let p95: SimDuration = stats.percentile_response(0.95);
            table.add_row([
                name.to_string(),
                stats.completed.to_string(),
                f4(stats.cache.byte_miss_ratio()),
                f2(stats.mean_response().as_secs_f64()),
                f2(p95.as_secs_f64()),
                f2(stats.throughput()),
            ]);
        }
        print!("{}", table.to_ascii());
        let out = results_dir().join(format!("grid_endtoend_{}.csv", popularity.label()));
        table.save_csv(&out).expect("write CSV");
        println!("CSV written to {}\n", out.display());
    }
    println!(
        "Reading: a lower byte miss ratio translates directly into fewer tape mounts\n\
         and WAN transfers, hence lower response times and higher throughput."
    );
}
