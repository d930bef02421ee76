//! End-to-end data-grid example (paper §2): Poisson job arrivals at a
//! Storage Resource Manager whose misses hit a tape-backed mass storage
//! system across a WAN. Shows how the replacement policy's byte miss ratio
//! turns into user-visible response time and throughput.
//!
//! ```text
//! cargo run --release --example grid_srm
//! ```

use file_bundle_cache::prelude::*;

fn main() {
    let scenario = ScenarioConfig {
        workload: WorkloadConfig {
            num_files: 300,
            max_file_frac: 0.02,
            pool_requests: 150,
            jobs: 1_500,
            files_per_request: (2, 5),
            popularity: Popularity::zipf(),
            seed: 2004,
            ..WorkloadConfig::default()
        },
        grid: GridConfig {
            srm: SrmConfig {
                cache_size: 2 * fbc_core::types::GIB,
                max_concurrent_jobs: 4,
                ..SrmConfig::default()
            },
            mss: MssConfig {
                drives: 4,
                mount_latency: SimDuration::from_secs(8),
                drive_bandwidth: 60.0e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(30),
                bandwidth: 125.0e6,
            },
            retry: RetryPolicy::default(),
            full_response_log: false,
        },
        arrivals: ArrivalProcess::Poisson {
            rate: 1.5,
            seed: 31,
        },
    };

    println!(
        "grid: {} SRM cache, {} MSS drives ({}s mounts), {} jobs at 1.5 jobs/s\n",
        fbc_core::types::format_bytes(scenario.grid.srm.cache_size),
        scenario.grid.mss.drives,
        scenario.grid.mss.mount_latency.as_secs_f64(),
        scenario.workload.jobs,
    );

    let mut table = Table::new([
        "policy",
        "byte miss ratio",
        "mean resp (s)",
        "p50 (s)",
        "p95 (s)",
        "throughput (jobs/s)",
    ]);
    for kind in [
        PolicyKind::OptFileBundle,
        PolicyKind::Landlord,
        PolicyKind::Lru,
        PolicyKind::Gdsf,
    ] {
        let mut policy = kind.build();
        let name = policy.name().to_string();
        let stats = run_scenario(policy.as_mut(), &scenario, None);
        table.add_row([
            name,
            format!("{:.4}", stats.cache.byte_miss_ratio()),
            format!("{:.1}", stats.mean_response().as_secs_f64()),
            format!("{:.1}", stats.percentile_response(0.5).as_secs_f64()),
            format!("{:.1}", stats.percentile_response(0.95).as_secs_f64()),
            format!("{:.2}", stats.throughput()),
        ]);
    }
    println!("{}", table.to_ascii());
    println!(
        "Every byte missed costs a tape mount plus a WAN round-trip, so the byte\n\
         miss ratio drives the response-time distribution directly."
    );
}
