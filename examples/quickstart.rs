//! Quickstart: generate the paper's synthetic workload, run `OptFileBundle`
//! against the classic baselines, and print a comparison table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use file_bundle_cache::prelude::*;

fn main() {
    // 1. A synthetic data-grid workload (paper §5.1): 10 GiB cache, file
    //    sizes up to 1% of the cache, a pool of 200 distinct bundle
    //    requests, 5 000 jobs drawn with Zipf popularity.
    let config = WorkloadConfig {
        num_files: 800,
        max_file_frac: 0.01,
        pool_requests: 200,
        jobs: 5_000,
        files_per_request: (2, 6),
        popularity: Popularity::zipf(),
        seed: 42,
        ..WorkloadConfig::default()
    };
    let workload = Workload::generate(config);
    println!(
        "workload: {} files, {} distinct requests, {} jobs, mean request {:.1} MiB",
        workload.catalog.len(),
        workload.pool.len(),
        workload.jobs.len(),
        workload.mean_request_bytes() / (1 << 20) as f64
    );
    // Run with a cache that holds ~10 average requests: replacement matters.
    let cache_size = (workload.mean_request_bytes() * 10.0) as Bytes;
    let trace = workload.into_trace();

    // 2. Run every online policy over the same trace.
    let mut table = Table::new(["policy", "byte miss ratio", "request hits", "GiB fetched"]);
    for kind in PolicyKind::ONLINE {
        let mut policy = kind.build();
        let metrics = run_trace(
            &mut policy,
            &trace,
            &RunConfig::new(cache_size),
            &Obs::disabled(),
        );
        table.add_row([
            policy.name().to_string(),
            format!("{:.4}", metrics.byte_miss_ratio()),
            format!("{}", metrics.hits),
            format!("{:.1}", metrics.fetched_bytes as f64 / (1u64 << 30) as f64),
        ]);
    }
    // The clairvoyant reference, for context.
    let mut belady = BeladyMin::new();
    let metrics = run_trace(
        &mut belady,
        &trace,
        &RunConfig::new(cache_size),
        &Obs::disabled(),
    );
    table.add_row([
        "Belady-MIN (offline)".to_string(),
        format!("{:.4}", metrics.byte_miss_ratio()),
        format!("{}", metrics.hits),
        format!("{:.1}", metrics.fetched_bytes as f64 / (1u64 << 30) as f64),
    ]);

    println!("\n{}", table.to_ascii());
    println!(
        "OptFileBundle tracks which file *combinations* recur; popularity-based\n\
         policies (LRU/LFU/Landlord) can hold popular-but-useless mixes of files."
    );
}
