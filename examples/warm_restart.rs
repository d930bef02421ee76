//! SRM warm-restart example: persist the learned request history across a
//! simulated process restart, and compare a cold restart with a warm one.
//!
//! Storage Resource Managers run for months; when they do restart, losing
//! the popularity history means relearning the working set from scratch.
//! `RequestHistory::write_to` / `read_from` plus
//! `OptFileBundle::with_history` make the knowledge durable.
//!
//! ```text
//! cargo run --release --example warm_restart
//! ```

use file_bundle_cache::prelude::*;

fn main() {
    let workload = Workload::generate(WorkloadConfig {
        num_files: 600,
        max_file_frac: 0.01,
        pool_requests: 150,
        jobs: 6_000,
        files_per_request: (2, 5),
        popularity: Popularity::zipf(),
        seed: 1_701,
        ..WorkloadConfig::default()
    });
    let cache_size = (workload.mean_request_bytes() * 12.0) as Bytes;
    let trace = workload.into_trace();
    let (first_half, second_half) = trace.requests.split_at(trace.len() / 2);
    let first = Trace::new(trace.catalog.clone(), first_half.to_vec());
    let second = Trace::new(trace.catalog.clone(), second_half.to_vec());

    // --- Life 1: run the first half and persist the history. ---
    let mut policy = OptFileBundle::new();
    let m1 = run_trace(
        &mut policy,
        &first,
        &RunConfig::new(cache_size),
        &Obs::disabled(),
    );
    println!(
        "life 1: {} jobs, byte miss ratio {:.4}, {} distinct requests learned",
        m1.jobs,
        m1.byte_miss_ratio(),
        policy.history().len()
    );
    let path = std::env::temp_dir().join("fbc_srm_history.txt");
    let file = std::fs::File::create(&path).expect("create history file");
    policy.history().write_to(file).expect("persist history");
    println!("history persisted to {}", path.display());

    // --- Restart. The disk cache is gone either way; the history may not be.
    let run_second = |policy: &mut OptFileBundle| {
        run_trace(
            policy,
            &second,
            &RunConfig::new(cache_size),
            &Obs::disabled(),
        )
    };

    let mut cold = OptFileBundle::new();
    let cold_m = run_second(&mut cold);

    let restored = file_bundle_cache::core::history::RequestHistory::read_from(
        std::fs::File::open(&path).expect("open history"),
        &second.catalog,
    )
    .expect("parse history");
    let mut warm = OptFileBundle::with_history(OfbConfig::default(), restored);
    let warm_m = run_second(&mut warm);

    let mut table = Table::new(["restart", "byte miss ratio", "request-hit ratio"]);
    table.add_row([
        "cold (history lost)".to_string(),
        format!("{:.4}", cold_m.byte_miss_ratio()),
        format!("{:.4}", cold_m.request_hit_ratio()),
    ]);
    table.add_row([
        "warm (history restored)".to_string(),
        format!("{:.4}", warm_m.byte_miss_ratio()),
        format!("{:.4}", warm_m.request_hit_ratio()),
    ]);
    println!(
        "\nsecond half of the workload after the restart:\n\n{}",
        table.to_ascii()
    );
    println!(
        "The warm restart already knows which bundles recur: its first eviction\n\
         decisions protect the working set instead of rediscovering it."
    );
    std::fs::remove_file(&path).ok();
}
