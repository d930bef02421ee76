//! Climate-model post-processing scenario (paper §1.1, Fig. 1): per-variable
//! time-chunk files, analysis jobs reading a set of variables over a
//! contiguous time window — and an admission queue in front of the cache,
//! reproducing the paper's §5.3 queued-scheduling experiment on a domain
//! workload.
//!
//! ```text
//! cargo run --release --example climate_pipeline
//! ```

use fbc_workload::scenarios::{ClimateConfig, ClimateScenario};
use fbc_workload::{Popularity, PopularitySampler, Trace};
use file_bundle_cache::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scenario = ClimateScenario::generate(ClimateConfig {
        variables: 12,
        time_chunks: 24,
        vars_per_job: (1, 4),
        window: (1, 6),
        pool_size: 150,
        seed: 3,
        ..ClimateConfig::default()
    });
    println!(
        "climate scenario: {} files ({} variables x {} time chunks), {} distinct jobs, {} total",
        scenario.catalog.len(),
        scenario.config().variables,
        scenario.config().time_chunks,
        scenario.pool.len(),
        fbc_core::types::format_bytes(scenario.catalog.total_bytes()),
    );

    let sampler = PopularitySampler::new(Popularity::zipf(), scenario.pool.len());
    let mut rng = StdRng::seed_from_u64(5);
    let jobs: Vec<Bundle> = (0..3_000)
        .map(|_| scenario.pool[sampler.sample(&mut rng)].clone())
        .collect();
    let trace = Trace::new(scenario.catalog.clone(), jobs);
    let cache_size = scenario.catalog.total_bytes() / 6;

    // Queued admission: batch incoming jobs and serve the highest adjusted
    // relative value first (paper Fig. 9).
    let mut table = Table::new(["queue length", "byte miss ratio", "request-hit ratio"]);
    for q in [1usize, 10, 50, 100] {
        let mut policy = OptFileBundle::new();
        let cfg = RunConfig {
            queue: QueueConfig::hrv(q),
            ..RunConfig::new(cache_size)
        };
        let m = run_trace(&mut policy, &trace, &cfg, &Obs::disabled());
        table.add_row([
            format!("q{q}"),
            format!("{:.4}", m.byte_miss_ratio()),
            format!("{:.4}", m.request_hit_ratio()),
        ]);
    }
    println!("\n{}", table.to_ascii());
    println!(
        "Aggregating jobs in an admission queue lets the scheduler group jobs that\n\
         reuse the cached variable/time-window combinations (biggest effect under\n\
         skewed popularity)."
    );
}
