//! HENP event-analysis scenario (paper §1.1): collision-event attributes
//! are vertically partitioned into per-attribute files; each physics
//! analysis job needs several attribute files of one run simultaneously.
//!
//! Demonstrates using a domain scenario generator with the cache simulator
//! and inspecting the request history the policy learns.
//!
//! ```text
//! cargo run --release --example henp_analysis
//! ```

use fbc_workload::scenarios::{HenpConfig, HenpScenario};
use fbc_workload::{Popularity, PopularitySampler, Trace};
use file_bundle_cache::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 4 experiment runs × 60 attributes; physicists read 2–8 attributes of
    // one run per analysis pass.
    let scenario = HenpScenario::generate(HenpConfig {
        runs: 4,
        attributes: 60,
        attrs_per_job: (2, 8),
        pool_size: 120,
        seed: 7,
        ..HenpConfig::default()
    });
    println!(
        "HENP scenario: {} attribute files totalling {}, {} distinct analysis jobs",
        scenario.catalog.len(),
        fbc_core::types::format_bytes(scenario.catalog.total_bytes()),
        scenario.pool.len()
    );

    // Physicists revisit hot selections: Zipf over the analysis pool.
    let sampler = PopularitySampler::new(Popularity::zipf(), scenario.pool.len());
    let mut rng = StdRng::seed_from_u64(11);
    let jobs: Vec<Bundle> = (0..4_000)
        .map(|_| scenario.pool[sampler.sample(&mut rng)].clone())
        .collect();
    let trace = Trace::new(scenario.catalog.clone(), jobs);

    // An SRM disk cache an eighth the size of the dataset.
    let cache_size = scenario.catalog.total_bytes() / 8;

    let mut table = Table::new(["policy", "byte miss ratio", "request-hit ratio"]);
    for kind in [
        PolicyKind::OptFileBundle,
        PolicyKind::Landlord,
        PolicyKind::Lru,
    ] {
        let mut policy = kind.build();
        let m = run_trace(
            &mut policy,
            &trace,
            &RunConfig::new(cache_size),
            &Obs::disabled(),
        );
        table.add_row([
            policy.name().to_string(),
            format!("{:.4}", m.byte_miss_ratio()),
            format!("{:.4}", m.request_hit_ratio()),
        ]);
    }
    println!("\n{}", table.to_ascii());

    // Peek into what OptFileBundle learned: the hottest attribute bundles.
    let mut policy = OptFileBundle::new();
    let _ = run_trace(
        &mut policy,
        &trace,
        &RunConfig::new(cache_size),
        &Obs::disabled(),
    );
    let mut entries: Vec<_> = policy.history().entries().collect();
    entries.sort_by_key(|e| std::cmp::Reverse(e.count));
    println!("hottest analysis bundles (top 5 of {}):", entries.len());
    for e in entries.iter().take(5) {
        let run = scenario.run_of(e.bundle.files()[0]);
        println!(
            "  run {} · {} attributes · {} occurrences · {}",
            run,
            e.bundle.len(),
            e.count,
            fbc_core::types::format_bytes(e.bundle.total_size(&scenario.catalog)),
        );
    }
}
