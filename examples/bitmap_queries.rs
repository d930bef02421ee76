//! Bit-sliced bitmap-index scenario (paper §1.1): range queries over
//! high-dimensional data read the contiguous run of per-bin bitmap files of
//! every referenced attribute simultaneously.
//!
//! Also demonstrates trace persistence: the generated query trace is saved
//! in the plain-text format, reloaded, and replayed identically.
//!
//! ```text
//! cargo run --release --example bitmap_queries
//! ```

use fbc_workload::scenarios::{BitmapConfig, BitmapScenario};
use fbc_workload::{Popularity, PopularitySampler, Trace};
use file_bundle_cache::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scenario = BitmapScenario::generate(BitmapConfig {
        attributes: 10,
        bins_per_attribute: 20,
        attrs_per_query: (1, 3),
        bins_per_predicate: (1, 5),
        pool_size: 250,
        seed: 13,
        ..BitmapConfig::default()
    });
    println!(
        "bitmap index: {} bin files ({} attributes x {} bins), {} distinct queries",
        scenario.catalog.len(),
        scenario.config().attributes,
        scenario.config().bins_per_attribute,
        scenario.pool.len()
    );

    let sampler = PopularitySampler::new(Popularity::zipf(), scenario.pool.len());
    let mut rng = StdRng::seed_from_u64(17);
    let jobs: Vec<Bundle> = (0..3_000)
        .map(|_| scenario.pool[sampler.sample(&mut rng)].clone())
        .collect();
    let trace = Trace::new(scenario.catalog.clone(), jobs);

    // Persist and reload the trace (interop / reproducibility).
    let path = std::env::temp_dir().join("fbc_bitmap_queries.trace");
    trace.save(&path).expect("save trace");
    let reloaded = Trace::load(&path).expect("load trace");
    assert_eq!(trace, reloaded);
    println!("trace round-tripped through {}", path.display());

    let cache_size = scenario.catalog.total_bytes() / 10;
    let mut table = Table::new(["policy", "byte miss ratio", "request-hit ratio"]);
    for kind in [
        PolicyKind::OptFileBundle,
        PolicyKind::Landlord,
        PolicyKind::Gdsf,
        PolicyKind::Lfu,
    ] {
        let mut policy = kind.build();
        let m = run_trace(
            &mut policy,
            &reloaded,
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
    println!(
        "All bin files of a query must be co-resident for the boolean operations:\n\
         a single missing bin forces a round trip to mass storage."
    );
    std::fs::remove_file(&path).ok();
}
