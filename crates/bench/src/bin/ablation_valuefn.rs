//! Ablation: the request-value function `v(r)` (paper §3: the value "can
//! also reflect request priority or some other measure of importance").
//!
//! On the paper's stationary workloads a plain counter is ideal. This
//! experiment builds a **phase-changing** workload — two halves drawn from
//! *different* request pools over the same files — where counted popularity
//! goes stale at the phase boundary and an exponentially-decayed value
//! adapts.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin ablation_valuefn
//! ```

use fbc_bench::{banner, paper_workload, results_dir, BASE_CACHE};
use fbc_core::history::ValueFn;
use fbc_core::optfilebundle::{OfbConfig, OptFileBundle};
use fbc_obs::Obs;
use fbc_sim::report::{f4, Table};
use fbc_sim::runner::{run_trace, RunConfig};
use fbc_sim::sweep::{default_threads, parallel_sweep};
use fbc_workload::{transform, Popularity, Trace, Workload};

fn main() {
    banner("Ablation — value function v(r) on a phase-changing workload");

    // Two phases over the same catalog: the request pools differ, so phase 2
    // invalidates phase 1's learned popularity. Phase 2 reuses phase 1's
    // catalog and draws its jobs from a freshly seeded pool over it.
    let base = paper_workload(Popularity::zipf(), 0.01, 20_001);
    let phase1 = Workload::generate(base);
    let pool2 = fbc_workload::generate_request_pool(
        &phase1.catalog,
        &fbc_workload::RequestPoolConfig {
            num_requests: base.pool_requests,
            files_per_request: base.files_per_request,
            max_bundle_bytes: base.cache_size,
            seed: 0x9B52,
        },
    );
    let sampler = fbc_workload::PopularitySampler::new(Popularity::zipf(), pool2.len());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(77);
    let jobs2: Vec<_> = (0..phase1.jobs.len())
        .map(|_| pool2[sampler.sample(&mut rng)].clone())
        .collect();

    let t1 = Trace::new(phase1.catalog.clone(), phase1.jobs.clone());
    let t2 = Trace::new(phase1.catalog.clone(), jobs2);
    let trace = transform::concat(&t1, &t2);

    let cases = [
        ("count (paper)", ValueFn::Count),
        ("decay hl=2000", ValueFn::Decay { half_life: 2000.0 }),
        ("decay hl=500", ValueFn::Decay { half_life: 500.0 }),
        ("decay hl=100", ValueFn::Decay { half_life: 100.0 }),
    ];
    let results = parallel_sweep(&cases, default_threads(), |&(_, value_fn)| {
        let mut policy = OptFileBundle::with_config(OfbConfig {
            value_fn,
            ..OfbConfig::default()
        });
        // Measure the second phase only: warm up through phase 1.
        run_trace(
            &mut policy,
            &trace,
            &RunConfig::with_warmup(BASE_CACHE, t1.len() as u64),
            &Obs::disabled(),
        )
    });

    let mut table = Table::new(["value function", "phase-2 bmr", "phase-2 hit ratio"]);
    for ((name, _), m) in cases.iter().zip(&results) {
        table.add_row([
            name.to_string(),
            f4(m.byte_miss_ratio()),
            f4(m.request_hit_ratio()),
        ]);
    }
    print!("{}", table.to_ascii());
    println!(
        "\nReading: after the phase change, counted values keep voting for the old\n\
         pool's bundles; decayed values forget them at a rate set by the half-life\n\
         — too aggressive a decay (hl=100) starts to forget the *new* hot set too."
    );

    let out = results_dir().join("ablation_valuefn.csv");
    table.save_csv(&out).expect("write CSV");
    println!("CSV written to {}", out.display());
}
