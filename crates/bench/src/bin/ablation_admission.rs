//! Extension experiment: second-hit **admission control** around each
//! policy. One-shot requests are streamed past the cache instead of being
//! admitted; under Zipf popularity most requests recur, so gating costs
//! little, while under uniform popularity over a large pool the gate
//! prevents constant churn.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin ablation_admission
//! ```

use fbc_baselines::{AdmissionGate, Landlord, Lru};
use fbc_bench::{banner, paper_workload, results_dir, Experiment, BASE_CACHE};
use fbc_core::bundle::Bundle;
use fbc_core::optfilebundle::OptFileBundle;
use fbc_core::policy::CachePolicy;
use fbc_sim::report::{f4, Table};
use fbc_sim::sweep::{default_threads, parallel_sweep};
use fbc_workload::{Popularity, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interleaves one-shot scan jobs (random unique bundles) into a workload:
/// every other job becomes a scan. Models analysis campaigns mixed with
/// ad-hoc exploratory queries that never recur.
fn scanified(exp: &Experiment, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let files = exp.trace.catalog.len() as u32;
    let mut jobs = Vec::with_capacity(exp.trace.requests.len() * 2);
    for r in &exp.trace.requests {
        jobs.push(r.clone());
        let k = rng.gen_range(2..=6);
        jobs.push(Bundle::from_raw((0..k).map(|_| rng.gen_range(0..files))));
    }
    Trace::new(exp.trace.catalog.clone(), jobs)
}

fn main() {
    banner("Ablation — second-hit admission control (streamed bypass)");
    let exp_u = Experiment::generate(paper_workload(Popularity::Uniform, 0.01, 15_001));
    let exp_z = Experiment::generate(paper_workload(Popularity::zipf(), 0.01, 15_001));

    type Factory = Box<dyn Fn() -> Box<dyn CachePolicy> + Sync>;
    let cases: Vec<(&str, Factory)> = vec![
        ("OptFileBundle", Box::new(|| Box::new(OptFileBundle::new()))),
        (
            "OptFileBundle+admit(2)",
            Box::new(|| Box::new(AdmissionGate::second_hit(OptFileBundle::new()))),
        ),
        ("Landlord", Box::new(|| Box::new(Landlord::new()))),
        (
            "Landlord+admit(2)",
            Box::new(|| Box::new(AdmissionGate::second_hit(Landlord::new()))),
        ),
        ("LRU", Box::new(|| Box::new(Lru::new()))),
        (
            "LRU+admit(2)",
            Box::new(|| Box::new(AdmissionGate::second_hit(Lru::new()))),
        ),
    ];

    let scan_z = scanified(&exp_z, 0x5CA4);
    let results = parallel_sweep(&cases, default_threads(), |(_, make)| {
        let mu = exp_u.run(make(), BASE_CACHE);
        let mz = exp_z.run(make(), BASE_CACHE);
        let mut ps = make();
        let ms = fbc_sim::runner::run_trace(
            ps.as_mut(),
            &scan_z,
            &fbc_sim::runner::RunConfig::new(BASE_CACHE),
            &fbc_obs::Obs::disabled(),
        );
        (mu, mz, ms)
    });

    let mut table = Table::new([
        "policy",
        "bmr (uniform)",
        "bmr (zipf)",
        "bmr (zipf + 50% scans)",
        "hit ratio (zipf + scans)",
    ]);
    for ((name, _), (mu, mz, ms)) in cases.iter().zip(&results) {
        table.add_row([
            name.to_string(),
            f4(mu.byte_miss_ratio()),
            f4(mz.byte_miss_ratio()),
            f4(ms.byte_miss_ratio()),
            f4(ms.request_hit_ratio()),
        ]);
    }
    print!("{}", table.to_ascii());
    println!(
        "\nReading: on the pure pool workload every bundle recurs, so gating only\n\
         delays admission and costs a little; once half the jobs are one-shot\n\
         scans, the gate keeps them from churning the working set and wins."
    );

    let out = results_dir().join("ablation_admission.csv");
    table.save_csv(&out).expect("write CSV");
    println!("CSV written to {}", out.display());
}
