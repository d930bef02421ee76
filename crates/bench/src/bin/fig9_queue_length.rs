//! Reproduces **Figure 9(a)/(b)**: effect of the admission-queue length on
//! the byte miss ratio, under (a) uniform and (b) Zipf popularity.
//!
//! The paper aggregates incoming jobs in a queue of length q ∈ {1, 5, …,
//! 100}, repeatedly serving the highest-relative-value request until the
//! queue drains. Expected shape (§5.3): queueing is minor for uniform
//! popularity but significant for Zipf, where q = 100 gives a much lower
//! byte miss ratio.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin fig9_queue_length
//! ```

use fbc_bench::{banner, paper_workload, results_dir, Experiment};
use fbc_core::optfilebundle::OptFileBundle;
use fbc_obs::Obs;
use fbc_sim::report::{f4, Table};
use fbc_sim::runner::{run_trace, QueueConfig, RunConfig};
use fbc_sim::sweep::{default_threads, parallel_sweep};
use fbc_workload::Popularity;

const QUEUE_LENGTHS: [usize; 5] = [1, 5, 10, 50, 100];

fn main() {
    banner("Figure 9 — effect of varying the queue length (q1..q100)");

    let exp_u = Experiment::generate(paper_workload(Popularity::Uniform, 0.01, 9_001));
    let exp_z = Experiment::generate(paper_workload(Popularity::zipf(), 0.01, 9_001));
    // A quarter-size cache keeps replacement pressure high so scheduling
    // effects are visible.
    let cache_u = fbc_bench::BASE_CACHE / 4;
    let cache_z = fbc_bench::BASE_CACHE / 4;

    let run = |exp: &Experiment, cache: u64, q: usize| {
        let mut policy = OptFileBundle::new();
        let cfg = RunConfig {
            queue: QueueConfig::hrv(q),
            ..RunConfig::new(cache)
        };
        run_trace(&mut policy, &exp.trace, &cfg, &Obs::disabled()).byte_miss_ratio()
    };
    let uniform = parallel_sweep(&QUEUE_LENGTHS, default_threads(), |&q| {
        run(&exp_u, cache_u, q)
    });
    let zipf = parallel_sweep(&QUEUE_LENGTHS, default_threads(), |&q| {
        run(&exp_z, cache_z, q)
    });

    let mut table = Table::new(["queue length", "bmr (uniform)", "bmr (zipf)"]);
    for ((q, u), z) in QUEUE_LENGTHS.iter().zip(&uniform).zip(&zipf) {
        table.add_row([format!("q{q}"), f4(*u), f4(*z)]);
    }
    print!("{}", table.to_ascii());

    let gain = |v: &[f64]| (v[0] - v[v.len() - 1]) / v[0].max(1e-12);
    println!(
        "\nPaper checks: relative bmr improvement q1 -> q100: uniform {:.1}% (minor), \
         zipf {:.1}% (significant).",
        100.0 * gain(&uniform),
        100.0 * gain(&zipf)
    );

    let out = results_dir().join("fig9_queue_length.csv");
    table.save_csv(&out).expect("write CSV");
    println!("CSV written to {}", out.display());
}
