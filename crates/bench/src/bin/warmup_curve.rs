//! Convergence experiment: the running (windowed) byte miss ratio of each
//! policy over the course of the trace — how fast each policy's cache
//! converges onto the hot set, and where it settles. Complements the
//! steady-state tables of Figs. 6–8 with the time axis.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin warmup_curve
//! ```

use fbc_baselines::PolicyKind;
use fbc_bench::{banner, paper_workload, results_dir, Experiment, BASE_CACHE};
use fbc_obs::Obs;
use fbc_sim::report::{f4, sparkline, Table};
use fbc_sim::runner::{run_trace, RunConfig};
use fbc_sim::sweep::{default_threads, parallel_sweep};
use fbc_workload::Popularity;

fn main() {
    banner("Warmup curves — windowed byte miss ratio over the trace");
    let exp = Experiment::generate(paper_workload(Popularity::zipf(), 0.01, 18_001));
    let window = (exp.trace.len() as u64 / 20).max(1);
    let kinds = [
        PolicyKind::OptFileBundle,
        PolicyKind::Landlord,
        PolicyKind::Lru,
        PolicyKind::Arc,
        PolicyKind::Gdsf,
    ];

    let results = parallel_sweep(&kinds, default_threads(), |&kind| {
        let mut policy = kind.build();
        let name = policy.name().to_string();
        let m = run_trace(
            policy.as_mut(),
            &exp.trace,
            &RunConfig {
                series_window: Some(window),
                ..RunConfig::new(BASE_CACHE)
            },
            &Obs::disabled(),
        );
        (name, m)
    });

    let mut table = Table::new([
        "policy",
        "first-window bmr",
        "last-window bmr",
        "steady bmr (post-warmup)",
        "curve",
    ]);
    for (name, m) in &results {
        let series: Vec<f64> = m.series.iter().map(|p| p.byte_miss_ratio).collect();
        // Steady-state estimate: mean of the second half of the windows.
        let half = &series[series.len() / 2..];
        let steady = half.iter().sum::<f64>() / half.len() as f64;
        table.add_row([
            name.clone(),
            f4(series[0]),
            f4(*series.last().expect("non-empty series")),
            f4(steady),
            sparkline(&series),
        ]);
    }
    print!("{}", table.to_ascii());
    println!(
        "\nReading: every curve starts high (cold cache; the first window already\n\
         averages over early warmup) and falls as the hot set loads; OptFileBundle\n\
         both converges quickly and settles lowest, because its history-driven\n\
         selection stops evicting the combinations that recur."
    );

    let out = results_dir().join("warmup_curve.csv");
    table.save_csv(&out).expect("write CSV");
    println!("CSV written to {}", out.display());
}
