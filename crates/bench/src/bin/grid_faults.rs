//! Robustness sweep: the end-to-end grid experiment re-run under each
//! fault preset plus an escalating transient-error rate, reporting the
//! availability the SRM's retry/backoff layer preserves next to the byte
//! miss ratio. The zero-fault row doubles as a live check of the
//! determinism contract: it must match a run without any injector.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin grid_faults
//! ```

use fbc_baselines::{Landlord, PolicyKind};
use fbc_bench::{banner, paper_workload, results_dir};
use fbc_core::policy::CachePolicy;
use fbc_core::types::GIB;
use fbc_grid::{
    run_scenario, ArrivalProcess, FaultPlan, GridConfig, RetryPolicy, ScenarioConfig, SimDuration,
    SrmConfig,
};
use fbc_sim::report::{f2, f4, Table};
use fbc_workload::Popularity;

fn scenario() -> ScenarioConfig {
    let mut workload = paper_workload(Popularity::zipf(), 0.01, 13_001);
    workload.jobs = if fbc_bench::quick_mode() { 300 } else { 2_000 };
    ScenarioConfig {
        workload,
        grid: GridConfig {
            srm: SrmConfig {
                cache_size: 2 * GIB,
                max_concurrent_jobs: 4,
                ..SrmConfig::default()
            },
            retry: RetryPolicy {
                max_retries: 4,
                fetch_timeout: Some(SimDuration::from_secs(600)),
                ..RetryPolicy::default()
            },
            ..GridConfig::default()
        },
        arrivals: ArrivalProcess::Poisson {
            rate: 2.0,
            seed: 99,
        },
    }
}

type PolicyFactory = Box<dyn Fn() -> Box<dyn CachePolicy>>;

fn main() {
    banner("Grid robustness — availability under injected faults");
    let policies: Vec<(&str, PolicyFactory)> = vec![
        (
            "OptFileBundle",
            Box::new(|| PolicyKind::OptFileBundle.build()),
        ),
        ("Landlord", Box::new(|| Box::new(Landlord::new()))),
    ];
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        (
            "tape-outage",
            FaultPlan::preset("tape-outage").expect("preset"),
        ),
        ("flaky-wan", FaultPlan::preset("flaky-wan").expect("preset")),
        (
            "transient-10%",
            FaultPlan::parse("transient=0.10;seed=7").expect("spec"),
        ),
        ("blackout", FaultPlan::preset("blackout").expect("preset")),
    ];

    let cfg = scenario();
    let mut table = Table::new([
        "policy",
        "faults",
        "completed",
        "failed",
        "availability",
        "byte miss ratio",
        "retries",
        "mean resp (s)",
    ]);
    for (name, make) in &policies {
        for (plan_name, plan) in &plans {
            let mut policy = make();
            let stats = run_scenario(policy.as_mut(), &cfg, Some(plan));
            if plan.is_zero_fault() {
                let mut check = make();
                let plain = run_scenario(check.as_mut(), &cfg, None);
                assert_eq!(
                    plain, stats,
                    "zero-fault plan diverged from the fault-free run"
                );
            }
            table.add_row([
                name.to_string(),
                plan_name.to_string(),
                stats.completed.to_string(),
                stats.failed.to_string(),
                f4(stats.availability()),
                f4(stats.cache.byte_miss_ratio()),
                stats.fetch_retries.to_string(),
                f2(stats.mean_response().as_secs_f64()),
            ]);
        }
    }
    print!("{}", table.to_ascii());
    let out = results_dir().join("grid_faults.csv");
    table.save_csv(&out).expect("write CSV");
    println!("CSV written to {}\n", out.display());
    println!(
        "Reading: retries with exponential backoff ride out bounded outages\n\
         (availability stays 1.0 at the cost of response time); only the\n\
         permanent blackout exhausts retry budgets and fails jobs."
    );
}
