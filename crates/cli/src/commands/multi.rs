//! `fbcache multi` — run a trace through a multi-SRM cluster and compare
//! dispatch strategies.

use crate::args::{ArgError, Args};
use crate::policies::{policy_by_name, POLICY_NAMES};
use crate::CliError;
use fbc_core::policy::CachePolicy;
use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
use fbc_grid::engine::{run_grid_nodes, GridConfig, RunOptions};
use fbc_grid::multi::Dispatch;
use fbc_grid::srm::SrmConfig;
use fbc_sim::report::{f2, f4, Table};
use fbc_workload::Trace;
use std::io::Write;

/// Usage text for `multi`.
pub const USAGE: &str = "\
fbcache multi --trace <FILE> --cache <SIZE> [options]

Run a trace through a cluster of SRM nodes sharing one mass storage system,
comparing all three dispatch strategies (round-robin, least-loaded,
bundle-affinity).

Options:
  --trace FILE      input trace (required)
  --cache SIZE      per-node disk-cache capacity (required)
  --nodes N         SRM nodes in the cluster [4]
  --policy NAME     replacement policy on every node [optfilebundle]
  --rate R          Poisson arrival rate, jobs/second [4.0]
  --arrival-seed N  arrival-process seed [1]
";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["trace", "cache", "nodes", "policy", "rate", "arrival-seed"])?;
    let trace_path = args.require("trace")?;
    let cache = args.get_bytes_or("cache", 0)?;
    if cache == 0 {
        return Err(ArgError("missing required flag --cache".into()).into());
    }
    let nodes = args.get_count_or("nodes", 4)?;
    let policy_name = args.get("policy").unwrap_or("optfilebundle");
    if policy_by_name(policy_name).is_none() {
        return Err(ArgError(format!(
            "unknown policy '{policy_name}' (one of: {})",
            POLICY_NAMES.join(", ")
        ))
        .into());
    }
    let rate = args.get_positive_or("rate", 4.0)?;
    let seed: u64 = args.get_or("arrival-seed", 1u64)?;

    let trace =
        Trace::load(trace_path).map_err(|e| ArgError(format!("cannot read {trace_path}: {e}")))?;
    let arrivals = schedule_arrivals(&trace.requests, ArrivalProcess::Poisson { rate, seed });

    let mut table = Table::new([
        "dispatch",
        "byte miss ratio",
        "hit ratio",
        "mean resp (s)",
        "throughput (jobs/s)",
        "imbalance",
    ]);
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        let config = GridConfig {
            srm: SrmConfig {
                cache_size: cache,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        let mut policies: Vec<Box<dyn CachePolicy>> = (0..nodes)
            .map(|_| policy_by_name(policy_name).expect("validated above"))
            .collect();
        let mut refs: Vec<&mut dyn CachePolicy> = policies
            .iter_mut()
            .map(|p| p.as_mut() as &mut dyn CachePolicy)
            .collect();
        let opts = RunOptions {
            dispatch,
            ..RunOptions::default()
        };
        let stats = run_grid_nodes(&mut refs, &trace.catalog, &arrivals, &config, opts);
        table.add_row([
            dispatch.label().to_string(),
            f4(stats.overall.cache.byte_miss_ratio()),
            f4(stats.overall.cache.request_hit_ratio()),
            f2(stats.overall.mean_response().as_secs_f64()),
            f2(stats.overall.throughput()),
            f2(stats.routing_imbalance()),
        ]);
    }
    write!(out, "{}", table.to_ascii())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;

    #[test]
    fn multi_command_end_to_end() {
        let path = std::env::temp_dir().join("fbc_cli_multi_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1_000_000; 6]),
            (0..20u32)
                .map(|i| Bundle::from_raw([i % 6, (i + 1) % 6]))
                .collect(),
        )
        .save(&path)
        .unwrap();
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "4MiB",
                "--nodes",
                "2",
                "--rate",
                "20",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_nodes_rejected() {
        let args = Args::parse(
            ["--trace", "x", "--cache", "1MiB", "--nodes", "0"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
        // A rate the arrival process would assert on is a flag error.
        for rate in ["0", "nan"] {
            let args = Args::parse(
                ["--trace", "x", "--cache", "1MiB", "--rate", rate]
                    .iter()
                    .map(|s| s.to_string()),
            )
            .unwrap();
            let err = run(&args, &mut std::io::sink()).unwrap_err().to_string();
            assert!(err.contains("--rate"), "{rate}: {}", err);
        }
    }
}
