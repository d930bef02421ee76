//! `fbcache compare` — run several policies over one trace and tabulate.

use crate::args::{ArgError, Args};
use crate::policies::{policy_by_name, POLICY_NAMES};
use crate::CliError;
use fbc_sim::compare_policies;
use fbc_sim::runner::{QueueConfig, RunConfig};
use fbc_workload::{transform, Trace};
use std::io::Write;
use std::num::NonZeroUsize;

/// Usage text for `compare`.
pub const USAGE: &str = "\
fbcache compare --trace <FILE> --cache <SIZE> [options]

Run several policies over the same trace and print a comparison table.

Options:
  --trace FILE        input trace (required)
  --cache SIZE        disk-cache capacity (required)
  --policies LIST     comma-separated policy names
                      [optfilebundle,landlord,lru,arc,gdsf,belady]
  --queue N           queued admission (highest-relative-value, q=N) [1]
  --scans F           inject one-shot scan jobs with probability F [0]
  --warmup N          exclude the first N jobs from the metrics [0]
  --csv FILE          also write the table as CSV
";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "trace", "cache", "policies", "queue", "scans", "warmup", "csv",
    ])?;
    let trace_path = args.require("trace")?;
    let cache = args.require_positive_bytes("cache")?;
    let policies = args
        .get("policies")
        .unwrap_or("optfilebundle,landlord,lru,arc,gdsf,belady")
        .split(',')
        .map(|name| {
            let name = name.trim();
            policy_by_name(name).ok_or_else(|| {
                ArgError(format!(
                    "unknown policy '{name}' (one of: {})",
                    POLICY_NAMES.join(", ")
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let queue_len = args.get_or("queue", NonZeroUsize::MIN)?.get();
    let scans: f64 = args.get_or("scans", 0.0f64)?;
    if !(0.0..=1.0).contains(&scans) {
        return Err(ArgError(format!("--scans must be in [0, 1], got {scans}")).into());
    }
    let warmup: u64 = args.get_or("warmup", 0u64)?;

    let mut trace =
        Trace::load(trace_path).map_err(|e| ArgError(format!("cannot read {trace_path}: {e}")))?;
    if scans > 0.0 {
        trace = transform::with_scans(&trace, scans, 0x5CA4);
        writeln!(out, "scan injection: trace grew to {} jobs", trace.len())?;
    }
    let run_cfg = RunConfig {
        warmup_jobs: warmup,
        queue: QueueConfig::hrv(queue_len),
        ..RunConfig::new(cache)
    };
    let table = compare_policies(&trace, &run_cfg, policies).table();
    write!(out, "{}", table.to_ascii())?;
    if let Some(csv) = args.get("csv") {
        table
            .save_csv(csv)
            .map_err(|e| ArgError(format!("cannot write {csv}: {e}")))?;
        writeln!(out, "CSV written to {csv}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;

    #[test]
    fn compare_runs_and_writes_csv() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("fbc_cli_compare_test.trace");
        let csv_path = dir.join("fbc_cli_compare_test.csv");
        Trace::new(
            FileCatalog::from_sizes(vec![5; 6]),
            (0..20u32).map(|i| Bundle::from_raw([i % 6])).collect(),
        )
        .save(&trace_path)
        .unwrap();
        let args = Args::parse(
            [
                "--trace",
                trace_path.to_str().unwrap(),
                "--cache",
                "15B",
                "--policies",
                "lru,fifo",
                "--csv",
                csv_path.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.contains("LRU"));
        assert!(csv.contains("FIFO"));
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn bad_policy_list_is_an_error() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("fbc_cli_compare_bad.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1]),
            vec![Bundle::from_raw([0])],
        )
        .save(&trace_path)
        .unwrap();
        let args = Args::parse(
            [
                "--trace",
                trace_path.to_str().unwrap(),
                "--cache",
                "1B",
                "--policies",
                "lru,wat",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn empty_queue_is_an_error() {
        let trace_path = std::env::temp_dir().join("fbc_cli_compare_empty_queue.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1]),
            vec![Bundle::from_raw([0])],
        )
        .save(&trace_path)
        .unwrap();
        let args = Args::parse(
            [
                "--trace",
                trace_path.to_str().unwrap(),
                "--cache",
                "1B",
                "--queue",
                "0",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let err = run(&args, &mut std::io::sink()).unwrap_err().to_string();
        assert!(err.contains("--queue"), "{}", err);
        std::fs::remove_file(&trace_path).ok();
    }
}
