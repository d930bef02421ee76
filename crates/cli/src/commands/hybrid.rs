//! `fbcache hybrid` — replay a trace under the hybrid execution model,
//! sweeping the one-file-at-a-time job fraction.

use crate::args::{ArgError, Args};
use crate::policies::{policy_by_name, POLICY_NAMES};
use crate::CliError;
use fbc_sim::hybrid::run_hybrid;
use fbc_sim::report::{f2, f4, Table};
use fbc_workload::Trace;
use std::io::Write;

/// Usage text for `hybrid`.
pub const USAGE: &str = "\
fbcache hybrid --trace <FILE> --cache <SIZE> [options]

Replay a trace with a mix of one-file-at-a-time and bundle-at-a-time jobs
(the paper's §6 hybrid execution model), sweeping the single-file fraction.

Options:
  --trace FILE    input trace (required)
  --cache SIZE    disk-cache capacity (required)
  --policy NAME   replacement policy [optfilebundle]
  --steps N       sweep points between 0 and 1 inclusive [5]
  --seed N        per-job model assignment seed [7]
";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["trace", "cache", "policy", "steps", "seed"])?;
    let trace_path = args.require("trace")?;
    let cache = args.require_positive_bytes("cache")?;
    let policy_name = args.get("policy").unwrap_or("optfilebundle");
    let steps: usize = args.get_or("steps", 5usize)?;
    if steps < 2 {
        return Err(ArgError("--steps must be at least 2".into()).into());
    }
    let seed: u64 = args.get_or("seed", 7u64)?;

    let trace =
        Trace::load(trace_path).map_err(|e| ArgError(format!("cannot read {trace_path}: {e}")))?;

    let mut table = Table::new([
        "single-file fraction",
        "byte miss ratio",
        "job-hit ratio",
        "bundle jobs",
        "single jobs",
    ]);
    for i in 0..steps {
        let frac = i as f64 / (steps - 1) as f64;
        let mut policy = policy_by_name(policy_name).ok_or_else(|| {
            ArgError(format!(
                "unknown policy '{policy_name}' (one of: {})",
                POLICY_NAMES.join(", ")
            ))
        })?;
        let m = run_hybrid(policy.as_mut(), &trace, cache, frac, seed);
        table.add_row([
            f2(frac),
            f4(m.overall.byte_miss_ratio()),
            f4(m.overall.request_hit_ratio()),
            m.bundle_jobs.jobs.to_string(),
            m.single_jobs.jobs.to_string(),
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
    fn hybrid_command_end_to_end() {
        let path = std::env::temp_dir().join("fbc_cli_hybrid_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![5; 8]),
            (0..30u32)
                .map(|i| Bundle::from_raw([i % 8, (i + 2) % 8]))
                .collect(),
        )
        .save(&path)
        .unwrap();
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "20B",
                "--steps",
                "3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn too_few_steps_rejected() {
        let args = Args::parse(
            ["--trace", "x", "--cache", "1MiB", "--steps", "1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
    }
}
