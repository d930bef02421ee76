//! `fbcache info` — summarise a trace: size distributions, sharing degrees,
//! recurrence, reuse distances, and the Theorem 4.1 bound the workload
//! implies.

use crate::args::{ArgError, Args};
use crate::CliError;
use fbc_workload::stats::analyze;
use fbc_workload::Trace;
use std::io::Write;

/// Usage text for `info`.
pub const USAGE: &str = "\
fbcache info --trace <FILE>

Print summary statistics of a trace: file/request size distributions,
file-sharing degrees, request recurrence, reuse-distance histogram and the
approximation bound the maximum degree implies.
";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["trace"])?;
    let trace_path = args.require("trace")?;
    let trace =
        Trace::load(trace_path).map_err(|e| ArgError(format!("cannot read {trace_path}: {e}")))?;
    let stats = analyze(&trace);

    let fb = fbc_core::types::format_bytes;
    writeln!(out, "trace:                {trace_path}")?;
    writeln!(out, "files in catalog:     {}", trace.catalog.len())?;
    writeln!(out, "files referenced:     {}", stats.distinct_files)?;
    writeln!(out, "trace footprint:      {}", fb(stats.footprint_bytes))?;
    writeln!(
        out,
        "mean file size:       {}",
        fb(trace.catalog.mean_size() as u64)
    )?;

    writeln!(out, "jobs:                 {}", stats.jobs)?;
    writeln!(out, "distinct requests:    {}", stats.distinct_requests)?;
    writeln!(out, "mean recurrence:      {:.2}", stats.mean_recurrence)?;
    writeln!(out, "cold requests:        {}", stats.cold_requests)?;
    writeln!(
        out,
        "mean bundle size:     {:.2} files",
        stats.mean_bundle_files
    )?;
    writeln!(
        out,
        "mean bundle bytes:    {}",
        fb(stats.mean_bundle_bytes as u64)
    )?;
    writeln!(out, "max bundle bytes:     {}", fb(stats.max_bundle_bytes))?;
    writeln!(
        out,
        "total requested:      {}",
        fb(trace.total_requested_bytes())
    )?;

    writeln!(out, "max file degree d:    {}", stats.max_file_degree)?;
    writeln!(out, "mean file degree:     {:.2}", stats.mean_file_degree)?;
    writeln!(
        out,
        "greedy guarantee:     {:.4}  (½(1−e^(−1/d)), Theorem 4.1)",
        fbc_core::bounds::greedy_bound(stats.max_file_degree)
    )?;
    writeln!(
        out,
        "enumerated guarantee: {:.4}  (1−e^(−1/d))",
        fbc_core::bounds::enumerated_bound(stats.max_file_degree)
    )?;

    writeln!(out, "reuse-gap histogram (jobs between recurrences):")?;
    for &(bound, count) in &stats.reuse_distance_buckets {
        let label = if bound == usize::MAX {
            "   >256".to_string()
        } else {
            format!("{bound:>7}")
        };
        writeln!(out, "  <= {label}: {count}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;

    #[test]
    fn info_command_runs() {
        let path = std::env::temp_dir().join("fbc_cli_info_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![10, 20]),
            vec![
                Bundle::from_raw([0, 1]),
                Bundle::from_raw([0]),
                Bundle::from_raw([0, 1]),
            ],
        )
        .save(&path)
        .unwrap();
        let args = Args::parse(
            ["--trace", path.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trace_flag_errors() {
        let args = Args::parse(std::iter::empty()).unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
    }

    #[test]
    fn unreadable_trace_errors() {
        let args = Args::parse(
            ["--trace", "/definitely/not/here.trace"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
    }
}
