//! `fbcache generate` — generate a synthetic workload and write its trace.

use crate::args::{ArgError, Args};
use crate::CliError;
use fbc_core::types::GIB;
use fbc_workload::{Popularity, Workload, WorkloadConfig};
use std::io::Write;

/// Usage text for `generate`.
pub const USAGE: &str = "\
fbcache generate --output <FILE> [options]

Generate a synthetic file-bundle workload (paper §5.1) and save its trace.

Options:
  --output FILE          output trace path (required)
  --cache-size SIZE      cache size the workload is scaled to [10GiB]
  --files N              number of files in mass storage [800]
  --max-file-frac F      max file size as a fraction of the cache [0.01]
  --pool N               distinct requests in the pool [200]
  --jobs N               number of jobs in the trace [10000]
  --bundle MIN:MAX       files per request, inclusive range [2:6]
  --popularity DIST      uniform | zipf | zipf:<theta> [zipf]
  --seed N               RNG seed [2004]
";

/// Parses a popularity spec (`uniform`, `zipf`, `zipf:0.8`).
pub fn parse_popularity(s: &str) -> Result<Popularity, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "uniform" | "random" => Ok(Popularity::Uniform),
        "zipf" => Ok(Popularity::zipf()),
        other => {
            if let Some(theta) = other.strip_prefix("zipf:") {
                let theta: f64 = theta
                    .parse()
                    .map_err(|_| ArgError(format!("bad zipf theta '{theta}'")))?;
                if !(theta.is_finite() && theta > 0.0) {
                    return Err(ArgError(format!(
                        "zipf theta must be positive, got {theta}"
                    )));
                }
                Ok(Popularity::Zipf { theta })
            } else {
                Err(ArgError(format!(
                    "unknown popularity '{s}' (uniform | zipf | zipf:<theta>)"
                )))
            }
        }
    }
}

/// Builds the workload config from parsed flags.
pub fn config_from_args(args: &Args) -> Result<WorkloadConfig, ArgError> {
    Ok(WorkloadConfig {
        cache_size: args.get_bytes_or("cache-size", 10 * GIB)?,
        num_files: args.get_or("files", 800usize)?,
        max_file_frac: args.get_or("max-file-frac", 0.01f64)?,
        pool_requests: args.get_or("pool", 200usize)?,
        jobs: args.get_or("jobs", 10_000usize)?,
        files_per_request: args.get_range_or("bundle", (2, 6))?,
        popularity: parse_popularity(args.get("popularity").unwrap_or("zipf"))?,
        seed: args.get_or("seed", 2004u64)?,
    })
}

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "output",
        "cache-size",
        "files",
        "max-file-frac",
        "pool",
        "jobs",
        "bundle",
        "popularity",
        "seed",
    ])?;
    let output = args.require("output")?.to_string();
    let config = config_from_args(args)?;
    let workload = Workload::generate(config);
    writeln!(
        out,
        "generated: {} files, {} distinct requests, {} jobs, mean request {}",
        workload.catalog.len(),
        workload.pool.len(),
        workload.jobs.len(),
        fbc_core::types::format_bytes(workload.mean_request_bytes() as u64),
    )?;
    writeln!(
        out,
        "cache of {} holds ~{:.1} average requests",
        fbc_core::types::format_bytes(config.cache_size),
        workload.requests_per_cache()
    )?;
    let trace = workload.into_trace();
    trace
        .save(&output)
        .map_err(|e| ArgError(format!("cannot write {output}: {e}")))?;
    writeln!(out, "trace written to {output}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_specs() {
        assert_eq!(parse_popularity("uniform").unwrap(), Popularity::Uniform);
        assert_eq!(parse_popularity("zipf").unwrap(), Popularity::zipf());
        assert_eq!(
            parse_popularity("zipf:0.5").unwrap(),
            Popularity::Zipf { theta: 0.5 }
        );
        assert!(parse_popularity("zipf:-1").is_err());
        assert!(parse_popularity("pareto").is_err());
    }

    #[test]
    fn config_defaults_and_overrides() {
        let args = Args::parse(
            ["--jobs", "50", "--bundle", "1:3", "--popularity", "uniform"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let cfg = config_from_args(&args).unwrap();
        assert_eq!(cfg.jobs, 50);
        assert_eq!(cfg.files_per_request, (1, 3));
        assert_eq!(cfg.popularity, Popularity::Uniform);
        assert_eq!(cfg.cache_size, 10 * GIB); // default
    }

    #[test]
    fn end_to_end_generate_writes_trace() {
        let path = std::env::temp_dir().join("fbc_cli_generate_test.trace");
        let args = Args::parse(
            [
                "--output",
                path.to_str().unwrap(),
                "--jobs",
                "20",
                "--files",
                "30",
                "--pool",
                "10",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        let trace = fbc_workload::Trace::load(&path).unwrap();
        assert_eq!(trace.len(), 20);
        std::fs::remove_file(&path).ok();
    }
}
