//! `fbcache run` — replay a trace through one policy and print metrics.

use crate::args::{ArgError, Args};
use crate::obs::{emit, obs_from_args};
use crate::policies::{policy_by_name, POLICY_NAMES};
use crate::CliError;
use fbc_sim::runner::{run_trace, Discipline, QueueConfig, RunConfig};
use fbc_workload::Trace;
use std::io::Write;
use std::num::NonZeroUsize;

/// Usage text for `run`.
pub const USAGE: &str = "\
fbcache run --trace <FILE> --cache <SIZE> [options]

Replay a trace through a replacement policy and report the paper's metrics.

Options:
  --trace FILE          input trace (required)
  --cache SIZE          disk-cache capacity, e.g. 2GiB (required)
  --policy NAME         replacement policy [optfilebundle]
  --queue N             admission-queue length (1 = FCFS) [1]
  --discipline D        fcfs | hrv | sjf (with --queue > 1) [hrv]
  --latency             time every replacement decision and report
                        p50/p99/mean decision latency
  --obs                 print the observability counter table after the run
  --obs-trace FILE      write the JSONL event trace to FILE (implies --obs)
  --profile             --obs plus wall-clock span durations (`*.wall_ns`
                        rows); machine-dependent, not byte-reproducible
";

/// Parses a queue discipline name.
pub fn parse_discipline(s: &str) -> Result<Discipline, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "fcfs" => Ok(Discipline::Fcfs),
        "hrv" => Ok(Discipline::HighestRelativeValue),
        "sjf" => Ok(Discipline::ShortestJobFirst),
        other => Err(ArgError(format!(
            "unknown discipline '{other}' (fcfs | hrv | sjf)"
        ))),
    }
}

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "trace",
        "cache",
        "policy",
        "queue",
        "discipline",
        "latency",
        "obs",
        "obs-trace",
        "profile",
    ])?;
    let trace_path = args.require("trace")?;
    let cache = args.require_positive_bytes("cache")?;
    let policy_name = args.get("policy").unwrap_or("optfilebundle");
    let mut policy = policy_by_name(policy_name).ok_or_else(|| {
        ArgError(format!(
            "unknown policy '{policy_name}' (one of: {})",
            POLICY_NAMES.join(", ")
        ))
    })?;
    let queue_len = args.get_or("queue", NonZeroUsize::MIN)?.get();
    let discipline = parse_discipline(args.get("discipline").unwrap_or("hrv"))?;

    let trace =
        Trace::load(trace_path).map_err(|e| ArgError(format!("cannot read {trace_path}: {e}")))?;
    let run_cfg = RunConfig {
        record_latency: args.has("latency"),
        queue: QueueConfig {
            queue_len,
            discipline,
        },
        ..RunConfig::new(cache)
    };
    let obs = obs_from_args(args);
    let metrics = run_trace(policy.as_mut(), &trace, &run_cfg, &obs);

    writeln!(out, "policy:              {}", policy.name())?;
    writeln!(out, "jobs:                {}", metrics.jobs)?;
    writeln!(out, "serviced:            {}", metrics.serviced)?;
    writeln!(out, "request hits:        {}", metrics.hits)?;
    writeln!(
        out,
        "request-hit ratio:   {:.4}",
        metrics.request_hit_ratio()
    )?;
    writeln!(out, "byte miss ratio:     {:.4}", metrics.byte_miss_ratio())?;
    writeln!(out, "byte hit ratio:      {:.4}", metrics.byte_hit_ratio())?;
    writeln!(
        out,
        "bytes requested:     {}",
        fbc_core::types::format_bytes(metrics.requested_bytes)
    )?;
    writeln!(
        out,
        "bytes fetched:       {}",
        fbc_core::types::format_bytes(metrics.fetched_bytes)
    )?;
    writeln!(
        out,
        "bytes evicted:       {}",
        fbc_core::types::format_bytes(metrics.evicted_bytes)
    )?;
    writeln!(
        out,
        "volume per request:  {}",
        fbc_core::types::format_bytes(metrics.bytes_moved_per_request() as u64)
    )?;
    if !metrics.decision_latency.is_empty() {
        let l = &metrics.decision_latency;
        writeln!(
            out,
            "decision latency:    p50 {:.1}µs  p99 {:.1}µs  mean {:.1}µs  ({} samples)",
            l.p50() as f64 / 1e3,
            l.p99() as f64 / 1e3,
            l.mean() / 1e3,
            l.len()
        )?;
    }
    emit(&obs, args, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;

    /// Writes the shared three-job trace to a path of the test's own: the
    /// tests run in parallel and each deletes its trace when done.
    fn write_test_trace(test: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("fbc_cli_run_{test}_{}.trace", std::process::id()));
        let trace = Trace::new(
            FileCatalog::from_sizes(vec![10, 20, 30]),
            vec![
                Bundle::from_raw([0, 1]),
                Bundle::from_raw([2]),
                Bundle::from_raw([0, 1]),
            ],
        );
        trace.save(&path).unwrap();
        path
    }

    #[test]
    fn discipline_parsing() {
        assert_eq!(parse_discipline("FCFS").unwrap(), Discipline::Fcfs);
        assert_eq!(
            parse_discipline("hrv").unwrap(),
            Discipline::HighestRelativeValue
        );
        assert!(parse_discipline("lifo").is_err());
    }

    #[test]
    fn run_command_end_to_end() {
        let path = write_test_trace("run_command_end_to_end");
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "60B",
                "--policy",
                "lru",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn latency_flag_is_accepted() {
        let path = write_test_trace("latency_flag_is_accepted");
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "60B",
                "--latency",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_trace_flag_writes_deterministic_jsonl() {
        let path = write_test_trace("obs_trace_flag_writes_deterministic_jsonl");
        let out = std::env::temp_dir().join("fbc_cli_run_obs_test.jsonl");
        let out_s = out.to_str().unwrap().to_string();
        let argv = [
            "--trace",
            path.to_str().unwrap(),
            "--cache",
            "60B",
            "--policy",
            "lru",
            "--obs-trace",
            &out_s,
        ];
        let args = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        assert!(first.lines().count() >= 3, "one event per job at least");
        assert!(first.contains("\"ev\":\"job\""));
        // Same invocation, byte-identical trace.
        run(&args, &mut std::io::sink()).unwrap();
        assert_eq!(first, std::fs::read_to_string(&out).unwrap());
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_cache_is_an_error() {
        let path = write_test_trace("missing_cache_is_an_error");
        let args = Args::parse(
            ["--trace", path.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let path = write_test_trace("unknown_policy_is_an_error");
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "60B",
                "--policy",
                "nope",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// `landlord-size` is not a policy (a size-scaled Landlord evicts
    /// exactly as `landlord`): asking for it is an ordinary unknown-policy
    /// error that lists the accepted names.
    #[test]
    fn deleted_landlord_size_lists_the_accepted_names() {
        let path = write_test_trace("deleted_landlord_size_lists_the_accepted_names");
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "60B",
                "--policy",
                "landlord-size",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let err = run(&args, &mut std::io::sink()).unwrap_err().to_string();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("unknown policy 'landlord-size'"), "{err}");
        for name in POLICY_NAMES {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn empty_queue_is_an_error() {
        let path = write_test_trace("empty_queue_is_an_error");
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "60B",
                "--queue",
                "0",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let err = run(&args, &mut std::io::sink()).unwrap_err().to_string();
        assert!(err.contains("--queue"), "{}", err);
        std::fs::remove_file(&path).ok();
    }
}
