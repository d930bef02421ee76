//! `fbcache grid` — replay a trace through the discrete-event data-grid
//! (SRM + MSS + WAN) and report response times and throughput.

use crate::args::{ArgError, Args};
use crate::obs::{emit, obs_from_args};
use crate::policies::{policy_by_name, policy_kind_by_name, POLICY_NAMES};
use crate::CliError;
use fbc_core::policy::SendPolicy;
use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
use fbc_grid::concurrent::{run_concurrent_grid_observed, ConcurrentConfig};
use fbc_grid::engine::{run_grid_observed, GridConfig};
use fbc_grid::faults::{FaultPlan, PRESET_NAMES};
use fbc_grid::mss::MssConfig;
use fbc_grid::network::LinkConfig;
use fbc_grid::shard::ShardBy;
use fbc_grid::srm::{RetryPolicy, SrmConfig};
use fbc_grid::time::SimDuration;
use fbc_workload::Trace;
use std::io::Write;

/// Usage text for `grid`.
pub const USAGE: &str = "\
fbcache grid --trace <FILE> --cache <SIZE> [options]

Run a trace through the discrete-event data-grid simulation.

Options:
  --trace FILE          input trace (required)
  --cache SIZE          SRM disk-cache capacity (required)
  --policy NAME         replacement policy [optfilebundle]
  --rate R              Poisson arrival rate, jobs/second [2.0]
  --arrival-seed N      arrival-process seed [1]
  --concurrency N       jobs in service at once [4]
  --drives N            MSS tape drives [4]
  --mount-secs S        MSS mount latency in seconds [5]
  --drive-mbps M        per-drive bandwidth, MB/s [60]
  --link-ms MS          WAN latency in milliseconds [10]
  --link-mbps M         WAN bandwidth, MB/s [125]
  --faults SPEC         fault-injection plan: 'preset:NAME' (one of:
                        tape-outage, flaky-wan, blackout) or ';'-separated
                        clauses like 'drive=0,60,300;transient=0.01;seed=7'
  --max-retries N       fetch retries before a job fails [5]
  --fetch-timeout-secs S  abandon a fetch attempt after S seconds [none]
  --shards N            split the SRM into N decision shards [1]
  --workers M           worker threads executing shards [= shards]
  --shard-by MODE       shard routing: 'file' (lead file) or 'bundle' [file]
  --obs                 print the observability counter table after the run
  --obs-trace FILE      write the JSONL event trace to FILE (implies --obs)
  --profile             --obs plus wall-clock span durations (`*.wall_ns`
                        rows); machine-dependent, not byte-reproducible

With --shards 1 (the default) the run is the single-threaded engine,
byte-identical to previous releases; --shards N splits the cache and the
request stream over N independent shard engines (see DESIGN.md §12).
";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "trace",
        "cache",
        "policy",
        "rate",
        "arrival-seed",
        "concurrency",
        "drives",
        "mount-secs",
        "drive-mbps",
        "link-ms",
        "link-mbps",
        "faults",
        "max-retries",
        "fetch-timeout-secs",
        "shards",
        "workers",
        "shard-by",
        "obs",
        "obs-trace",
        "profile",
    ])?;
    let trace_path = args.require("trace")?;
    let cache = args.get_bytes_or("cache", 0)?;
    if cache == 0 {
        return Err(ArgError("missing required flag --cache".into()).into());
    }
    let policy_name = args.get("policy").unwrap_or("optfilebundle");
    let mut policy = policy_by_name(policy_name).ok_or_else(|| {
        ArgError(format!(
            "unknown policy '{policy_name}' (one of: {})",
            POLICY_NAMES.join(", ")
        ))
    })?;

    let fetch_timeout = match args.get("fetch-timeout-secs") {
        Some(_) => Some(SimDuration::from_secs_f64(
            args.get_positive_or("fetch-timeout-secs", 0.0)?,
        )),
        None => None,
    };
    let config = GridConfig {
        srm: SrmConfig {
            cache_size: cache,
            max_concurrent_jobs: args.get_count_or("concurrency", 4)?,
            ..SrmConfig::default()
        },
        mss: MssConfig {
            drives: args.get_count_or("drives", 4)?,
            mount_latency: SimDuration::from_secs_f64(args.get_non_negative_or("mount-secs", 5.0)?),
            drive_bandwidth: args.get_positive_or("drive-mbps", 60.0)? * 1e6,
        },
        link: LinkConfig {
            latency: SimDuration::from_secs_f64(args.get_non_negative_or("link-ms", 10.0)? / 1e3),
            bandwidth: args.get_positive_or("link-mbps", 125.0)? * 1e6,
        },
        retry: RetryPolicy {
            max_retries: args.get_or("max-retries", 5u32)?,
            fetch_timeout,
            ..RetryPolicy::default()
        },
    };
    let rate = args.get_positive_or("rate", 2.0)?;
    let seed: u64 = args.get_or("arrival-seed", 1u64)?;
    let plan =
        match args.get("faults") {
            Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| {
                ArgError(format!("bad --faults spec: {e} (presets: {PRESET_NAMES})"))
            })?),
            None => None,
        };
    if let Some(plan) = &plan {
        plan.validate_for_drives(config.mss.drives)
            .map_err(|e| ArgError(format!("bad --faults spec: {e}")))?;
    }

    let shards = args.get_count_or("shards", 1)?;
    let workers: usize = args.get_or("workers", shards)?;
    let shard_by = match args.get("shard-by") {
        Some(s) => ShardBy::parse(s).ok_or_else(|| {
            ArgError(format!("bad --shard-by value '{s}' (one of: file, bundle)"))
        })?,
        None => ShardBy::File,
    };
    // Any sharding flag routes through the concurrent front-end, so
    // `--shards 1` exercises (and demonstrates) its engine equivalence.
    let concurrent = args.get("shards").is_some()
        || args.get("workers").is_some()
        || args.get("shard-by").is_some();

    let trace =
        Trace::load(trace_path).map_err(|e| ArgError(format!("cannot read {trace_path}: {e}")))?;
    let arrivals = schedule_arrivals(&trace.requests, ArrivalProcess::Poisson { rate, seed });
    let obs = obs_from_args(args);
    let stats = if concurrent {
        let kind = policy_kind_by_name(policy_name)
            .expect("policy name was validated by policy_by_name above");
        let factory = move || -> SendPolicy { kind.build_send() };
        let cfg = ConcurrentConfig {
            grid: config,
            shards,
            workers,
            shard_by,
        };
        let cstats = run_concurrent_grid_observed(
            &factory,
            &trace.catalog,
            &arrivals,
            &cfg,
            plan.as_ref(),
            &obs,
        );
        let routed: Vec<String> = cstats.routed.iter().map(|n| n.to_string()).collect();
        writeln!(
            out,
            "shards:            {shards} ({} routing, {} workers)",
            shard_by.label(),
            workers.clamp(1, shards)
        )?;
        writeln!(out, "routed:            [{}]", routed.join(", "))?;
        cstats.overall
    } else {
        run_grid_observed(
            policy.as_mut(),
            &trace.catalog,
            &arrivals,
            &config,
            plan.as_ref(),
            &obs,
        )
    };

    writeln!(out, "policy:            {}", policy.name())?;
    writeln!(out, "completed:         {}", stats.completed)?;
    writeln!(out, "failed:            {}", stats.failed)?;
    writeln!(out, "rejected:          {}", stats.rejected)?;
    writeln!(out, "availability:      {:.4}", stats.availability())?;
    writeln!(
        out,
        "byte miss ratio:   {:.4}",
        stats.cache.byte_miss_ratio()
    )?;
    writeln!(out, "fetch attempts:    {}", stats.fetch_attempts)?;
    writeln!(out, "fetch retries:     {}", stats.fetch_retries)?;
    writeln!(out, "fetch timeouts:    {}", stats.fetch_timeouts)?;
    writeln!(out, "transient errors:  {}", stats.transient_fetch_errors)?;
    writeln!(out, "mean response:     {}", stats.mean_response())?;
    writeln!(
        out,
        "p50 response:      {}",
        stats.percentile_response(0.50)
    )?;
    writeln!(
        out,
        "p95 response:      {}",
        stats.percentile_response(0.95)
    )?;
    writeln!(
        out,
        "p99 response:      {}",
        stats.percentile_response(0.99)
    )?;
    writeln!(out, "makespan:          {}", stats.makespan)?;
    writeln!(out, "throughput:        {:.3} jobs/s", stats.throughput())?;
    emit(&obs, args, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;

    #[test]
    fn grid_command_end_to_end() {
        let path = std::env::temp_dir().join("fbc_cli_grid_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1_000_000; 4]),
            vec![
                Bundle::from_raw([0, 1]),
                Bundle::from_raw([2, 3]),
                Bundle::from_raw([0, 1]),
            ],
        )
        .save(&path)
        .unwrap();
        let args = Args::parse(
            [
                "--trace",
                path.to_str().unwrap(),
                "--cache",
                "4MiB",
                "--rate",
                "10",
                "--mount-secs",
                "0.5",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grid_obs_trace_is_deterministic_under_faults() {
        let path = std::env::temp_dir().join("fbc_cli_grid_obs_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1_000_000; 4]),
            vec![
                Bundle::from_raw([0, 1]),
                Bundle::from_raw([2, 3]),
                Bundle::from_raw([0, 1]),
            ],
        )
        .save(&path)
        .unwrap();
        let out = std::env::temp_dir().join("fbc_cli_grid_obs_test.jsonl");
        let out_s = out.to_str().unwrap().to_string();
        let argv = [
            "--trace",
            path.to_str().unwrap(),
            "--cache",
            "4MiB",
            "--mount-secs",
            "0.5",
            "--faults",
            "transient=0.2;seed=9",
            "--obs-trace",
            &out_s,
        ];
        let args = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        assert!(first.contains("\"ev\":\"arrival\""));
        assert!(first.contains("\"ev\":\"fetch\""));
        run(&args, &mut std::io::sink()).unwrap();
        assert_eq!(first, std::fs::read_to_string(&out).unwrap());
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grid_command_sharded_run_and_flag_validation() {
        let path = std::env::temp_dir().join("fbc_cli_grid_shards_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1_000_000; 8]),
            (0..20u32)
                .map(|i| Bundle::from_raw([i % 8, (i * 3 + 1) % 8]))
                .collect::<Vec<_>>(),
        )
        .save(&path)
        .unwrap();
        let base = [
            "--trace",
            path.to_str().unwrap(),
            "--cache",
            "16MiB",
            "--mount-secs",
            "0.5",
        ];
        let with =
            |extra: &[&str]| Args::parse(base.iter().chain(extra).map(|s| s.to_string())).unwrap();
        run(
            &with(&["--shards", "4", "--workers", "2"]),
            &mut std::io::sink(),
        )
        .unwrap();
        run(
            &with(&["--shards", "2", "--shard-by", "bundle"]),
            &mut std::io::sink(),
        )
        .unwrap();
        // shards=1 still goes through the concurrent front-end cleanly.
        run(&with(&["--shards", "1"]), &mut std::io::sink()).unwrap();
        assert!(run(&with(&["--shards", "0"]), &mut std::io::sink()).is_err());
        assert!(run(
            &with(&["--shards", "2", "--shard-by", "nope"]),
            &mut std::io::sink()
        )
        .is_err());
        // Values an engine would assert on, or silently misread, are
        // rejected at the flag.
        for bad in [
            ["--drives", "0"],
            ["--drive-mbps", "0"],
            ["--drive-mbps", "nan"],
            ["--link-mbps", "0"],
            ["--link-mbps", "-1"],
            ["--rate", "0"],
            ["--rate", "-2"],
            ["--rate", "nan"],
            ["--concurrency", "0"],
            ["--fetch-timeout-secs", "nan"],
            ["--fetch-timeout-secs", "-1"],
            ["--link-ms", "inf"],
            ["--mount-secs", "inf"],
        ] {
            let err = run(&with(&bad), &mut std::io::sink())
                .unwrap_err()
                .to_string();
            assert!(err.contains(&bad[0][2..]), "{bad:?}: {}", err);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grid_command_accepts_faults_flag() {
        let path = std::env::temp_dir().join("fbc_cli_grid_faults_test.trace");
        Trace::new(
            FileCatalog::from_sizes(vec![1_000_000; 2]),
            vec![Bundle::from_raw([0]), Bundle::from_raw([1])],
        )
        .save(&path)
        .unwrap();
        let base = [
            "--trace",
            path.to_str().unwrap(),
            "--cache",
            "4MiB",
            "--mount-secs",
            "0.5",
        ];
        let with =
            |extra: &[&str]| Args::parse(base.iter().chain(extra).map(|s| s.to_string())).unwrap();
        // A blackout with a tiny retry budget still terminates.
        run(
            &with(&["--faults", "preset:blackout", "--max-retries", "1"]),
            &mut std::io::sink(),
        )
        .unwrap();
        // Inline clause spec with a timeout.
        run(
            &with(&[
                "--faults",
                "drive=*,0,2;seed=3",
                "--fetch-timeout-secs",
                "1",
            ]),
            &mut std::io::sink(),
        )
        .unwrap();
        // Garbage specs are rejected with a helpful error.
        assert!(run(&with(&["--faults", "nonsense"]), &mut std::io::sink()).is_err());
        assert!(run(&with(&["--faults", "preset:unknown"]), &mut std::io::sink()).is_err());
        // An out-of-range drive index is a clean error, not a panic.
        let err = run(&with(&["--faults", "drive=9,0,10"]), &mut std::io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("drive 9"), "unhelpful error: {}", err);
        std::fs::remove_file(&path).ok();
    }
}
