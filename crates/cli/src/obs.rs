//! Shared `--obs` / `--obs-trace` / `--profile` plumbing for the
//! observable subcommands (`run`, `grid`).
//!
//! Any of the flags enables an [`Obs`] sink for the run: `--obs` prints
//! the deterministic counter table after the normal report, `--obs-trace
//! FILE` additionally writes the JSONL event trace to `FILE`. With a
//! fixed seed the table and the trace are byte-identical across runs —
//! see the determinism contract in `fbc-obs`. `--profile` adds wall-clock
//! span durations (the `*.wall_ns` histogram rows, and a `wall_ns` field
//! on span events), which are machine-dependent and void that contract.

use crate::args::{ArgError, Args};
use fbc_obs::{Obs, ObsConfig};

/// Builds the run's sink: enabled iff `--obs`, `--obs-trace` or
/// `--profile` was given, recording wall-clock spans iff `--profile` was.
pub fn obs_from_args(args: &Args) -> Obs {
    if args.has("profile") {
        Obs::with_config(ObsConfig {
            wall_clock: true,
            ..ObsConfig::default()
        })
    } else if args.has("obs") || args.has("obs-trace") {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Writes the trace file and prints the counter table as the flags ask.
/// A disabled handle is a no-op, so callers invoke this unconditionally.
pub fn emit(obs: &Obs, args: &Args) -> Result<(), ArgError> {
    if !obs.is_enabled() {
        return Ok(());
    }
    if let Some(path) = args.get("obs-trace") {
        std::fs::write(path, obs.jsonl())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!(
            "trace:             {path} ({} events, {} dropped)",
            obs.events_recorded(),
            obs.events_dropped()
        );
    }
    println!();
    print!("{}", obs.render_table());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn no_flags_means_disabled() {
        let obs = obs_from_args(&parse(&[]));
        assert!(!obs.is_enabled());
        emit(&obs, &parse(&[])).unwrap();
    }

    #[test]
    fn any_flag_enables() {
        assert!(obs_from_args(&parse(&["--obs"])).is_enabled());
        assert!(obs_from_args(&parse(&["--obs-trace", "/tmp/x.jsonl"])).is_enabled());
        assert!(obs_from_args(&parse(&["--profile"])).is_enabled());
    }

    /// Replays a small trace whose misses force replacement decisions,
    /// through a sink built from `flags`; returns its table and trace.
    fn observed_run(flags: &[&str]) -> (String, String) {
        use fbc_core::bundle::Bundle;
        use fbc_core::catalog::FileCatalog;
        use fbc_core::optfilebundle::OptFileBundle;
        use fbc_sim::runner::{run_trace, RunConfig};
        use fbc_workload::Trace;
        let trace = Trace::new(
            FileCatalog::from_sizes(vec![10; 8]),
            (0..40u32)
                .map(|i| Bundle::from_raw([i % 8, (i * 3 + 1) % 8]))
                .collect(),
        );
        let obs = obs_from_args(&parse(flags));
        run_trace(&mut OptFileBundle::new(), &trace, &RunConfig::new(40), &obs);
        (obs.render_table(), obs.jsonl())
    }

    /// A table's rows as whitespace-split cells, so two tables compare
    /// whatever their column width.
    fn rows(table: &str) -> Vec<Vec<&str>> {
        table
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect()
    }

    #[test]
    fn profile_adds_wall_clock_rows_and_nothing_else() {
        let (table, trace) = observed_run(&["--obs"]);
        assert_eq!((table.clone(), trace), observed_run(&["--obs"]));
        assert!(!table.contains(".wall_ns"));
        let (profiled, _) = observed_run(&["--profile"]);
        for span in ["ofb.delta_apply", "ofb.greedy_select", "ofb.evict"] {
            assert!(profiled.contains(&format!("{span}.wall_ns ")), "{profiled}");
        }
        let mut deterministic = rows(&profiled);
        deterministic.retain(|row| !row[0].ends_with(".wall_ns"));
        assert_eq!(deterministic, rows(&table));
    }

    #[test]
    fn emit_writes_the_trace_file() {
        let path = std::env::temp_dir().join("fbc_cli_obs_emit_test.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let args = parse(&["--obs-trace", &path_s]);
        let obs = obs_from_args(&args);
        obs.set_now(1);
        obs.event("e", &[]);
        emit(&obs, &args).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, "{\"t\":1,\"ev\":\"e\"}\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_trace_path_is_a_clean_error() {
        let args = parse(&["--obs-trace", "/nonexistent-dir/x.jsonl"]);
        let obs = obs_from_args(&args);
        assert!(emit(&obs, &args).is_err());
    }
}
