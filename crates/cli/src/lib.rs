//! # fbc-cli — the `fbcache` command-line tool
//!
//! A front end over the whole workspace: generate synthetic file-bundle
//! workloads, replay traces through any replacement policy (optionally with
//! a queued admission scheduler), compare policies side by side, run the
//! discrete-event grid, and inspect traces.
//!
//! ```text
//! fbcache generate --output wl.trace --jobs 10000 --popularity zipf
//! fbcache info     --trace wl.trace
//! fbcache run      --trace wl.trace --cache 2GiB --policy optfilebundle
//! fbcache compare  --trace wl.trace --cache 2GiB --csv compare.csv
//! fbcache grid     --trace wl.trace --cache 2GiB --rate 2.0
//! ```

#![warn(missing_docs)]

pub mod args;
/// Subcommand implementations, one module per `fbcache <COMMAND>`.
pub mod commands {
    pub mod compare;
    pub mod generate;
    pub mod grid;
    pub mod hybrid;
    pub mod info;
    pub mod multi;
    pub mod run;
    pub mod scenario;
}
pub mod obs;
pub mod policies;

use args::{ArgError, Args};
use std::io::{self, Write};

/// Top-level usage text.
pub const USAGE: &str = "\
fbcache — file-bundle caching toolbox (Otoo, Rotem & Romosan, SC 2004)

Usage: fbcache <COMMAND> [flags]

Commands:
  generate   generate a synthetic workload and write its trace
  scenario   generate a domain-scenario trace (henp/climate/bitmap/federated)
  run        replay a trace through one replacement policy
  compare    run several policies over one trace, tabulated
  grid       run a trace through the discrete-event data-grid
  multi      run a trace through a multi-SRM cluster (dispatch comparison)
  hybrid     sweep the one-file-at-a-time job fraction
  info       summarise a trace
  help       show this message (or 'fbcache help <COMMAND>')
";

/// Why a command stopped early.
#[derive(Debug)]
pub enum CliError {
    /// Bad flags or unusable input: printed, exit code 1.
    Arg(ArgError),
    /// Writing the command's output failed.
    Output(io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Arg(e) => e.fmt(f),
            CliError::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Output(e)
    }
}

/// Dispatches a full argument vector (without the program name), with
/// command output on a locked stdout. Returns an exit code.
pub fn dispatch(argv: &[String]) -> i32 {
    dispatch_to(argv, &mut io::stdout().lock())
}

/// [`dispatch`] with command output written to `out`. An output closed
/// early (`BrokenPipe`, as in `fbcache info --trace T | head -1`) ends the
/// command quietly with exit code 0; any other write error is reported
/// with exit code 1.
pub fn dispatch_to(argv: &[String], out: &mut dyn Write) -> i32 {
    let Some(command) = argv.first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let rest = argv[1..].to_vec();
    let result: Result<(), CliError> = match command.as_str() {
        "generate" => parse_and(&rest, out, commands::generate::run),
        "scenario" => parse_and(&rest, out, commands::scenario::run),
        "run" => parse_and(&rest, out, commands::run::run),
        "compare" => parse_and(&rest, out, commands::compare::run),
        "grid" => parse_and(&rest, out, commands::grid::run),
        "multi" => parse_and(&rest, out, commands::multi::run),
        "hybrid" => parse_and(&rest, out, commands::hybrid::run),
        "info" => parse_and(&rest, out, commands::info::run),
        "help" | "--help" | "-h" => {
            let usage = match rest.first().map(String::as_str) {
                Some("generate") => commands::generate::USAGE,
                Some("scenario") => commands::scenario::USAGE,
                Some("run") => commands::run::USAGE,
                Some("compare") => commands::compare::USAGE,
                Some("grid") => commands::grid::USAGE,
                Some("multi") => commands::multi::USAGE,
                Some("hybrid") => commands::hybrid::USAGE,
                Some("info") => commands::info::USAGE,
                _ => USAGE,
            };
            out.write_all(usage.as_bytes()).map_err(CliError::from)
        }
        other => {
            eprintln!("unknown command '{other}'\n");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match result.and_then(|()| out.flush().map_err(CliError::from)) {
        Ok(()) => 0,
        Err(CliError::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

type Command = fn(&Args, &mut dyn Write) -> Result<(), CliError>;

fn parse_and(rest: &[String], out: &mut dyn Write, f: Command) -> Result<(), CliError> {
    let args = Args::parse(rest.iter().cloned())?;
    if args.has("help") {
        // Let the caller print command usage via `help <cmd>` instead;
        // here we simply succeed after printing nothing surprising.
        return Err(ArgError("use 'fbcache help <COMMAND>' for usage".into()).into());
    }
    f(&args, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_command_prints_usage_and_fails() {
        assert_eq!(dispatch(&[]), 2);
    }

    #[test]
    fn unknown_command_fails() {
        assert_eq!(dispatch(&argv(&["frobnicate"])), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(dispatch(&argv(&["help"])), 0);
        assert_eq!(dispatch(&argv(&["help", "generate"])), 0);
        assert_eq!(dispatch(&argv(&["--help"])), 0);
    }

    #[test]
    fn command_errors_are_exit_code_one() {
        // `run` without --trace.
        assert_eq!(dispatch(&argv(&["run", "--cache", "1GiB"])), 1);
    }

    /// Output whose reader has gone away (or failed) with `kind`.
    struct Closed(io::ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn closed_output_ends_the_command_quietly() {
        let trace = std::env::temp_dir().join("fbc_cli_closed_output.trace");
        let trace_s = trace.to_str().unwrap();
        let generate = argv(&["generate", "--output", trace_s, "--jobs", "20"]);
        assert_eq!(dispatch_to(&generate, &mut io::sink()), 0);
        let pipe = io::ErrorKind::BrokenPipe;
        for command in [
            argv(&["info", "--trace", trace_s]),
            argv(&["help"]),
            generate,
        ] {
            assert_eq!(dispatch_to(&command, &mut Closed(pipe)), 0, "{command:?}");
            let other = io::ErrorKind::Other;
            assert_eq!(dispatch_to(&command, &mut Closed(other)), 1, "{command:?}");
        }
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn full_generate_run_pipeline() {
        let dir = std::env::temp_dir();
        let trace = dir.join("fbc_cli_pipeline.trace");
        let trace_s = trace.to_str().unwrap();
        assert_eq!(
            dispatch(&argv(&[
                "generate",
                "--output",
                trace_s,
                "--jobs",
                "30",
                "--files",
                "40",
                "--pool",
                "15",
                "--cache-size",
                "1GiB",
            ])),
            0
        );
        assert_eq!(dispatch(&argv(&["info", "--trace", trace_s])), 0);
        assert_eq!(
            dispatch(&argv(&[
                "run", "--trace", trace_s, "--cache", "200MiB", "--policy", "ofb", "--queue", "5",
            ])),
            0
        );
        assert_eq!(
            dispatch(&argv(&[
                "compare",
                "--trace",
                trace_s,
                "--cache",
                "200MiB",
                "--policies",
                "lru,landlord",
            ])),
            0
        );
        std::fs::remove_file(&trace).ok();
    }
}
