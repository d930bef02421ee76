//! `fbcache scenario` — generate a domain-scenario trace (HENP, climate,
//! bitmap-index or the federated mix) instead of the §5.1 synthetic model.

use crate::args::{ArgError, Args};
use crate::CliError;
use fbc_core::bundle::Bundle;
use fbc_core::catalog::FileCatalog;
use fbc_workload::scenarios::{
    BitmapConfig, BitmapScenario, ClimateConfig, ClimateScenario, FederatedConfig,
    FederatedScenario, HenpConfig, HenpScenario,
};
use fbc_workload::{PopularitySampler, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Usage text for `scenario`.
pub const USAGE: &str = "\
fbcache scenario --kind <KIND> --output <FILE> [options]

Generate a domain-flavoured workload trace (paper §1.1's motivating
applications) instead of the synthetic §5.1 model.

Options:
  --kind KIND        henp | climate | bitmap | federated (required)
  --output FILE      output trace path (required)
  --jobs N           number of jobs drawn from the scenario pool [5000]
  --popularity DIST  uniform | zipf | zipf:<theta> [zipf]
  --seed N           RNG seed for the job draw [11]
";

/// Builds the catalog and request pool for a scenario kind.
pub fn build_pool(kind: &str) -> Result<(FileCatalog, Vec<Bundle>), ArgError> {
    match kind.to_ascii_lowercase().as_str() {
        "henp" => {
            let s = HenpScenario::generate(HenpConfig::default());
            Ok((s.catalog, s.pool))
        }
        "climate" => {
            let s = ClimateScenario::generate(ClimateConfig::default());
            Ok((s.catalog, s.pool))
        }
        "bitmap" => {
            let s = BitmapScenario::generate(BitmapConfig::default());
            Ok((s.catalog, s.pool))
        }
        "federated" => {
            let s = FederatedScenario::generate(FederatedConfig::default());
            let pool = s.pool.into_iter().map(|(_, b)| b).collect();
            Ok((s.catalog, pool))
        }
        other => Err(ArgError(format!(
            "unknown scenario '{other}' (henp | climate | bitmap | federated)"
        ))),
    }
}

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["kind", "output", "jobs", "popularity", "seed"])?;
    let kind = args.require("kind")?;
    let output = args.require("output")?.to_string();
    let jobs: usize = args.get_or("jobs", 5_000usize)?;
    let popularity =
        crate::commands::generate::parse_popularity(args.get("popularity").unwrap_or("zipf"))?;
    let seed: u64 = args.get_or("seed", 11u64)?;

    let (catalog, pool) = build_pool(kind)?;
    if pool.is_empty() {
        return Err(ArgError("scenario produced an empty pool".into()).into());
    }
    let sampler = PopularitySampler::new(popularity, pool.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let requests: Vec<Bundle> = (0..jobs)
        .map(|_| pool[sampler.sample(&mut rng)].clone())
        .collect();
    writeln!(
        out,
        "{kind} scenario: {} files ({}), {} distinct requests, {jobs} jobs ({})",
        catalog.len(),
        fbc_core::types::format_bytes(catalog.total_bytes()),
        pool.len(),
        popularity.label(),
    )?;
    let trace = Trace::new(catalog, requests);
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
    fn every_kind_builds_a_pool() {
        for kind in ["henp", "climate", "bitmap", "federated"] {
            let (catalog, pool) = build_pool(kind).unwrap();
            assert!(!catalog.is_empty(), "{kind}");
            assert!(!pool.is_empty(), "{kind}");
            for b in &pool {
                assert!(b.iter().all(|f| catalog.contains(f)), "{kind}");
            }
        }
        assert!(build_pool("weather").is_err());
    }

    #[test]
    fn scenario_command_writes_a_loadable_trace() {
        let path = std::env::temp_dir().join("fbc_cli_scenario_test.trace");
        let args = Args::parse(
            [
                "--kind",
                "bitmap",
                "--output",
                path.to_str().unwrap(),
                "--jobs",
                "40",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args, &mut std::io::sink()).unwrap();
        let trace = Trace::load(&path).unwrap();
        assert_eq!(trace.len(), 40);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_required_flags_error() {
        let args = Args::parse(["--kind", "henp"].iter().map(|s| s.to_string())).unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
        let args = Args::parse(std::iter::empty()).unwrap();
        assert!(run(&args, &mut std::io::sink()).is_err());
    }
}
