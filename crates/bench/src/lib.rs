//! # fbc-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index), plus the `perf_*` gates. Every binary prints the rows /
//! series the paper reports and writes a CSV under `results/`.
//!
//! Common parameters follow §5.1/§5.2: a 10 GiB cache, a file population
//! totalling ~8x the cache with sizes uniform in `[1 MiB, frac · cache]`, a
//! pool of 400 distinct requests, and
//! 10 000 jobs drawn under uniform or Zipf popularity. Cache sizes are
//! reported "by the number of requests that can be accommodated in the
//! cache" (§5), i.e. as multiples of the mean request size.
//!
//! Set `FBC_QUICK=1` to shrink job counts ~10× (CI / smoke runs), and
//! `FBC_RESULTS=<dir>` to redirect CSV output.
//!
//! The four `perf_*` gates (`perf_decision`, `perf_eviction`, `perf_grid`,
//! `perf_online`) measure only through [`measure`]: one clock with
//! warmup, repeats and an interleaved paired ratio, one deterministic
//! generator, one `BENCH_core.json` section per bin, and one
//! committed-baseline check.

#![warn(missing_docs)]

pub mod measure;

use fbc_core::policy::CachePolicy;
use fbc_core::types::{Bytes, GIB};
use fbc_obs::Obs;
use fbc_sim::metrics::Metrics;
use fbc_sim::runner::{run_trace, RunConfig};
use fbc_workload::{Popularity, Trace, Workload, WorkloadConfig};
use std::path::PathBuf;

/// Where experiment CSVs go (`FBC_RESULTS`, default `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FBC_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Whether to run in quick mode (`FBC_QUICK=1`): ~10× fewer jobs.
pub fn quick_mode() -> bool {
    std::env::var_os("FBC_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Number of jobs per run: 10 000 as in the paper, 1 000 in quick mode.
pub fn default_jobs() -> usize {
    if quick_mode() {
        1_000
    } else {
        10_000
    }
}

/// The base cache size all workloads are generated against.
pub const BASE_CACHE: Bytes = 10 * GIB;

/// The paper's standard workload configuration.
///
/// `max_file_frac` is the §5.1 "maximum size expressed as a percentage of
/// defined cache size": 0.01 for the *small files* experiments (Fig. 6),
/// 0.10 for *large files* (Fig. 7).
pub fn paper_workload(popularity: Popularity, max_file_frac: f64, seed: u64) -> WorkloadConfig {
    // The file population scales inversely with file size so that its
    // total is ~8x the cache in both the small-file (1%) and large-file
    // (10%) settings -- without capacity pressure every policy degenerates
    // to cold misses. 1600 files for Fig. 6, 160 for Fig. 7.
    let num_files = ((16.0 / max_file_frac).round() as usize).clamp(100, 10_000);
    WorkloadConfig {
        cache_size: BASE_CACHE,
        num_files,
        max_file_frac,
        pool_requests: 400,
        jobs: default_jobs(),
        files_per_request: (2, 6),
        popularity,
        seed,
    }
}

/// A generated workload together with the derived quantities experiments
/// sweep over.
pub struct Experiment {
    /// The workload (catalog + pool + job sequence).
    pub workload: Workload,
    /// Replayable trace view of the workload.
    pub trace: Trace,
    /// Mean request size in bytes.
    pub mean_request: f64,
}

impl Experiment {
    /// Generates a workload and its trace.
    pub fn generate(config: WorkloadConfig) -> Self {
        let workload = Workload::generate(config);
        let mean_request = workload.mean_request_bytes();
        let trace = Trace::new(workload.catalog.clone(), workload.jobs.clone());
        Self {
            workload,
            trace,
            mean_request,
        }
    }

    /// The cache size (bytes) that holds `k` average requests — the paper's
    /// unit for reporting cache sizes.
    pub fn cache_for_requests(&self, k: f64) -> Bytes {
        (self.mean_request * k).round() as Bytes
    }

    /// Runs a fresh policy built by `make` over the trace at the given
    /// cache size.
    pub fn run<P: CachePolicy>(&self, mut policy: P, cache_size: Bytes) -> Metrics {
        run_trace(
            &mut policy,
            &self.trace,
            &RunConfig::new(cache_size),
            &Obs::disabled(),
        )
    }
}

/// The request-size sweep of Figs. 6–8: bundle-cardinality ranges. The
/// paper fixes the cache and "varie\[s\] the size of the incoming requests,
/// implicitly varying the size of the cache" measured in requests — larger
/// bundles mean fewer requests fit.
pub const REQUEST_SIZE_SWEEP: [(usize, usize); 5] = [(1, 2), (2, 4), (4, 8), (8, 16), (16, 24)];

/// One cell of the policy × popularity × request-size sweep matrix.
#[derive(Debug, Clone)]
pub struct MatrixPoint {
    /// The bundle-cardinality range of this workload.
    pub bundle_range: (usize, usize),
    /// Measured cache size in average requests (`BASE_CACHE` / mean
    /// request bytes) — the x-axis unit the paper reports.
    pub requests_per_cache: f64,
    /// Popularity distribution of the workload.
    pub popularity: Popularity,
    /// Policy name.
    pub policy: String,
    /// Full run metrics.
    pub metrics: Metrics,
}

/// Runs the Figs. 6–8 sweep: `OptFileBundle` vs. `Landlord`, uniform and
/// Zipf popularity, request sizes of [`REQUEST_SIZE_SWEEP`], a fixed
/// [`BASE_CACHE`]-sized cache, and files capped at `max_file_frac` of the
/// cache (0.01 for Fig. 6 "small files", 0.10 for Fig. 7 "large files").
///
/// Points are computed in parallel; the returned vector is ordered
/// (popularity, range, policy) with policy order `[OptFileBundle, Landlord]`.
pub fn policy_cache_sweep(max_file_frac: f64, seed: u64) -> Vec<MatrixPoint> {
    use fbc_baselines::Landlord;
    use fbc_core::optfilebundle::OptFileBundle;

    let pops = [Popularity::Uniform, Popularity::zipf()];
    // One workload per (popularity, bundle range).
    let experiments: Vec<(Popularity, (usize, usize), Experiment)> = pops
        .iter()
        .flat_map(|&p| {
            REQUEST_SIZE_SWEEP.iter().map(move |&range| {
                let mut cfg = paper_workload(p, max_file_frac, seed);
                cfg.files_per_request = range;
                (p, range, Experiment::generate(cfg))
            })
        })
        .collect();

    let mut cells: Vec<(usize, bool)> = Vec::new(); // (experiment idx, is_ofb)
    for ei in 0..experiments.len() {
        cells.push((ei, true));
        cells.push((ei, false));
    }
    let results = fbc_sim::sweep::parallel_sweep(
        &cells,
        fbc_sim::sweep::default_threads(),
        |&(ei, is_ofb)| {
            let exp = &experiments[ei].2;
            if is_ofb {
                exp.run(OptFileBundle::new(), BASE_CACHE)
            } else {
                exp.run(Landlord::new(), BASE_CACHE)
            }
        },
    );
    cells
        .into_iter()
        .zip(results)
        .map(|((ei, is_ofb), metrics)| {
            let (pop, range, ref exp) = experiments[ei];
            MatrixPoint {
                bundle_range: range,
                requests_per_cache: BASE_CACHE as f64 / exp.mean_request,
                popularity: pop,
                policy: if is_ofb { "OptFileBundle" } else { "Landlord" }.to_string(),
                metrics,
            }
        })
        .collect()
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::optfilebundle::OptFileBundle;

    #[test]
    fn experiment_generates_consistent_views() {
        let cfg = WorkloadConfig {
            jobs: 100,
            ..paper_workload(Popularity::Uniform, 0.01, 1)
        };
        let e = Experiment::generate(cfg);
        assert_eq!(e.trace.requests.len(), 100);
        assert!(e.mean_request > 0.0);
        assert!(e.cache_for_requests(4.0) > e.cache_for_requests(2.0));
    }

    #[test]
    fn run_produces_metrics() {
        let cfg = WorkloadConfig {
            jobs: 50,
            ..paper_workload(Popularity::zipf(), 0.01, 2)
        };
        let e = Experiment::generate(cfg);
        let m = e.run(OptFileBundle::new(), e.cache_for_requests(4.0));
        assert_eq!(m.jobs, 50);
        assert!(m.byte_miss_ratio() > 0.0); // cold misses at least
    }
}
