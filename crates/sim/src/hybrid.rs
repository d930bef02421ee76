//! Hybrid execution model (paper §6, future work): a mix of jobs, some
//! executing *One File at a Time* and some *File-Bundle at a Time*.
//!
//! A file-at-a-time job processes its files sequentially: each file is
//! requested as a singleton bundle, so the cache never needs to co-locate
//! the job's files and the replacement policy sees `|F(r)|` small requests
//! instead of one large one. The job still completes only after all its
//! files have been processed; it counts as a *job hit* only if every file
//! was resident on arrival.

use crate::metrics::Metrics;
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::policy::CachePolicy;
use fbc_core::types::Bytes;
use fbc_workload::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a given job is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceModel {
    /// All files must be co-resident; one request per job (paper default).
    BundleAtATime,
    /// Files are requested one by one as singleton bundles.
    OneFileAtATime,
}

/// Per-model breakdown of a hybrid run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HybridMetrics {
    /// Totals over all jobs (job-level accounting).
    pub overall: Metrics,
    /// Jobs executed bundle-at-a-time.
    pub bundle_jobs: Metrics,
    /// Jobs executed one-file-at-a-time.
    pub single_jobs: Metrics,
}

/// Runs `policy` over `trace` in FCFS order against a cache of
/// `cache_size` bytes, with each job independently assigned the
/// one-file-at-a-time model with probability `single_fraction`
/// (deterministically, from `seed`).
///
/// ```
/// use fbc_baselines::Landlord;
/// use fbc_core::{bundle::Bundle, catalog::FileCatalog};
/// use fbc_sim::hybrid::run_hybrid;
/// use fbc_workload::Trace;
///
/// // A 3-file job in a 2-unit cache: impossible bundle-at-a-time,
/// // trivial one-file-at-a-time.
/// let trace = Trace::new(
///     FileCatalog::from_sizes(vec![1; 3]),
///     vec![Bundle::from_raw([0, 1, 2])],
/// );
/// let mut policy = Landlord::new();
/// let m = run_hybrid(&mut policy, &trace, 2, 1.0, 7);
/// assert_eq!(m.overall.serviced, 1);
/// ```
///
/// Job-level accounting: a file-at-a-time job contributes one job to the
/// metrics, with `requested`/`fetched` bytes summed over its per-file
/// requests, `hit` iff every file was already resident, and `serviced` iff
/// every file could be serviced.
pub fn run_hybrid(
    policy: &mut dyn CachePolicy,
    trace: &Trace,
    cache_size: Bytes,
    single_fraction: f64,
    seed: u64,
) -> HybridMetrics {
    assert!(
        (0.0..=1.0).contains(&single_fraction),
        "single_fraction must be in [0, 1], got {single_fraction}"
    );
    policy.prepare(&trace.requests);
    let catalog = &trace.catalog;
    let mut cache = CacheState::with_catalog(cache_size, catalog);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = HybridMetrics::default();

    for bundle in &trace.requests {
        let model = if rng.gen::<f64>() < single_fraction {
            ServiceModel::OneFileAtATime
        } else {
            ServiceModel::BundleAtATime
        };
        let job_outcome = match model {
            ServiceModel::BundleAtATime => policy.handle(bundle, &mut cache, catalog),
            ServiceModel::OneFileAtATime => {
                let mut agg = fbc_core::policy::RequestOutcome {
                    hit: true,
                    serviced: true,
                    ..Default::default()
                };
                for f in bundle.iter() {
                    let single = Bundle::new([f]);
                    let o = policy.handle(&single, &mut cache, catalog);
                    agg.hit &= o.hit;
                    agg.serviced &= o.serviced;
                    agg.requested_bytes += o.requested_bytes;
                    agg.fetched_bytes += o.fetched_bytes;
                    agg.evicted_bytes += o.evicted_bytes;
                    agg.fetched_files.extend(o.fetched_files);
                    agg.evicted_files.extend(o.evicted_files);
                }
                agg
            }
        };
        debug_assert!(cache.check_invariants());
        out.overall.record(&job_outcome);
        match model {
            ServiceModel::BundleAtATime => out.bundle_jobs.record(&job_outcome),
            ServiceModel::OneFileAtATime => out.single_jobs.record(&job_outcome),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_trace, RunConfig};
    use fbc_baselines::Landlord;
    use fbc_core::catalog::FileCatalog;
    use fbc_core::optfilebundle::OptFileBundle;
    use fbc_obs::Obs;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    fn trace() -> Trace {
        let catalog = FileCatalog::from_sizes(vec![1; 8]);
        let jobs = vec![
            b(&[0, 1, 2]),
            b(&[3, 4]),
            b(&[0, 1, 2]),
            b(&[5, 6, 7]),
            b(&[0, 1, 2]),
        ];
        Trace::new(catalog, jobs)
    }

    #[test]
    fn fraction_zero_equals_plain_run() {
        let t = trace();
        let mut p1 = OptFileBundle::new();
        let plain = run_trace(&mut p1, &t, &RunConfig::new(5), &Obs::disabled());
        let mut p2 = OptFileBundle::new();
        let hybrid = run_hybrid(&mut p2, &t, 5, 0.0, 1);
        assert_eq!(hybrid.overall, plain);
        assert_eq!(hybrid.single_jobs.jobs, 0);
    }

    #[test]
    fn fraction_one_serves_files_individually() {
        let t = trace();
        let cache = 5;
        let mut p = Landlord::new();
        let hybrid = run_hybrid(&mut p, &t, cache, 1.0, 1);
        assert_eq!(hybrid.bundle_jobs.jobs, 0);
        assert_eq!(hybrid.single_jobs.jobs, 5);
        // Job-level totals preserved.
        assert_eq!(hybrid.overall.jobs, 5);
        assert_eq!(hybrid.overall.requested_bytes, 3 + 2 + 3 + 3 + 3);
    }

    #[test]
    fn file_at_a_time_fits_jobs_larger_than_cache() {
        // A 3-file job cannot run bundle-at-a-time in a 2-unit cache, but
        // file-at-a-time it can.
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let t = Trace::new(catalog, vec![b(&[0, 1, 2])]);
        let cache = 2;
        let mut p = Landlord::new();
        let bundle_mode = run_hybrid(&mut p, &t, cache, 0.0, 1);
        assert_eq!(bundle_mode.overall.serviced, 0);
        let mut p = Landlord::new();
        let single_mode = run_hybrid(&mut p, &t, cache, 1.0, 1);
        assert_eq!(single_mode.overall.serviced, 1);
    }

    #[test]
    fn job_hit_requires_every_file_hit() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let t = Trace::new(catalog, vec![b(&[0, 1]), b(&[1, 2]), b(&[0, 1])]);
        let cache = 4;
        let mut p = Landlord::new();
        let m = run_hybrid(&mut p, &t, cache, 1.0, 1);
        // Job 2 ({1,2}): file 1 hits, file 2 misses -> not a job hit.
        // Job 3 ({0,1}): both resident -> job hit.
        assert_eq!(m.overall.hits, 1);
    }

    #[test]
    fn deterministic_per_seed_and_split_sums_to_overall() {
        let t = trace();
        let cache = 4;
        let run = |seed: u64| {
            let mut p = OptFileBundle::new();
            run_hybrid(&mut p, &t, cache, 0.5, seed)
        };
        assert_eq!(run(9), run(9));
        let m = run(9);
        assert_eq!(m.bundle_jobs.jobs + m.single_jobs.jobs, m.overall.jobs);
        assert_eq!(
            m.bundle_jobs.fetched_bytes + m.single_jobs.fetched_bytes,
            m.overall.fetched_bytes
        );
    }

    #[test]
    #[should_panic(expected = "single_fraction")]
    fn invalid_fraction_rejected() {
        let t = trace();
        let mut p = Landlord::new();
        let _ = run_hybrid(&mut p, &t, 4, 1.5, 0);
    }
}
