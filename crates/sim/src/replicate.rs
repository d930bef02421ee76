//! Multi-seed replication: run the same experiment across independent
//! workload seeds and summarise the metric with mean and standard
//! deviation — the paper's curves are single runs, but any serious
//! comparison of two policies needs variance estimates.

use crate::sweep::parallel_sweep;

/// Summary statistics of a replicated scalar metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    /// Number of replications.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Replicated {
    /// Summarises a slice of observations.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one replication");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Half-width of the ~95% normal-approximation confidence interval
    /// (`1.96 · s/√n`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n <= 1 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }

    /// Whether this metric is lower than `other` with non-overlapping 95%
    /// intervals — a cheap significance check for policy comparisons.
    pub fn significantly_below(&self, other: &Replicated) -> bool {
        self.mean + self.ci95_half_width() < other.mean - other.ci95_half_width()
    }
}

/// Runs `experiment(seed)` for each seed in parallel and summarises the
/// returned scalar.
///
/// ```
/// use fbc_sim::replicate::replicate;
/// let r = replicate(&[1, 2, 3, 4], 2, |seed| seed as f64 * 10.0);
/// assert_eq!(r.n, 4);
/// assert_eq!(r.mean, 25.0);
/// assert_eq!((r.min, r.max), (10.0, 40.0));
/// ```
pub fn replicate<F>(seeds: &[u64], threads: usize, experiment: F) -> Replicated
where
    F: Fn(u64) -> f64 + Sync,
{
    let samples = parallel_sweep(seeds, threads, |&s| experiment(s));
    Replicated::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let r = Replicated::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(r.n, 3);
        assert!((r.mean - 2.0).abs() < 1e-12);
        assert!((r.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 3.0);
        assert!(r.ci95_half_width() > 0.0);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let r = Replicated::from_samples(&[5.0]);
        assert_eq!(r.std_dev, 0.0);
        assert_eq!(r.ci95_half_width(), 0.0);
    }

    #[test]
    fn significance_requires_separation() {
        let low = Replicated::from_samples(&[1.0, 1.1, 0.9, 1.0]);
        let high = Replicated::from_samples(&[2.0, 2.1, 1.9, 2.0]);
        assert!(low.significantly_below(&high));
        assert!(!high.significantly_below(&low));
        let overlapping = Replicated::from_samples(&[1.0, 2.0, 1.5, 1.2]);
        assert!(!overlapping.significantly_below(&high) || overlapping.mean < high.mean);
    }

    #[test]
    fn replicate_runs_per_seed() {
        let seeds = [1u64, 2, 3, 4];
        let r = replicate(&seeds, 2, |s| s as f64);
        assert_eq!(r.n, 4);
        assert!((r.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn replicated_simulation_has_modest_variance() {
        use crate::runner::{run_trace, RunConfig};
        use fbc_core::optfilebundle::OptFileBundle;
        use fbc_core::types::MIB;
        use fbc_workload::{Popularity, Workload, WorkloadConfig};

        let seeds: Vec<u64> = (0..4).collect();
        let r = replicate(&seeds, 2, |seed| {
            let w = Workload::generate(WorkloadConfig {
                cache_size: 500 * MIB,
                num_files: 60,
                max_file_frac: 0.05,
                pool_requests: 40,
                jobs: 400,
                files_per_request: (1, 3),
                popularity: Popularity::zipf(),
                seed,
            });
            let cache = (w.mean_request_bytes() * 8.0) as u64;
            let trace = w.into_trace();
            let mut p = OptFileBundle::new();
            run_trace(
                &mut p,
                &trace,
                &RunConfig::new(cache),
                &fbc_obs::Obs::disabled(),
            )
            .byte_miss_ratio()
        });
        assert!(r.mean > 0.0 && r.mean < 1.0);
        assert!(r.std_dev < 0.3, "seed variance suspiciously high: {r:?}");
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn empty_samples_rejected() {
        let _ = Replicated::from_samples(&[]);
    }
}
