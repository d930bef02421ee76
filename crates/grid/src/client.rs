//! Client job-arrival processes.
//!
//! Clients submit jobs to the SRM. Two standard arrival models are
//! provided: an *open* Poisson process (exponential inter-arrival times at
//! rate λ) and a *batch* arrival that submits everything at time zero
//! (equivalent to a saturated closed system, useful for throughput
//! measurements).

use crate::time::{SimDuration, SimTime};
use fbc_core::bundle::Bundle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A job submitted to the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobArrival {
    /// Submission time.
    pub at: SimTime,
    /// The file-bundle the job needs.
    pub bundle: Bundle,
}

/// Arrival process model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` jobs per second.
    Poisson {
        /// Mean jobs per second.
        rate: f64,
        /// RNG seed for the exponential draws.
        seed: u64,
    },
    /// All jobs submitted at time zero.
    Batch,
    /// Deterministic arrivals with a fixed inter-arrival gap.
    Uniform {
        /// Gap between consecutive submissions.
        gap: SimDuration,
    },
}

/// Stamps arrival times onto a job sequence.
pub fn schedule_arrivals(jobs: &[Bundle], process: ArrivalProcess) -> Vec<JobArrival> {
    match process {
        ArrivalProcess::Batch => jobs
            .iter()
            .map(|b| JobArrival {
                at: SimTime::ZERO,
                bundle: b.clone(),
            })
            .collect(),
        ArrivalProcess::Uniform { gap } => {
            let mut t = SimTime::ZERO;
            jobs.iter()
                .map(|b| {
                    let a = JobArrival {
                        at: t,
                        bundle: b.clone(),
                    };
                    t += gap;
                    a
                })
                .collect()
        }
        ArrivalProcess::Poisson { rate, seed } => {
            assert!(rate > 0.0, "Poisson rate must be positive");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = SimTime::ZERO;
            jobs.iter()
                .map(|b| {
                    // Inverse-CDF exponential draw; clamp u away from 0.
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let gap = -u.ln() / rate;
                    t += SimDuration::from_secs_f64(gap);
                    JobArrival {
                        at: t,
                        bundle: b.clone(),
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize) -> Vec<Bundle> {
        (0..n as u32).map(|i| Bundle::from_raw([i])).collect()
    }

    #[test]
    fn job_arrival_stays_16_bytes() {
        // A caller's arrival list holds one per job: a time and a thin
        // bundle handle.
        assert_eq!(std::mem::size_of::<JobArrival>(), 16);
    }

    #[test]
    fn batch_arrivals_all_at_zero() {
        let arr = schedule_arrivals(&jobs(5), ArrivalProcess::Batch);
        assert_eq!(arr.len(), 5);
        assert!(arr.iter().all(|a| a.at == SimTime::ZERO));
    }

    #[test]
    fn uniform_arrivals_evenly_spaced() {
        let arr = schedule_arrivals(
            &jobs(3),
            ArrivalProcess::Uniform {
                gap: SimDuration::from_secs(2),
            },
        );
        assert_eq!(arr[0].at, SimTime::ZERO);
        assert_eq!(arr[1].at.micros(), 2_000_000);
        assert_eq!(arr[2].at.micros(), 4_000_000);
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_seeded() {
        let p = ArrivalProcess::Poisson {
            rate: 10.0,
            seed: 3,
        };
        let a = schedule_arrivals(&jobs(100), p);
        let b = schedule_arrivals(&jobs(100), p);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn poisson_mean_rate_is_approximately_right() {
        let arr = schedule_arrivals(
            &jobs(5000),
            ArrivalProcess::Poisson {
                rate: 50.0,
                seed: 1,
            },
        );
        let span = arr.last().unwrap().at.as_secs_f64();
        let measured_rate = 5000.0 / span;
        assert!(
            (measured_rate - 50.0).abs() < 5.0,
            "rate {measured_rate} too far from 50"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn nonpositive_rate_rejected() {
        let _ = schedule_arrivals(&jobs(1), ArrivalProcess::Poisson { rate: 0.0, seed: 0 });
    }
}
