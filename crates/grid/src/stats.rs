//! End-to-end statistics of a grid simulation: job response times,
//! throughput, availability under faults, and the underlying cache
//! metrics.

use crate::time::SimDuration;
use fbc_sim::metrics::Metrics;
use fbc_sim::report::{f4, Table};

/// Job response times: one raw sample per completed job, in completion
/// order, plus a running sum for the mean.
///
/// A histogram of distinct values would not bound memory here: every one
/// of the benchmark's `hit-flood` response times is distinct (3,000,000
/// of 3,000,000), 230,611 of `paper-zipf`'s 300,000 are, and 44–50 % of
/// each `sharded-churn` shard's are. An ordered-map entry costs about 32
/// bytes and a B-tree insert per job; a raw sample costs 8 bytes and a
/// push.
///
/// Quantiles are exact nearest-rank ([`fbc_obs::quantile`]), selected on
/// a scratch copy when read, so the engine loop only ever pushes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResponseStats {
    sum_micros: u128,
    samples: Vec<SimDuration>,
}

impl ResponseStats {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed job's response time.
    pub fn record(&mut self, rt: SimDuration) {
        self.sum_micros += u128::from(rt.micros());
        self.samples.push(rt);
    }

    /// Makes room for `additional` more samples.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.samples.reserve_exact(additional);
    }

    /// Number of recorded response times.
    pub fn len(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean response time, or zero when nothing was recorded (integer
    /// microsecond division).
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration((self.sum_micros / self.samples.len() as u128) as u64)
    }

    /// Exact nearest-rank `q`-quantile (`0.0 ..= 1.0`), zero when empty,
    /// with the semantics of [`fbc_obs::quantile`]. Selects on a copy of
    /// the samples: O(n) per call.
    pub fn quantile(&self, q: f64) -> SimDuration {
        let Some(idx) = fbc_obs::quantile::nearest_rank_index(q, self.samples.len()) else {
            return SimDuration::ZERO;
        };
        let mut scratch = self.samples.clone();
        *scratch.select_nth_unstable(idx).1
    }

    /// Largest recorded response time (zero when empty).
    pub fn max(&self) -> SimDuration {
        self.samples.iter().copied().max().unwrap_or_default()
    }

    /// Every recorded response time, in completion order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// Appends another accumulator's samples after this one's (shard
    /// merges append in shard order, so a merged run lists per-shard
    /// completion order, not global completion order).
    pub fn merge(&mut self, other: &ResponseStats) {
        self.sum_micros += other.sum_micros;
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Results of one grid run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridStats {
    /// Cache-level accounting (hits, bytes fetched, …).
    pub cache: Metrics,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs rejected (bundle larger than the entire cache).
    pub rejected: u64,
    /// Jobs that exhausted their fetch retry budget and were abandoned.
    pub failed: u64,
    /// Fetch attempts issued to the MSS + link (first tries and retries).
    pub fetch_attempts: u64,
    /// Retries scheduled after a failed or timed-out fetch attempt.
    pub fetch_retries: u64,
    /// Fetch attempts abandoned at the timeout deadline (or immediately,
    /// when the service can never complete the read and no timeout is
    /// configured).
    pub fetch_timeouts: u64,
    /// Fetch attempts that completed their transfer but failed transiently.
    pub transient_fetch_errors: u64,
    /// Response times (arrival → completion) of completed jobs.
    pub responses: ResponseStats,
    /// Virtual time at which the last job completed.
    pub makespan: SimDuration,
}

impl GridStats {
    /// Mean response time, or zero when nothing completed.
    pub fn mean_response(&self) -> SimDuration {
        self.responses.mean()
    }

    /// The `p`-th percentile response time (`0.0 ..= 1.0`), nearest-rank.
    ///
    /// Uses the workspace-wide semantics of [`fbc_obs::quantile`] — the
    /// same as `LatencyStats::quantile`. Exact: it selects among the raw
    /// samples (see [`ResponseStats`]).
    pub fn percentile_response(&self, p: f64) -> SimDuration {
        self.responses.quantile(p)
    }

    /// Folds another run's statistics into this one — the deterministic
    /// shard merge used by [`crate::concurrent`]: counters sum, cache
    /// metrics merge, response accumulators merge, and the makespan is
    /// the latest completion across shards (throughput of the merged
    /// stats is total completions over that shared virtual-time span).
    pub fn merge_shard(&mut self, other: &GridStats) {
        self.cache.merge(&other.cache);
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.fetch_attempts += other.fetch_attempts;
        self.fetch_retries += other.fetch_retries;
        self.fetch_timeouts += other.fetch_timeouts;
        self.transient_fetch_errors += other.transient_fetch_errors;
        self.responses.merge(&other.responses);
        self.makespan = self.makespan.max(other.makespan);
    }

    /// Completed jobs per second of virtual time.
    pub fn throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Fraction of serviceable jobs that actually completed:
    /// `completed / (completed + failed)`. Rejected jobs (infeasibly large
    /// bundles) don't count against availability; a run with no
    /// serviceable jobs reports 1.0.
    pub fn availability(&self) -> f64 {
        let attempted = self.completed + self.failed;
        if attempted == 0 {
            1.0
        } else {
            self.completed as f64 / attempted as f64
        }
    }

    /// Renders the run as a two-column report.
    pub fn report(&self, policy: &str) -> GridReport {
        GridReport::new(policy, self)
    }
}

/// A rendered summary of one grid run.
///
/// The rendering is a pure function of the statistics, so determinism
/// tests can compare two runs byte for byte via [`GridReport::as_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridReport {
    text: String,
}

impl GridReport {
    /// Builds the report table for `stats` produced by `policy`.
    pub fn new(policy: &str, stats: &GridStats) -> Self {
        let mut t = Table::new(["metric", "value"]);
        t.add_row(["policy", policy]);
        t.add_row(["completed", &stats.completed.to_string()]);
        t.add_row(["failed", &stats.failed.to_string()]);
        t.add_row(["rejected", &stats.rejected.to_string()]);
        t.add_row(["availability", &f4(stats.availability())]);
        t.add_row(["byte miss ratio", &f4(stats.cache.byte_miss_ratio())]);
        t.add_row(["fetch attempts", &stats.fetch_attempts.to_string()]);
        t.add_row(["fetch retries", &stats.fetch_retries.to_string()]);
        t.add_row(["fetch timeouts", &stats.fetch_timeouts.to_string()]);
        t.add_row([
            "transient errors",
            &stats.transient_fetch_errors.to_string(),
        ]);
        t.add_row(["mean response", &stats.mean_response().to_string()]);
        t.add_row(["p95 response", &stats.percentile_response(0.95).to_string()]);
        t.add_row(["makespan", &stats.makespan.to_string()]);
        t.add_row(["throughput (jobs/s)", &format!("{:.3}", stats.throughput())]);
        Self { text: t.to_ascii() }
    }

    /// The rendered report text.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for GridReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn responses(secs: impl IntoIterator<Item = u64>) -> ResponseStats {
        let mut r = ResponseStats::new();
        for s in secs {
            r.record(SimDuration::from_secs(s));
        }
        r
    }

    /// Regression (zero-denominator audit): every report-path quantity
    /// must be a defined, finite-or-conventional value on a run with zero
    /// attempts — no NaN anywhere the competitive-ratio harness or the
    /// grid reports can read.
    #[test]
    fn empty_run_reports_defined_values() {
        let s = GridStats::default();
        assert_eq!(s.availability(), 1.0, "no serviceable jobs → 1.0");
        assert!(!s.availability().is_nan());
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.cache.byte_miss_ratio(), 0.0);
        assert_eq!(s.cache.byte_hit_ratio(), 0.0);
        assert_eq!(s.cache.request_hit_ratio(), 0.0);
        assert_eq!(s.cache.request_miss_ratio(), 0.0);
        assert_eq!(s.mean_response(), SimDuration::default());
    }

    /// Regression (zero-denominator audit): merging empty shards must not
    /// manufacture NaN — an all-empty merge stays at the empty-run
    /// conventions, and empty shards merged into a live one leave its
    /// ratios untouched.
    #[test]
    fn merge_shard_of_empty_shards_keeps_values_defined() {
        let mut merged = GridStats::default();
        for _ in 0..4 {
            merged.merge_shard(&GridStats::default());
        }
        assert_eq!(merged.availability(), 1.0);
        assert!(!merged.availability().is_nan());
        assert_eq!(merged.throughput(), 0.0);
        assert_eq!(merged.cache.byte_miss_ratio(), 0.0);

        let mut live = GridStats {
            completed: 3,
            failed: 1,
            responses: responses([1, 2, 3]),
            makespan: SimDuration::from_secs(6),
            ..GridStats::default()
        };
        live.merge_shard(&GridStats::default());
        assert_eq!(live.availability(), 0.75);
        assert!((live.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn response_time_summaries() {
        let s = GridStats {
            responses: responses([1, 3, 2]),
            completed: 3,
            makespan: SimDuration::from_secs(6),
            ..GridStats::default()
        };
        assert_eq!(s.mean_response(), SimDuration::from_secs(2));
        assert_eq!(s.percentile_response(0.0), SimDuration::from_secs(1));
        assert_eq!(s.percentile_response(1.0), SimDuration::from_secs(3));
        assert_eq!(s.percentile_response(0.5), SimDuration::from_secs(2));
        assert!((s.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn even_length_percentiles_are_true_nearest_rank() {
        // Regression for the linear-indexing bug: with 4 samples at
        // p = 0.5 the nearest rank is ⌈0.5·4⌉ = 2, so the answer is the
        // 2nd element; round(0.5·(4−1)) picked the 3rd.
        let s = GridStats {
            responses: responses([4, 1, 3, 2]),
            ..GridStats::default()
        };
        assert_eq!(s.percentile_response(0.5), SimDuration::from_secs(2));
        assert_eq!(s.percentile_response(0.25), SimDuration::from_secs(1));
        assert_eq!(s.percentile_response(0.75), SimDuration::from_secs(3));
        assert_eq!(s.percentile_response(1.0), SimDuration::from_secs(4));
        // p95 over 14 samples: nearest rank ⌈0.95·14⌉ = 14 → the max;
        // the old linear index round(0.95·13) = 12 picked the 13th.
        let s = GridStats {
            responses: responses(1..=14),
            ..GridStats::default()
        };
        assert_eq!(s.percentile_response(0.95), SimDuration::from_secs(14));
    }

    #[test]
    fn accumulator_matches_sorted_vector_semantics() {
        // Quantiles, mean and max must equal sort + nearest-rank over the
        // samples, including ties and the truncating integer mean.
        let samples: Vec<u64> = vec![7, 3, 3, 9, 1, 3, 9, 2, 8, 8];
        let mut acc = ResponseStats::new();
        for &s in &samples {
            acc.record(SimDuration(s));
        }
        let mut sorted: Vec<SimDuration> = samples.iter().map(|&s| SimDuration(s)).collect();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                acc.quantile(q),
                fbc_obs::quantile::nearest_rank(&sorted, q).unwrap(),
                "q={q}"
            );
        }
        let total: u64 = samples.iter().sum();
        assert_eq!(acc.mean(), SimDuration(total / samples.len() as u64));
        assert_eq!(acc.len(), samples.len() as u64);
        assert_eq!(acc.max(), SimDuration(9));
    }

    #[test]
    fn samples_keep_completion_order() {
        let acc = responses([5, 2, 9]);
        assert_eq!(
            acc.samples(),
            &[
                SimDuration::from_secs(5),
                SimDuration::from_secs(2),
                SimDuration::from_secs(9)
            ]
        );
        // Reading a quantile selects on a copy: the order survives.
        assert_eq!(acc.quantile(0.5), SimDuration::from_secs(5));
        assert_eq!(acc.samples()[0], SimDuration::from_secs(5));
    }

    #[test]
    fn merged_accumulators_summarise_the_union() {
        let mut a = responses([1, 4]);
        let b = responses([2, 2, 8]);
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.quantile(1.0), SimDuration::from_secs(8));
        assert_eq!(a.quantile(0.5), SimDuration::from_secs(2));
        // mean = (1+4+2+2+8)/5 = 3.4s → truncates to 3.4e6 µs exactly.
        assert_eq!(a.mean(), SimDuration::from_millis(3400));
    }

    #[test]
    fn merge_shard_sums_counters_and_takes_latest_makespan() {
        let mut a = GridStats {
            completed: 3,
            failed: 1,
            fetch_attempts: 5,
            responses: responses([1, 2, 3]),
            makespan: SimDuration::from_secs(10),
            ..GridStats::default()
        };
        let b = GridStats {
            completed: 2,
            rejected: 1,
            fetch_attempts: 4,
            fetch_retries: 2,
            responses: responses([4, 5]),
            makespan: SimDuration::from_secs(7),
            ..GridStats::default()
        };
        a.merge_shard(&b);
        assert_eq!(a.completed, 5);
        assert_eq!(a.failed, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.fetch_attempts, 9);
        assert_eq!(a.fetch_retries, 2);
        assert_eq!(a.responses.len(), 5);
        assert_eq!(a.makespan, SimDuration::from_secs(10));
        assert_eq!(a.mean_response(), SimDuration::from_secs(3));
        assert!((a.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = GridStats::default();
        assert_eq!(s.mean_response(), SimDuration::ZERO);
        assert_eq!(s.percentile_response(0.5), SimDuration::ZERO);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.availability(), 1.0);
    }

    #[test]
    fn availability_counts_failed_jobs() {
        let s = GridStats {
            completed: 3,
            failed: 1,
            rejected: 2, // excluded from the denominator
            ..GridStats::default()
        };
        assert!((s.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_is_a_pure_function_of_stats() {
        let s = GridStats {
            completed: 5,
            failed: 1,
            fetch_attempts: 9,
            fetch_retries: 3,
            ..GridStats::default()
        };
        let a = s.report("OptFileBundle");
        let b = s.report("OptFileBundle");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), b.as_str());
        let text = a.as_str();
        assert!(text.contains("availability"));
        assert!(text.contains("fetch retries"));
        assert!(text.contains("OptFileBundle"));
    }
}
