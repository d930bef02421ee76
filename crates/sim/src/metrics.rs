//! Performance metrics of §1.2, accumulated over a simulation run.
//!
//! The paper's headline metric is the **byte miss ratio**: the fraction of
//! requested bytes that had to be moved into the cache from mass storage.
//! Fig. 8 additionally reports the **average volume of data moved per
//! request**. Both derive from the same accumulator.

use fbc_core::policy::RequestOutcome;
use serde::{Deserialize, Serialize};

/// One point of a windowed metric series (for figure curves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Number of jobs processed up to and including this window.
    pub jobs: u64,
    /// Byte miss ratio within the window.
    pub byte_miss_ratio: f64,
    /// Request-hit ratio within the window.
    pub request_hit_ratio: f64,
}

/// Decision-latency samples (nanoseconds per `policy.handle` call),
/// recorded when [`RunConfig::record_latency`] is on. Holds the raw sample
/// vector so percentiles are exact, not sketched — a simulation run has at
/// most one sample per job, which is small next to the trace itself.
///
/// [`RunConfig::record_latency`]: crate::runner::RunConfig::record_latency
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Raw samples in nanoseconds, in recording order.
    pub samples: Vec<u64>,
}

impl LatencyStats {
    /// Adds one sample.
    pub fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// Exact `q`-quantile (nearest-rank, `0 ≤ q ≤ 1`) in nanoseconds;
    /// 0 when empty. Shares the workspace-wide nearest-rank helper
    /// ([`fbc_obs::quantile`]) with `GridStats::percentile_response`, so
    /// the two percentile implementations can never diverge again.
    pub fn quantile(&self, q: f64) -> u64 {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        fbc_obs::quantile::nearest_rank(&sorted, q).unwrap_or(0)
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Appends another accumulator's samples.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Accumulated metrics for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs actually serviced (excludes bundles larger than the cache).
    pub serviced: u64,
    /// Request-hits: jobs that found all their files resident.
    pub hits: u64,
    /// Total bytes requested.
    pub requested_bytes: u64,
    /// Total bytes moved into the cache from mass storage.
    pub fetched_bytes: u64,
    /// Total bytes evicted.
    pub evicted_bytes: u64,
    /// Optional windowed series.
    pub series: Vec<SeriesPoint>,
    /// Per-decision latency samples (empty unless the runner was asked to
    /// record them).
    pub decision_latency: LatencyStats,
    window: Option<WindowState>,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct WindowState {
    size: u64,
    jobs: u64,
    hits: u64,
    requested: u64,
    fetched: u64,
}

impl WindowState {
    /// Emits the accumulated partial window as a point at job-axis
    /// position `at_jobs` and resets the accumulators; `None` when the
    /// window holds nothing.
    fn flush(&mut self, at_jobs: u64) -> Option<SeriesPoint> {
        if self.jobs == 0 {
            return None;
        }
        let point = SeriesPoint {
            jobs: at_jobs,
            byte_miss_ratio: ratio(self.fetched, self.requested),
            request_hit_ratio: self.hits as f64 / self.jobs as f64,
        };
        self.jobs = 0;
        self.hits = 0;
        self.requested = 0;
        self.fetched = 0;
        Some(point)
    }
}

impl Metrics {
    /// A fresh accumulator without series recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh accumulator that records a [`SeriesPoint`] every
    /// `window` jobs.
    pub fn with_series_window(window: u64) -> Self {
        assert!(window > 0, "series window must be positive");
        Self {
            window: Some(WindowState {
                size: window,
                ..WindowState::default()
            }),
            ..Self::default()
        }
    }

    /// Folds one request outcome into the totals.
    pub fn record(&mut self, outcome: &RequestOutcome) {
        self.jobs += 1;
        if outcome.serviced {
            self.serviced += 1;
        }
        if outcome.hit {
            self.hits += 1;
        }
        self.requested_bytes += outcome.requested_bytes;
        self.fetched_bytes += outcome.fetched_bytes;
        self.evicted_bytes += outcome.evicted_bytes;

        if let Some(w) = &mut self.window {
            w.jobs += 1;
            if outcome.hit {
                w.hits += 1;
            }
            w.requested += outcome.requested_bytes;
            w.fetched += outcome.fetched_bytes;
            if w.jobs == w.size {
                if let Some(point) = w.flush(self.jobs) {
                    self.series.push(point);
                }
            }
        }
    }

    /// Byte miss ratio: fetched / requested (0 when nothing requested).
    pub fn byte_miss_ratio(&self) -> f64 {
        ratio(self.fetched_bytes, self.requested_bytes)
    }

    /// Byte hit ratio: `1 − byte miss ratio` — except on an empty run.
    ///
    /// Empty-run convention: when nothing was requested there were no
    /// hits *and* no misses, so both ratios are 0. Taking the complement
    /// of the zero-guarded miss ratio used to report a contradictory
    /// "100% hit, 100% miss" for a zero-job run.
    pub fn byte_hit_ratio(&self) -> f64 {
        if self.requested_bytes == 0 {
            0.0
        } else {
            1.0 - self.byte_miss_ratio()
        }
    }

    /// Request-hit ratio: hits / jobs (0 when no jobs ran).
    pub fn request_hit_ratio(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.hits as f64 / self.jobs as f64
        }
    }

    /// Request miss ratio: `1 − request-hit ratio` — except on an empty
    /// run, which reports 0 (see [`Metrics::byte_hit_ratio`] for the
    /// convention).
    pub fn request_miss_ratio(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            1.0 - self.request_hit_ratio()
        }
    }

    /// Average volume of data moved into the cache per request (Fig. 8's
    /// metric), in bytes.
    pub fn bytes_moved_per_request(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.fetched_bytes as f64 / self.jobs as f64
        }
    }

    /// Merges another accumulator's totals into this one.
    ///
    /// Appended series points are re-based onto this accumulator's job axis:
    /// `other`'s points count jobs from *its* start, so each gets offset by
    /// the number of jobs already in `self`, keeping the merged series
    /// monotonically increasing in `jobs`.
    ///
    /// Partial-window semantics: every recorded job lands in exactly one
    /// series point. A partially filled window — the receiver's in-progress
    /// one and `other`'s unfinished tail — is *flushed* at merge time as a
    /// truncated point (fewer jobs than the window size) at its owner's
    /// job-axis position, and the receiver's window restarts empty after
    /// the merge. The old behaviour silently dropped `other`'s tail and
    /// left the receiver's in-progress window counting pre-merge jobs
    /// against the post-merge axis, misattributing that window's ratios.
    pub fn merge(&mut self, other: &Metrics) {
        // Flush our own in-progress window at the pre-merge job count,
        // so its jobs aren't mixed with jobs recorded after the merge.
        if let Some(point) = self.window.as_mut().and_then(|w| w.flush(self.jobs)) {
            self.series.push(point);
        }
        let base_jobs = self.jobs;
        self.jobs += other.jobs;
        self.serviced += other.serviced;
        self.hits += other.hits;
        self.requested_bytes += other.requested_bytes;
        self.fetched_bytes += other.fetched_bytes;
        self.evicted_bytes += other.evicted_bytes;
        self.series.extend(other.series.iter().map(|p| SeriesPoint {
            jobs: base_jobs + p.jobs,
            ..*p
        }));
        // Flush other's unfinished tail at its re-based position (other
        // itself is borrowed immutably and stays untouched).
        if let Some(point) = other
            .window
            .clone()
            .and_then(|mut w| w.flush(base_jobs + other.jobs))
        {
            self.series.push(point);
        }
        self.decision_latency.merge(&other.decision_latency);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(hit: bool, requested: u64, fetched: u64) -> RequestOutcome {
        RequestOutcome {
            hit,
            serviced: true,
            requested_bytes: requested,
            fetched_bytes: fetched,
            ..RequestOutcome::default()
        }
    }

    #[test]
    fn ratios_compute_correctly() {
        let mut m = Metrics::new();
        m.record(&outcome(true, 100, 0));
        m.record(&outcome(false, 100, 60));
        assert_eq!(m.jobs, 2);
        assert_eq!(m.hits, 1);
        assert!((m.byte_miss_ratio() - 0.3).abs() < 1e-12);
        assert!((m.byte_hit_ratio() - 0.7).abs() < 1e-12);
        assert!((m.request_hit_ratio() - 0.5).abs() < 1e-12);
        assert!((m.bytes_moved_per_request() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.byte_miss_ratio(), 0.0);
        assert_eq!(m.request_hit_ratio(), 0.0);
        assert_eq!(m.bytes_moved_per_request(), 0.0);
    }

    #[test]
    fn empty_run_reports_neither_hits_nor_misses() {
        // The empty-run convention: nothing requested means hit = 0 AND
        // miss = 0. The complements used to report the contradictory
        // byte_hit_ratio == 1.0 and request_miss_ratio == 1.0 at once.
        let m = Metrics::new();
        assert_eq!(m.byte_hit_ratio(), 0.0);
        assert_eq!(m.byte_miss_ratio(), 0.0);
        assert_eq!(m.request_hit_ratio(), 0.0);
        assert_eq!(m.request_miss_ratio(), 0.0);
        // A non-empty run still gets proper complements.
        let mut m = Metrics::new();
        m.record(&outcome(true, 100, 0));
        assert_eq!(m.byte_hit_ratio(), 1.0);
        assert_eq!(m.request_miss_ratio(), 0.0);
        m.record(&outcome(false, 100, 100));
        assert!((m.byte_hit_ratio() - 0.5).abs() < 1e-12);
        assert!((m.request_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn series_points_emitted_per_window() {
        let mut m = Metrics::with_series_window(2);
        m.record(&outcome(false, 10, 10));
        m.record(&outcome(false, 10, 10)); // window 1: bmr 1.0
        m.record(&outcome(true, 10, 0));
        m.record(&outcome(true, 10, 0)); // window 2: bmr 0.0
        m.record(&outcome(false, 10, 5)); // partial window: no point
        assert_eq!(m.series.len(), 2);
        assert_eq!(m.series[0].jobs, 2);
        assert!((m.series[0].byte_miss_ratio - 1.0).abs() < 1e-12);
        assert!((m.series[1].byte_miss_ratio - 0.0).abs() < 1e-12);
        assert!((m.series[1].request_hit_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_totals() {
        let mut a = Metrics::new();
        a.record(&outcome(true, 10, 0));
        let mut b = Metrics::new();
        b.record(&outcome(false, 30, 30));
        a.merge(&b);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.requested_bytes, 40);
        assert!((a.byte_miss_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_rebases_series_onto_receiver_job_axis() {
        // Two halves of a sharded run, each recording a point every 2 jobs.
        let mut a = Metrics::with_series_window(2);
        for _ in 0..4 {
            a.record(&outcome(false, 10, 10));
        }
        let mut b = Metrics::with_series_window(2);
        for _ in 0..4 {
            b.record(&outcome(true, 10, 0));
        }
        a.merge(&b);

        // b's points counted jobs from b's own start; merged they must
        // continue a's axis: 2, 4, 6, 8 — strictly increasing.
        let jobs: Vec<u64> = a.series.iter().map(|p| p.jobs).collect();
        assert_eq!(jobs, vec![2, 4, 6, 8]);
        assert!(jobs.windows(2).all(|w| w[0] < w[1]), "series not monotonic");
        // Ratios within each window are unchanged by the re-basing.
        assert!((a.series[2].byte_miss_ratio - 0.0).abs() < 1e-12);
        assert!((a.series[1].byte_miss_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_flushes_partial_windows_as_truncated_points() {
        // Non-boundary-aligned merge: window of 2, but each side recorded
        // 3 jobs, leaving a 1-job tail in its window.
        let mut a = Metrics::with_series_window(2);
        a.record(&outcome(false, 10, 10));
        a.record(&outcome(false, 10, 10)); // full window at jobs=2
        a.record(&outcome(true, 10, 0)); // partial tail (1 job, a hit)
        let mut b = Metrics::with_series_window(2);
        b.record(&outcome(false, 10, 10));
        b.record(&outcome(true, 10, 0)); // full window at jobs=2
        b.record(&outcome(false, 10, 5)); // partial tail (1 job, bmr 0.5)
        a.merge(&b);

        // Every job lands in exactly one point: a's full window (2), a's
        // flushed tail (3), b's re-based full window (5), b's flushed
        // tail (6).
        let jobs: Vec<u64> = a.series.iter().map(|p| p.jobs).collect();
        assert_eq!(jobs, vec![2, 3, 5, 6]);
        assert!(jobs.windows(2).all(|w| w[0] < w[1]), "series not monotonic");
        // The flushed tails carry their own ratios, not a neighbour's.
        assert!((a.series[1].request_hit_ratio - 1.0).abs() < 1e-12);
        assert!((a.series[3].byte_miss_ratio - 0.5).abs() < 1e-12);
        // The receiver's window restarted empty: two more jobs complete
        // a fresh window at the merged axis position 8.
        a.record(&outcome(true, 10, 0));
        a.record(&outcome(true, 10, 0));
        assert_eq!(a.series.last().unwrap().jobs, 8);
        assert!((a.series.last().unwrap().request_hit_ratio - 1.0).abs() < 1e-12);
        // And `other` was left untouched by the merge.
        assert_eq!(b.series.len(), 1);
    }

    #[test]
    fn merge_without_windows_is_unchanged() {
        let mut a = Metrics::new();
        a.record(&outcome(true, 10, 0));
        let mut b = Metrics::new();
        b.record(&outcome(false, 10, 10));
        a.merge(&b);
        assert_eq!(a.jobs, 2);
        assert!(a.series.is_empty());
    }

    #[test]
    fn latency_percentiles_are_exact_nearest_rank() {
        let mut l = LatencyStats::default();
        assert_eq!(l.p50(), 0);
        assert_eq!(l.p99(), 0);
        // 1..=100 ns, shuffled order must not matter.
        for v in (1..=100u64).rev() {
            l.record(v);
        }
        assert_eq!(l.len(), 100);
        assert_eq!(l.p50(), 50);
        assert_eq!(l.p99(), 99);
        assert_eq!(l.quantile(1.0), 100);
        assert!((l.mean() - 50.5).abs() < 1e-12);

        let mut other = LatencyStats::default();
        other.record(1000);
        l.merge(&other);
        assert_eq!(l.quantile(1.0), 1000);
        assert_eq!(l.len(), 101);
    }

    #[test]
    fn merge_concatenates_latency_samples() {
        let mut a = Metrics::new();
        a.decision_latency.record(5);
        let mut b = Metrics::new();
        b.decision_latency.record(7);
        a.merge(&b);
        assert_eq!(a.decision_latency.samples, vec![5, 7]);
    }

    #[test]
    fn unserviced_jobs_counted_but_not_serviced() {
        let mut m = Metrics::new();
        m.record(&RequestOutcome {
            serviced: false,
            requested_bytes: 50,
            ..RequestOutcome::default()
        });
        assert_eq!(m.jobs, 1);
        assert_eq!(m.serviced, 0);
    }
}
