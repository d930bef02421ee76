//! The trace-driven disk-cache simulator — the reproduction of the paper's
//! C++ `cacheSim` (§5).
//!
//! A run takes a replacement policy, a trace (catalog + job sequence) and a
//! [`RunConfig`], feeds the jobs to the policy and accumulates [`Metrics`].
//!
//! Jobs are admitted in batches of `queue_len` (paper §5.2 "Incoming Queue
//! Length", Fig. 9) and each batch is drained in its [`Discipline`] order
//! before the next is admitted — the paper's procedure: "we first serve the
//! request of highest relative value in the queue … and repeat this process
//! on the remaining requests in the queue until it becomes empty". The
//! default queue of one is plain FCFS. *Request lockout* is impossible by
//! construction: every admitted job is serviced before the next batch is
//! admitted, which is the fairness property the paper asks of "a fair
//! effective scheduling algorithm".

use crate::metrics::Metrics;
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::history::RequestHistory;
use fbc_core::policy::{CachePolicy, OutcomeObsSlots};
use fbc_core::types::Bytes;
use fbc_obs::{Field, Obs};
use fbc_workload::trace::Trace;

/// The order in which a full queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// First come, first served (queueing changes nothing).
    #[default]
    Fcfs,
    /// Highest adjusted relative value `v'(r)` first — the paper's choice.
    HighestRelativeValue,
    /// Smallest total request size first.
    ShortestJobFirst,
}

impl Discipline {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Discipline::Fcfs => "fcfs",
            Discipline::HighestRelativeValue => "hrv",
            Discipline::ShortestJobFirst => "sjf",
        }
    }
}

/// Queued-admission configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Queue length `q` (1 degenerates to FCFS regardless of discipline).
    pub queue_len: usize,
    /// Draining order.
    pub discipline: Discipline,
}

impl Default for QueueConfig {
    /// A queue of one: FCFS.
    fn default() -> Self {
        Self {
            queue_len: 1,
            discipline: Discipline::Fcfs,
        }
    }
}

impl QueueConfig {
    /// The paper's queued scheduler with length `q`.
    pub fn hrv(queue_len: usize) -> Self {
        Self {
            queue_len,
            discipline: Discipline::HighestRelativeValue,
        }
    }
}

/// Configuration of a single simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Disk-cache capacity.
    pub cache_size: Bytes,
    /// When `Some(w)`, record a metric series point every `w` jobs.
    pub series_window: Option<u64>,
    /// Number of leading jobs excluded from the metrics (they still drive
    /// the cache and the policy). Steady-state methodology: the paper's
    /// curves include the cold start, so the default is 0.
    pub warmup_jobs: u64,
    /// When true, time every `policy.handle` call and collect the samples
    /// in [`Metrics::decision_latency`] (p50/p99 reporting). Off by
    /// default: wall-clock sampling costs a couple of syscalls per job and
    /// the samples are machine-dependent, so deterministic-output paths
    /// (figure CSVs) leave it disabled.
    ///
    /// [`Metrics::decision_latency`]: crate::metrics::Metrics::decision_latency
    pub record_latency: bool,
    /// Admission queue; the default queue of one is FCFS.
    pub queue: QueueConfig,
}

impl RunConfig {
    /// An FCFS run with the given cache size, no series recording, no
    /// warmup.
    pub fn new(cache_size: Bytes) -> Self {
        Self {
            cache_size,
            series_window: None,
            warmup_jobs: 0,
            record_latency: false,
            queue: QueueConfig::default(),
        }
    }

    /// Same, but excluding the first `warmup_jobs` jobs from the metrics.
    pub fn with_warmup(cache_size: Bytes, warmup_jobs: u64) -> Self {
        Self {
            warmup_jobs,
            ..Self::new(cache_size)
        }
    }
}

/// Runs `policy` over the whole `trace`, admitting jobs through the
/// configured queue.
///
/// The policy is `prepare`d with the job sequence first (a no-op for online
/// policies, required by the clairvoyant Belady baseline) and is *not*
/// reset — callers reuse or reset policies explicitly.
///
/// When `obs` is enabled the driver attaches a clone to the policy (so
/// the policy's own signals land in the same trace), stamps the virtual
/// clock with the *service* index (the order jobs leave the queue) before
/// each `handle` call, flushes each outcome's `policy.*` counters and
/// admit/evict events
/// ([`RequestOutcome::record_obs`](fbc_core::policy::RequestOutcome::record_obs))
/// right after it, appends one `job {i, arrived, hit, serviced, used}`
/// event per job, and ends with the `queue.batches` counter and the
/// `sim.cache_used` / `sim.cache_capacity` gauges. A disabled `obs`
/// leaves the policy untouched; observation never changes the metrics.
///
/// # Panics
///
/// If `cfg.queue.queue_len` is 0.
pub fn run_trace(
    policy: &mut dyn CachePolicy,
    trace: &Trace,
    cfg: &RunConfig,
    obs: &Obs,
) -> Metrics {
    let queue_len = cfg.queue.queue_len;
    assert!(queue_len >= 1, "queue length must be at least 1");
    if obs.is_enabled() {
        policy.attach_obs(obs.clone());
    }
    policy.prepare(&trace.requests);
    let catalog = &trace.catalog;
    let mut cache = CacheState::with_catalog(cfg.cache_size, catalog);
    let mut metrics = match cfg.series_window {
        Some(w) => Metrics::with_series_window(w),
        None => Metrics::new(),
    };
    let order = drain_order(cfg.queue, &trace.requests, catalog);
    let mut obs_slots = OutcomeObsSlots::default();
    for i in 0..trace.len() {
        let arrived = order.as_ref().map_or(i, |o| o[i]);
        let bundle = &trace.requests[arrived];
        let i = i as u64;
        obs.set_now(i);
        let outcome = if cfg.record_latency {
            let start = std::time::Instant::now();
            let outcome = policy.handle(bundle, &mut cache, catalog);
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if i >= cfg.warmup_jobs {
                metrics.decision_latency.record(nanos);
            }
            outcome
        } else {
            policy.handle(bundle, &mut cache, catalog)
        };
        outcome.record_obs(obs, &mut obs_slots);
        debug_assert!(cache.check_invariants());
        debug_assert!(!outcome.serviced || outcome.streamed || cache.contains_all(bundle));
        if obs.is_enabled() {
            obs.event(
                "job",
                &[
                    ("i", Field::u(i)),
                    ("arrived", Field::u(arrived as u64)),
                    ("hit", Field::b(outcome.hit)),
                    ("serviced", Field::b(outcome.serviced)),
                    ("used", Field::u(cache.used())),
                ],
            );
        }
        if i >= cfg.warmup_jobs {
            metrics.record(&outcome);
        }
    }
    if obs.is_enabled() {
        obs.add("queue.batches", trace.len().div_ceil(queue_len) as u64);
        obs.set_gauge("sim.cache_used", cache.used() as i64);
        obs.set_gauge("sim.cache_capacity", cache.capacity() as i64);
    }
    metrics
}

/// The order in which `jobs` leave the queue, as arrival indices; `None`
/// when that is arrival order (FCFS, or any queue of one).
///
/// Each batch of `queue_len` arrivals is ordered by its discipline. The
/// order of a batch is a function of the batches before it and of the
/// batch itself, never of cache or policy state, so every batch is
/// planned before the first job is serviced, and the driver's service
/// loop stays one flat pass over the jobs. The plan equals the paper's
/// pick-one, service, re-pick drain:
///
/// * SJF picks the *first* minimum by total size; repeated first-min
///   extraction is precisely a stable sort by size.
/// * HRV picks the first maximum of `relative_value` (strict `>` keeps the
///   earliest) and records it into a ranking history before the next pick.
///   That history counts occurrences (the default
///   [`ValueFn::Count`](fbc_core::history::ValueFn::Count)), so a bundle's
///   value reads only its own count and its files' degrees, and
///   `record(B)` touches only `B`'s count and `B`'s files' degrees: after
///   each pick only pending bundles sharing a file with `B` are re-valued,
///   and the rest keep bitwise-identical `f64`s.
fn drain_order(queue: QueueConfig, jobs: &[Bundle], catalog: &FileCatalog) -> Option<Vec<usize>> {
    let q = queue.queue_len;
    if q == 1 {
        return None;
    }
    match queue.discipline {
        Discipline::Fcfs => None,
        Discipline::ShortestJobFirst => {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            for batch in order.chunks_mut(q) {
                // Stable: ties stay in arrival order.
                batch.sort_by_key(|&j| jobs[j].total_size(catalog));
            }
            Some(order)
        }
        Discipline::HighestRelativeValue => {
            let mut history = RequestHistory::new();
            // A batch never holds more jobs than the trace has.
            let mut values = Vec::with_capacity(q.min(jobs.len()));
            let mut order = Vec::with_capacity(jobs.len());
            for (b, batch) in jobs.chunks(q).enumerate() {
                values.clear();
                values.extend(batch.iter().map(|r| history.relative_value(r, catalog)));
                for _ in 0..batch.len() {
                    // Every pending value is positive (or +inf for an
                    // empty bundle), so -inf marks a serviced slot.
                    let mut best = 0;
                    let mut best_rv = f64::NEG_INFINITY;
                    for (i, &v) in values.iter().enumerate() {
                        if v > best_rv {
                            best = i;
                            best_rv = v;
                        }
                    }
                    values[best] = f64::NEG_INFINITY;
                    let picked = &batch[best];
                    history.record(picked);
                    for (v, r) in values.iter_mut().zip(batch) {
                        if *v > f64::NEG_INFINITY && r.intersects(picked) {
                            *v = history.relative_value(r, catalog);
                        }
                    }
                    order.push(b * q + best);
                }
            }
            Some(order)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_baselines::{Landlord, Lru};
    use fbc_core::optfilebundle::OptFileBundle;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    fn tiny_trace() -> Trace {
        let catalog = FileCatalog::from_sizes(vec![1; 6]);
        let jobs = vec![b(&[0, 1]), b(&[2, 3]), b(&[0, 1]), b(&[4, 5]), b(&[0, 1])];
        Trace::new(catalog, jobs)
    }

    /// A hot pair {0,1} interleaved with cold singletons.
    fn hot_pair_trace() -> Trace {
        let catalog = FileCatalog::from_sizes(vec![1; 8]);
        let jobs = vec![
            b(&[0, 1]),
            b(&[2]),
            b(&[0, 1]),
            b(&[3]),
            b(&[0, 1]),
            b(&[4]),
            b(&[0, 1]),
            b(&[5]),
        ];
        Trace::new(catalog, jobs)
    }

    fn queued(cache_size: Bytes, queue: QueueConfig) -> RunConfig {
        RunConfig {
            queue,
            ..RunConfig::new(cache_size)
        }
    }

    fn run(policy: &mut dyn CachePolicy, trace: &Trace, cfg: &RunConfig) -> Metrics {
        run_trace(policy, trace, cfg, &Obs::disabled())
    }

    #[test]
    fn fcfs_run_counts_every_job() {
        let trace = tiny_trace();
        let mut policy = Lru::new();
        let m = run(&mut policy, &trace, &RunConfig::new(4));
        assert_eq!(m.jobs, 5);
        assert_eq!(m.serviced, 5);
        assert_eq!(m.requested_bytes, 10);
    }

    #[test]
    fn large_enough_cache_gives_pure_cold_misses() {
        let trace = tiny_trace();
        let mut policy = OptFileBundle::new();
        let m = run(&mut policy, &trace, &RunConfig::new(100));
        // 6 distinct unit files fetched once each.
        assert_eq!(m.fetched_bytes, 6);
        assert_eq!(m.hits, 2); // the two repeats of {0,1}
        assert_eq!(m.evicted_bytes, 0);
    }

    #[test]
    fn series_recording_produces_points() {
        let trace = tiny_trace();
        let mut policy = Landlord::new();
        let m = run(
            &mut policy,
            &trace,
            &RunConfig {
                series_window: Some(2),
                ..RunConfig::new(4)
            },
        );
        assert_eq!(m.series.len(), 2); // 5 jobs -> 2 full windows of 2
    }

    #[test]
    fn warmup_jobs_are_excluded_from_metrics() {
        let trace = tiny_trace();
        let mut policy = Lru::new();
        let m = run(&mut policy, &trace, &RunConfig::with_warmup(100, 2));
        // 5 jobs, first 2 excluded.
        assert_eq!(m.jobs, 3);
        // The cache was still warmed: job 3 ({0,1} again) is a hit.
        assert_eq!(m.hits, 2);
        // With warmup >= trace length, nothing is recorded.
        let mut policy = Lru::new();
        let m = run(&mut policy, &trace, &RunConfig::with_warmup(100, 99));
        assert_eq!(m.jobs, 0);
    }

    #[test]
    fn warmup_applies_to_queued_runs() {
        let t = hot_pair_trace();
        let mut p = OptFileBundle::new();
        let cfg = RunConfig {
            queue: QueueConfig::hrv(2),
            ..RunConfig::with_warmup(3, 4)
        };
        let m = run(&mut p, &t, &cfg);
        assert_eq!(m.jobs, t.len() as u64 - 4);
    }

    #[test]
    fn latency_recording_samples_every_measured_job() {
        let trace = tiny_trace();
        let mut policy = OptFileBundle::new();
        let cfg = RunConfig {
            record_latency: true,
            warmup_jobs: 2,
            ..RunConfig::new(4)
        };
        let m = run(&mut policy, &trace, &cfg);
        // 5 jobs, 2 warmup: 3 samples, and the percentiles are defined.
        assert_eq!(m.decision_latency.len(), 3);
        assert!(m.decision_latency.p99() >= m.decision_latency.p50());
        // Off by default: no samples.
        let mut policy = OptFileBundle::new();
        let m = run(&mut policy, &trace, &RunConfig::new(4));
        assert!(m.decision_latency.is_empty());
    }

    #[test]
    fn observed_run_matches_plain_run_and_fills_the_trace() {
        let trace = tiny_trace();
        let mut plain_p = Lru::new();
        let plain = run(&mut plain_p, &trace, &RunConfig::new(4));

        let obs = Obs::enabled();
        let mut obs_p = Lru::new();
        let observed = run_trace(&mut obs_p, &trace, &RunConfig::new(4), &obs);
        // Observation never perturbs the simulation.
        assert_eq!(plain, observed);
        // One driver `job` event per job, stamped with the job index.
        assert_eq!(obs.counter("policy.requests"), 5);
        assert!(obs.jsonl().lines().any(|l| l.starts_with("{\"t\":4,")));
        assert_eq!(obs.gauge("sim.cache_capacity"), 4);
        // Two same-seed observed runs produce byte-identical traces.
        let obs2 = Obs::enabled();
        let mut p2 = Lru::new();
        run_trace(&mut p2, &trace, &RunConfig::new(4), &obs2);
        assert_eq!(obs.jsonl(), obs2.jsonl());
        assert_eq!(obs.render_table(), obs2.render_table());
    }

    /// The `job` event carries the same fields whatever the queue length,
    /// and a queued run reports the cache gauges like an FCFS one.
    #[test]
    fn job_events_have_one_shape_at_every_queue_length() {
        let t = hot_pair_trace();
        let job_lines = |obs: &Obs| -> Vec<String> {
            obs.jsonl()
                .lines()
                .filter(|l| l.contains("\"ev\":\"job\""))
                .map(str::to_string)
                .collect()
        };

        let fcfs = Obs::enabled();
        run_trace(&mut Lru::new(), &t, &RunConfig::new(3), &fcfs);
        let lines = job_lines(&fcfs);
        assert_eq!(lines.len(), 8);
        assert!(
            lines[0].ends_with(
                "\"ev\":\"job\",\"i\":0,\"arrived\":0,\"hit\":false,\"serviced\":true,\"used\":2}"
            ),
            "{}",
            lines[0]
        );
        assert_eq!(fcfs.counter("queue.batches"), 8);

        let q4 = Obs::enabled();
        run_trace(&mut Lru::new(), &t, &queued(3, QueueConfig::hrv(4)), &q4);
        let lines = job_lines(&q4);
        assert_eq!(lines.len(), 8);
        for line in &lines {
            let keys: Vec<&str> = line
                .split('"')
                .skip(1)
                .step_by(2)
                .filter(|k| k.chars().all(|c| c.is_ascii_lowercase()))
                .collect();
            assert_eq!(
                keys,
                ["t", "ev", "job", "i", "arrived", "hit", "serviced", "used"],
                "{line}"
            );
        }
        assert_eq!(q4.counter("queue.batches"), 2);
        assert_eq!(q4.gauge("sim.cache_capacity"), 3);
        assert!(q4.gauge("sim.cache_used") <= 3);
    }

    #[test]
    fn all_jobs_are_serviced_no_lockout() {
        let t = hot_pair_trace();
        let mut p = OptFileBundle::new();
        let m = run(&mut p, &t, &queued(3, QueueConfig::hrv(4)));
        assert_eq!(m.jobs, t.len() as u64);
        assert_eq!(m.serviced, t.len() as u64);
    }

    #[test]
    fn hrv_reorders_popular_requests_first() {
        // With a queue of 4 and a history where {0,1} is already popular,
        // the popular pair is serviced before cold singletons in each batch,
        // grouping its accesses and improving its hit count.
        let t = hot_pair_trace();
        let mut fcfs_p = OptFileBundle::new();
        let fcfs = run(&mut fcfs_p, &t, &RunConfig::new(3));
        let mut hrv_p = OptFileBundle::new();
        let hrv = run(&mut hrv_p, &t, &queued(3, QueueConfig::hrv(4)));
        assert!(
            hrv.hits >= fcfs.hits,
            "hrv hits {} < fcfs hits {}",
            hrv.hits,
            fcfs.hits
        );
    }

    #[test]
    fn sjf_services_small_jobs_first_within_batch() {
        let catalog = FileCatalog::from_sizes(vec![5, 1, 3]);
        let t = Trace::new(catalog, vec![b(&[0]), b(&[1]), b(&[2])]);
        // Queue of 3, SJF: service order is f1 (1), f2 (3), f0 (5).
        let obs = Obs::enabled();
        let mut p = OptFileBundle::new();
        let sjf = QueueConfig {
            queue_len: 3,
            discipline: Discipline::ShortestJobFirst,
        };
        let m = run_trace(&mut p, &t, &queued(5, sjf), &obs);
        assert_eq!(m.serviced, 3);
        let jsonl = obs.jsonl();
        let arrived: Vec<&str> = jsonl
            .lines()
            .filter_map(|l| l.split("\"arrived\":").nth(1))
            .map(|s| s.split(',').next().unwrap())
            .collect();
        assert_eq!(arrived, ["1", "2", "0"]);
    }

    #[test]
    fn observed_queued_run_matches_plain_and_records_reordering() {
        let t = hot_pair_trace();
        let cfg = queued(3, QueueConfig::hrv(4));
        let mut plain_p = OptFileBundle::new();
        let plain = run(&mut plain_p, &t, &cfg);
        let obs = Obs::enabled();
        let mut obs_p = OptFileBundle::new();
        let observed = run_trace(&mut obs_p, &t, &cfg, &obs);
        assert_eq!(plain, observed);
        // 8 jobs in batches of 4.
        assert_eq!(obs.counter("queue.batches"), 2);
        assert_eq!(obs.counter("policy.requests"), 8);
        // HRV reorders: some job event must have `arrived` != service index.
        let field = |l: &str, key: &str| {
            l.split(key)
                .nth(1)
                .and_then(|s| s.split([',', '}']).next().unwrap_or("").parse::<u64>().ok())
        };
        let reordered = obs
            .jsonl()
            .lines()
            .filter(|l| l.contains("\"ev\":\"job\""))
            .any(|l| {
                field(l, "\"i\":")
                    .zip(field(l, "\"arrived\":"))
                    .is_some_and(|(a, b)| a != b)
            });
        assert!(
            reordered,
            "HRV should reorder at least one batch:\n{}",
            obs.jsonl()
        );
    }

    #[test]
    #[should_panic(expected = "queue length")]
    fn empty_queue_is_rejected() {
        let t = tiny_trace();
        let cfg = queued(4, QueueConfig::hrv(0));
        run(&mut Lru::new(), &t, &cfg);
    }

    #[test]
    fn queue_longer_than_the_trace_equals_one_as_long() {
        // A queue's reservations are capped at the trace length, so a queue
        // far longer than any memory could hold runs like the whole trace.
        let t = tiny_trace();
        for discipline in [
            Discipline::Fcfs,
            Discipline::HighestRelativeValue,
            Discipline::ShortestJobFirst,
        ] {
            let with = |queue_len| {
                let cfg = queued(
                    4,
                    QueueConfig {
                        queue_len,
                        discipline,
                    },
                );
                run(&mut Lru::new(), &t, &cfg)
            };
            assert_eq!(with(usize::MAX), with(t.len()), "{discipline:?}");
            assert_eq!(with(4_000_000_000), with(t.len()), "{discipline:?}");
        }
    }

    #[test]
    fn discipline_labels() {
        assert_eq!(Discipline::Fcfs.label(), "fcfs");
        assert_eq!(Discipline::HighestRelativeValue.label(), "hrv");
        assert_eq!(Discipline::ShortestJobFirst.label(), "sjf");
    }

    #[test]
    fn deterministic_across_runs_with_fresh_policies() {
        let trace = tiny_trace();
        let once = || {
            let mut p = OptFileBundle::new();
            run(&mut p, &trace, &RunConfig::new(4))
        };
        assert_eq!(once(), once());
    }

    /// The pre-rewrite drain, kept as the reference the planned drain is
    /// pinned against: re-scan the whole pending batch per pick
    /// (recomputing every relative value for HRV), `Vec::remove` the
    /// winner, and record every serviced job into the ranking history.
    fn reference_run_queued_observed(
        policy: &mut dyn CachePolicy,
        trace: &Trace,
        run: &RunConfig,
        obs: &Obs,
    ) -> Metrics {
        let queue = run.queue;
        assert!(queue.queue_len >= 1, "queue length must be at least 1");
        if obs.is_enabled() {
            policy.attach_obs(obs.clone());
        }
        policy.prepare(&trace.requests);
        let catalog = &trace.catalog;
        let mut cache = CacheState::new(run.cache_size);
        let mut metrics = match run.series_window {
            Some(w) => Metrics::with_series_window(w),
            None => Metrics::new(),
        };
        let mut ranking_history = RequestHistory::new();
        let mut obs_slots = OutcomeObsSlots::default();
        let mut processed: u64 = 0;
        let mut pending: Vec<(u64, Bundle)> = Vec::with_capacity(queue.queue_len.min(trace.len()));
        let mut input = trace
            .requests
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, b)| (i as u64, b));
        loop {
            while pending.len() < queue.queue_len {
                match input.next() {
                    Some(b) => pending.push(b),
                    None => break,
                }
            }
            if pending.is_empty() {
                break;
            }
            obs.incr("queue.batches");
            while !pending.is_empty() {
                let idx = match queue.discipline {
                    Discipline::Fcfs => 0,
                    Discipline::ShortestJobFirst => pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, b))| b.total_size(catalog))
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                    Discipline::HighestRelativeValue => {
                        let mut best = 0;
                        let mut best_rv = ranking_history.relative_value(&pending[0].1, catalog);
                        for (i, (_, bundle)) in pending.iter().enumerate().skip(1) {
                            let rv = ranking_history.relative_value(bundle, catalog);
                            if rv > best_rv {
                                best = i;
                                best_rv = rv;
                            }
                        }
                        best
                    }
                };
                let (arrived, bundle) = pending.remove(idx);
                obs.set_now(processed);
                let outcome = policy.handle(&bundle, &mut cache, catalog);
                outcome.record_obs(obs, &mut obs_slots);
                debug_assert!(cache.check_invariants());
                if obs.is_enabled() {
                    obs.event(
                        "job",
                        &[
                            ("i", Field::u(processed)),
                            ("arrived", Field::u(arrived)),
                            ("hit", Field::b(outcome.hit)),
                            ("serviced", Field::b(outcome.serviced)),
                            ("used", Field::u(cache.used())),
                        ],
                    );
                }
                if processed >= run.warmup_jobs {
                    metrics.record(&outcome);
                }
                processed += 1;
                ranking_history.record(&bundle);
            }
        }
        metrics
    }

    #[test]
    fn fast_drain_is_byte_identical_to_reference() {
        // Seeded Zipf workload with shared files across bundles, so HRV
        // sees plenty of value ties, shared-degree coupling, and duplicate
        // bundles — everything that could perturb the pick order.
        let w = fbc_workload::Workload::generate(fbc_workload::WorkloadConfig {
            num_files: 60,
            pool_requests: 25,
            jobs: 300,
            files_per_request: (1, 5),
            popularity: fbc_workload::Popularity::zipf(),
            seed: 42,
            ..fbc_workload::WorkloadConfig::default()
        });
        let t = Trace::new(w.catalog, w.jobs);
        for discipline in [
            Discipline::Fcfs,
            Discipline::ShortestJobFirst,
            Discipline::HighestRelativeValue,
        ] {
            for queue_len in [1, 2, 7, 32, 301] {
                // Capacity low enough that replacement decisions happen
                // constantly.
                let cfg = queued(
                    t.catalog.total_bytes() / 10,
                    QueueConfig {
                        queue_len,
                        discipline,
                    },
                );
                let ref_obs = Obs::enabled();
                let mut ref_p = OptFileBundle::new();
                let reference = reference_run_queued_observed(&mut ref_p, &t, &cfg, &ref_obs);
                let fast_obs = Obs::enabled();
                let mut fast_p = OptFileBundle::new();
                let fast = run_trace(&mut fast_p, &t, &cfg, &fast_obs);
                assert_eq!(
                    reference,
                    fast,
                    "metrics diverged: {} q={queue_len}",
                    discipline.label()
                );
                // Byte-identical event traces: same jobs, same service
                // order, same hits, same batch boundaries.
                assert_eq!(
                    ref_obs.jsonl(),
                    fast_obs.jsonl(),
                    "trace diverged: {} q={queue_len}",
                    discipline.label()
                );
            }
        }
    }
}
