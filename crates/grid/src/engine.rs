//! The discrete-event grid simulation engine.
//!
//! Ties the pieces together: clients submit [`JobArrival`]s to an SRM,
//! whose replacement policy decides what to evict; missing files are read
//! from the [`MassStorage`] (drive contention) and shipped over the
//! [`Link`] (FIFO WAN); after the data arrives the job processes it and
//! completes. Response times, throughput and cache metrics come out.
//!
//! Under a [`FaultPlan`] the engine also models failure: fetches stretched
//! or stranded by outage windows, transient fetch errors, and per-fetch
//! timeouts are retried with exponential backoff (see
//! [`RetryPolicy`]); a job whose retry budget runs out is reported
//! `failed` and its service slot is released, so the simulation always
//! terminates.
//!
//! One event loop serves every grid shape. [`run_grid_nodes`] runs it on a
//! table of SRM nodes (each with its own policy, cache and service queue,
//! fed by a [`Dispatch`]) and over either one MSS or replicated storage
//! sites ([`Placement`]); [`run_grid`] is the one-node, one-MSS case.
//!
//! Two modelling simplifications (documented in DESIGN.md): the cache
//! state is updated at *decision* time while the transfer occupies virtual
//! time — i.e. space is reserved for in-flight files, and the job's files
//! are pinned from decision to completion so no concurrent decision can
//! evict them. Consequently a failed fetch does not roll the cache state
//! back; the decision-time bookkeeping stands, consistent with the same
//! simplification on the success path.

use crate::client::JobArrival;
use crate::concurrent::ConcurrentStats;
use crate::event::EventQueue;
use crate::faults::{FaultInjector, FaultPlan};
use crate::mss::{MassStorage, MssConfig};
use crate::multi::Dispatch;
use crate::network::{Link, LinkConfig};
use crate::replica::Placement;
use crate::shard::{ShardBy, ShardMap};
use crate::srm::{pin_bundle, unpin_bundle, RetryPolicy, SrmConfig};
use crate::stats::GridStats;
use crate::time::SimTime;
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{CachePolicy, RequestOutcome};
use fbc_core::types::FileId;
use fbc_obs::{Field, Obs};
use std::collections::VecDeque;

/// Full configuration of a single-SRM grid.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GridConfig {
    /// The SRM node.
    pub srm: SrmConfig,
    /// The mass storage system behind it.
    pub mss: MssConfig,
    /// The WAN link between MSS and SRM cache.
    pub link: LinkConfig,
    /// How failed or stalled fetches are retried before a job is failed.
    pub retry: RetryPolicy,
    /// Keep the unbounded per-job response-time log (completion order) in
    /// [`GridStats::responses`]. Off by default: mean/percentiles come
    /// from the bounded accumulator either way, the log is only for
    /// consumers that need every sample.
    pub full_response_log: bool,
}

/// Everything a [`run_grid_nodes`] run takes besides its policies and
/// [`GridConfig`]. The default is one MSS, no faults and no tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// How arriving jobs are routed to the nodes (unused with one node).
    pub dispatch: Dispatch,
    /// Replicated storage: one `config.mss` per site, files placed as
    /// given. `None` reads every miss from a single MSS.
    pub placement: Option<&'a Placement>,
    /// Fault plan; a zero-fault plan ([`FaultPlan::is_zero_fault`]) gives
    /// the same run as `None`.
    pub plan: Option<&'a FaultPlan>,
    /// Observability sink; `None` is [`Obs::disabled`].
    pub obs: Option<&'a Obs>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    FetchDone(usize),
    /// A fetch attempt failed (timeout, stranded by a permanent outage, or
    /// transient error); the SRM decides between retry and giving up.
    FetchFailed(usize),
    /// Backoff elapsed: issue the next fetch attempt.
    RetryFetch(usize),
    ProcessDone(usize),
}

/// Per-job engine state, one per arrival: kept at 24 bytes. The arrival
/// time is read from the job's [`JobArrival`].
#[derive(Debug, Clone, Default)]
struct JobState {
    fetched_bytes: u64,
    requested_bytes: u64,
    /// Fetch attempts issued so far (including the one in flight).
    attempts: u32,
    /// The SRM node the job was routed to.
    node: u16,
    /// Serviced by streaming past the cache (admission bypass): the job
    /// holds no pins, so it must release none.
    streamed: bool,
}

/// One SRM node: a policy, its disk cache, a FIFO service queue, and the
/// statistics of the jobs routed to it.
struct Node<'p> {
    policy: &'p mut dyn CachePolicy,
    cache: CacheState,
    queue: VecDeque<usize>,
    in_service: usize,
    stats: GridStats,
}

/// Where missed files are read from. Both cases ship over one shared link.
enum Storage<'a> {
    /// One MSS: a job's misses are aggregated into one drive request.
    Mss(MassStorage),
    /// Replica sites: each fetched file is read from the site that
    /// finishes it earliest. A retry re-reads the whole file set, so
    /// `files[job]` keeps it.
    Replicated {
        sites: Vec<MassStorage>,
        placement: &'a Placement,
        files: Vec<Vec<FileId>>,
    },
}

impl Storage<'_> {
    /// Keeps job `i`'s fetched file list if the fetch path needs it.
    fn keep_files(&mut self, i: usize, fetched: &mut Vec<FileId>) {
        if let Storage::Replicated { files, .. } = self {
            files[i] = std::mem::take(fetched);
        }
    }

    /// Reads job `i`'s `bytes` of misses starting at `now` and ships them
    /// over `link`. Returns when the last byte arrives, or `None` when an
    /// outage strands the read for good.
    fn fetch(
        &mut self,
        i: usize,
        bytes: u64,
        now: SimTime,
        link: &mut Link,
        catalog: &FileCatalog,
        faults: Option<&FaultInjector>,
    ) -> Option<SimTime> {
        match self {
            Storage::Mss(mss) => {
                let read_done = mss.schedule_fetch_with(now, bytes, faults)?;
                link.schedule_transfer_with(read_done, bytes, faults)
            }
            Storage::Replicated {
                sites,
                placement,
                files,
            } => {
                // Schedule every fetched file on its best replica; the
                // bundle is complete when the slowest file crosses the link.
                let mut done = SimTime::ZERO;
                for &f in &files[i] {
                    let size = catalog.size(f);
                    let replicas = placement.replicas_of(f);
                    assert!(!replicas.is_empty(), "file {f} has no replica");
                    // Greedy replica selection: probe each candidate site
                    // (a cheap clone — drive state is a small Vec) for the
                    // completion time it would give this read, commit to
                    // the earliest. A site that can never finish sorts last.
                    let best = replicas
                        .iter()
                        .copied()
                        .min_by_key(|&s| {
                            sites[s as usize]
                                .clone()
                                .schedule_fetch_with(now, size, faults)
                                .unwrap_or(SimTime(u64::MAX))
                        })
                        .expect("non-empty replicas");
                    let read_done = sites[best as usize].schedule_fetch_with(now, size, faults)?;
                    let arrive = link.schedule_transfer_with(read_done, size, faults)?;
                    done = done.max(arrive);
                }
                Some(done)
            }
        }
    }
}

/// The state all nodes share: the clock, the fetch path and the jobs.
struct Grid<'a> {
    config: &'a GridConfig,
    catalog: &'a FileCatalog,
    arrivals: &'a [JobArrival],
    obs: &'a Obs,
    events: EventQueue<Event>,
    storage: Storage<'a>,
    link: Link,
    faults: Option<FaultInjector>,
    jobs: Vec<JobState>,
}

impl<'a> Grid<'a> {
    /// Issues one fetch attempt for job `i` at `now`, scheduling either
    /// `FetchDone` or `FetchFailed`.
    fn issue_fetch(&mut self, i: usize, now: SimTime, stats: &mut GridStats) {
        let bytes = self.jobs[i].fetched_bytes;
        if bytes == 0 {
            // Pure cache hit: nothing to fetch, nothing that can fail.
            self.events.schedule(now, Event::FetchDone(i));
            return;
        }
        stats.fetch_attempts += 1;
        self.jobs[i].attempts += 1;
        let obs = self.obs;
        if obs.is_enabled() {
            obs.incr("grid.fetch_attempts");
            obs.event(
                "fetch",
                &[
                    ("job", Field::u(i as u64)),
                    ("bytes", Field::u(bytes)),
                    ("attempt", Field::u(self.jobs[i].attempts as u64)),
                ],
            );
        }
        let arrive = self.storage.fetch(
            i,
            bytes,
            now,
            &mut self.link,
            self.catalog,
            self.faults.as_ref(),
        );
        let deadline = self.config.retry.fetch_timeout.map(|t| now + t);
        match arrive {
            Some(done) => {
                if let Some(deadline) = deadline {
                    if done > deadline {
                        // The attempt would finish, but not before the SRM gives
                        // up on it. The drive/link stay occupied (no cancellation
                        // in the MSS protocol); the SRM just stops waiting.
                        stats.fetch_timeouts += 1;
                        if obs.is_enabled() {
                            obs.incr("grid.fetch_timeouts");
                            obs.event("fetch_timeout", &[("job", Field::u(i as u64))]);
                        }
                        self.events.schedule(deadline, Event::FetchFailed(i));
                        return;
                    }
                }
                let transient = self
                    .faults
                    .as_mut()
                    .is_some_and(|inj| inj.draw_transient_failure());
                if transient {
                    stats.transient_fetch_errors += 1;
                    if obs.is_enabled() {
                        obs.incr("grid.transient_errors");
                        obs.event("transient_fault", &[("job", Field::u(i as u64))]);
                    }
                    self.events.schedule(done, Event::FetchFailed(i));
                } else {
                    self.events.schedule(done, Event::FetchDone(i));
                }
            }
            None => {
                // A permanent outage strands the attempt: it can never complete.
                // With a timeout the SRM notices at the deadline; without one it
                // would wait forever, so fail the attempt immediately — the
                // simulation must terminate either way.
                stats.fetch_timeouts += 1;
                if obs.is_enabled() {
                    obs.incr("grid.fetch_timeouts");
                    obs.event("fetch_stranded", &[("job", Field::u(i as u64))]);
                }
                self.events
                    .schedule(deadline.unwrap_or(now), Event::FetchFailed(i));
            }
        }
    }

    /// Puts serviced job `i` in service on `node`: pins its files (a job
    /// streamed past the cache has none resident to pin) and fetches.
    fn admit(&mut self, node: &mut Node, i: usize, outcome: &RequestOutcome, now: SimTime) {
        if !outcome.streamed {
            pin_bundle(&mut node.cache, &self.arrivals[i].bundle);
        }
        node.in_service += 1;
        let job = &mut self.jobs[i];
        job.fetched_bytes = outcome.fetched_bytes;
        job.requested_bytes = outcome.requested_bytes;
        job.streamed = outcome.streamed;
        self.issue_fetch(i, now, &mut node.stats);
    }

    /// Starts as many of `node`'s queued jobs as concurrency and pins allow.
    fn start_jobs(&mut self, node: &mut Node, now: SimTime) {
        let arrivals = self.arrivals;
        let max_concurrent = self.config.srm.max_concurrent_jobs;
        while node.in_service < max_concurrent {
            let Some(&i) = node.queue.front() else { break };
            let mut outcome =
                node.policy
                    .handle(&arrivals[i].bundle, &mut node.cache, self.catalog);
            debug_assert!(node.cache.check_invariants());
            node.stats.cache.record(&outcome);
            if !outcome.serviced {
                if outcome.requested_bytes > node.cache.capacity() {
                    // Permanently infeasible: reject.
                    node.queue.pop_front();
                    node.stats.rejected += 1;
                    if self.obs.is_enabled() {
                        self.obs.incr("grid.jobs_rejected");
                        self.obs.event("reject", &[("job", Field::u(i as u64))]);
                    }
                    continue;
                }
                // Pinned files of in-service jobs block the space; retry
                // when a job completes. With nothing in service this would
                // deadlock — treat it as a policy bug.
                assert!(
                    node.in_service > 0,
                    "policy failed to service a feasible request on an unpinned cache"
                );
                break;
            }
            node.queue.pop_front();
            self.storage.keep_files(i, &mut outcome.fetched_files);
            self.admit(node, i, &outcome, now);
        }
    }
}

/// Ends `job`'s service on `node`: releases its pins and its slot.
fn release(node: &mut Node, job: &JobState, bundle: &Bundle) {
    if !job.streamed {
        unpin_bundle(&mut node.cache, bundle);
    }
    node.in_service -= 1;
}

/// The node an arriving job is routed to.
fn route(dispatch: Dispatch, nodes: &[Node], bundle: &Bundle, rr_next: &mut usize) -> usize {
    if nodes.len() == 1 {
        return 0;
    }
    match dispatch {
        Dispatch::RoundRobin => {
            let n = *rr_next;
            *rr_next = (n + 1) % nodes.len();
            n
        }
        Dispatch::LeastLoaded => nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, node)| node.queue.len() + node.in_service)
            .map(|(n, _)| n)
            .expect("at least one node"),
        Dispatch::BundleAffinity => ShardMap::new(nodes.len(), ShardBy::Bundle).shard_of(bundle),
    }
}

/// The event loop. Returns per-node statistics (every node's makespan is
/// the run's: the nodes share one clock) and the jobs routed to each.
fn simulate(
    policies: &mut [&mut dyn CachePolicy],
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    opts: RunOptions,
) -> (Vec<GridStats>, Vec<u64>) {
    assert!(!policies.is_empty(), "need at least one SRM node");
    assert!(
        arrivals.windows(2).all(|w| w[0].at <= w[1].at),
        "arrivals must be sorted by arrival time"
    );
    assert!(
        policies.len() <= usize::from(u16::MAX),
        "at most {} SRM nodes",
        u16::MAX
    );
    let disabled = Obs::disabled();
    let obs = opts.obs.unwrap_or(&disabled);
    let mut nodes: Vec<Node> = policies
        .iter_mut()
        .map(|policy| {
            if obs.is_enabled() {
                policy.attach_obs(obs.clone());
            }
            policy.prepare_from(&mut arrivals.iter().map(|a| &a.bundle));
            let mut stats = GridStats::default();
            if config.full_response_log {
                stats.responses.enable_full_log();
            }
            Node {
                policy: &mut **policy,
                cache: CacheState::with_catalog(config.srm.cache_size, catalog),
                queue: VecDeque::new(),
                in_service: 0,
                stats,
            }
        })
        .collect();

    let storage = match opts.placement {
        None => Storage::Mss(MassStorage::new(config.mss)),
        Some(placement) => Storage::Replicated {
            sites: (0..placement.sites())
                .map(|_| MassStorage::new(config.mss))
                .collect(),
            placement,
            files: vec![Vec::new(); arrivals.len()],
        },
    };
    let mut grid = Grid {
        config,
        catalog,
        arrivals,
        obs,
        events: EventQueue::new(),
        storage,
        link: Link::new(config.link),
        faults: opts.plan.map(|p| FaultInjector::new(p, config.mss.drives)),
        jobs: vec![JobState::default(); arrivals.len()],
    };
    let mut routed = vec![0u64; nodes.len()];
    let mut rr_next = 0usize;
    let mut last_completion = SimTime::ZERO;
    // Arrivals stream past the heap, which holds only in-flight events.
    let mut pending = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (a.at, Event::Arrival(i)))
        .peekable();

    while let Some((now, event)) = grid.events.pop_merged(&mut pending) {
        obs.set_now(now.micros());
        // The job whose node may start queued work after this event.
        let i = match event {
            Event::Arrival(i) => {
                if obs.is_enabled() {
                    obs.incr("grid.arrivals");
                    obs.event("arrival", &[("job", Field::u(i as u64))]);
                }
                let n = route(opts.dispatch, &nodes, &arrivals[i].bundle, &mut rr_next);
                routed[n] += 1;
                grid.jobs[i].node = n as u16;
                nodes[n].queue.push_back(i);
                i
            }
            Event::FetchDone(i) => {
                let processing = config.srm.processing_time(grid.jobs[i].requested_bytes);
                grid.events
                    .schedule(now + processing, Event::ProcessDone(i));
                continue; // no new service slot freed
            }
            Event::FetchFailed(i) => {
                let job = &grid.jobs[i];
                let node = &mut nodes[job.node as usize];
                if job.attempts <= config.retry.max_retries {
                    node.stats.fetch_retries += 1;
                    let jitter = grid
                        .faults
                        .as_mut()
                        .map_or(1.0, |inj| inj.backoff_jitter(config.retry.jitter_frac));
                    let delay = config.retry.backoff(job.attempts, jitter);
                    if obs.is_enabled() {
                        obs.incr("grid.fetch_retries");
                        obs.event(
                            "retry",
                            &[
                                ("job", Field::u(i as u64)),
                                ("attempt", Field::u(job.attempts as u64)),
                                ("backoff_us", Field::u(delay.micros())),
                            ],
                        );
                    }
                    grid.events.schedule(now + delay, Event::RetryFetch(i));
                    continue; // slot stays held while backing off
                }
                // Retry budget exhausted: give the job up gracefully.
                release(node, job, &arrivals[i].bundle);
                node.stats.failed += 1;
                if obs.is_enabled() {
                    obs.incr("grid.jobs_failed");
                    obs.event(
                        "job_failed",
                        &[
                            ("job", Field::u(i as u64)),
                            ("attempts", Field::u(job.attempts as u64)),
                        ],
                    );
                }
                i // a service slot is now free
            }
            Event::RetryFetch(i) => {
                let n = grid.jobs[i].node as usize;
                grid.issue_fetch(i, now, &mut nodes[n].stats);
                continue;
            }
            Event::ProcessDone(i) => {
                let job = &grid.jobs[i];
                let node = &mut nodes[job.node as usize];
                release(node, job, &arrivals[i].bundle);
                let response = now.since(arrivals[i].at);
                node.stats.completed += 1;
                node.stats.responses.record(response);
                last_completion = last_completion.max(now);
                if obs.is_enabled() {
                    obs.incr("grid.jobs_completed");
                    obs.observe("grid.response_us", response.micros());
                    obs.event(
                        "job_done",
                        &[
                            ("job", Field::u(i as u64)),
                            ("response_us", Field::u(response.micros())),
                        ],
                    );
                }
                i
            }
        };
        // Only the touched node can start work: polling another would call
        // its policy again on a still-blocked request and change its history.
        let n = grid.jobs[i].node as usize;
        grid.start_jobs(&mut nodes[n], now);
    }

    let makespan = last_completion.since(SimTime::ZERO);
    let per_node = nodes
        .into_iter()
        .map(|node| GridStats {
            makespan,
            ..node.stats
        })
        .collect();
    (per_node, routed)
}

/// Runs the grid simulation to completion and returns its statistics.
///
/// `arrivals` must be sorted by arrival time (as produced by
/// [`crate::client::schedule_arrivals`]).
///
/// # Panics
/// Panics if `arrivals` is not sorted by arrival time.
pub fn run_grid(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
) -> GridStats {
    run_grid_observed(policy, catalog, arrivals, config, None, &Obs::disabled())
}

/// [`run_grid`] under an optional [`FaultPlan`] and with an observability
/// sink.
///
/// A `Some` plan compiles into a [`FaultInjector`]; a zero-fault plan
/// ([`FaultPlan::is_zero_fault`]) draws nothing from the plan's generator
/// and produces byte-identical statistics to a `None` run — see the
/// determinism contract in [`crate::faults`].
///
/// With an enabled `obs` the engine attaches a clone to the policy,
/// stamps the virtual clock with **simulated microseconds** at every
/// event-loop step, and traces the whole fetch lifecycle — `fetch`,
/// `fetch_timeout`, `transient_fault`, `fetch_stranded`, `retry` — plus
/// job arrival/completion/failure/rejection, under `grid.*` counters.
/// A disabled `obs` never changes the result.
pub fn run_grid_observed(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> GridStats {
    let opts = RunOptions {
        plan,
        obs: Some(obs),
        ..RunOptions::default()
    };
    let (mut per_node, _) = simulate(&mut [policy], catalog, arrivals, config, opts);
    per_node.pop().expect("one node")
}

/// Runs the grid on a cluster of SRM nodes: `policies[n]` drives node
/// `n`, whose cache, service queue and concurrency limit are each a copy
/// of `config.srm`. Every node shares the storage and the WAN link.
///
/// `overall` merges the per-node statistics in node order. With one node
/// and default options this is [`run_grid`].
///
/// # Panics
/// Panics if `policies` is empty or `arrivals` is not sorted by arrival
/// time.
pub fn run_grid_nodes(
    policies: &mut [&mut dyn CachePolicy],
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    opts: RunOptions,
) -> ConcurrentStats {
    let (per_node, routed) = simulate(policies, catalog, arrivals, config, opts);
    ConcurrentStats::merge(per_node, routed, config.full_response_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{schedule_arrivals, ArrivalProcess};
    use crate::time::SimDuration;
    use fbc_baselines::{AdmissionGate, Lru};
    use fbc_core::optfilebundle::OptFileBundle;

    fn quick_config(cache_size: u64) -> GridConfig {
        GridConfig {
            srm: SrmConfig {
                cache_size,
                max_concurrent_jobs: 2,
                processing_rate: 1e6,
                processing_overhead: SimDuration::from_millis(10),
            },
            mss: MssConfig {
                drives: 2,
                mount_latency: SimDuration::from_millis(100),
                drive_bandwidth: 10e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(1),
                bandwidth: 100e6,
            },
            retry: RetryPolicy::default(),
            full_response_log: true, // tests below inspect per-job times
        }
    }

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    fn run_faulted(
        policy: &mut dyn CachePolicy,
        catalog: &FileCatalog,
        arrivals: &[JobArrival],
        config: &GridConfig,
        plan: &FaultPlan,
    ) -> GridStats {
        run_grid_observed(
            policy,
            catalog,
            arrivals,
            config,
            Some(plan),
            &Obs::disabled(),
        )
    }

    #[test]
    fn job_state_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<JobState>(), 24);
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted by arrival time")]
    fn unsorted_arrivals_panic() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 2]);
        let gap = SimDuration::from_secs(1);
        let mut arrivals = schedule_arrivals(&[b(&[0]), b(&[1])], ArrivalProcess::Uniform { gap });
        arrivals.reverse();
        let mut policy = OptFileBundle::new();
        run_grid(&mut policy, &catalog, &arrivals, &quick_config(4_000_000));
    }

    #[test]
    fn all_jobs_complete() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 6]);
        let jobs = vec![b(&[0, 1]), b(&[2, 3]), b(&[0, 1]), b(&[4, 5])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &quick_config(4_000_000));
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.responses.len(), 4);
        assert!(stats.makespan > SimDuration::ZERO);
        assert!(stats.throughput() > 0.0);
        assert_eq!(stats.availability(), 1.0);
    }

    #[test]
    fn hits_complete_faster_than_misses() {
        let catalog = FileCatalog::from_sizes(vec![5_000_000; 2]);
        // Same bundle twice with widely spaced arrivals: second is a hit.
        let jobs = vec![b(&[0, 1]), b(&[0, 1])];
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Uniform {
                gap: SimDuration::from_secs(60),
            },
        );
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &quick_config(20_000_000));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache.hits, 1);
        // The hit skips MSS entirely.
        let log = stats.responses.full_log().unwrap();
        assert!(log[1] < log[0]);
    }

    #[test]
    fn oversized_jobs_are_rejected_not_deadlocked() {
        let catalog = FileCatalog::from_sizes(vec![10_000_000, 100]);
        let jobs = vec![b(&[0]), b(&[1])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &quick_config(1_000_000));
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Refuses every request while claiming it fits: a policy bug.
    struct Refuser;

    impl CachePolicy for Refuser {
        fn name(&self) -> &str {
            "refuser"
        }

        fn handle(
            &mut self,
            bundle: &Bundle,
            _cache: &mut CacheState,
            catalog: &FileCatalog,
        ) -> RequestOutcome {
            RequestOutcome {
                requested_bytes: bundle.total_size(catalog),
                ..RequestOutcome::default()
            }
        }

        fn reset(&mut self) {}
    }

    #[test]
    #[should_panic(expected = "policy failed to service a feasible request")]
    fn refusing_a_feasible_request_on_an_idle_node_panics() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000]);
        let arrivals = schedule_arrivals(&[b(&[0])], ArrivalProcess::Batch);
        run_grid(&mut Refuser, &catalog, &arrivals, &quick_config(4_000_000));
    }

    /// Regression: a job the admission gate streams past the cache has no
    /// resident files, so pinning them used to panic.
    #[test]
    fn streamed_jobs_complete_without_pins() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 4]);
        let arrivals = schedule_arrivals(&[b(&[0, 1]), b(&[2, 3])], ArrivalProcess::Batch);
        let cfg = quick_config(4_000_000);
        let single = run_grid(
            &mut AdmissionGate::second_hit(Lru::new()),
            &catalog,
            &arrivals,
            &cfg,
        );
        assert_eq!(single.completed, 2);
        assert_eq!(single.cache.hits, 0);
        assert_eq!(single.cache.fetched_bytes, 4_000_000);
        // The same loop serves clusters and replicated storage.
        let placement = Placement::full(4, 2);
        let mut a = AdmissionGate::second_hit(Lru::new());
        let mut c = AdmissionGate::second_hit(Lru::new());
        let cluster = run_grid_nodes(
            &mut [&mut a, &mut c],
            &catalog,
            &arrivals,
            &cfg,
            RunOptions {
                dispatch: Dispatch::RoundRobin,
                placement: Some(&placement),
                ..RunOptions::default()
            },
        );
        assert_eq!(cluster.overall.completed, 2);
        assert_eq!(cluster.routed, vec![1, 1]);
    }

    #[test]
    fn contention_serialises_jobs() {
        // One service slot: jobs must queue even though all arrive at once.
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 4]);
        let jobs = vec![b(&[0]), b(&[1]), b(&[2]), b(&[3])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(10_000_000);
        cfg.srm.max_concurrent_jobs = 1;
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &cfg);
        assert_eq!(stats.completed, 4);
        // Later jobs wait: response times strictly increase.
        for w in stats.responses.full_log().unwrap().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..20).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Poisson {
                rate: 2.0,
                seed: 42,
            },
        );
        let run = || {
            let mut policy = OptFileBundle::new();
            let s = run_grid(&mut policy, &catalog, &arrivals, &quick_config(3_000_000));
            (s.completed, s.makespan, s.responses.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_fault_plan_matches_no_injector_run() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..20).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Poisson {
                rate: 2.0,
                seed: 42,
            },
        );
        let cfg = quick_config(3_000_000);
        let mut p1 = OptFileBundle::new();
        let plain = run_grid(&mut p1, &catalog, &arrivals, &cfg);
        let mut p2 = OptFileBundle::new();
        let zero = run_faulted(&mut p2, &catalog, &arrivals, &cfg, &FaultPlan::none());
        assert_eq!(plain, zero);
    }

    #[test]
    fn outage_then_repair_retries_to_success() {
        // Both drives down for the first 60 s and a 10 s fetch timeout: the
        // first attempts strand, back off, and succeed after the repair.
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 2]);
        let jobs = vec![b(&[0]), b(&[1])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(4_000_000);
        cfg.retry = RetryPolicy {
            max_retries: 8,
            base_backoff: SimDuration::from_secs(20),
            max_backoff: SimDuration::from_secs(20),
            jitter_frac: 0.0,
            fetch_timeout: Some(SimDuration::from_secs(10)),
        };
        let plan = FaultPlan::parse("drive=*,0,60").unwrap();
        let mut policy = OptFileBundle::new();
        let stats = run_faulted(&mut policy, &catalog, &arrivals, &cfg, &plan);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert!(
            stats.fetch_retries > 0,
            "expected retries during the outage"
        );
        assert!(stats.fetch_timeouts > 0);
        assert_eq!(stats.availability(), 1.0);
        // The outage pushes completion past the repair time.
        assert!(stats.makespan >= SimDuration::from_secs(60));
    }

    #[test]
    fn observed_run_matches_plain_and_traces_the_fetch_lifecycle() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..20).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Poisson {
                rate: 2.0,
                seed: 42,
            },
        );
        let mut cfg = quick_config(3_000_000);
        cfg.retry.max_retries = 4;
        let plan = fbc_grid_faultplan();
        let mut p1 = OptFileBundle::new();
        let plain = run_faulted(&mut p1, &catalog, &arrivals, &cfg, &plan);

        let obs = fbc_obs::Obs::enabled();
        let mut p2 = OptFileBundle::new();
        let observed = run_grid_observed(&mut p2, &catalog, &arrivals, &cfg, Some(&plan), &obs);
        // Observation never perturbs the simulation.
        assert_eq!(plain, observed);
        // Counters mirror the stats the engine already aggregates.
        assert_eq!(obs.counter("grid.arrivals"), 20);
        assert_eq!(obs.counter("grid.jobs_completed"), plain.completed);
        assert_eq!(obs.counter("grid.fetch_attempts"), plain.fetch_attempts);
        assert_eq!(obs.counter("grid.fetch_retries"), plain.fetch_retries);
        // The trace is stamped with simulated microseconds and replays
        // byte-identically under the same seed.
        let obs2 = fbc_obs::Obs::enabled();
        let mut p3 = OptFileBundle::new();
        run_grid_observed(&mut p3, &catalog, &arrivals, &cfg, Some(&plan), &obs2);
        assert_eq!(obs.jsonl(), obs2.jsonl());
        assert_eq!(obs.render_table(), obs2.render_table());
    }

    fn fbc_grid_faultplan() -> FaultPlan {
        FaultPlan::parse("drive=0,2,10").unwrap()
    }

    #[test]
    fn permanent_blackout_fails_jobs_without_hanging() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 3]);
        let jobs = vec![b(&[0]), b(&[1]), b(&[2])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(4_000_000);
        cfg.retry.max_retries = 2;
        let plan = FaultPlan::preset("blackout").unwrap();
        let mut policy = OptFileBundle::new();
        let stats = run_faulted(&mut policy, &catalog, &arrivals, &cfg, &plan);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.availability(), 0.0);
        // Every job used its whole budget: 3 attempts, 2 retries each.
        assert_eq!(stats.fetch_attempts, 9);
        assert_eq!(stats.fetch_retries, 6);
    }
}
