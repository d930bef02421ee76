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
use fbc_core::policy::{CachePolicy, OutcomeObsSlots, RequestOutcome};
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

/// The jobs of one run, read in place: the caller's arrivals, or the ones
/// a shard was routed, named by their indices. Job `i` of the run is the
/// view's `i`-th arrival, so obs `job` fields number a shard's jobs from 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalView<'a> {
    arrivals: &'a [JobArrival],
    /// Indices into `arrivals`, ascending; `None` is every arrival.
    picks: Option<&'a [u32]>,
}

impl<'a> ArrivalView<'a> {
    /// Every arrival, in order.
    pub(crate) fn all(arrivals: &'a [JobArrival]) -> Self {
        Self {
            arrivals,
            picks: None,
        }
    }

    /// The arrivals at `picks`, in that order.
    pub(crate) fn picked(arrivals: &'a [JobArrival], picks: &'a [u32]) -> Self {
        Self {
            arrivals,
            picks: Some(picks),
        }
    }

    fn len(&self) -> usize {
        self.picks.map_or(self.arrivals.len(), <[u32]>::len)
    }

    /// Job `i` of the run.
    fn get(&self, i: u32) -> &'a JobArrival {
        match self.picks {
            None => &self.arrivals[i as usize],
            Some(picks) => &self.arrivals[picks[i as usize] as usize],
        }
    }

    fn iter(self) -> impl Iterator<Item = &'a JobArrival> {
        (0..self.len() as u32).map(move |i| self.get(i))
    }
}

/// An engine event. `Arrival` carries the job's index in the arrivals;
/// every other event carries the service slot of a job in service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(u32),
    FetchDone(u32),
    /// A fetch attempt failed (timeout, stranded by a permanent outage, or
    /// transient error); the SRM decides between retry and giving up.
    FetchFailed(u32),
    /// Backoff elapsed: issue the next fetch attempt.
    RetryFetch(u32),
    ProcessDone(u32),
}

/// The engine state of one job in service, held in a service slot from
/// admission until it completes or fails for good. Queued jobs have none.
#[derive(Debug)]
struct JobState {
    fetched_bytes: u64,
    requested_bytes: u64,
    /// The job's index in the arrivals: its bundle, its arrival time and
    /// the `job` field of every obs event.
    job: u32,
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
    /// Arrival indices of the jobs waiting for a service slot.
    queue: VecDeque<u32>,
    in_service: usize,
    stats: GridStats,
}

/// Where missed files are read from. Both cases ship over one shared link.
enum Storage<'a> {
    /// One MSS: a job's misses are aggregated into one drive request.
    Mss(MassStorage),
    /// Replica sites: each fetched file is read from the site that
    /// finishes it earliest. A retry re-reads the whole file set, so
    /// `files[slot]` keeps it.
    Replicated {
        sites: Vec<MassStorage>,
        placement: &'a Placement,
        files: Vec<Vec<FileId>>,
    },
}

impl Storage<'_> {
    /// Keeps the fetched file list of the job in `slot` if the fetch path
    /// needs it.
    fn keep_files(&mut self, slot: usize, fetched: &mut Vec<FileId>) {
        if let Storage::Replicated { files, .. } = self {
            if slot == files.len() {
                files.push(Vec::new());
            }
            files[slot] = std::mem::take(fetched);
        }
    }

    /// Reads the `bytes` of misses of the job in `slot` starting at `now`
    /// and ships them over `link`. Returns when the last byte arrives, or
    /// `None` when an outage strands the read for good.
    fn fetch(
        &mut self,
        slot: usize,
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
                for &f in &files[slot] {
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

/// The state all nodes share: the clock, the fetch path and the jobs in
/// service.
struct Grid<'a> {
    config: &'a GridConfig,
    catalog: &'a FileCatalog,
    arrivals: ArrivalView<'a>,
    obs: &'a Obs,
    /// Memoized slots for the `policy.*` flush after each `handle`.
    obs_slots: OutcomeObsSlots,
    events: EventQueue<Event>,
    storage: Storage<'a>,
    link: Link,
    faults: Option<FaultInjector>,
    /// Service slots: a slab of the jobs in service, grown on demand, so
    /// it never holds more than the nodes' concurrency limits together.
    jobs: Vec<JobState>,
    /// Free slots of `jobs`, reused last freed first.
    free: Vec<u32>,
}

impl<'a> Grid<'a> {
    /// Issues one fetch attempt for the job in `slot` at `now`, scheduling
    /// either `FetchDone` or `FetchFailed`.
    fn issue_fetch(&mut self, slot: u32, now: SimTime, stats: &mut GridStats) {
        let job = &mut self.jobs[slot as usize];
        let bytes = job.fetched_bytes;
        if bytes == 0 {
            // Pure cache hit: nothing to fetch, nothing that can fail.
            self.events.schedule(now, Event::FetchDone(slot));
            return;
        }
        stats.fetch_attempts += 1;
        job.attempts += 1;
        let (i, attempts) = (u64::from(job.job), job.attempts);
        let obs = self.obs;
        if obs.is_enabled() {
            obs.incr("grid.fetch_attempts");
            obs.event(
                "fetch",
                &[
                    ("job", Field::u(i)),
                    ("bytes", Field::u(bytes)),
                    ("attempt", Field::u(u64::from(attempts))),
                ],
            );
        }
        let arrive = self.storage.fetch(
            slot as usize,
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
                            obs.event("fetch_timeout", &[("job", Field::u(i))]);
                        }
                        self.events.schedule(deadline, Event::FetchFailed(slot));
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
                        obs.event("transient_fault", &[("job", Field::u(i))]);
                    }
                    self.events.schedule(done, Event::FetchFailed(slot));
                } else {
                    self.events.schedule(done, Event::FetchDone(slot));
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
                    obs.event("fetch_stranded", &[("job", Field::u(i))]);
                }
                self.events
                    .schedule(deadline.unwrap_or(now), Event::FetchFailed(slot));
            }
        }
    }

    /// Puts serviced job `i` in service on `node`: takes a service slot,
    /// pins its files (a job streamed past the cache has none resident to
    /// pin) and fetches.
    fn admit(
        &mut self,
        node: &mut Node,
        n: usize,
        i: u32,
        outcome: &mut RequestOutcome,
        now: SimTime,
    ) {
        if !outcome.streamed {
            pin_bundle(&mut node.cache, &self.arrivals.get(i).bundle);
        }
        node.in_service += 1;
        let job = JobState {
            fetched_bytes: outcome.fetched_bytes,
            requested_bytes: outcome.requested_bytes,
            job: i,
            attempts: 0,
            node: n as u16,
            streamed: outcome.streamed,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.jobs[slot as usize] = job;
                slot
            }
            None => {
                self.jobs.push(job);
                (self.jobs.len() - 1) as u32
            }
        };
        self.storage
            .keep_files(slot as usize, &mut outcome.fetched_files);
        self.issue_fetch(slot, now, &mut node.stats);
    }

    /// Starts as many of node `n`'s queued jobs as concurrency and pins
    /// allow.
    fn start_jobs(&mut self, node: &mut Node, n: usize, now: SimTime) {
        let arrivals = self.arrivals;
        let max_concurrent = self.config.srm.max_concurrent_jobs;
        while node.in_service < max_concurrent {
            let Some(&i) = node.queue.front() else { break };
            let mut outcome =
                node.policy
                    .handle(&arrivals.get(i).bundle, &mut node.cache, self.catalog);
            outcome.record_obs(self.obs, &mut self.obs_slots);
            debug_assert!(node.cache.check_invariants());
            node.stats.cache.record(&outcome);
            if !outcome.serviced {
                if outcome.requested_bytes > node.cache.capacity() {
                    // Permanently infeasible: reject.
                    node.queue.pop_front();
                    node.stats.rejected += 1;
                    if self.obs.is_enabled() {
                        self.obs.incr("grid.jobs_rejected");
                        self.obs.event("reject", &[("job", Field::u(u64::from(i)))]);
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
            self.admit(node, n, i, &mut outcome, now);
        }
    }

    /// Ends the service of the job in `slot`: releases its pins and its
    /// node's service slot, and frees `slot`. Returns the job's node.
    fn release(&mut self, nodes: &mut [Node], slot: u32) -> usize {
        let job = &self.jobs[slot as usize];
        let node = &mut nodes[job.node as usize];
        if !job.streamed {
            unpin_bundle(&mut node.cache, &self.arrivals.get(job.job).bundle);
        }
        node.in_service -= 1;
        self.free.push(slot);
        job.node as usize
    }
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

/// What a [`simulate`] run leaves: per-node statistics (every node's
/// makespan is the run's: the nodes share one clock), the jobs routed to
/// each node, and the number of service slots the run allocated.
struct Simulated {
    per_node: Vec<GridStats>,
    routed: Vec<u64>,
    #[cfg_attr(not(test), allow(dead_code))]
    slots: usize,
}

/// The event loop.
fn simulate(
    policies: &mut [&mut dyn CachePolicy],
    catalog: &FileCatalog,
    arrivals: ArrivalView,
    config: &GridConfig,
    opts: RunOptions,
) -> Simulated {
    assert!(!policies.is_empty(), "need at least one SRM node");
    assert!(
        policies.len() <= usize::from(u16::MAX),
        "at most {} SRM nodes",
        u16::MAX
    );
    assert!(
        u32::try_from(arrivals.len()).is_ok(),
        "at most {} arrivals",
        u32::MAX
    );
    assert!(
        arrivals
            .iter()
            .zip(arrivals.iter().skip(1))
            .all(|(a, b)| a.at <= b.at),
        "arrivals must be sorted by arrival time"
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
            Node {
                policy: &mut **policy,
                cache: CacheState::with_catalog(config.srm.cache_size, catalog),
                queue: VecDeque::new(),
                in_service: 0,
                stats: GridStats::default(),
            }
        })
        .collect();
    // One node completes at most every job: size its samples up front.
    if let [node] = nodes.as_mut_slice() {
        node.stats.responses.reserve(arrivals.len());
    }

    let storage = match opts.placement {
        None => Storage::Mss(MassStorage::new(config.mss)),
        Some(placement) => Storage::Replicated {
            sites: (0..placement.sites())
                .map(|_| MassStorage::new(config.mss))
                .collect(),
            placement,
            files: Vec::new(),
        },
    };
    let mut grid = Grid {
        config,
        catalog,
        arrivals,
        obs,
        obs_slots: OutcomeObsSlots::default(),
        events: EventQueue::new(),
        storage,
        link: Link::new(config.link),
        faults: opts.plan.map(|p| FaultInjector::new(p, config.mss.drives)),
        jobs: Vec::new(),
        free: Vec::new(),
    };
    let mut routed = vec![0u64; nodes.len()];
    let mut rr_next = 0usize;
    let mut last_completion = SimTime::ZERO;
    // Arrivals stream past the heap, which holds only in-flight events.
    let mut pending = (0..arrivals.len() as u32)
        .map(|i| (arrivals.get(i).at, Event::Arrival(i)))
        .peekable();

    while let Some((now, event)) = grid.events.pop_merged(&mut pending) {
        obs.set_now(now.micros());
        // The node that may start queued work after this event.
        let n = match event {
            Event::Arrival(i) => {
                if obs.is_enabled() {
                    obs.incr("grid.arrivals");
                    obs.event("arrival", &[("job", Field::u(u64::from(i)))]);
                }
                let bundle = &arrivals.get(i).bundle;
                let n = route(opts.dispatch, &nodes, bundle, &mut rr_next);
                routed[n] += 1;
                nodes[n].queue.push_back(i);
                n
            }
            Event::FetchDone(slot) => {
                let processing = config
                    .srm
                    .processing_time(grid.jobs[slot as usize].requested_bytes);
                grid.events
                    .schedule(now + processing, Event::ProcessDone(slot));
                continue; // no new service slot freed
            }
            Event::FetchFailed(slot) => {
                let job = &grid.jobs[slot as usize];
                let (i, attempts) = (u64::from(job.job), job.attempts);
                let node = &mut nodes[job.node as usize];
                if attempts <= config.retry.max_retries {
                    node.stats.fetch_retries += 1;
                    let jitter = grid
                        .faults
                        .as_mut()
                        .map_or(1.0, |inj| inj.backoff_jitter(config.retry.jitter_frac));
                    let delay = config.retry.backoff(attempts, jitter);
                    if obs.is_enabled() {
                        obs.incr("grid.fetch_retries");
                        obs.event(
                            "retry",
                            &[
                                ("job", Field::u(i)),
                                ("attempt", Field::u(u64::from(attempts))),
                                ("backoff_us", Field::u(delay.micros())),
                            ],
                        );
                    }
                    grid.events.schedule(now + delay, Event::RetryFetch(slot));
                    continue; // slot stays held while backing off
                }
                // Retry budget exhausted: give the job up gracefully.
                let n = grid.release(&mut nodes, slot);
                nodes[n].stats.failed += 1;
                if obs.is_enabled() {
                    obs.incr("grid.jobs_failed");
                    obs.event(
                        "job_failed",
                        &[
                            ("job", Field::u(i)),
                            ("attempts", Field::u(u64::from(attempts))),
                        ],
                    );
                }
                n // a service slot is now free
            }
            Event::RetryFetch(slot) => {
                let n = grid.jobs[slot as usize].node as usize;
                grid.issue_fetch(slot, now, &mut nodes[n].stats);
                continue;
            }
            Event::ProcessDone(slot) => {
                let i = grid.jobs[slot as usize].job;
                let n = grid.release(&mut nodes, slot);
                let response = now.since(arrivals.get(i).at);
                let stats = &mut nodes[n].stats;
                stats.completed += 1;
                stats.responses.record(response);
                last_completion = last_completion.max(now);
                if obs.is_enabled() {
                    obs.incr("grid.jobs_completed");
                    obs.observe("grid.response_us", response.micros());
                    obs.event(
                        "job_done",
                        &[
                            ("job", Field::u(u64::from(i))),
                            ("response_us", Field::u(response.micros())),
                        ],
                    );
                }
                n
            }
        };
        // Only the touched node can start work: polling another would call
        // its policy again on a still-blocked request and change its history.
        grid.start_jobs(&mut nodes[n], n, now);
    }

    let makespan = last_completion.since(SimTime::ZERO);
    let per_node = nodes
        .into_iter()
        .map(|node| GridStats {
            makespan,
            ..node.stats
        })
        .collect();
    Simulated {
        per_node,
        routed,
        slots: grid.jobs.len(),
    }
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
/// flushes each outcome's `policy.*` counters and admit/evict events
/// right after the policy handles it, stamps the virtual clock with
/// **simulated microseconds** at every event-loop step, and traces the
/// whole fetch lifecycle — `fetch`, `fetch_timeout`, `transient_fault`,
/// `fetch_stranded`, `retry` — plus job arrival/completion/failure/
/// rejection, under `grid.*` counters.
/// A disabled `obs` never changes the result.
pub fn run_grid_observed(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> GridStats {
    run_view(
        policy,
        catalog,
        ArrivalView::all(arrivals),
        config,
        plan,
        obs,
    )
}

/// [`run_grid_observed`] over the jobs of `arrivals`: the one-node run
/// every shard of [`crate::concurrent`] makes over its routed arrivals.
pub(crate) fn run_view(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: ArrivalView,
    config: &GridConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> GridStats {
    let opts = RunOptions {
        plan,
        obs: Some(obs),
        ..RunOptions::default()
    };
    let mut run = simulate(&mut [policy], catalog, arrivals, config, opts);
    run.per_node.pop().expect("one node")
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
    let run = simulate(policies, catalog, ArrivalView::all(arrivals), config, opts);
    ConcurrentStats::merge(run.per_node, run.routed)
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

    /// The service-slot slab is bounded by the jobs in service, never by
    /// the trace: at most `max_concurrent_jobs` slots per node.
    #[test]
    fn service_slots_never_exceed_the_concurrency_limits() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 64]);
        let jobs: Vec<Bundle> = (0..10_000u32)
            .map(|i| b(&[i % 64, (i * 7 + 3) % 64]))
            .collect();
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(16_000_000);
        cfg.srm.max_concurrent_jobs = 4;
        cfg.retry.max_retries = 3;
        cfg.retry.fetch_timeout = Some(SimDuration::from_secs(30));

        // One node under flaky-wan: failed fetches hold their slot
        // through the backoff.
        let plan = FaultPlan::preset("flaky-wan").unwrap();
        let mut policy = Lru::new();
        let opts = RunOptions {
            plan: Some(&plan),
            ..RunOptions::default()
        };
        let run = simulate(
            &mut [&mut policy],
            &catalog,
            ArrivalView::all(&arrivals),
            &cfg,
            opts,
        );
        let stats = &run.per_node[0];
        assert!(stats.fetch_retries > 0, "the plan must force retries");
        assert_eq!(stats.completed + stats.failed + stats.rejected, 10_000);
        assert!(
            (1..=4).contains(&run.slots),
            "{} slots for one node of 4",
            run.slots
        );

        // Three nodes over replicated storage: the bound is the sum.
        let placement = Placement::random(64, 3, 2, 5);
        let (mut p0, mut p1, mut p2) = (Lru::new(), Lru::new(), Lru::new());
        let opts = RunOptions {
            dispatch: Dispatch::LeastLoaded,
            placement: Some(&placement),
            plan: Some(&plan),
            ..RunOptions::default()
        };
        let run = simulate(
            &mut [&mut p0, &mut p1, &mut p2],
            &catalog,
            ArrivalView::all(&arrivals),
            &cfg,
            opts,
        );
        assert_eq!(run.routed.iter().sum::<u64>(), 10_000);
        assert!(
            (1..=12).contains(&run.slots),
            "{} slots for three nodes of 4",
            run.slots
        );
    }

    /// Obs events name jobs by arrival index, not by service slot: with
    /// one slot, jobs complete in arrival order, so `job_done` reads 0..n.
    #[test]
    fn job_done_events_name_jobs_by_arrival_index() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..40).map(|i| b(&[i % 8, (i + 3) % 8])).collect();
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(4_000_000);
        cfg.srm.max_concurrent_jobs = 1;
        let obs = Obs::enabled();
        let mut policy = Lru::new();
        let stats = run_grid_observed(&mut policy, &catalog, &arrivals, &cfg, None, &obs);
        assert_eq!(stats.completed, 40);
        let done: Vec<String> = obs
            .jsonl()
            .lines()
            .filter(|l| l.contains("\"ev\":\"job_done\""))
            .map(|l| {
                let rest = &l[l.find("\"job\":").expect("job field") + 6..];
                rest[..rest.find(',').expect("more fields")].to_string()
            })
            .collect();
        let expected: Vec<String> = (0..40).map(|i: u32| i.to_string()).collect();
        assert_eq!(done, expected);
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
        let log = stats.responses.samples();
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
        for w in stats.responses.samples().windows(2) {
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
