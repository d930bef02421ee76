//! A sharded, multi-threaded SRM decision service.
//!
//! One SRM absorbing millions of queued jobs cannot decide them one at a
//! time. This module splits the request stream over `N` independent
//! shards — each owning its own [`fbc_core::cache::CacheState`] (an equal
//! slice of the configured capacity), its own policy instance (built per
//! shard from a [`PolicyFactory`]) and its own private [`Obs`] sink — and
//! runs the unmodified engine ([`crate::engine::run_grid_observed`], one
//! SRM node) on every shard, on a pool of `M` scoped worker threads.
//!
//! # Pipeline
//!
//! 1. **Admission.** One routing pass over the caller's arrivals computes
//!    each job's shard by its [`ShardMap`] and counting-sorts the arrival
//!    indices into one flat `Vec<u32>`, grouped by shard and in arrival
//!    order within each. Every job is routed exactly once, and no arrival
//!    is copied: each shard reads its jobs through its index range.
//! 2. **Decision.** Workers claim shards from an atomic counter (the
//!    `parallel_sweep` idiom) and simulate each shard's jobs with the
//!    real engine — same decision, fault, retry and pinning paths as
//!    the sequential service.
//! 3. **Merge.** Per-shard [`GridStats`] and [`Obs`] children are folded
//!    in shard-id order, so the combined result is a pure function of
//!    `(trace, config)` — independent of worker scheduling.
//!
//! # Determinism contract
//!
//! For a fixed `(arrivals, ConcurrentConfig, FaultPlan)` the result is
//! bit-for-bit reproducible for **any** worker count: routing is a pure
//! hash, each shard's simulation depends only on its own sub-trace, and
//! the merge order is fixed. With `shards = 1` the single shard owns the
//! full capacity and sees the full trace, making the run *identical* to
//! [`crate::engine::run_grid_observed`] — pinned by the
//! `concurrent_equivalence` differential suite.
//!
//! Each shard builds its own [`crate::faults::FaultInjector`] from the shared plan, so
//! shards draw the same jitter/transient sequence from the same seed —
//! deterministic, though not the same interleaving a sequential run
//! distributes over one stream (fault-plan runs are reproducible, not
//! shard-count-invariant).

use crate::client::JobArrival;
use crate::engine::{run_view, ArrivalView, GridConfig};
use crate::faults::FaultPlan;
use crate::shard::{ShardBy, ShardMap};
use crate::stats::GridStats;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::PolicyFactory;
use fbc_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of the sharded decision service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrentConfig {
    /// The underlying grid (SRM / MSS / link / retry). The SRM cache
    /// capacity is split evenly across shards.
    pub grid: GridConfig,
    /// Number of independent decision shards (≥ 1).
    pub shards: usize,
    /// Worker threads executing shards (clamped to `1..=shards`). Fewer
    /// run when the system refuses a thread, and the calling thread runs
    /// the shards when it refuses all of them.
    pub workers: usize,
    /// Routing function for the admission front-end.
    pub shard_by: ShardBy,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            grid: GridConfig::default(),
            shards: 1,
            workers: 1,
            shard_by: ShardBy::default(),
        }
    }
}

impl ConcurrentConfig {
    /// A sharded config over `grid` with `shards` shards and as many
    /// workers.
    pub fn sharded(grid: GridConfig, shards: usize) -> Self {
        Self {
            grid,
            shards,
            workers: shards,
            ..Self::default()
        }
    }
}

/// Results of a sharded run, or of a cluster run
/// ([`crate::engine::run_grid_nodes`]) whose nodes play the shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcurrentStats {
    /// Shard results merged in shard-id order ([`GridStats::merge_shard`]).
    pub overall: GridStats,
    /// Per-shard (per-node) results, indexed by shard id.
    pub per_shard: Vec<GridStats>,
    /// Jobs routed to each shard.
    pub routed: Vec<u64>,
}

impl ConcurrentStats {
    /// Merges `per_shard` in shard-id order into `overall`.
    pub(crate) fn merge(per_shard: Vec<GridStats>, routed: Vec<u64>) -> Self {
        let mut overall = GridStats::default();
        overall
            .responses
            .reserve(per_shard.iter().map(|s| s.responses.len() as usize).sum());
        for stats in &per_shard {
            overall.merge_shard(stats);
        }
        Self {
            overall,
            per_shard,
            routed,
        }
    }

    /// Max/mean routing imbalance: 1.0 is perfectly balanced.
    pub fn routing_imbalance(&self) -> f64 {
        let Some(&max) = self.routed.iter().max() else {
            return 1.0;
        };
        let mean = self.routed.iter().sum::<u64>() as f64 / self.routed.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max as f64 / mean
        }
    }
}

/// Routes every arrival in one pass. Returns the arrival indices grouped
/// by shard, in arrival order within each shard, and the offsets of each
/// shard's group: shard `s` owns `picks[offsets[s]..offsets[s + 1]]`.
fn admit(map: &ShardMap, arrivals: &[JobArrival]) -> (Vec<u32>, Vec<usize>) {
    assert!(
        u32::try_from(arrivals.len()).is_ok(),
        "at most {} arrivals",
        u32::MAX
    );
    let shard: Vec<u32> = arrivals
        .iter()
        .map(|a| map.shard_of(&a.bundle) as u32)
        .collect();
    let mut offsets = vec![0usize; map.shards() + 1];
    for &s in &shard {
        offsets[s as usize + 1] += 1;
    }
    for s in 1..offsets.len() {
        offsets[s] += offsets[s - 1];
    }
    let mut next = offsets.clone();
    let mut picks = vec![0u32; arrivals.len()];
    for (i, &s) in (0u32..).zip(&shard) {
        picks[next[s as usize]] = i;
        next[s as usize] += 1;
    }
    (picks, offsets)
}

/// Runs the sharded decision service over `arrivals` (sorted by arrival
/// time, as for [`crate::engine::run_grid`]) — the concurrent counterpart
/// of `run_grid`. Panics if `config.shards == 0`.
pub fn run_concurrent_grid(
    factory: &dyn PolicyFactory,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &ConcurrentConfig,
    plan: Option<&FaultPlan>,
) -> ConcurrentStats {
    run_concurrent_grid_observed(factory, catalog, arrivals, config, plan, &Obs::disabled())
}

/// [`run_concurrent_grid`] with an observability sink: every shard records
/// into a private child of `obs`, merged back in shard-id order after the
/// run ([`Obs::merge_from`]), so an enabled trace is deterministic for any
/// worker count and — with one shard — byte-identical to the sequential
/// engine's.
pub fn run_concurrent_grid_observed(
    factory: &dyn PolicyFactory,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &ConcurrentConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> ConcurrentStats {
    let map = ShardMap::new(config.shards, config.shard_by);
    let shards = config.shards;
    let workers = config.workers.clamp(1, shards);
    let (picks, offsets) = admit(&map, arrivals);

    // Every shard simulates with its share of the cache; shards = 1
    // degenerates to the full capacity and the exact sequential run.
    let shard_grid = GridConfig {
        srm: crate::srm::SrmConfig {
            cache_size: config.grid.srm.cache_size / shards as u64,
            ..config.grid.srm
        },
        ..config.grid
    };

    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let s = next.fetch_add(1, Ordering::Relaxed);
            if s >= shards {
                return done;
            }
            let jobs = ArrivalView::picked(arrivals, &picks[offsets[s]..offsets[s + 1]]);
            let mut policy = factory.build_policy();
            let child = obs.child();
            let stats = run_view(policy.as_mut(), catalog, jobs, &shard_grid, plan, &child);
            done.push((s, stats, child));
        }
    };
    let mut results: Vec<Option<(GridStats, Obs)>> = vec![None; shards];
    for (s, stats, child) in on_workers(workers, std::thread::Builder::new, work)
        .into_iter()
        .flatten()
    {
        results[s] = Some((stats, child));
    }

    // Deterministic merge, in shard-id order.
    let mut per_shard = Vec::with_capacity(shards);
    for result in results {
        let (stats, child) = result.expect("every shard reports exactly once");
        obs.merge_from(&child);
        per_shard.push(stats);
    }
    let routed = offsets.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
    ConcurrentStats::merge(per_shard, routed)
}

/// Runs `work` on up to `workers` scoped threads, each made by `thread`,
/// and returns what each returned. Spawning stops at the first thread the
/// system refuses, and the threads already started carry the work; if none
/// started, `work` runs on the calling thread. A panic in `work` resumes on
/// the caller.
fn on_workers<T: Send>(
    workers: usize,
    thread: impl Fn() -> std::thread::Builder,
    work: impl Fn() -> T + Send + Copy,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map_while(|_| thread().spawn_scoped(scope, work).ok())
            .collect();
        if handles.is_empty() {
            return vec![work()];
        }
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{schedule_arrivals, ArrivalProcess};
    use fbc_core::bundle::Bundle;
    use fbc_core::policy::SendPolicy;

    #[test]
    fn refused_workers_leave_the_work_to_the_caller() {
        // No system maps a 2^60-byte stack: every spawn fails before a
        // thread starts, and the caller runs the work once.
        let refused = || std::thread::Builder::new().stack_size(1 << 60);
        let caller = std::thread::current().id();
        let ran = on_workers(3, refused, || std::thread::current().id());
        assert_eq!(ran, [caller]);
        let ran = on_workers(3, std::thread::Builder::new, || std::thread::current().id());
        assert_eq!(ran.len(), 3);
        assert!(!ran.contains(&caller));
    }

    fn factory() -> impl PolicyFactory {
        || -> SendPolicy { Box::new(fbc_core::optfilebundle::OptFileBundle::new()) }
    }

    fn workload(jobs: u32, files: u32) -> (FileCatalog, Vec<JobArrival>) {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; files as usize]);
        let bundles: Vec<Bundle> = (0..jobs)
            .map(|i| Bundle::from_raw([i % files, (i * 3 + 1) % files]))
            .collect();
        let arrivals = schedule_arrivals(
            &bundles,
            ArrivalProcess::Poisson {
                rate: 4.0,
                seed: 17,
            },
        );
        (catalog, arrivals)
    }

    fn config(shards: usize, cache: u64) -> ConcurrentConfig {
        let mut grid = GridConfig::default();
        grid.srm.cache_size = cache;
        grid.srm.max_concurrent_jobs = 2;
        ConcurrentConfig::sharded(grid, shards)
    }

    #[test]
    fn every_job_is_routed_and_accounted_for() {
        let (catalog, arrivals) = workload(60, 12);
        let cfg = config(4, 16_000_000);
        let stats = run_concurrent_grid(&factory(), &catalog, &arrivals, &cfg, None);
        assert_eq!(stats.routed.iter().sum::<u64>(), 60);
        assert_eq!(
            stats.overall.completed + stats.overall.rejected + stats.overall.failed,
            60
        );
        assert_eq!(stats.per_shard.len(), 4);
        for (s, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(
                shard.completed + shard.rejected + shard.failed,
                stats.routed[s]
            );
        }
    }

    /// More shards than jobs: most shards get an empty index view, and
    /// still every job is routed once and decided once.
    #[test]
    fn more_shards_than_jobs_cannot_lock_out_jobs() {
        let (catalog, arrivals) = workload(5, 10);
        for workers in [1, 2] {
            let cfg = ConcurrentConfig {
                workers,
                ..config(8, 8_000_000)
            };
            let stats = run_concurrent_grid(&factory(), &catalog, &arrivals, &cfg, None);
            assert_eq!(stats.routed.len(), 8);
            assert_eq!(stats.routed.iter().sum::<u64>(), 5);
            assert!(stats.routed.contains(&0), "some shard must be empty");
            assert_eq!(
                stats.overall.completed + stats.overall.rejected + stats.overall.failed,
                5
            );
            for (s, shard) in stats.per_shard.iter().enumerate() {
                assert_eq!(
                    shard.completed + shard.rejected + shard.failed,
                    stats.routed[s]
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let (catalog, arrivals) = workload(80, 16);
        let base = config(4, 16_000_000);
        let run_with = |workers: usize| {
            let cfg = ConcurrentConfig { workers, ..base };
            run_concurrent_grid(&factory(), &catalog, &arrivals, &cfg, None)
        };
        let one = run_with(1);
        for workers in [2, 4, 9] {
            assert_eq!(one, run_with(workers), "workers={workers}");
        }
    }

    #[test]
    fn shard_by_modes_route_differently_but_conserve_jobs() {
        let (catalog, arrivals) = workload(100, 20);
        let mut by_file = config(4, 16_000_000);
        by_file.shard_by = ShardBy::File;
        let mut by_bundle = by_file;
        by_bundle.shard_by = ShardBy::Bundle;
        let f = run_concurrent_grid(&factory(), &catalog, &arrivals, &by_file, None);
        let b = run_concurrent_grid(&factory(), &catalog, &arrivals, &by_bundle, None);
        assert_eq!(f.routed.iter().sum::<u64>(), 100);
        assert_eq!(b.routed.iter().sum::<u64>(), 100);
    }
}
