//! A sharded, multi-threaded SRM decision service.
//!
//! One SRM absorbing millions of queued jobs cannot decide them one at a
//! time. This module splits the request stream over `N` independent
//! shards — each owning its own [`fbc_core::cache::CacheState`] (an equal
//! slice of the configured capacity), its own policy instance (built per
//! shard from a [`PolicyFactory`]) and its own private [`Obs`] sink — and
//! runs the unmodified engine ([`run_grid_observed`], one SRM node) on
//! every shard, on a pool of `M` scoped worker threads.
//!
//! # Pipeline
//!
//! 1. **Admission.** A producer thread submits every [`JobArrival`] into
//!    a *bounded* MPSC queue ([`std::sync::mpsc::sync_channel`] of
//!    [`ConcurrentConfig::queue_capacity`]); the front-end drains it in
//!    batches of [`ConcurrentConfig::batch`] and routes each job by its
//!    [`ShardMap`]. Backpressure instead of loss: a full queue blocks the
//!    producer, and every admitted job is routed — request lockout is
//!    impossible by construction.
//! 2. **Decision.** Workers claim shards from an atomic counter (the
//!    `parallel_sweep` idiom) and simulate each shard's sub-trace with
//!    the real engine — same decision, fault, retry and pinning paths as
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
use crate::engine::{run_grid_observed, GridConfig};
use crate::faults::FaultPlan;
use crate::shard::{ShardBy, ShardMap};
use crate::stats::GridStats;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::PolicyFactory;
use fbc_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Configuration of the sharded decision service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrentConfig {
    /// The underlying grid (SRM / MSS / link / retry). The SRM cache
    /// capacity is split evenly across shards.
    pub grid: GridConfig,
    /// Number of independent decision shards (≥ 1).
    pub shards: usize,
    /// Worker threads executing shards (clamped to `1..=shards`).
    pub workers: usize,
    /// Routing function for the admission front-end.
    pub shard_by: ShardBy,
    /// Bound of the admission queue between producer and front-end; a
    /// full queue blocks submission (backpressure, never loss).
    pub queue_capacity: usize,
    /// Jobs pulled from the admission queue per routing batch.
    pub batch: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            grid: GridConfig::default(),
            shards: 1,
            workers: 1,
            shard_by: ShardBy::default(),
            queue_capacity: 1024,
            batch: 64,
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

/// The sharded decision service front-end.
#[derive(Debug, Clone)]
pub struct ConcurrentSrm {
    config: ConcurrentConfig,
    map: ShardMap,
}

impl ConcurrentSrm {
    /// Builds the service (panics if `shards == 0`).
    pub fn new(config: ConcurrentConfig) -> Self {
        let map = ShardMap::new(config.shards, config.shard_by);
        Self { config, map }
    }

    /// The routing function in use.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Admits every arrival through the bounded queue and returns the
    /// per-shard sub-traces plus the routed count per shard.
    ///
    /// Runs the producer on a scoped thread so the bounded channel
    /// exercises real backpressure; the routing itself is a pure function
    /// of arrival order, so the result does not depend on thread timing.
    fn admit(&self, arrivals: &[JobArrival]) -> (Vec<Vec<JobArrival>>, Vec<u64>) {
        let shards = self.config.shards;
        let mut routed_jobs: Vec<Vec<JobArrival>> = vec![Vec::new(); shards];
        let mut routed: Vec<u64> = vec![0; shards];
        let batch = self.config.batch.max(1);
        let (tx, rx) = mpsc::sync_channel::<JobArrival>(self.config.queue_capacity.max(1));
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for a in arrivals {
                    // A full queue blocks here until the router catches up.
                    if tx.send(a.clone()).is_err() {
                        return; // router gone: nothing left to admit to
                    }
                }
            });
            // Drain in batches until the producer hangs up. `recv` blocks,
            // so every submitted job is routed before admission finishes.
            let mut pending = Vec::with_capacity(batch);
            while let Ok(first) = rx.recv() {
                pending.push(first);
                while pending.len() < batch {
                    match rx.try_recv() {
                        Ok(a) => pending.push(a),
                        Err(_) => break,
                    }
                }
                for a in pending.drain(..) {
                    let s = self.map.shard_of(&a.bundle);
                    routed[s] += 1;
                    routed_jobs[s].push(a);
                }
            }
        });
        (routed_jobs, routed)
    }

    /// Runs the sharded service over `arrivals` (sorted by arrival time,
    /// as for [`crate::engine::run_grid`]).
    pub fn run(
        &self,
        factory: &dyn PolicyFactory,
        catalog: &FileCatalog,
        arrivals: &[JobArrival],
        plan: Option<&FaultPlan>,
    ) -> ConcurrentStats {
        self.run_observed(factory, catalog, arrivals, plan, &Obs::disabled())
    }

    /// [`run`](Self::run) with an observability sink: every shard records
    /// into a private child of `obs`, merged back in shard-id order after
    /// the run ([`Obs::merge_from`]), so an enabled trace is deterministic
    /// for any worker count and — with one shard — byte-identical to the
    /// sequential engine's.
    pub fn run_observed(
        &self,
        factory: &dyn PolicyFactory,
        catalog: &FileCatalog,
        arrivals: &[JobArrival],
        plan: Option<&FaultPlan>,
        obs: &Obs,
    ) -> ConcurrentStats {
        let shards = self.config.shards;
        let workers = self.config.workers.clamp(1, shards);
        let (routed_jobs, routed) = self.admit(arrivals);

        // Every shard simulates with its share of the cache; shards = 1
        // degenerates to the full capacity and the exact sequential run.
        let shard_grid = GridConfig {
            srm: crate::srm::SrmConfig {
                cache_size: self.config.grid.srm.cache_size / shards as u64,
                ..self.config.grid.srm
            },
            ..self.config.grid
        };

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, GridStats, Obs)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let routed_jobs = &routed_jobs;
                let shard_grid = &shard_grid;
                scope.spawn(move || {
                    loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        if s >= shards {
                            break;
                        }
                        let mut policy = factory.build_policy();
                        let child = obs.child();
                        let stats = run_grid_observed(
                            policy.as_mut(),
                            catalog,
                            &routed_jobs[s],
                            shard_grid,
                            plan,
                            &child,
                        );
                        if tx.send((s, stats, child)).is_err() {
                            break; // receiver gone: run aborted
                        }
                    }
                });
            }
            drop(tx);
        });

        let mut per_shard: Vec<Option<GridStats>> = vec![None; shards];
        let mut children: Vec<Option<Obs>> = vec![None; shards];
        while let Ok((s, stats, child)) = rx.recv() {
            per_shard[s] = Some(stats);
            children[s] = Some(child);
        }
        let per_shard: Vec<GridStats> = per_shard
            .into_iter()
            .map(|s| s.expect("every shard reports exactly once"))
            .collect();

        // Deterministic merge, in shard-id order.
        for child in children.into_iter().flatten() {
            obs.merge_from(&child);
        }
        ConcurrentStats::merge(per_shard, routed)
    }
}

/// Runs the sharded decision service — the concurrent counterpart of
/// [`crate::engine::run_grid`].
pub fn run_concurrent_grid(
    factory: &dyn PolicyFactory,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &ConcurrentConfig,
    plan: Option<&FaultPlan>,
) -> ConcurrentStats {
    ConcurrentSrm::new(*config).run(factory, catalog, arrivals, plan)
}

/// [`run_concurrent_grid`] with an observability sink.
pub fn run_concurrent_grid_observed(
    factory: &dyn PolicyFactory,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &ConcurrentConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> ConcurrentStats {
    ConcurrentSrm::new(*config).run_observed(factory, catalog, arrivals, plan, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{schedule_arrivals, ArrivalProcess};
    use fbc_core::bundle::Bundle;
    use fbc_core::policy::SendPolicy;

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

    #[test]
    fn tiny_admission_queue_cannot_lock_out_jobs() {
        let (catalog, arrivals) = workload(200, 10);
        let mut cfg = config(2, 8_000_000);
        cfg.queue_capacity = 1; // maximal backpressure
        cfg.batch = 1;
        let stats = run_concurrent_grid(&factory(), &catalog, &arrivals, &cfg, None);
        assert_eq!(stats.routed.iter().sum::<u64>(), 200);
        assert_eq!(
            stats.overall.completed + stats.overall.rejected + stats.overall.failed,
            200
        );
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
