//! # file-bundle-cache
//!
//! A production-quality Rust implementation of **Otoo, Rotem & Romosan,
//! "Optimal File-Bundle Caching Algorithms for Data-Grids" (SC 2004)** — the
//! `OptFileBundle` cache replacement policy and everything needed to
//! evaluate it: classic baselines, synthetic workload generators, the
//! paper's `cacheSim` disk-cache simulator, and a discrete-event data-grid
//! substrate (SRM / mass storage / network).
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] | `OptCacheSelect`, `OptFileBundle`, history `L(R)`, exact solver, bounds, DKS reduction |
//! | [`baselines`] | Landlord (paper Alg. 3), LRU, LFU, GDSF, FIFO, SIZE, Random, Belady MIN |
//! | [`workload`] | file/request pools, uniform & Zipf popularity, traces, HENP/climate/bitmap scenarios |
//! | [`sim`] | trace-driven `cacheSim` (FCFS and queued admission on one driver), metrics, parallel sweeps |
//! | [`grid`] | discrete-event SRM + MSS + WAN substrate with response-time stats |
//! | [`obs`] | deterministic observability: counters, spans, JSONL event traces, nearest-rank quantiles |
//!
//! ## Quick start
//!
//! ```
//! use file_bundle_cache::prelude::*;
//!
//! // Generate the paper's synthetic workload (§5.1)...
//! let workload = Workload::generate(WorkloadConfig {
//!     jobs: 1000,
//!     popularity: Popularity::zipf(),
//!     ..WorkloadConfig::default()
//! });
//! let cache_size = workload.config.cache_size;
//! let trace = workload.into_trace();
//!
//! // ...and compare the paper's policy with its baseline.
//! let cfg = RunConfig::new(cache_size / 4);
//! let mut ofb = OptFileBundle::new();
//! let ofb_metrics = run_trace(&mut ofb, &trace, &cfg, &Obs::disabled());
//! let mut landlord = Landlord::new();
//! let ll_metrics = run_trace(&mut landlord, &trace, &cfg, &Obs::disabled());
//!
//! assert!(ofb_metrics.byte_miss_ratio() <= ll_metrics.byte_miss_ratio() + 1e-9);
//! ```

#![warn(missing_docs)]

pub use fbc_baselines as baselines;
pub use fbc_core as core;
pub use fbc_grid as grid;
pub use fbc_obs as obs;
pub use fbc_sim as sim;
pub use fbc_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use fbc_baselines::{
        BeladyMin, Fifo, Gdsf, Landlord, LargestFirst, Lfu, Lru, PolicyKind, RandomEvict,
    };
    pub use fbc_core::prelude::*;
    pub use fbc_grid::{
        run_concurrent_grid, run_concurrent_grid_observed, run_grid, run_grid_nodes,
        run_grid_observed, run_scenario, ArrivalProcess, ConcurrentConfig, ConcurrentStats,
        Dispatch, FaultPlan, GridConfig, GridReport, GridStats, LinkConfig, MssConfig, Placement,
        ResponseStats, RetryPolicy, RunOptions, ScenarioConfig, ShardBy, ShardMap, SimDuration,
        SimTime, SrmConfig,
    };
    pub use fbc_obs::{Field, Obs, ObsConfig};
    pub use fbc_sim::{
        parallel_sweep, run_trace, Discipline, Metrics, QueueConfig, RunConfig, Table,
    };
    pub use fbc_workload::{Popularity, PopularitySampler, Trace, Workload, WorkloadConfig};
}
