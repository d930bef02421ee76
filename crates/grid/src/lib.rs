//! # fbc-grid — a discrete-event data-grid substrate
//!
//! The deployment environment the paper's §2 describes, simulated: clients
//! submit file-bundle jobs to a **Storage Resource Manager** that owns a
//! disk cache; misses are read from a **Mass Storage System** (tape mount
//! latency, limited drives) and shipped over a **WAN link** (latency +
//! bandwidth, FIFO); jobs then process their data and complete. On top of
//! the byte-level metrics of `fbc-sim`, the grid reports what the paper's
//! "optimal service" ultimately targets: job throughput and response times.
//!
//! One event loop ([`engine`]) runs every grid shape: a single SRM
//! ([`run_grid`]), a cluster of SRM nodes routed by a [`Dispatch`], and
//! storage replicated across sites by a [`Placement`] — alone or combined
//! through [`run_grid_nodes`], always with the same fault, retry and
//! tracing paths.
//!
//! ```
//! use fbc_core::optfilebundle::OptFileBundle;
//! use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
//! use fbc_grid::engine::{run_grid, GridConfig};
//! use fbc_grid::srm::SrmConfig;
//! use fbc_core::{bundle::Bundle, catalog::FileCatalog};
//!
//! let catalog = FileCatalog::from_sizes(vec![1_000_000; 4]);
//! let jobs = vec![Bundle::from_raw([0, 1]), Bundle::from_raw([2, 3])];
//! let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
//! let mut policy = OptFileBundle::new();
//! let config = GridConfig {
//!     srm: SrmConfig { cache_size: 10_000_000, ..SrmConfig::default() },
//!     ..GridConfig::default()
//! };
//! let stats = run_grid(&mut policy, &catalog, &arrivals, &config);
//! assert_eq!(stats.completed, 2);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod concurrent;
pub mod engine;
pub mod event;
pub mod faults;
pub mod mss;
pub mod multi;
pub mod network;
pub mod replica;
pub mod scenario;
pub mod shard;
pub mod srm;
pub mod stats;
pub mod time;

pub use client::{schedule_arrivals, ArrivalProcess, JobArrival};
pub use concurrent::{
    run_concurrent_grid, run_concurrent_grid_observed, ConcurrentConfig, ConcurrentStats,
};
pub use engine::{run_grid, run_grid_nodes, run_grid_observed, GridConfig, RunOptions};
pub use faults::{DriveSelector, FaultInjector, FaultPlan, RateWindow, FOREVER};
pub use mss::{MassStorage, MssConfig};
pub use multi::Dispatch;
pub use network::{Link, LinkConfig};
pub use replica::Placement;
pub use scenario::{run_scenario, ScenarioConfig};
pub use shard::{ShardBy, ShardMap};
pub use srm::{RetryPolicy, SrmConfig};
pub use stats::{GridReport, GridStats, ResponseStats};
pub use time::{SimDuration, SimTime};
