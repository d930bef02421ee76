//! # fbc-sim — the disk-cache simulation model (`cacheSim`)
//!
//! Reproduction of the paper's §5 simulator: trace-driven runs of any
//! [`fbc_core::policy::CachePolicy`] over a [`fbc_workload::Trace`], with
//! the §1.2 metrics, queued admission (§5.2) and parallel parameter sweeps.
//!
//! One driver, [`run_trace`], runs every configuration: FCFS is its default
//! queue of one, and [`RunConfig::queue`] selects the §5.2 queue length and
//! draining [`Discipline`].
//!
//! ```
//! use fbc_core::optfilebundle::OptFileBundle;
//! use fbc_obs::Obs;
//! use fbc_sim::runner::{run_trace, QueueConfig, RunConfig};
//! use fbc_workload::{Workload, WorkloadConfig};
//!
//! let trace = Workload::generate(WorkloadConfig {
//!     jobs: 500,
//!     ..WorkloadConfig::default()
//! })
//! .into_trace();
//! let mut policy = OptFileBundle::new();
//! let fcfs = RunConfig::new(10 * fbc_core::types::GIB);
//! let metrics = run_trace(&mut policy, &trace, &fcfs, &Obs::disabled());
//! assert!(metrics.byte_miss_ratio() <= 1.0);
//!
//! // The paper's queued scheduler: batches of 10, highest `v'` first.
//! let queued = RunConfig { queue: QueueConfig::hrv(10), ..fcfs };
//! let mut policy = OptFileBundle::new();
//! let metrics = run_trace(&mut policy, &trace, &queued, &Obs::disabled());
//! assert_eq!(metrics.jobs, 500);
//! ```

#![warn(missing_docs)]

pub mod compare;
pub mod hybrid;
pub mod metrics;
pub mod replicate;
pub mod report;
pub mod runner;
pub mod sweep;

pub use compare::{compare_policies, PolicyComparison};
pub use hybrid::{run_hybrid, HybridMetrics, ServiceModel};
pub use metrics::{Metrics, SeriesPoint};
pub use replicate::{replicate, Replicated};
pub use report::Table;
pub use runner::{run_trace, Discipline, QueueConfig, RunConfig};
pub use sweep::{default_threads, parallel_sweep};
