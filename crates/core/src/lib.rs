//! # fbc-core — Optimal File-Bundle Caching Algorithms
//!
//! A from-scratch implementation of the caching algorithms of Otoo, Rotem &
//! Romosan, *Optimal File-Bundle Caching Algorithms for Data-Grids* (SC 2004).
//!
//! In a data-grid, a Storage Resource Manager services *jobs* that each need
//! a **file-bundle** — a set of files that must all be resident in the disk
//! cache simultaneously before the job can run. Classic popularity-based
//! replacement (LRU/LFU/Landlord) ignores the *inter-file dependencies* of
//! such workloads and can hold useless combinations of individually popular
//! files; this crate implements the paper's bundle-aware alternative:
//!
//! * [`history::RequestHistory`] — the `L(R)` structure tracking request
//!   popularity, file degrees `d(f)`, adjusted sizes `s'(f) = s(f)/d(f)` and
//!   adjusted relative values `v'(r)`;
//! * [`select::opt_cache_select`] — the `OptCacheSelect` greedy heuristic
//!   (Algorithm 1), a `½(1 − e^{−1/d})`-approximation to the NP-hard
//!   File-Bundle Caching problem;
//! * [`optfilebundle::OptFileBundle`] — the online replacement policy
//!   (Algorithm 2) built on top of it;
//! * [`exact::solve_exact`] and [`enumerate::opt_cache_select_enumerated`] —
//!   the exact branch-and-bound reference and the `(1 − e^{−1/d})`
//!   partial-enumeration variant used to validate Theorem 4.1;
//! * [`dks`] — the Dense-k-Subgraph reduction that proves FBC NP-hard.
//!
//! ## Quick start
//!
//! ```
//! use fbc_core::prelude::*;
//!
//! // Seven unit-size files, a cache that holds three of them.
//! let catalog = FileCatalog::from_sizes(vec![1; 7]);
//! let mut cache = CacheState::new(3);
//! let mut policy = OptFileBundle::new();
//!
//! // Jobs request *bundles* of files that must be co-resident.
//! let job = Bundle::from_raw([0, 2, 4]);
//! let outcome = policy.handle(&job, &mut cache, &catalog);
//! assert!(outcome.serviced);
//! assert_eq!(outcome.fetched_bytes, 3);
//!
//! // A repeat of the same bundle is a request-hit: no data moves.
//! let again = policy.handle(&job, &mut cache, &catalog);
//! assert!(again.hit);
//! assert_eq!(again.fetched_bytes, 0);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod bounds;
pub mod bundle;
pub mod cache;
pub mod catalog;
pub mod dks;
pub mod enumerate;
pub mod error;
pub mod exact;
pub mod history;
#[cfg(any(test, feature = "reference-kernels"))]
pub mod index;
pub mod instance;
pub mod knapsack;
pub mod offline;
pub mod optfilebundle;
pub mod policy;
pub mod resident;
pub mod select;
pub mod types;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bundle::Bundle;
    pub use crate::cache::CacheState;
    pub use crate::catalog::FileCatalog;
    pub use crate::error::{FbcError, Result};
    pub use crate::history::{RequestHistory, ValueFn};
    pub use crate::instance::{FbcInstance, Selection};
    pub use crate::optfilebundle::{DecisionExplanation, HistoryMode, OfbConfig, OptFileBundle};
    pub use crate::policy::{CachePolicy, PolicyFactory, RequestOutcome, SendPolicy};
    pub use crate::select::{opt_cache_select, GreedyVariant, SelectOptions};
    pub use crate::types::{Bytes, FileId, GIB, KIB, MIB, TIB};
}
