//! # fbc-baselines — bundle-adapted classic replacement policies
//!
//! The comparators for `OptFileBundle`: the paper's own baseline — the
//! [Landlord algorithm](landlord::Landlord) of Young / Cao–Irani, adapted to
//! file-bundle requests exactly as the paper's Algorithm 3 — plus the wider
//! family of classic policies (LRU, LFU, GDSF, FIFO, SIZE, Random) and a
//! clairvoyant offline reference ([Belady MIN](belady::BeladyMin)).
//!
//! Every policy implements [`fbc_core::policy::CachePolicy`]: it is handed
//! one bundle at a time, fetches all of the bundle's missing files, and
//! chooses victims by its own ranking. None of them is aware of *which files
//! are requested together* — that blindness is the paper's thesis, and the
//! simulations in `fbc-sim` quantify it.

#![warn(missing_docs)]

pub mod admission;
pub mod arc;
pub mod belady;
pub mod fifo;
pub mod gdsf;
pub mod landlord;
pub mod lfu;
pub mod lru;
pub mod lruk;
pub mod online_bundle;
pub mod random;
pub mod size;
pub mod slru;
pub mod util;

pub use admission::AdmissionGate;
pub use arc::Arc;
pub use belady::BeladyMin;
pub use fifo::Fifo;
pub use gdsf::Gdsf;
pub use landlord::Landlord;
pub use lfu::Lfu;
pub use lru::Lru;
pub use lruk::LruK;
pub use online_bundle::{
    distributed_marking_bound, marking_competitive_bound, BundleMarking, BundleMarkingRandom,
};
pub use random::RandomEvict;
pub use size::LargestFirst;
pub use slru::Slru;

use fbc_core::policy::{CachePolicy, SendPolicy};

/// Identifier for constructing any policy in the workspace by name — used by
/// sweep drivers and experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `OptFileBundle` with its default (paper) configuration.
    OptFileBundle,
    /// Landlord, paper Algorithm 3.
    Landlord,
    /// Least recently used.
    Lru,
    /// LRU-2 (O'Neil et al.).
    Lru2,
    /// Adaptive Replacement Cache (Megiddo & Modha).
    Arc,
    /// Least frequently used.
    Lfu,
    /// Greedy-Dual-Size-Frequency.
    Gdsf,
    /// First in, first out.
    Fifo,
    /// Uniform random victim (seed 0xF1BC).
    Random,
    /// Evict the largest file first.
    LargestFirst,
    /// Segmented LRU (probation + protected segments).
    Slru,
    /// Qin–Etesami online bundle-marking, deterministic LRU flavour
    /// ((k − ℓ + 1)-competitive on unit files).
    BundleMarking,
    /// Qin–Etesami online bundle-marking, randomized flavour (seed 0xF1BC).
    BundleMarkingRand,
    /// Offline Belady MIN (requires `prepare(trace)`).
    BeladyMin,
}

impl PolicyKind {
    /// All online policies (excludes the clairvoyant Belady MIN).
    pub const ONLINE: [PolicyKind; 13] = [
        PolicyKind::OptFileBundle,
        PolicyKind::Landlord,
        PolicyKind::Lru,
        PolicyKind::Lru2,
        PolicyKind::Arc,
        PolicyKind::Lfu,
        PolicyKind::Gdsf,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::LargestFirst,
        PolicyKind::Slru,
        PolicyKind::BundleMarking,
        PolicyKind::BundleMarkingRand,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn CachePolicy> {
        self.build_send()
    }

    /// Instantiates the policy as a [`SendPolicy`] for cross-thread use
    /// (sharded drivers build one instance per worker). Every policy in the
    /// workspace owns its state, so all of them are `Send`;
    /// [`build`](Self::build) is this same instance.
    pub fn build_send(self) -> SendPolicy {
        match self {
            PolicyKind::OptFileBundle => Box::new(fbc_core::optfilebundle::OptFileBundle::new()),
            PolicyKind::Landlord => Box::new(Landlord::new()),
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lru2 => Box::new(LruK::lru2()),
            PolicyKind::Arc => Box::new(Arc::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
            PolicyKind::Gdsf => Box::new(Gdsf::new()),
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Random => Box::new(RandomEvict::new(0xF1BC)),
            PolicyKind::LargestFirst => Box::new(LargestFirst::new()),
            PolicyKind::Slru => Box::new(Slru::new()),
            PolicyKind::BundleMarking => Box::new(BundleMarking::new()),
            PolicyKind::BundleMarkingRand => Box::new(BundleMarkingRandom::new(0xF1BC)),
            PolicyKind::BeladyMin => Box::new(BeladyMin::new()),
        }
    }

    /// Instantiates the policy's full-scan reference for differential
    /// testing and the `perf_eviction` speedup benchmark: the
    /// [`ScanOracle`](util::ScanOracle) of a keyed policy, the marking
    /// guard over a scan order, or the policy's own reference twin.
    /// Returns `None` for [`PolicyKind::OptFileBundle`], whose reference
    /// kernels live in `fbc-core` (see `tests/kernel_equivalence.rs`).
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn build_reference(self) -> Option<Box<dyn CachePolicy>> {
        use online_bundle::{Marking, ScanDraw, ScanLeastRecent};
        use util::ScanOracle;
        match self {
            PolicyKind::OptFileBundle => None,
            PolicyKind::Landlord => Some(Box::new(landlord::LandlordReference::new())),
            PolicyKind::Lru => Some(Box::new(ScanOracle::new(Lru::new()))),
            PolicyKind::Lru2 => Some(Box::new(ScanOracle::new(LruK::lru2()))),
            PolicyKind::Arc => Some(Box::new(arc::ArcReference::new())),
            PolicyKind::Lfu => Some(Box::new(ScanOracle::new(Lfu::new()))),
            PolicyKind::Gdsf => Some(Box::new(ScanOracle::new(Gdsf::new()))),
            PolicyKind::Fifo => Some(Box::new(ScanOracle::new(Fifo::new()))),
            PolicyKind::Random => Some(Box::new(random::RandomEvictReference::new(0xF1BC))),
            PolicyKind::LargestFirst => Some(Box::new(ScanOracle::new(LargestFirst::new()))),
            PolicyKind::Slru => Some(Box::new(slru::SlruReference::new())),
            PolicyKind::BundleMarking => Some(Box::new(Marking::with_order(ScanLeastRecent))),
            PolicyKind::BundleMarkingRand => {
                Some(Box::new(Marking::with_order(ScanDraw::new(0xF1BC))))
            }
            PolicyKind::BeladyMin => Some(Box::new(ScanOracle::new(BeladyMin::new()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::bundle::Bundle;
    use fbc_core::cache::CacheState;
    use fbc_core::catalog::FileCatalog;

    /// Every policy must respect the cache capacity invariant and service
    /// feasible requests on an arbitrary workload.
    #[test]
    fn all_policies_satisfy_basic_contract() {
        let catalog = FileCatalog::from_sizes((1..=30).map(|i| (i % 5) + 1).collect());
        let mut state = 0xFEEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let trace: Vec<Bundle> = (0..150)
            .map(|_| {
                let k = (next() % 3 + 1) as usize;
                Bundle::from_raw((0..k).map(|_| (next() % 30) as u32))
            })
            .collect();

        let mut kinds = PolicyKind::ONLINE.to_vec();
        kinds.push(PolicyKind::BeladyMin);
        for kind in kinds {
            let mut policy = kind.build();
            policy.prepare(&trace);
            let mut cache = CacheState::new(12);
            for bundle in &trace {
                let out = policy.handle(bundle, &mut cache, &catalog);
                assert!(cache.check_invariants(), "{:?} broke invariants", kind);
                if out.serviced {
                    assert!(
                        cache.contains_all(bundle),
                        "{:?} claimed service without residency",
                        kind
                    );
                }
                if out.hit {
                    assert_eq!(out.fetched_bytes, 0);
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<String> = PolicyKind::ONLINE
            .iter()
            .map(|k| k.build().name().to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ONLINE.len());
    }
}
