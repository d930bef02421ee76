//! Multi-SRM grids: a cluster of SRM nodes (each with its own disk cache
//! and replacement policy) sharing one storage fabric and WAN link —
//! the paper's §2 notes that "an SRM's host that consists of a cluster of
//! machines may have its disk cache distributed over independent disks of
//! the cluster nodes". [`crate::engine::run_grid_nodes`] runs one.
//!
//! The interesting knob is the **dispatcher**: bundle-affinity routing
//! (hashing the canonical bundle to a node) keeps each recurring bundle's
//! files on one node and preserves the request-locality that bundle-aware
//! caching exploits; load-oblivious round-robin destroys it.

/// How arriving jobs are routed to SRM nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Cycle through the nodes in arrival order.
    RoundRobin,
    /// Send to the node with the fewest queued + in-service jobs.
    LeastLoaded,
    /// Hash the canonical bundle to a node: every recurrence of a request
    /// lands on the same cache.
    #[default]
    BundleAffinity,
}

impl Dispatch {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Dispatch::RoundRobin => "round-robin",
            Dispatch::LeastLoaded => "least-loaded",
            Dispatch::BundleAffinity => "bundle-affinity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{schedule_arrivals, ArrivalProcess, JobArrival};
    use crate::concurrent::ConcurrentStats;
    use crate::engine::{run_grid, run_grid_nodes, GridConfig, RunOptions};
    use crate::mss::MssConfig;
    use crate::network::LinkConfig;
    use crate::srm::SrmConfig;
    use crate::time::SimDuration;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;
    use fbc_core::optfilebundle::OptFileBundle;
    use fbc_core::policy::CachePolicy;

    fn config() -> GridConfig {
        GridConfig {
            srm: SrmConfig {
                cache_size: 4_000_000,
                max_concurrent_jobs: 2,
                processing_rate: 1e8,
                processing_overhead: SimDuration::from_millis(10),
            },
            mss: MssConfig {
                drives: 2,
                mount_latency: SimDuration::from_millis(200),
                drive_bandwidth: 50e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(5),
                bandwidth: 200e6,
            },
            ..GridConfig::default()
        }
    }

    fn workload() -> (FileCatalog, Vec<JobArrival>) {
        let catalog = FileCatalog::from_sizes(vec![500_000; 20]);
        let pool: Vec<Bundle> = (0..8)
            .map(|i| Bundle::from_raw([i * 2, i * 2 + 1]))
            .collect();
        let jobs: Vec<Bundle> = (0..120).map(|i| pool[i % pool.len()].clone()).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Uniform {
                gap: SimDuration::from_millis(50),
            },
        );
        (catalog, arrivals)
    }

    fn run(nodes: usize, dispatch: Dispatch) -> ConcurrentStats {
        let (catalog, arrivals) = workload();
        let mut policies: Vec<OptFileBundle> = (0..nodes).map(|_| OptFileBundle::new()).collect();
        let mut refs: Vec<&mut dyn CachePolicy> = policies
            .iter_mut()
            .map(|p| p as &mut dyn CachePolicy)
            .collect();
        let opts = RunOptions {
            dispatch,
            ..RunOptions::default()
        };
        run_grid_nodes(&mut refs, &catalog, &arrivals, &config(), opts)
    }

    #[test]
    fn all_jobs_complete_across_nodes() {
        for dispatch in [
            Dispatch::RoundRobin,
            Dispatch::LeastLoaded,
            Dispatch::BundleAffinity,
        ] {
            let stats = run(3, dispatch);
            assert_eq!(stats.overall.completed, 120, "{dispatch:?}");
            assert_eq!(stats.routed.iter().sum::<u64>(), 120);
            assert_eq!(
                stats.per_shard.iter().map(|s| s.completed).sum::<u64>(),
                120
            );
        }
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let stats = run(3, Dispatch::RoundRobin);
        assert_eq!(stats.routed, vec![40, 40, 40]);
        assert!((stats.routing_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn affinity_routes_recurrences_to_one_node() {
        // Every one of the 8 pool bundles recurs 15 times on a single node,
        // so affinity's hit count must beat round-robin's.
        let affinity = run(3, Dispatch::BundleAffinity);
        let rr = run(3, Dispatch::RoundRobin);
        assert!(
            affinity.overall.cache.hits > rr.overall.cache.hits,
            "affinity {} <= rr {}",
            affinity.overall.cache.hits,
            rr.overall.cache.hits
        );
    }

    #[test]
    fn single_node_matches_engine() {
        let (catalog, arrivals) = workload();
        let mut policy = OptFileBundle::new();
        let single = run_grid(&mut policy, &catalog, &arrivals, &config());
        let multi = run(1, Dispatch::RoundRobin);
        assert_eq!(multi.overall, single);
        assert_eq!(multi.per_shard, vec![single]);
    }

    #[test]
    #[should_panic(expected = "at least one SRM node")]
    fn a_cluster_needs_a_node() {
        let _ = run(0, Dispatch::RoundRobin);
    }
}
