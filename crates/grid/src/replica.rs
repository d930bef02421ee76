//! Replicated mass storage: files live on several MSS sites and each fetch
//! chooses a replica — the paper's §1 lists "strategic data replication"
//! among the techniques data-grids rely on, and this module quantifies it.
//!
//! A [`Placement`] passed in [`crate::engine::RunOptions::placement`]
//! switches the engine's fetch path. Unlike the single MSS (which
//! aggregates a job's misses into one drive request), replicated fetches
//! are *per file*: each missing file is scheduled on the site that will
//! finish it earliest (drive queues considered), files stream in parallel
//! across sites, and the job's fetch completes when its last file lands.

use fbc_core::types::FileId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Placement of files onto storage sites.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `sites_of[f]` = site indices holding a replica of file `f`.
    sites_of: Vec<Vec<u32>>,
    sites: usize,
}

impl Placement {
    /// Every file on every site (full replication).
    pub fn full(files: usize, sites: usize) -> Self {
        assert!(sites > 0);
        Self {
            sites_of: vec![(0..sites as u32).collect(); files],
            sites,
        }
    }

    /// Each file on `copies` distinct sites chosen uniformly (seeded).
    pub fn random(files: usize, sites: usize, copies: usize, seed: u64) -> Self {
        assert!(sites > 0 && copies >= 1 && copies <= sites);
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<u32> = (0..sites as u32).collect();
        let sites_of = (0..files)
            .map(|_| {
                let mut s = all.clone();
                s.shuffle(&mut rng);
                s.truncate(copies);
                s.sort_unstable();
                s
            })
            .collect();
        Self { sites_of, sites }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// The sites holding `file`.
    pub fn replicas_of(&self, file: FileId) -> &[u32] {
        &self.sites_of[file.index()]
    }

    /// Mean replica count (diagnostics).
    pub fn mean_copies(&self) -> f64 {
        if self.sites_of.is_empty() {
            return 0.0;
        }
        self.sites_of.iter().map(|s| s.len() as f64).sum::<f64>() / self.sites_of.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{schedule_arrivals, ArrivalProcess, JobArrival};
    use crate::engine::{run_grid_nodes, GridConfig, RunOptions};
    use crate::mss::MssConfig;
    use crate::network::LinkConfig;
    use crate::srm::SrmConfig;
    use crate::stats::GridStats;
    use crate::time::SimDuration;
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;
    use fbc_core::optfilebundle::OptFileBundle;

    fn config() -> GridConfig {
        GridConfig {
            srm: SrmConfig {
                cache_size: 10_000_000,
                max_concurrent_jobs: 2,
                processing_rate: 1e8,
                processing_overhead: SimDuration::from_millis(1),
            },
            mss: MssConfig {
                drives: 1,
                mount_latency: SimDuration::from_secs(1),
                drive_bandwidth: 1e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(1),
                bandwidth: 1e9,
            },
            ..GridConfig::default()
        }
    }

    fn run(placement: &Placement) -> GridStats {
        let (catalog, arrivals) = workload();
        let mut policy = OptFileBundle::new();
        let opts = RunOptions {
            placement: Some(placement),
            ..RunOptions::default()
        };
        run_grid_nodes(&mut [&mut policy], &catalog, &arrivals, &config(), opts).overall
    }

    fn workload() -> (FileCatalog, Vec<JobArrival>) {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..12)
            .map(|i| Bundle::from_raw([(i * 2) % 8, (i * 2 + 1) % 8]))
            .collect();
        (catalog, schedule_arrivals(&jobs, ArrivalProcess::Batch))
    }

    #[test]
    fn placements_validate() {
        let full = Placement::full(10, 3);
        assert_eq!(full.replicas_of(FileId(5)), &[0, 1, 2]);
        assert_eq!(full.mean_copies(), 3.0);
        let partial = Placement::random(10, 4, 2, 7);
        assert_eq!(partial.mean_copies(), 2.0);
        for f in 0..10u32 {
            let r = partial.replicas_of(FileId(f));
            assert_eq!(r.len(), 2);
            assert!(r.windows(2).all(|w| w[0] < w[1]));
            assert!(r.iter().all(|&s| s < 4));
        }
    }

    #[test]
    fn all_jobs_complete_with_replication() {
        let stats = run(&Placement::full(8, 3));
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn more_replicas_do_not_hurt_makespan() {
        // 1 copy on 1 site = fully serialised drives; 3 sites = parallelism.
        let single = run(&Placement::full(8, 1));
        let triple = run(&Placement::full(8, 3));
        assert!(
            triple.makespan <= single.makespan,
            "3 sites {} > 1 site {}",
            triple.makespan,
            single.makespan
        );
        // Byte accounting is identical — replication changes timing only.
        assert_eq!(triple.cache.fetched_bytes, single.cache.fetched_bytes);
    }

    #[test]
    fn partial_replication_sits_between() {
        let one = run(&Placement::random(8, 3, 1, 42)).makespan;
        let full = run(&Placement::full(8, 3)).makespan;
        assert!(
            full <= one,
            "full replication {full} worse than 1-copy {one}"
        );
    }

    #[test]
    fn deterministic() {
        let placement = Placement::random(8, 3, 2, 9);
        assert_eq!(run(&placement), run(&placement));
    }
}
