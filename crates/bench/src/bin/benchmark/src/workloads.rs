//! The four named workloads: how each trace is generated from a seed, and
//! the grid, policy and arrival process each one runs under.
//!
//! A workload's catalog and request pool are part of its definition and are
//! drawn from a fixed constant; `--seed` draws the job stream (which pool
//! entries are requested, in what order) and the arrival times. So two
//! seeds are two different traces of the same workload, and the quality
//! metrics (byte miss ratio, request hit ratio) of different seeds sample
//! one distribution instead of one distribution per catalog.

use fbc_baselines::PolicyKind;
use fbc_core::bundle::Bundle;
use fbc_core::catalog::FileCatalog;
use fbc_core::optfilebundle::{HistoryMode, OfbConfig, OptFileBundle};
use fbc_core::policy::SendPolicy;
use fbc_core::types::GIB;
use fbc_grid::client::ArrivalProcess;
use fbc_grid::concurrent::ConcurrentConfig;
use fbc_grid::engine::GridConfig;
use fbc_grid::faults::FaultPlan;
use fbc_grid::srm::SrmConfig;
use fbc_workload::popularity::{Popularity, PopularitySampler};
use fbc_workload::synth::{Workload as Synth, WorkloadConfig};
use fbc_workload::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HitFlood,
    PaperZipf,
    PaperZipfWindow,
    ShardedChurn,
}

pub const ALL: [Kind; 4] = [
    Kind::HitFlood,
    Kind::PaperZipf,
    Kind::PaperZipfWindow,
    Kind::ShardedChurn,
];

/// Seed of the fixed catalog and request pool of every workload.
const POOL_SEED: u64 = 0xF1BC_2004;

const HIT_FILES: usize = 4_000;
const HIT_FILE_SIZE: u64 = 1_000_000;
const HIT_POOL: usize = 512;
const HIT_JOBS: usize = 3_000_000;

const PAPER_JOBS: usize = 300_000;
const WINDOW_JOBS: usize = 200_000;
const PAPER_RATE: f64 = 0.5;

const CHURN_JOBS: usize = 2_000_000;
const CHURN_RATE: f64 = 2.2;
const CHURN_SHARDS: usize = 4;
const CHURN_WORKERS: usize = 2;

/// How a workload's trace is simulated.
pub enum Engine {
    /// `fbc_grid::engine::run_grid` with one policy instance.
    Sequential(GridConfig),
    /// `fbc_grid::concurrent::run_concurrent_grid` under a fault plan.
    Sharded(ConcurrentConfig, FaultPlan),
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::HitFlood => "hit-flood",
            Kind::PaperZipf => "paper-zipf",
            Kind::PaperZipfWindow => "paper-zipf-window",
            Kind::ShardedChurn => "sharded-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Jobs in the full-size trace; `scale` divides it (100 in `--smoke`).
    pub fn jobs(self, scale: usize) -> usize {
        let full = match self {
            Kind::HitFlood => HIT_JOBS,
            Kind::PaperZipf => PAPER_JOBS,
            Kind::PaperZipfWindow => WINDOW_JOBS,
            Kind::ShardedChurn => CHURN_JOBS,
        };
        full / scale
    }

    /// The workload's trace for `seed`, with `jobs` requests.
    pub fn generate(self, seed: u64, jobs: usize) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Kind::HitFlood => {
                let catalog = FileCatalog::from_sizes(vec![HIT_FILE_SIZE; HIT_FILES]);
                let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
                let draw = PopularitySampler::new(Popularity::Uniform, HIT_FILES);
                let pool: Vec<Bundle> = (0..HIT_POOL)
                    .map(|_| Bundle::from_raw((0..3).map(|_| draw.sample(&mut pool_rng) as u32)))
                    .collect();
                draw_jobs(catalog, &pool, Popularity::Uniform, jobs, &mut rng)
            }
            Kind::PaperZipf | Kind::PaperZipfWindow => {
                let synth = paper_pool(1_600, 0.01, 400);
                draw_jobs(
                    synth.catalog,
                    &synth.pool,
                    Popularity::zipf(),
                    jobs,
                    &mut rng,
                )
            }
            Kind::ShardedChurn => {
                let synth = paper_pool(20_000, 0.002, 20_000);
                let zipf = Popularity::Zipf { theta: 0.8 };
                draw_jobs(synth.catalog, &synth.pool, zipf, jobs, &mut rng)
            }
        }
    }

    pub fn arrivals(self, seed: u64) -> ArrivalProcess {
        match self {
            Kind::HitFlood => ArrivalProcess::Batch,
            Kind::PaperZipf | Kind::PaperZipfWindow => ArrivalProcess::Poisson {
                rate: PAPER_RATE,
                seed,
            },
            Kind::ShardedChurn => ArrivalProcess::Poisson {
                rate: CHURN_RATE,
                seed,
            },
        }
    }

    pub fn engine(self) -> Engine {
        let grid = |cache_size, max_concurrent_jobs| GridConfig {
            srm: SrmConfig {
                cache_size,
                max_concurrent_jobs,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        match self {
            Kind::HitFlood => Engine::Sequential(grid(HIT_FILES as u64 * HIT_FILE_SIZE, 4)),
            Kind::PaperZipf | Kind::PaperZipfWindow => Engine::Sequential(grid(10 * GIB, 4)),
            Kind::ShardedChurn => Engine::Sharded(
                ConcurrentConfig {
                    workers: CHURN_WORKERS,
                    ..ConcurrentConfig::sharded(grid(10 * GIB, 8), CHURN_SHARDS)
                },
                FaultPlan::preset("flaky-wan").expect("flaky-wan is a built-in preset"),
            ),
        }
    }

    /// Constructor of the workload's policy (one instance per shard).
    pub fn policy(self) -> fn() -> SendPolicy {
        match self {
            Kind::HitFlood | Kind::PaperZipf => || Box::new(OptFileBundle::new()),
            Kind::PaperZipfWindow => || {
                Box::new(OptFileBundle::with_config(OfbConfig {
                    history_mode: HistoryMode::Window(1000),
                    ..OfbConfig::default()
                }))
            },
            Kind::ShardedChurn => || PolicyKind::Landlord.build_send(),
        }
    }
}

/// The paper's §5.1 file and request pools for a 10 GiB cache.
fn paper_pool(num_files: usize, max_file_frac: f64, pool_requests: usize) -> Synth {
    Synth::generate(WorkloadConfig {
        cache_size: 10 * GIB,
        num_files,
        max_file_frac,
        pool_requests,
        jobs: 0,
        files_per_request: (2, 6),
        popularity: Popularity::Uniform,
        seed: POOL_SEED,
    })
}

fn draw_jobs(
    catalog: FileCatalog,
    pool: &[Bundle],
    popularity: Popularity,
    jobs: usize,
    rng: &mut StdRng,
) -> Trace {
    let sampler = PopularitySampler::new(popularity, pool.len());
    let requests = (0..jobs)
        .map(|_| pool[sampler.sample(rng)].clone())
        .collect();
    Trace::new(catalog, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for kind in ALL {
            let jobs = kind.jobs(1_000);
            let a = kind.generate(7, jobs);
            assert_eq!(a.len(), jobs);
            assert_eq!(a, kind.generate(7, jobs), "{}", kind.name());
            assert_ne!(a, kind.generate(8, jobs), "{}", kind.name());
        }
    }

    #[test]
    fn window_stream_is_a_prefix_of_the_paper_stream() {
        let paper = Kind::PaperZipf.generate(3, 500);
        let window = Kind::PaperZipfWindow.generate(3, 200);
        assert_eq!(window.catalog, paper.catalog);
        assert_eq!(window.requests[..], paper.requests[..200]);
    }
}
