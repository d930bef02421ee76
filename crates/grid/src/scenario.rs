//! Convenience builder: generate a synthetic workload, stamp arrivals, and
//! run the grid end-to-end with a chosen policy.

use crate::client::{schedule_arrivals, ArrivalProcess};
use crate::engine::{run_grid_observed, GridConfig};
use crate::faults::FaultPlan;
use crate::stats::GridStats;
use fbc_core::policy::CachePolicy;
use fbc_obs::Obs;
use fbc_workload::{Workload, WorkloadConfig};

/// A complete end-to-end experiment description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Synthetic workload parameters (the SRM cache size is taken from
    /// `grid.srm.cache_size`, overriding the workload's own).
    pub workload: WorkloadConfig,
    /// Grid hardware model.
    pub grid: GridConfig,
    /// Job arrival process.
    pub arrivals: ArrivalProcess,
}

/// Generates the workload and runs the grid, under `plan` when given;
/// returns the statistics.
pub fn run_scenario(
    policy: &mut dyn CachePolicy,
    cfg: &ScenarioConfig,
    plan: Option<&FaultPlan>,
) -> GridStats {
    let mut wl_cfg = cfg.workload;
    wl_cfg.cache_size = cfg.grid.srm.cache_size;
    let workload = Workload::generate(wl_cfg);
    let arrivals = schedule_arrivals(&workload.jobs, cfg.arrivals);
    run_grid_observed(
        policy,
        &workload.catalog,
        &arrivals,
        &cfg.grid,
        plan,
        &Obs::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srm::SrmConfig;
    use fbc_baselines::Landlord;
    use fbc_core::optfilebundle::OptFileBundle;
    use fbc_core::types::MIB;

    fn cfg() -> ScenarioConfig {
        ScenarioConfig {
            workload: WorkloadConfig {
                num_files: 40,
                max_file_frac: 0.05,
                pool_requests: 30,
                jobs: 120,
                files_per_request: (1, 4),
                popularity: fbc_workload::Popularity::zipf(),
                seed: 77,
                ..WorkloadConfig::default()
            },
            grid: GridConfig {
                srm: SrmConfig {
                    cache_size: 256 * MIB,
                    ..SrmConfig::default()
                },
                ..GridConfig::default()
            },
            arrivals: ArrivalProcess::Poisson { rate: 5.0, seed: 9 },
        }
    }

    #[test]
    fn scenario_runs_to_completion() {
        let mut policy = OptFileBundle::new();
        let stats = run_scenario(&mut policy, &cfg(), None);
        assert_eq!(stats.completed + stats.rejected, 120);
        assert!(stats.completed > 0);
    }

    #[test]
    fn bundle_aware_policy_fetches_no_more_than_landlord() {
        let c = cfg();
        let mut ofb = OptFileBundle::new();
        let ofb_stats = run_scenario(&mut ofb, &c, None);
        let mut ll = Landlord::new();
        let ll_stats = run_scenario(&mut ll, &c, None);
        // The headline claim, end to end: equal-or-lower byte miss ratio.
        assert!(
            ofb_stats.cache.byte_miss_ratio() <= ll_stats.cache.byte_miss_ratio() + 1e-9,
            "OFB {} > Landlord {}",
            ofb_stats.cache.byte_miss_ratio(),
            ll_stats.cache.byte_miss_ratio()
        );
    }
}
