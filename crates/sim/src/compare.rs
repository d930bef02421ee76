//! Side-by-side policy comparison: run a set of policies over one trace and
//! summarise — the workhorse behind `fbcache compare` and the examples.

use crate::metrics::Metrics;
use crate::report::{f4, Table};
use crate::runner::{run_trace, RunConfig};
use fbc_core::policy::CachePolicy;
use fbc_obs::Obs;
use fbc_workload::trace::Trace;

/// Results of comparing several policies on one trace.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// `(policy name, metrics)` in input order.
    pub rows: Vec<(String, Metrics)>,
}

/// Runs each policy over `trace` (fresh cache each) and collects metrics.
pub fn compare_policies(
    trace: &Trace,
    cfg: &RunConfig,
    policies: Vec<Box<dyn CachePolicy>>,
) -> PolicyComparison {
    let rows = policies
        .into_iter()
        .map(|mut policy| {
            let metrics = run_trace(policy.as_mut(), trace, cfg, &Obs::disabled());
            (policy.name().to_string(), metrics)
        })
        .collect();
    PolicyComparison { rows }
}

impl PolicyComparison {
    /// The standard comparison table (byte miss ratio, hit ratio, volumes).
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "policy",
            "byte miss ratio",
            "request-hit ratio",
            "GiB fetched",
            "GiB evicted",
        ]);
        for (name, m) in &self.rows {
            t.add_row([
                name.clone(),
                f4(m.byte_miss_ratio()),
                f4(m.request_hit_ratio()),
                format!("{:.2}", m.fetched_bytes as f64 / (1u64 << 30) as f64),
                format!("{:.2}", m.evicted_bytes as f64 / (1u64 << 30) as f64),
            ]);
        }
        t
    }

    /// Name of the policy with the lowest byte miss ratio (ties: first).
    pub fn best_by_byte_miss(&self) -> Option<&str> {
        self.rows
            .iter()
            .min_by(|a, b| {
                a.1.byte_miss_ratio()
                    .partial_cmp(&b.1.byte_miss_ratio())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(name, _)| name.as_str())
    }

    /// Metrics of a policy by name.
    pub fn metrics_of(&self, name: &str) -> Option<&Metrics> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_baselines::{Landlord, Lru};
    use fbc_core::bundle::Bundle;
    use fbc_core::catalog::FileCatalog;
    use fbc_core::optfilebundle::OptFileBundle;

    fn trace() -> Trace {
        let catalog = FileCatalog::from_sizes(vec![1; 8]);
        let jobs = (0..40u32)
            .map(|i| Bundle::from_raw([i % 4, (i % 4) + 4]))
            .collect();
        Trace::new(catalog, jobs)
    }

    #[test]
    fn comparison_collects_every_policy() {
        let t = trace();
        let cmp = compare_policies(
            &t,
            &RunConfig::new(4),
            vec![
                Box::new(OptFileBundle::new()),
                Box::new(Landlord::new()),
                Box::new(Lru::new()),
            ],
        );
        assert_eq!(cmp.rows.len(), 3);
        assert_eq!(cmp.rows[0].0, "OptFileBundle");
        assert!(cmp.metrics_of("LRU").is_some());
        assert!(cmp.metrics_of("nope").is_none());
        assert!(cmp.best_by_byte_miss().is_some());
        let table = cmp.table();
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn best_policy_has_minimal_ratio() {
        let t = trace();
        let cmp = compare_policies(
            &t,
            &RunConfig::new(4),
            vec![Box::new(OptFileBundle::new()), Box::new(Lru::new())],
        );
        let best = cmp.best_by_byte_miss().unwrap();
        let best_m = cmp.metrics_of(best).unwrap().byte_miss_ratio();
        for (_, m) in &cmp.rows {
            assert!(best_m <= m.byte_miss_ratio() + 1e-12);
        }
    }

    #[test]
    fn empty_comparison_is_sane() {
        let t = trace();
        let cmp = compare_policies(&t, &RunConfig::new(4), vec![]);
        assert!(cmp.rows.is_empty());
        assert!(cmp.best_by_byte_miss().is_none());
        assert!(cmp.table().is_empty());
    }
}
