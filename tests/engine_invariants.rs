//! Release-mode invariant sweep for the grid engine: every cache a run
//! touches must pass `CacheState::check_invariants` after every request the
//! engine hands a policy. The engine itself checks this only inside
//! `debug_assert!`, so a release build would otherwise never look. The
//! sweep covers a single node under the `flaky-wan` and `tape-outage`
//! fault presets, multi-SRM clusters under each dispatch rule, and
//! replicated storage, for `OptFileBundle` in every greedy variant and
//! history mode plus Landlord and LRU.

use file_bundle_cache::grid::client::{schedule_arrivals, JobArrival};
use file_bundle_cache::prelude::*;

/// Forwards to `inner` and asserts the cache's invariants after every
/// request. Batches fall back to the trait default (one `handle` per
/// bundle), so they are checked request by request as well.
struct Checked {
    inner: Box<dyn CachePolicy>,
    handled: u64,
}

impl CachePolicy for Checked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let outcome = self.inner.handle(bundle, cache, catalog);
        self.handled += 1;
        assert!(
            cache.check_invariants(),
            "{}: cache invariants broken after request {}",
            self.inner.name(),
            self.handled
        );
        outcome
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

type Build = Box<dyn Fn() -> Box<dyn CachePolicy>>;

/// Constructors for every policy of the sweep.
fn roster() -> Vec<Build> {
    let mut out: Vec<Build> = Vec::new();
    for variant in [
        GreedyVariant::PaperLiteral,
        GreedyVariant::SortedOnce,
        GreedyVariant::SharedCredit,
    ] {
        for history_mode in [
            HistoryMode::Full,
            HistoryMode::Window(25),
            HistoryMode::CacheSupported,
        ] {
            let config = OfbConfig {
                variant,
                history_mode,
                ..OfbConfig::default()
            };
            out.push(Box::new(move || {
                Box::new(OptFileBundle::with_config(config))
            }));
        }
    }
    out.push(Box::new(|| Box::new(Landlord::new())));
    out.push(Box::new(|| Box::new(Lru::new())));
    out
}

/// 400 Zipf jobs over 120 files at one job per second, so the run spans
/// the presets' fault windows (the tape outage covers seconds 60–300), and
/// a cache of about six mean requests, so most misses evict.
fn workload() -> (FileCatalog, Vec<JobArrival>, GridConfig) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 120,
        max_file_frac: 0.02,
        pool_requests: 60,
        jobs: 400,
        files_per_request: (1, 5),
        popularity: Popularity::zipf(),
        seed: 0x1A7,
        ..WorkloadConfig::default()
    });
    let cache_size = (w.mean_request_bytes() * 6.0) as Bytes;
    let arrivals = schedule_arrivals(&w.jobs, ArrivalProcess::Poisson { rate: 1.0, seed: 3 });
    let config = GridConfig {
        srm: SrmConfig {
            cache_size,
            ..SrmConfig::default()
        },
        ..GridConfig::default()
    };
    (w.catalog, arrivals, config)
}

/// Runs every roster policy on `nodes` checked nodes under `opts`, and
/// checks that every run evicts and that `exercised` holds of its stats.
fn sweep(nodes: usize, opts: RunOptions, label: &str, exercised: fn(&GridStats) -> bool) {
    let (catalog, arrivals, config) = workload();
    for build in roster() {
        let mut checked: Vec<Checked> = (0..nodes)
            .map(|_| Checked {
                inner: build(),
                handled: 0,
            })
            .collect();
        let name = checked[0].name().to_string();
        let mut refs: Vec<&mut dyn CachePolicy> = checked
            .iter_mut()
            .map(|c| c as &mut dyn CachePolicy)
            .collect();
        let stats = run_grid_nodes(&mut refs, &catalog, &arrivals, &config, opts);
        let handled: u64 = checked.iter().map(|c| c.handled).sum();
        assert!(
            handled >= arrivals.len() as u64,
            "{label} / {name}: only {handled} of {} jobs reached a policy",
            arrivals.len()
        );
        assert_eq!(
            stats.overall.completed + stats.overall.rejected + stats.overall.failed,
            arrivals.len() as u64,
            "{label} / {name}: jobs lost"
        );
        assert!(
            stats.overall.cache.evicted_bytes > 0 && exercised(&stats.overall),
            "{label} / {name}: the run does not exercise its setup"
        );
    }
}

#[test]
fn single_node_under_flaky_wan_keeps_cache_invariants() {
    let plan = FaultPlan::parse("preset:flaky-wan").unwrap();
    let opts = RunOptions {
        plan: Some(&plan),
        ..RunOptions::default()
    };
    sweep(1, opts, "flaky-wan", |s| s.transient_fetch_errors > 0);
}

#[test]
fn single_node_under_tape_outage_keeps_cache_invariants() {
    let plan = FaultPlan::parse("preset:tape-outage").unwrap();
    let opts = RunOptions {
        plan: Some(&plan),
        ..RunOptions::default()
    };
    sweep(1, opts, "tape-outage", |_| true);
}

#[test]
fn dispatch_clusters_keep_cache_invariants() {
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        let opts = RunOptions {
            dispatch,
            ..RunOptions::default()
        };
        sweep(3, opts, dispatch.label(), |_| true);
    }
}

#[test]
fn replicated_storage_keeps_cache_invariants() {
    let (catalog, _, _) = workload();
    let placement = Placement::random(catalog.len(), 3, 2, 17);
    let opts = RunOptions {
        placement: Some(&placement),
        ..RunOptions::default()
    };
    sweep(1, opts, "replicas", |_| true);
}
