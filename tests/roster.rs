//! The online roster as a whole: no two policies are one algorithm under
//! two names, and the trace simulator and the grid engine agree on every
//! policy when the engine serves one job at a time.

use file_bundle_cache::grid::client::schedule_arrivals;
use file_bundle_cache::prelude::*;
use proptest::prelude::*;

/// The totals a run leaves: jobs, serviced, hits, and requested, fetched
/// and evicted bytes.
fn totals(m: &Metrics) -> [u64; 6] {
    [
        m.jobs,
        m.serviced,
        m.hits,
        m.requested_bytes,
        m.fetched_bytes,
        m.evicted_bytes,
    ]
}

/// A seeded synthetic trace and a cache of four mean requests.
fn workload(
    popularity: Popularity,
    files_per_request: (usize, usize),
    seed: u64,
) -> (Trace, Bytes) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 300,
        max_file_frac: 0.03,
        pool_requests: 100,
        jobs: 1_500,
        files_per_request,
        popularity,
        seed,
        ..WorkloadConfig::default()
    });
    let cache = (w.mean_request_bytes() * 4.0) as Bytes;
    (w.into_trace(), cache)
}

/// Every pair of online policies must give different totals on at least
/// one run of a small fixed set: sequential uniform and Zipf traces, plus
/// one grid run with four service slots. Only the grid run pins files
/// under eviction, and that is what tells bundle-marking apart from LRU
/// (with sequential service the two evict alike).
#[test]
fn no_two_roster_policies_are_twins() {
    let kinds = PolicyKind::ONLINE;
    let mut fingerprints: Vec<Vec<[u64; 6]>> = vec![Vec::new(); kinds.len()];
    let runs = [
        (Popularity::Uniform, (1, 7), 1),
        (Popularity::zipf(), (1, 7), 2),
        (Popularity::Uniform, (2, 4), 3),
        (Popularity::zipf(), (2, 4), 4),
    ];
    for (popularity, files_per_request, seed) in runs {
        let (trace, cache) = workload(popularity, files_per_request, seed);
        for (fp, kind) in fingerprints.iter_mut().zip(kinds) {
            let m = run_trace(
                kind.build().as_mut(),
                &trace,
                &RunConfig::new(cache),
                &Obs::disabled(),
            );
            fp.push(totals(&m));
        }
    }

    let (trace, cache) = workload(Popularity::zipf(), (2, 6), 5);
    let config = GridConfig {
        srm: SrmConfig {
            cache_size: cache,
            max_concurrent_jobs: 4,
            ..SrmConfig::default()
        },
        ..GridConfig::default()
    };
    let arrivals = schedule_arrivals(
        &trace.requests,
        ArrivalProcess::Poisson {
            rate: 50.0,
            seed: 5,
        },
    );
    for (fp, kind) in fingerprints.iter_mut().zip(kinds) {
        let stats = run_grid(kind.build().as_mut(), &trace.catalog, &arrivals, &config);
        fp.push(totals(&stats.cache));
    }

    for (i, a) in kinds.iter().enumerate() {
        for (j, b) in kinds.iter().enumerate().skip(i + 1) {
            assert_ne!(
                fingerprints[i], fingerprints[j],
                "{a:?} and {b:?} gave the same totals on every run: one is the other \
                 under another name"
            );
        }
    }
}

/// Strategy: a random trace over a small catalog, a cache that may be
/// smaller than some bundles, and an arrival seed.
fn trace_cache_seed() -> impl Strategy<Value = (Trace, Bytes, u64)> {
    (3usize..=24, 4u64..=48, 0u64..1_000)
        .prop_flat_map(|(m, cache, seed)| {
            let sizes = proptest::collection::vec(1u64..=8, m);
            let bundle = proptest::collection::vec(0u32..m as u32, 1..=4);
            let jobs = proptest::collection::vec(bundle, 1..=80);
            (sizes, jobs, Just(cache), Just(seed))
        })
        .prop_map(|(sizes, jobs, cache, seed)| {
            let catalog = FileCatalog::from_sizes(sizes);
            let requests = jobs.into_iter().map(Bundle::from_raw).collect();
            (Trace::new(catalog, requests), cache, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With one service slot, no faults and Poisson arrivals, the grid
    /// engine calls `handle` in arrival order with no pins outstanding, so
    /// its cache totals are the trace simulator's FCFS totals — for every
    /// roster policy, through `run_grid` and through `run_grid_nodes` with
    /// one node under every dispatch rule and storage placement, with and
    /// without a fault plan whose windows never open.
    #[test]
    fn one_slot_grid_matches_the_trace_simulator((trace, cache, seed) in trace_cache_seed()) {
        let config = GridConfig {
            srm: SrmConfig {
                cache_size: cache,
                max_concurrent_jobs: 1,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        let arrivals =
            schedule_arrivals(&trace.requests, ArrivalProcess::Poisson { rate: 5.0, seed });
        let files = trace.catalog.len();
        let placements = [
            None,
            Some(Placement::full(files, 2)),
            Some(Placement::random(files, 3, 1, seed)),
        ];
        let never_opens =
            FaultPlan::parse("drive=*,1e9,inf;link-down=1e9,inf;seed=3").expect("valid spec");
        for kind in PolicyKind::ONLINE {
            let want = totals(&run_trace(
                kind.build().as_mut(),
                &trace,
                &RunConfig::new(cache),
                &Obs::disabled(),
            ));
            let stats = run_grid(kind.build().as_mut(), &trace.catalog, &arrivals, &config);
            prop_assert_eq!(totals(&stats.cache), want, "{:?} under run_grid", kind);
            for dispatch in [Dispatch::RoundRobin, Dispatch::LeastLoaded, Dispatch::BundleAffinity] {
                for (placement, plan) in placements
                    .iter()
                    .flat_map(|p| [(p, None), (p, Some(&never_opens))])
                {
                    let mut policy = kind.build();
                    let opts = RunOptions {
                        dispatch,
                        placement: placement.as_ref(),
                        plan,
                        ..RunOptions::default()
                    };
                    let stats = run_grid_nodes(
                        &mut [policy.as_mut()],
                        &trace.catalog,
                        &arrivals,
                        &config,
                        opts,
                    );
                    prop_assert_eq!(
                        totals(&stats.overall.cache),
                        want,
                        "{:?} under {:?}, placement {:?}, plan {:?}",
                        kind,
                        dispatch,
                        placement.as_ref().map(Placement::sites),
                        plan
                    );
                }
            }
        }
    }
}

/// A policy reset while its cache stays warm must still serve a feasible
/// request: fill a 3-slot cache with 3 singletons, reset, and ask for a
/// fourth file. The residents the policy no longer knows are evictable.
#[test]
fn every_policy_serves_after_a_warm_reset() {
    let catalog = FileCatalog::from_sizes(vec![1; 4]);
    for kind in PolicyKind::ONLINE {
        let mut policy = kind.build();
        let mut cache = CacheState::new(3);
        for f in 0..3u32 {
            policy.handle(&Bundle::from_raw([f]), &mut cache, &catalog);
        }
        policy.reset();
        let out = policy.handle(&Bundle::from_raw([3]), &mut cache, &catalog);
        assert!(out.serviced, "{kind:?} refused a feasible request");
        assert_eq!(out.evicted_files.len(), 1, "{kind:?}");
        assert!(cache.contains(FileId(3)) && cache.check_invariants());
    }
}
