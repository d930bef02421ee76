//! Differential suite for the online bundle-marking policies
//! (`fbc_baselines::online_bundle`) against the exact offline optimum
//! (`fbc_core::offline`):
//!
//! * on randomized tiny instances, the greedy OPT is pinned against the
//!   brute-force search twin, and both marking flavours stay within the
//!   provable bound `ρ·OPT + ρ` (one `ρ = k − ℓ + 1` burst per phase,
//!   one OPT miss per completed phase, plus the trailing incomplete
//!   phase);
//! * on the paper's sliding-window lower-bound sequence the measured
//!   ratio is *exactly* the bound (tightness), and on the aligned
//!   sequence never above it;
//! * behind the sharded front-end, every shard stays within the
//!   per-shard bound `ρ(k/m, ℓ)` against its own routed sub-trace's
//!   offline optimum;
//! * the competitive-ratio report path is NaN-free on zero
//!   denominators.

use fbc_baselines::online_bundle::{distributed_marking_bound, marking_competitive_bound};
use fbc_baselines::PolicyKind;
use fbc_core::offline::{competitive_ratio, opt_query_misses, opt_query_misses_reference};
use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
use fbc_grid::concurrent::{run_concurrent_grid, ConcurrentConfig};
use fbc_grid::engine::GridConfig;
use fbc_grid::srm::SrmConfig;
use fbc_grid::{ShardBy, ShardMap};
use fbc_workload::adversary::{sliding_window, sliding_window_opt_misses, unit_catalog};
use file_bundle_cache::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn misses(kind: PolicyKind, trace: &[Bundle], catalog: &FileCatalog, capacity: Bytes) -> u64 {
    let mut policy = kind.build();
    let mut cache = CacheState::new(capacity);
    trace
        .iter()
        .map(|b| u64::from(!policy.handle(b, &mut cache, catalog).hit))
        .sum()
}

/// Random unit-size tiny instances: the greedy exact OPT must equal the
/// brute-force search, and both marking flavours must respect
/// `misses ≤ ρ·OPT + ρ`.
#[test]
fn marking_stays_within_bound_of_brute_force_opt_on_tiny_instances() {
    let mut state = 0xD1FFu64;
    for case in 0..250 {
        let k = xorshift(&mut state) % 5 + 2; // cache: 2..=6 unit files
        let l = (xorshift(&mut state) % k).max(1); // bundles: 1..=k files
        let n = (k + 1 + xorshift(&mut state) % 4) as usize; // universe > k
        let t = (xorshift(&mut state) % 14 + 1) as usize;
        let catalog = unit_catalog(n);
        let trace: Vec<Bundle> = (0..t)
            .map(|_| {
                let mut picks: Vec<u32> = Vec::new();
                while picks.len() < l as usize {
                    let f = (xorshift(&mut state) % n as u64) as u32;
                    if !picks.contains(&f) {
                        picks.push(f);
                    }
                }
                Bundle::from_raw(picks)
            })
            .collect();
        let opt = opt_query_misses(&trace, &catalog, k);
        assert_eq!(
            opt,
            opt_query_misses_reference(&trace, &catalog, k),
            "case {case}: greedy OPT diverged from brute force (k={k} l={l} t={t})"
        );
        let bound = marking_competitive_bound(k, l);
        for kind in [PolicyKind::BundleMarking, PolicyKind::BundleMarkingRand] {
            let online = misses(kind, &trace, &catalog, k);
            assert!(
                online as f64 <= bound * opt as f64 + bound,
                "case {case}: {kind:?} missed {online} > ρ·OPT + ρ = \
                 {bound}·{opt} + {bound} (k={k} l={l} t={t})"
            );
        }
    }
}

/// The paper's lower-bound sequence: on the aligned sliding window the
/// deterministic marking policy misses every query and OPT pays exactly
/// `T / (k − ℓ + 1)`, so the measured ratio equals the bound — and never
/// exceeds it.
#[test]
fn lower_bound_sequence_is_tight_and_never_exceeded() {
    for (k, l) in [(6u32, 2u32), (10, 3), (16, 1)] {
        let stride = (k - l + 1) as usize;
        let bound = marking_competitive_bound(k as u64, l as u64);
        let catalog = unit_catalog(k as usize + 1);
        // Aligned horizon: measured ratio must be exactly the bound.
        let t = 7 * stride;
        let trace = sliding_window(k, l, t);
        let opt = opt_query_misses(&trace, &catalog, k as u64);
        assert_eq!(opt, sliding_window_opt_misses(k, l, t));
        let online = misses(PolicyKind::BundleMarking, &trace, &catalog, k as u64);
        assert_eq!(online, t as u64, "marking must miss every query here");
        let ratio = competitive_ratio(online as f64, opt as f64);
        assert!(
            (ratio - bound).abs() < 1e-9,
            "k={k} l={l}: aligned ratio {ratio} != bound {bound}"
        );
        // Unaligned horizons stay at or under the bound.
        for t in [stride + 1, 3 * stride - 1, 5 * stride + 2] {
            let trace = sliding_window(k, l, t);
            let opt = opt_query_misses(&trace, &catalog, k as u64);
            let online = misses(PolicyKind::BundleMarking, &trace, &catalog, k as u64);
            assert!(
                competitive_ratio(online as f64, opt as f64) <= bound + 1e-9,
                "k={k} l={l} t={t}: ratio exceeds bound"
            );
        }
        // The randomized flavour shares the per-phase guarantee.
        let trace = sliding_window(k, l, 7 * stride);
        let online = misses(PolicyKind::BundleMarkingRand, &trace, &catalog, k as u64);
        let opt = opt_query_misses(&trace, &catalog, k as u64);
        assert!(
            competitive_ratio(online as f64, opt as f64) <= bound + 1e-9,
            "k={k} l={l}: randomized flavour exceeds bound"
        );
    }
}

/// Distributed generalization: with the marking policy on every shard of
/// the concurrent front-end, each shard's measured ratio against its own
/// sub-trace's offline optimum stays within the per-shard bound.
#[test]
fn sharded_marking_stays_within_per_shard_bound() {
    let (total_files, universe, l, jobs) = (48u64, 64u32, 3usize, 900usize);
    let catalog = unit_catalog(universe as usize);
    let mut state = 0x5EEDu64;
    let bundles: Vec<Bundle> = (0..jobs)
        .map(|_| {
            let mut picks: Vec<u32> = Vec::new();
            while picks.len() < l {
                let f = (xorshift(&mut state) % universe as u64) as u32;
                if !picks.contains(&f) {
                    picks.push(f);
                }
            }
            Bundle::from_raw(picks)
        })
        .collect();
    let arrivals = schedule_arrivals(&bundles, ArrivalProcess::Batch);
    for shards in [1usize, 2, 4] {
        let grid = GridConfig {
            srm: SrmConfig {
                cache_size: total_files,
                max_concurrent_jobs: 1, // sequential per shard: routed order = service order
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        let factory = || -> SendPolicy { PolicyKind::BundleMarking.build_send() };
        let stats = run_concurrent_grid(
            &factory,
            &catalog,
            &arrivals,
            &ConcurrentConfig::sharded(grid, shards),
            None,
        );
        let map = ShardMap::new(shards, ShardBy::default());
        let mut sub: Vec<Vec<Bundle>> = vec![Vec::new(); shards];
        for b in &bundles {
            sub[map.shard_of(b)].push(b.clone());
        }
        let bound = distributed_marking_bound(total_files, shards as u64, l as u64);
        for (i, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(shard.cache.jobs, sub[i].len() as u64, "routing mismatch");
            let online = shard.cache.jobs - shard.cache.hits;
            let opt = opt_query_misses(&sub[i], &catalog, total_files / shards as u64);
            let ratio = competitive_ratio(online as f64, opt as f64);
            assert!(
                ratio <= bound + 1e-9,
                "m={shards} shard {i}: ratio {ratio:.4} exceeds per-shard bound {bound}"
            );
            assert!(!ratio.is_nan());
        }
    }
}

/// The ratio report path must be NaN-free on every zero-denominator
/// combination the harness can produce (e.g. a shard whose sub-trace fits
/// entirely in its cache slice, giving OPT = online = trace-opening miss,
/// or an empty shard with no jobs at all).
#[test]
fn ratio_reporting_handles_zero_denominators() {
    assert_eq!(competitive_ratio(0.0, 0.0), 1.0);
    assert_eq!(competitive_ratio(3.0, 0.0), f64::INFINITY);
    assert!(!competitive_ratio(0.0, 0.0).is_nan());
    // An empty sub-trace: OPT = 0, online = 0 → defined ratio of 1.0.
    let catalog = unit_catalog(4);
    assert_eq!(opt_query_misses(&[], &catalog, 2), 0);
    let online = misses(PolicyKind::BundleMarking, &[], &catalog, 2);
    assert_eq!(competitive_ratio(online as f64, 0.0), 1.0);
}

/// Misses per phase of `policy` on the round-robin phase workload that
/// `perf_online` reports: k = 50 unit files, ℓ = 5, 8 phases × 200 queries.
fn round_robin_misses_per_phase(mut policy: impl CachePolicy) -> Vec<u64> {
    let (k, l, phases, qpp) = (50u32, 5u32, 8u32, 200usize);
    let trace = fbc_workload::adversary::round_robin_phases(k, l, phases, qpp);
    let catalog = unit_catalog((phases * k) as usize);
    let mut cache = CacheState::new(k as u64);
    trace
        .chunks(qpp)
        .map(|phase| {
            phase
                .iter()
                .map(|b| u64::from(!policy.handle(b, &mut cache, &catalog).hit))
                .sum()
        })
        .collect()
}

/// OptFileBundle's stale-history lock-in, pinned. With the paper's
/// occurrence count, the ten bundles of a finished phase stay resident
/// with count 20 each; a cache-supported decision keeps them as
/// candidates and they outrank every bundle of the new phase, so each
/// miss evicts the new bundle's files and OFB misses every query after
/// the first phase. A decayed count ages the old bundles out and adapts.
#[test]
fn ofb_round_robin_lock_in_is_pinned() {
    let count = round_robin_misses_per_phase(OptFileBundle::new());
    let mut locked = vec![200; 8];
    locked[0] = 10;
    assert_eq!(count, locked, "Count/CacheSupported");
    let decay = round_robin_misses_per_phase(OptFileBundle::with_config(OfbConfig {
        value_fn: ValueFn::Decay { half_life: 10.0 },
        ..OfbConfig::default()
    }));
    let mut adapting = vec![19; 8];
    adapting[0] = 10;
    assert_eq!(decay, adapting, "Decay(half-life 10)");
}
