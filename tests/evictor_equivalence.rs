//! Differential integration tests for the indexed victim selection of the
//! baseline policies: every indexed policy must be bit-for-bit equivalent —
//! per-request outcomes and final cache content — to its retained
//! pre-index reference twin (`reference-kernels` feature), over full
//! simulated workloads and under pinning.

use fbc_baselines::PolicyKind;
use file_bundle_cache::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn workload_trace(seed: u64, jobs: usize) -> (Trace, Bytes) {
    let cfg = WorkloadConfig {
        num_files: 400,
        max_file_frac: 0.02,
        pool_requests: 120,
        jobs,
        files_per_request: (2, 6),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    };
    let w = Workload::generate(cfg);
    let cache = (w.mean_request_bytes() * 6.0) as Bytes;
    (w.into_trace(), cache)
}

fn all_kinds() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::ONLINE.to_vec();
    kinds.push(PolicyKind::BeladyMin);
    kinds
}

/// Every baseline's indexed victim selection must replay its reference twin
/// decision-for-decision over seeded 1000-job workloads — outcomes (hits,
/// fetched and evicted file lists, byte counts) and final residency alike.
#[test]
fn every_baseline_matches_its_reference_twin() {
    for seed in [0xFEEDu64, 0xBEEF] {
        let (trace, cache_size) = workload_trace(seed, 1_000);
        for kind in all_kinds() {
            let Some(mut reference) = kind.build_reference() else {
                continue; // OptFileBundle: kernels covered by kernel_equivalence.rs
            };
            let mut indexed = kind.build();
            indexed.prepare(&trace.requests);
            reference.prepare(&trace.requests);
            let mut cache_a = CacheState::new(cache_size);
            let mut cache_b = CacheState::new(cache_size);
            for (i, bundle) in trace.requests.iter().enumerate() {
                let a = indexed.handle(bundle, &mut cache_a, &trace.catalog);
                let b = reference.handle(bundle, &mut cache_b, &trace.catalog);
                assert_eq!(
                    a, b,
                    "{kind:?} (seed {seed:#x}) diverged from reference at request {i}"
                );
                assert!(
                    cache_a.check_invariants() && cache_b.check_invariants(),
                    "{kind:?} (seed {seed:#x}) broke cache invariants at request {i}"
                );
            }
            assert_eq!(
                cache_a.resident_files_sorted(),
                cache_b.resident_files_sorted(),
                "{kind:?} (seed {seed:#x}): final cache content diverged"
            );
        }
    }
}

/// Same differential run, but with files being pinned and unpinned along
/// the way (as the grid engine does for in-service jobs): the skip-on-pop /
/// skip-in-place paths of the indexed structures must make the exact
/// choices of the reference's filtered scan.
#[test]
fn every_baseline_matches_its_reference_twin_under_pinning() {
    let (trace, cache_size) = workload_trace(0x9127, 600);
    for kind in all_kinds() {
        let Some(mut reference) = kind.build_reference() else {
            continue;
        };
        let mut indexed = kind.build();
        indexed.prepare(&trace.requests);
        reference.prepare(&trace.requests);
        let mut cache_a = CacheState::new(cache_size);
        let mut cache_b = CacheState::new(cache_size);
        let mut state = 0x9127u64 ^ (kind as u64);
        let mut pinned: Vec<fbc_core::types::FileId> = Vec::new();
        for (i, bundle) in trace.requests.iter().enumerate() {
            // Pin a couple of residents every few requests; unpin later so
            // the caches never clog up with unevictable files.
            if xorshift(&mut state).is_multiple_of(4) {
                let residents = cache_a.resident_files_sorted();
                for _ in 0..2 {
                    if residents.is_empty() {
                        break;
                    }
                    let f = residents[(xorshift(&mut state) as usize) % residents.len()];
                    if !pinned.contains(&f) && cache_b.contains(f) {
                        cache_a.pin(f).unwrap();
                        cache_b.pin(f).unwrap();
                        pinned.push(f);
                    }
                }
            }
            while pinned.len() > 3 {
                let f = pinned.remove(0);
                cache_a.unpin(f).unwrap();
                cache_b.unpin(f).unwrap();
            }
            let a = indexed.handle(bundle, &mut cache_a, &trace.catalog);
            let b = reference.handle(bundle, &mut cache_b, &trace.catalog);
            assert_eq!(
                a, b,
                "{kind:?} diverged from reference at request {i} (pins: {pinned:?})"
            );
            assert!(
                cache_a.check_invariants() && cache_b.check_invariants(),
                "{kind:?} broke cache invariants at request {i} (pins: {pinned:?})"
            );
        }
        assert_eq!(
            cache_a.resident_files_sorted(),
            cache_b.resident_files_sorted(),
            "{kind:?}: final cache content diverged under pinning"
        );
    }
}

/// A mid-trace `reset()` against a still-warm cache must not desync the
/// incremental indexes: both sides resynchronize from their own state and
/// keep agreeing afterwards.
#[test]
fn warm_reset_does_not_desync_indexes() {
    let (trace, cache_size) = workload_trace(0x51DE, 400);
    for kind in all_kinds() {
        if kind == PolicyKind::BeladyMin {
            continue; // reset() requires a re-prepare; covered in-crate
        }
        let Some(mut reference) = kind.build_reference() else {
            continue;
        };
        let mut indexed = kind.build();
        let mut cache_a = CacheState::new(cache_size);
        let mut cache_b = CacheState::new(cache_size);
        for (i, bundle) in trace.requests.iter().enumerate() {
            if i == trace.requests.len() / 2 {
                indexed.reset();
                reference.reset();
            }
            let a = indexed.handle(bundle, &mut cache_a, &trace.catalog);
            let b = reference.handle(bundle, &mut cache_b, &trace.catalog);
            assert_eq!(a, b, "{kind:?} diverged after warm reset at request {i}");
            assert!(
                cache_a.check_invariants() && cache_b.check_invariants(),
                "{kind:?} broke cache invariants after warm reset at request {i}"
            );
        }
    }
}
