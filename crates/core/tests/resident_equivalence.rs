//! Differential property tests: the persistent resident decision path of
//! `OptFileBundle` must be bit-for-bit equivalent to the verbatim rebuild
//! reference path (`OptFileBundle::with_config_reference`) under arbitrary
//! record/insert/evict interleavings — which the policy itself generates
//! when driven by a random job stream — across every history mode × greedy
//! variant, for counting and decayed value functions, including warm
//! starts, resets, and interleaved `explain` dry runs.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::history::{RequestHistory, ValueFn};
use fbc_core::optfilebundle::{HistoryMode, OfbConfig, OptFileBundle};
use fbc_core::policy::{CachePolicy, RequestOutcome};
use fbc_core::select::GreedyVariant;
use fbc_core::types::FileId;
use proptest::prelude::*;

const NUM_FILES: u32 = 24;

fn small_bundle() -> impl Strategy<Value = Bundle> {
    proptest::collection::vec(0u32..NUM_FILES, 1..=5).prop_map(Bundle::from_raw)
}

fn catalog() -> FileCatalog {
    FileCatalog::from_sizes(
        (0..NUM_FILES as u64)
            .map(|i| (i % 6) + 1)
            .collect::<Vec<_>>(),
    )
}

fn configs() -> Vec<OfbConfig> {
    let mut out = Vec::new();
    for variant in [
        GreedyVariant::PaperLiteral,
        GreedyVariant::SortedOnce,
        GreedyVariant::SharedCredit,
    ] {
        for (history_mode, prefetch) in [
            (HistoryMode::Full, false),
            (HistoryMode::Full, true),
            (HistoryMode::Window(5), false),
            (HistoryMode::CacheSupported, false),
        ] {
            out.push(OfbConfig {
                history_mode,
                variant,
                prefetch,
                ..OfbConfig::default()
            });
        }
    }
    out
}

/// Drives a policy over the jobs, interleaving `explain` dry runs (whose
/// reports — candidates, retained, victims — are part of the comparison).
fn run(
    mut policy: OptFileBundle,
    jobs: &[Bundle],
    catalog: &FileCatalog,
    capacity: u64,
) -> (Vec<RequestOutcome>, Vec<String>, Vec<FileId>) {
    let mut cache = CacheState::new(capacity);
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut explains = Vec::new();
    for (i, bundle) in jobs.iter().enumerate() {
        if i % 5 == 4 {
            explains.push(format!("{:?}", policy.explain(&cache, catalog, bundle)));
        }
        outcomes.push(policy.handle(bundle, &mut cache, catalog));
    }
    (outcomes, explains, cache.resident_files_sorted())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random job streams: both paths agree on every outcome (hits,
    /// fetched/evicted file lists and byte counts), every explain report,
    /// and the final cache content, for every config in the matrix.
    #[test]
    fn resident_path_matches_rebuild_reference(
        jobs in proptest::collection::vec(small_bundle(), 1..60),
        decay in proptest::bool::ANY,
    ) {
        let catalog = catalog();
        let value_fn = if decay {
            ValueFn::Decay { half_life: 3.0 }
        } else {
            ValueFn::Count
        };
        for config in configs() {
            let config = OfbConfig { value_fn, ..config };
            let fast = run(OptFileBundle::with_config(config), &jobs, &catalog, 18);
            let slow = run(
                OptFileBundle::with_config_reference(config),
                &jobs,
                &catalog,
                18,
            );
            prop_assert_eq!(&fast.0, &slow.0, "outcomes diverged under {:?}", config);
            prop_assert_eq!(&fast.1, &slow.1, "explains diverged under {:?}", config);
            prop_assert_eq!(&fast.2, &slow.2, "caches diverged under {:?}", config);
        }
    }

    /// Batched admission is *defined* as sequential: driving the same jobs
    /// through `handle_batch` in arbitrary chunkings must produce the same
    /// outcomes, the same final cache, and — with tracing on — the same
    /// byte-for-byte JSONL trace and registry dump as per-job `handle`.
    #[test]
    fn batched_admission_matches_sequential(
        jobs in proptest::collection::vec(small_bundle(), 1..60),
        chunk in 1usize..9,
        decay in proptest::bool::ANY,
    ) {
        let catalog = catalog();
        let value_fn = if decay {
            ValueFn::Decay { half_life: 3.0 }
        } else {
            ValueFn::Count
        };
        for config in configs() {
            let config = OfbConfig { value_fn, ..config };
            for traced in [false, true] {
                let obs_seq = if traced { fbc_obs::Obs::enabled() } else { fbc_obs::Obs::disabled() };
                let obs_bat = if traced { fbc_obs::Obs::enabled() } else { fbc_obs::Obs::disabled() };

                let mut seq = OptFileBundle::with_config(config);
                seq.attach_obs(obs_seq.clone());
                let mut cache_seq = CacheState::new(18);
                let seq_out: Vec<RequestOutcome> = jobs
                    .iter()
                    .map(|b| seq.handle(b, &mut cache_seq, &catalog))
                    .collect();

                let mut bat = OptFileBundle::with_config(config);
                bat.attach_obs(obs_bat.clone());
                let mut cache_bat = CacheState::new(18);
                let mut bat_out = Vec::new();
                let refs: Vec<&Bundle> = jobs.iter().collect();
                for group in refs.chunks(chunk) {
                    bat.handle_batch(group, &mut cache_bat, &catalog, &mut bat_out);
                }

                prop_assert_eq!(&seq_out, &bat_out, "outcomes diverged under {:?}", config);
                prop_assert_eq!(
                    cache_seq.resident_files_sorted(),
                    cache_bat.resident_files_sorted(),
                    "caches diverged under {:?}",
                    config
                );
                if traced {
                    prop_assert_eq!(obs_seq.jsonl(), obs_bat.jsonl());
                    prop_assert_eq!(obs_seq.render_table(), obs_bat.render_table());
                }
            }
        }
    }

    /// `Window(n)` edge cases: degenerate windows (`0`, `1`), a small
    /// window, one that exactly covers the history, and one larger than the
    /// history will ever grow. The windowed fast path must agree with the
    /// rebuild reference on every outcome, explain report, and final cache
    /// for each.
    #[test]
    fn window_edge_cases_match_reference(
        jobs in proptest::collection::vec(small_bundle(), 1..48),
        decay in proptest::bool::ANY,
    ) {
        let catalog = catalog();
        let value_fn = if decay {
            ValueFn::Decay { half_life: 3.0 }
        } else {
            ValueFn::Count
        };
        let history_len = jobs.len();
        for window in [0, 1, 3, history_len, history_len + 7] {
            let config = OfbConfig {
                history_mode: HistoryMode::Window(window),
                value_fn,
                ..OfbConfig::default()
            };
            let fast = run(OptFileBundle::with_config(config), &jobs, &catalog, 18);
            let slow = run(
                OptFileBundle::with_config_reference(config),
                &jobs,
                &catalog,
                18,
            );
            prop_assert_eq!(&fast.0, &slow.0, "outcomes diverged under {:?}", config);
            prop_assert_eq!(&fast.1, &slow.1, "explains diverged under {:?}", config);
            prop_assert_eq!(&fast.2, &slow.2, "caches diverged under {:?}", config);
        }
    }

    /// Warm starts from a persisted history: the resident mirror populated
    /// from `with_history` must behave identically to the reference twin's
    /// index warm start, and a `reset` must bring both back to blank.
    #[test]
    fn warm_start_and_reset_match_reference(
        warmup in proptest::collection::vec(small_bundle(), 1..30),
        jobs in proptest::collection::vec(small_bundle(), 1..40),
        decay in proptest::bool::ANY,
    ) {
        let catalog = catalog();
        let value_fn = if decay {
            ValueFn::Decay { half_life: 4.0 }
        } else {
            ValueFn::Count
        };
        let mut history = RequestHistory::with_value_fn(value_fn);
        for b in &warmup {
            history.record(b);
        }
        let mut buf = Vec::new();
        history.write_to(&mut buf).unwrap();
        let config = OfbConfig { value_fn, ..OfbConfig::default() };

        let restored = || RequestHistory::read_from(&buf[..], &catalog).unwrap();
        let fast = run(
            OptFileBundle::with_history(config, restored()),
            &jobs,
            &catalog,
            18,
        );
        let slow = run(
            OptFileBundle::with_history_reference(config, restored()),
            &jobs,
            &catalog,
            18,
        );
        prop_assert_eq!(&fast.0, &slow.0, "warm-start outcomes diverged");
        prop_assert_eq!(&fast.1, &slow.1, "warm-start explains diverged");
        prop_assert_eq!(&fast.2, &slow.2, "warm-start caches diverged");

        // After a reset both paths restart from an empty history and keep
        // agreeing (the resident mirror must be fully cleared).
        let mut fast_p = OptFileBundle::with_history(config, restored());
        let mut slow_p = OptFileBundle::with_history_reference(config, restored());
        let mut cache_f = CacheState::new(18);
        let mut cache_s = CacheState::new(18);
        for b in jobs.iter().take(10) {
            fast_p.handle(b, &mut cache_f, &catalog);
            slow_p.handle(b, &mut cache_s, &catalog);
        }
        fast_p.reset();
        slow_p.reset();
        // Note: reset clears the policy state but not the cache, matching
        // the baseline-policy reset contract.
        let mut fast_out = Vec::new();
        let mut slow_out = Vec::new();
        for b in &jobs {
            fast_out.push(fast_p.handle(b, &mut cache_f, &catalog));
            slow_out.push(slow_p.handle(b, &mut cache_s, &catalog));
        }
        prop_assert_eq!(&fast_out, &slow_out, "post-reset outcomes diverged");
        prop_assert_eq!(
            cache_f.resident_files_sorted(),
            cache_s.resident_files_sorted()
        );
    }
}

/// Which branch of the in-place CacheSupported decision `incoming` would
/// take: `Some((true, all))` when the union of the candidates' files
/// (incoming files free) fits the selection capacity — the take-everything
/// shortcut under marginal charging — `Some((false, all))` when the greedy
/// loop runs, and `None` when the request makes no replacement decision
/// over a non-empty candidate list. `all` says whether the decision retains
/// every candidate file.
fn cache_supported_branch(
    policy: &mut OptFileBundle,
    cache: &CacheState,
    catalog: &FileCatalog,
    incoming: &Bundle,
) -> Option<(bool, bool)> {
    if incoming.total_size(catalog) > cache.capacity() || cache.contains_all(incoming) {
        return None;
    }
    let missing: u64 = cache
        .missing_of(incoming)
        .iter()
        .map(|&f| catalog.size(f))
        .sum();
    if missing <= cache.free() {
        return None;
    }
    let explanation = policy.explain(cache, catalog, incoming);
    if explanation.candidates.is_empty() {
        return None;
    }
    let union: std::collections::BTreeSet<FileId> = explanation
        .candidates
        .iter()
        .flat_map(|b| b.iter())
        .filter(|&f| !incoming.contains(f))
        .collect();
    let union_bytes: u64 = union.iter().map(|&f| catalog.size(f)).sum();
    let all = union
        .iter()
        .all(|f| explanation.retained.binary_search(f).is_ok());
    Some((union_bytes <= explanation.select_capacity, all))
}

/// The in-place CacheSupported decision through both of its branches —
/// the take-everything shortcut and the greedy loop, each asserted to
/// fire — pinned bit for bit to the rebuild reference on every outcome,
/// every decision's explain report and the final cache, for every greedy
/// variant, under counting and decayed values. PaperLiteral charges full bundle sizes, so it must leave
/// some candidate out of a decision whose union fits (the shortcut would
/// have taken it); the marginal-charging variants never do.
#[test]
fn cache_supported_shortcut_and_greedy_match_reference() {
    const FILES: u32 = 40;
    const POOL: u64 = 30;
    let catalog = FileCatalog::from_sizes((0..FILES as u64).map(|i| (i * 7) % 9 + 1).collect());
    let mut state = 0x5EED_CAFE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let pool: Vec<Bundle> = (0..POOL)
        .map(|_| {
            let k = next() % 4 + 1;
            Bundle::from_raw((0..k).map(|_| (next() % FILES as u64) as u32))
        })
        .collect();
    // Skewed draws: popular bundles recur, so the cache supports many
    // history entries at once and the union of candidates straddles the
    // capacity.
    let jobs: Vec<Bundle> = (0..600)
        .map(|_| pool[((next() % POOL) * (next() % POOL) / POOL) as usize].clone())
        .collect();

    let variants = [
        GreedyVariant::PaperLiteral,
        GreedyVariant::SortedOnce,
        GreedyVariant::SharedCredit,
    ];
    for variant in variants {
        for value_fn in [ValueFn::Count, ValueFn::Decay { half_life: 5.0 }] {
            let config = OfbConfig {
                variant,
                value_fn,
                ..OfbConfig::default()
            };
            assert_eq!(config.history_mode, HistoryMode::CacheSupported);
            let mut fast = OptFileBundle::with_config(config);
            let mut slow = OptFileBundle::with_config_reference(config);
            let mut cache_f = CacheState::new(40);
            let mut cache_s = CacheState::new(40);
            let (mut shortcut, mut greedy, mut left_out) = (0, 0, 0);
            for (i, bundle) in jobs.iter().enumerate() {
                match cache_supported_branch(&mut fast, &cache_f, &catalog, bundle) {
                    Some((true, all)) => {
                        shortcut += 1;
                        left_out += usize::from(!all);
                    }
                    Some((false, _)) => greedy += 1,
                    None => {}
                }
                assert_eq!(
                    fast.explain(&cache_f, &catalog, bundle),
                    slow.explain(&cache_s, &catalog, bundle),
                    "job {i}: explain diverged under {config:?}"
                );
                assert_eq!(
                    fast.handle(bundle, &mut cache_f, &catalog),
                    slow.handle(bundle, &mut cache_s, &catalog),
                    "job {i}: outcome diverged under {config:?}"
                );
            }
            assert_eq!(
                cache_f.resident_files_sorted(),
                cache_s.resident_files_sorted()
            );
            assert!(
                shortcut > 0 && greedy > 0,
                "{config:?}: shortcut {shortcut}, greedy {greedy} — both branches must fire"
            );
            assert_eq!(
                left_out > 0,
                variant == GreedyVariant::PaperLiteral,
                "{config:?}: {left_out} union-fits decisions left a candidate file out"
            );
        }
    }
}
