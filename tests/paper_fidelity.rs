//! Paper-fidelity tests: the qualitative claims of each figure, encoded as
//! assertions on reduced-scale versions of the same experiments so CI
//! catches regressions that would silently bend the reproduced curves.
//! (`EXPERIMENTS.md` holds the full-scale numbers.)

use file_bundle_cache::prelude::*;

/// A scaled-down version of the bench harness's standard workload
/// (fbc-bench's `paper_workload` at 1/5 of the job count).
fn workload(popularity: Popularity, max_file_frac: f64, bundle: (usize, usize)) -> Trace {
    Workload::generate(WorkloadConfig {
        cache_size: 10 * GIB,
        num_files: ((16.0 / max_file_frac).round() as usize).clamp(100, 10_000),
        max_file_frac,
        pool_requests: 400,
        jobs: 2_000,
        files_per_request: bundle,
        popularity,
        seed: 0xF1DE,
    })
    .into_trace()
}

fn bmr(policy: &mut dyn CachePolicy, trace: &Trace) -> f64 {
    run_trace(policy, trace, &RunConfig::new(10 * GIB), &Obs::disabled()).byte_miss_ratio()
}

/// Table 2's headline: OptCacheSelect finds {f1,f3,f5} on the worked
/// example (already asserted exactly in fbc-core; here through the facade).
#[test]
fn worked_example_optimum_via_facade() {
    let inst = FbcInstance::new(
        3,
        vec![1; 7],
        vec![
            (vec![0, 2, 4], 1.0),
            (vec![1, 5, 6], 1.0),
            (vec![0, 4], 1.0),
            (vec![3, 5, 6], 1.0),
            (vec![2, 4], 1.0),
            (vec![4, 5, 6], 1.0),
        ],
    )
    .unwrap();
    let sel = opt_cache_select(&inst, &SelectOptions::default());
    assert_eq!(sel.files, vec![0, 2, 4]);
    assert_eq!(sel.value, 3.0);
}

/// Fig. 6's shape: OptFileBundle at or below Landlord for small files,
/// under both popularity distributions and across request sizes.
#[test]
fn fig6_shape_ofb_at_or_below_landlord() {
    for popularity in [Popularity::Uniform, Popularity::zipf()] {
        for bundle in [(2, 4), (4, 8)] {
            let trace = workload(popularity, 0.01, bundle);
            let ofb = bmr(&mut OptFileBundle::new(), &trace);
            let ll = bmr(&mut Landlord::new(), &trace);
            assert!(
                ofb <= ll + 0.01,
                "{} {bundle:?}: OFB {ofb} above Landlord {ll}",
                popularity.label()
            );
        }
    }
}

/// Figs. 6 vs 7: zipf miss ratios sit below uniform for the same policy.
#[test]
fn zipf_below_uniform_shape() {
    for frac in [0.01, 0.10] {
        let uni = bmr(
            &mut OptFileBundle::new(),
            &workload(Popularity::Uniform, frac, (2, 6)),
        );
        let zipf = bmr(
            &mut OptFileBundle::new(),
            &workload(Popularity::zipf(), frac, (2, 6)),
        );
        assert!(zipf < uni, "frac {frac}: zipf {zipf} >= uniform {uni}");
    }
}

/// Fig. 6 x-axis direction: larger requests (fewer fitting the cache) mean
/// a higher byte miss ratio.
#[test]
fn miss_ratio_rises_with_request_size() {
    let small = bmr(
        &mut OptFileBundle::new(),
        &workload(Popularity::zipf(), 0.01, (1, 2)),
    );
    let large = bmr(
        &mut OptFileBundle::new(),
        &workload(Popularity::zipf(), 0.01, (8, 16)),
    );
    assert!(large > small, "large {large} <= small {small}");
}

/// Fig. 9's shape: a long HRV admission queue lowers the byte miss ratio
/// under Zipf popularity; q=1 equals FCFS.
#[test]
fn fig9_shape_queueing_helps_zipf() {
    let trace = workload(Popularity::zipf(), 0.01, (2, 6));
    let cache = 10 * GIB / 4;
    let run_q = |q: usize| {
        let mut p = OptFileBundle::new();
        let cfg = RunConfig {
            queue: QueueConfig::hrv(q),
            ..RunConfig::new(cache)
        };
        run_trace(&mut p, &trace, &cfg, &Obs::disabled()).byte_miss_ratio()
    };
    let q1 = run_q(1);
    let q100 = run_q(100);
    assert!(q100 < q1, "queueing did not help: q100 {q100} >= q1 {q1}");
}

/// Fig. 5's conclusion: cache-supported truncation performs like the full
/// history (within noise).
#[test]
fn fig5_shape_truncation_is_negligible() {
    let trace = workload(Popularity::zipf(), 0.01, (2, 6));
    let truncated = {
        let mut p = OptFileBundle::new(); // CacheSupported default
        bmr(&mut p, &trace)
    };
    let full = {
        let mut p = OptFileBundle::with_config(OfbConfig {
            history_mode: HistoryMode::Full,
            ..OfbConfig::default()
        });
        bmr(&mut p, &trace)
    };
    assert!(
        (truncated - full).abs() < 0.05,
        "truncated {truncated} vs full {full}: gap too large"
    );
}

/// Theorem 4.1 through the facade: greedy within its guarantee of the
/// exact optimum on random instances.
#[test]
fn theorem_4_1_through_facade() {
    use file_bundle_cache::core::bounds::check_greedy_bound;
    use file_bundle_cache::core::exact::solve_exact;
    let mut state = 0x00F1_DE41_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..100 {
        let m = (next() % 8 + 2) as usize;
        let sizes: Vec<u64> = (0..m).map(|_| next() % 20 + 1).collect();
        let n = (next() % 10 + 1) as usize;
        let reqs: Vec<(Vec<u32>, f64)> = (0..n)
            .map(|_| {
                let k = (next() % 3 + 1) as usize;
                (
                    (0..k).map(|_| (next() % m as u64) as u32).collect(),
                    (next() % 40 + 1) as f64,
                )
            })
            .collect();
        let inst = FbcInstance::new(next() % 70, sizes, reqs).unwrap();
        let greedy = opt_cache_select(&inst, &SelectOptions::default());
        let exact = solve_exact(&inst);
        assert!(check_greedy_bound(&inst, greedy.value, exact.value).holds);
    }
}
