//! End-to-end integration tests: the paper's qualitative claims, asserted
//! on full workload → simulator → metrics pipelines across crates.

use file_bundle_cache::prelude::*;

fn standard(popularity: Popularity, seed: u64) -> (Trace, Bytes) {
    let cfg = WorkloadConfig {
        num_files: 800,
        max_file_frac: 0.01,
        pool_requests: 200,
        jobs: 3_000,
        files_per_request: (2, 6),
        popularity,
        seed,
        ..WorkloadConfig::default()
    };
    let w = Workload::generate(cfg);
    let cache = (w.mean_request_bytes() * 10.0) as Bytes;
    (w.into_trace(), cache)
}

fn bmr(policy: &mut dyn CachePolicy, trace: &Trace, cache: Bytes) -> f64 {
    run_trace(policy, trace, &RunConfig::new(cache), &Obs::disabled()).byte_miss_ratio()
}

/// Main result #3 of the paper: OptFileBundle gives a lower average volume
/// of data transfer per request than Landlord, under both distributions.
#[test]
fn optfilebundle_beats_landlord_on_standard_workloads() {
    for (popularity, seed) in [
        (Popularity::Uniform, 21u64),
        (Popularity::Uniform, 22),
        (Popularity::zipf(), 23),
        (Popularity::zipf(), 24),
    ] {
        let (trace, cache) = standard(popularity, seed);
        let ofb = bmr(&mut OptFileBundle::new(), &trace, cache);
        let ll = bmr(&mut Landlord::new(), &trace, cache);
        assert!(
            ofb <= ll + 1e-9,
            "seed {seed} {}: OFB {ofb} > Landlord {ll}",
            popularity.label()
        );
    }
}

/// §5.3: byte miss ratios are much lower under Zipf than uniform.
#[test]
fn zipf_miss_ratios_are_lower_than_uniform() {
    let (trace_u, cache_u) = standard(Popularity::Uniform, 31);
    let (trace_z, cache_z) = standard(Popularity::zipf(), 31);
    for make in [
        || Box::new(OptFileBundle::new()) as Box<dyn CachePolicy>,
        || Box::new(Landlord::new()) as Box<dyn CachePolicy>,
    ] {
        let mut pu = make();
        let mut pz = make();
        let u = bmr(pu.as_mut(), &trace_u, cache_u);
        let z = bmr(pz.as_mut(), &trace_z, cache_z);
        assert!(z < u, "{}: zipf {z} >= uniform {u}", pu.name());
    }
}

/// A bigger cache never increases OptFileBundle's fetched volume.
#[test]
fn larger_cache_fetches_no_more() {
    let (trace, cache) = standard(Popularity::zipf(), 41);
    let small = bmr(&mut OptFileBundle::new(), &trace, cache);
    let large = bmr(&mut OptFileBundle::new(), &trace, cache * 4);
    assert!(large <= small + 1e-9, "large {large} > small {small}");
}

/// The clairvoyant Belady reference outperforms every online policy on hit
/// count for a trace it has seen.
#[test]
fn belady_reference_dominates_on_hits() {
    let (trace, cache) = standard(Popularity::zipf(), 51);
    let run_hits = |policy: &mut dyn CachePolicy| {
        run_trace(policy, &trace, &RunConfig::new(cache), &Obs::disabled()).hits
    };
    let belady = run_hits(&mut BeladyMin::new());
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Random] {
        let mut p = kind.build();
        let hits = run_hits(p.as_mut());
        assert!(belady >= hits, "Belady {belady} < {:?} {hits}", kind);
    }
}

/// All serviced jobs leave their bundle resident, for every policy, with
/// cache invariants intact — checked through the public facade.
#[test]
fn every_policy_services_the_full_standard_trace() {
    let (trace, cache) = standard(Popularity::Uniform, 61);
    for kind in PolicyKind::ONLINE {
        let mut policy = kind.build();
        let m = run_trace(
            policy.as_mut(),
            &trace,
            &RunConfig::new(cache),
            &Obs::disabled(),
        );
        assert_eq!(m.jobs, 3_000, "{kind:?}");
        assert_eq!(m.serviced, 3_000, "{kind:?} failed to service everything");
        assert!(m.byte_miss_ratio() <= 1.0);
        assert!(m.requested_bytes > 0);
    }
}

/// The facade's series recording produces monotone job counts and sane
/// window values.
#[test]
fn series_recording_is_consistent() {
    let (trace, cache) = standard(Popularity::zipf(), 71);
    let mut policy = OptFileBundle::new();
    let m = run_trace(
        &mut policy,
        &trace,
        &RunConfig {
            series_window: Some(500),
            ..RunConfig::new(cache)
        },
        &Obs::disabled(),
    );
    assert_eq!(m.series.len(), 6); // 3000 jobs / 500 per window
    let mut prev = 0;
    for point in &m.series {
        assert!(point.jobs > prev);
        prev = point.jobs;
        assert!((0.0..=1.0).contains(&point.byte_miss_ratio));
        assert!((0.0..=1.0).contains(&point.request_hit_ratio));
    }
    // Warmup: the first window has a strictly higher miss ratio than the
    // last (the cache converges onto the hot set).
    assert!(m.series[0].byte_miss_ratio > m.series[5].byte_miss_ratio);
}
