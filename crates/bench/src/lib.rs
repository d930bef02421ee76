//! # fbc-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index), plus the `perf_*` gates. Every binary prints the rows /
//! series the paper reports and writes a CSV under `results/`.
//!
//! Common parameters follow §5.1/§5.2: a 10 GiB cache, a file population
//! totalling ~8x the cache with sizes uniform in `[1 MiB, frac · cache]`, a
//! pool of 400 distinct requests, and
//! 10 000 jobs drawn under uniform or Zipf popularity. Cache sizes are
//! reported "by the number of requests that can be accommodated in the
//! cache" (§5), i.e. as multiples of the mean request size.
//!
//! Set `FBC_QUICK=1` to shrink job counts ~10× (CI / smoke runs), and
//! `FBC_RESULTS=<dir>` to redirect CSV output.

#![warn(missing_docs)]

use fbc_core::policy::CachePolicy;
use fbc_core::types::{Bytes, GIB};
use fbc_sim::metrics::Metrics;
use fbc_sim::runner::{run_trace, RunConfig};
use fbc_workload::{Popularity, Trace, Workload, WorkloadConfig};
use std::path::PathBuf;

/// Where experiment CSVs go (`FBC_RESULTS`, default `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FBC_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Whether to run in quick mode (`FBC_QUICK=1`): ~10× fewer jobs.
pub fn quick_mode() -> bool {
    std::env::var_os("FBC_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Number of jobs per run: 10 000 as in the paper, 1 000 in quick mode.
pub fn default_jobs() -> usize {
    if quick_mode() {
        1_000
    } else {
        10_000
    }
}

/// The base cache size all workloads are generated against.
pub const BASE_CACHE: Bytes = 10 * GIB;

/// The paper's standard workload configuration.
///
/// `max_file_frac` is the §5.1 "maximum size expressed as a percentage of
/// defined cache size": 0.01 for the *small files* experiments (Fig. 6),
/// 0.10 for *large files* (Fig. 7).
pub fn paper_workload(popularity: Popularity, max_file_frac: f64, seed: u64) -> WorkloadConfig {
    // The file population scales inversely with file size so that its
    // total is ~8x the cache in both the small-file (1%) and large-file
    // (10%) settings -- without capacity pressure every policy degenerates
    // to cold misses. 1600 files for Fig. 6, 160 for Fig. 7.
    let num_files = ((16.0 / max_file_frac).round() as usize).clamp(100, 10_000);
    WorkloadConfig {
        cache_size: BASE_CACHE,
        num_files,
        max_file_frac,
        pool_requests: 400,
        jobs: default_jobs(),
        files_per_request: (2, 6),
        popularity,
        seed,
    }
}

/// A generated workload together with the derived quantities experiments
/// sweep over.
pub struct Experiment {
    /// The workload (catalog + pool + job sequence).
    pub workload: Workload,
    /// Replayable trace view of the workload.
    pub trace: Trace,
    /// Mean request size in bytes.
    pub mean_request: f64,
}

impl Experiment {
    /// Generates a workload and its trace.
    pub fn generate(config: WorkloadConfig) -> Self {
        let workload = Workload::generate(config);
        let mean_request = workload.mean_request_bytes();
        let trace = Trace::new(workload.catalog.clone(), workload.jobs.clone());
        Self {
            workload,
            trace,
            mean_request,
        }
    }

    /// The cache size (bytes) that holds `k` average requests — the paper's
    /// unit for reporting cache sizes.
    pub fn cache_for_requests(&self, k: f64) -> Bytes {
        (self.mean_request * k).round() as Bytes
    }

    /// Runs a fresh policy built by `make` over the trace at the given
    /// cache size.
    pub fn run<P: CachePolicy>(&self, mut policy: P, cache_size: Bytes) -> Metrics {
        run_trace(&mut policy, &self.trace, &RunConfig::new(cache_size))
    }
}

/// The request-size sweep of Figs. 6–8: bundle-cardinality ranges. The
/// paper fixes the cache and "varie\[s\] the size of the incoming requests,
/// implicitly varying the size of the cache" measured in requests — larger
/// bundles mean fewer requests fit.
pub const REQUEST_SIZE_SWEEP: [(usize, usize); 5] = [(1, 2), (2, 4), (4, 8), (8, 16), (16, 24)];

/// One cell of the policy × popularity × request-size sweep matrix.
#[derive(Debug, Clone)]
pub struct MatrixPoint {
    /// The bundle-cardinality range of this workload.
    pub bundle_range: (usize, usize),
    /// Measured cache size in average requests (`BASE_CACHE` / mean
    /// request bytes) — the x-axis unit the paper reports.
    pub requests_per_cache: f64,
    /// Popularity distribution of the workload.
    pub popularity: Popularity,
    /// Policy name.
    pub policy: String,
    /// Full run metrics.
    pub metrics: Metrics,
}

/// Runs the Figs. 6–8 sweep: `OptFileBundle` vs. `Landlord`, uniform and
/// Zipf popularity, request sizes of [`REQUEST_SIZE_SWEEP`], a fixed
/// [`BASE_CACHE`]-sized cache, and files capped at `max_file_frac` of the
/// cache (0.01 for Fig. 6 "small files", 0.10 for Fig. 7 "large files").
///
/// Points are computed in parallel; the returned vector is ordered
/// (popularity, range, policy) with policy order `[OptFileBundle, Landlord]`.
pub fn policy_cache_sweep(max_file_frac: f64, seed: u64) -> Vec<MatrixPoint> {
    use fbc_baselines::Landlord;
    use fbc_core::optfilebundle::OptFileBundle;

    let pops = [Popularity::Uniform, Popularity::zipf()];
    // One workload per (popularity, bundle range).
    let experiments: Vec<(Popularity, (usize, usize), Experiment)> = pops
        .iter()
        .flat_map(|&p| {
            REQUEST_SIZE_SWEEP.iter().map(move |&range| {
                let mut cfg = paper_workload(p, max_file_frac, seed);
                cfg.files_per_request = range;
                (p, range, Experiment::generate(cfg))
            })
        })
        .collect();

    let mut cells: Vec<(usize, bool)> = Vec::new(); // (experiment idx, is_ofb)
    for ei in 0..experiments.len() {
        cells.push((ei, true));
        cells.push((ei, false));
    }
    let results = fbc_sim::sweep::parallel_sweep(
        &cells,
        fbc_sim::sweep::default_threads(),
        |&(ei, is_ofb)| {
            let exp = &experiments[ei].2;
            if is_ofb {
                exp.run(OptFileBundle::new(), BASE_CACHE)
            } else {
                exp.run(Landlord::new(), BASE_CACHE)
            }
        },
    );
    cells
        .into_iter()
        .zip(results)
        .map(|((ei, is_ofb), metrics)| {
            let (pop, range, ref exp) = experiments[ei];
            MatrixPoint {
                bundle_range: range,
                requests_per_cache: BASE_CACHE as f64 / exp.mean_request,
                popularity: pop,
                policy: if is_ofb { "OptFileBundle" } else { "Landlord" }.to_string(),
                metrics,
            }
        })
        .collect()
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Result of [`cache_membership_kernel`]: the dense slab/bitset
/// `CacheState` against its retained `HashMap`+`BTreeSet` twin on the
/// residency hot loop.
pub struct CacheKernelResult {
    /// Nanoseconds per probe (batched hit check + churn amortised), dense.
    pub dense_ns_per_op: f64,
    /// Same figure for `CacheStateReference`.
    pub reference_ns_per_op: f64,
    /// `reference_ns_per_op / dense_ns_per_op`.
    pub speedup: f64,
    /// Hit-count checksum; asserted equal between the two sides, so every
    /// benchmark run is also a differential test.
    pub hits: u64,
}

/// Micro-benchmark of the residency membership kernel shared by every
/// engine's hit/miss check: `passes` sweeps of `n` four-file bundle
/// probes (`supports`) over a full cache of `n` unit files from a `2n`
/// population, each miss churning one eviction plus one insertion. Both
/// representations replay the identical deterministic op stream; their
/// hit counts and final states must agree.
pub fn cache_membership_kernel(n: usize, passes: usize) -> CacheKernelResult {
    use fbc_core::bundle::Bundle;
    use fbc_core::cache::{CacheState, CacheStateReference};
    use fbc_core::catalog::FileCatalog;
    use fbc_core::types::FileId;
    use std::time::Instant;

    let catalog = FileCatalog::from_sizes(vec![1; 2 * n]);
    let mut state = 0xC0FFEE ^ ((n as u64) << 3);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let probes: Vec<Bundle> = (0..n)
        .map(|_| Bundle::from_raw((0..4).map(|_| (next() % (2 * n) as u64) as u32)))
        .collect();

    // One measured side; the macro keeps the op stream textually identical
    // for both cache types (no common trait to be generic over).
    macro_rules! side {
        ($cache:expr) => {{
            let mut cache = $cache;
            for f in 0..n as u32 {
                cache.insert(FileId(f), &catalog).expect("warm fill fits");
            }
            let mut hits = 0u64;
            let mut victim = 0u32; // rotates over the full id ring
            let start = Instant::now();
            for _ in 0..passes {
                for b in &probes {
                    if cache.supports(b) {
                        hits += 1;
                    } else {
                        // Miss: make room (next resident victim on the
                        // ring), then admit the first missing file.
                        while cache.evict(FileId(victim)).is_err() {
                            victim = (victim + 1) % (2 * n) as u32;
                        }
                        victim = (victim + 1) % (2 * n) as u32;
                        let missing = b.iter().find(|&f| !cache.contains(f));
                        if let Some(f) = missing {
                            cache.insert(f, &catalog).expect("room was made");
                        }
                    }
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            (
                elapsed * 1e9 / (passes * probes.len()) as f64,
                hits,
                cache.resident_files_sorted(),
            )
        }};
    }

    let (dense_ns, dense_hits, dense_state) = side!(CacheState::with_catalog(n as Bytes, &catalog));
    let (reference_ns, reference_hits, reference_state) =
        side!(CacheStateReference::new(n as Bytes));
    assert_eq!(
        dense_hits, reference_hits,
        "dense CacheState diverged from its reference twin (hit counts)"
    );
    assert_eq!(
        dense_state, reference_state,
        "dense CacheState diverged from its reference twin (final resident set)"
    );
    CacheKernelResult {
        dense_ns_per_op: dense_ns,
        reference_ns_per_op: reference_ns,
        speedup: reference_ns / dense_ns,
        hits: dense_hits,
    }
}

/// Pulls the first number following `key` out of `json` — a deliberately
/// naive parser for the handful of scalars the perf smoke gates read back
/// from the hand-rolled `BENCH_core.json` (the vendored serde shim has no
/// deserializer).
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let start = json.find(key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Byte span of the top-level `"name": { … }` section in a hand-rolled
/// `BENCH_core.json`: from the opening quote of the key to the section's
/// matching closing brace (inclusive). Brace matching ignores strings —
/// fine for our generated summaries, which never put braces in values.
fn section_span(json: &str, name: &str) -> Option<(usize, usize)> {
    let marker = format!("\"{name}\":");
    let mstart = json.find(&marker)?;
    let after = mstart + marker.len();
    let open = after + json[after..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((mstart, open + i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// The `{ … }` object body of a top-level `"name": { … }` section of the
/// hand-rolled `BENCH_core.json`, if present.
pub fn extract_section(json: &str, name: &str) -> Option<String> {
    let (mstart, end) = section_span(json, name)?;
    let open = mstart + json[mstart..end].find('{')?;
    Some(json[open..end].to_string())
}

/// Inserts or replaces the top-level `"name": { … }` section in the
/// hand-rolled `BENCH_core.json` text, keeping every other key intact —
/// this is how `perf_decision` and `perf_eviction` share one summary file
/// without clobbering each other's headline numbers.
pub fn upsert_section(json: &str, name: &str, body: &str) -> String {
    let mut text = json.trim_end().to_string();
    if let Some((mstart, send)) = section_span(&text, name) {
        // Cut the old section together with its leading comma.
        let mut cut = mstart;
        while cut > 0 && (text.as_bytes()[cut - 1] as char).is_whitespace() {
            cut -= 1;
        }
        if cut > 0 && text.as_bytes()[cut - 1] == b',' {
            cut -= 1;
        }
        text.replace_range(cut..send, "");
    }
    let close = text.rfind('}').expect("BENCH summary is a JSON object");
    let mut head = text[..close].trim_end().to_string();
    if !head.ends_with('{') {
        head.push(',');
    }
    head.push_str(&format!("\n  \"{name}\": {body}\n}}\n"));
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::optfilebundle::OptFileBundle;

    #[test]
    fn experiment_generates_consistent_views() {
        let cfg = WorkloadConfig {
            jobs: 100,
            ..paper_workload(Popularity::Uniform, 0.01, 1)
        };
        let e = Experiment::generate(cfg);
        assert_eq!(e.trace.requests.len(), 100);
        assert!(e.mean_request > 0.0);
        assert!(e.cache_for_requests(4.0) > e.cache_for_requests(2.0));
    }

    #[test]
    fn bench_json_sections_round_trip() {
        let base = "{\n  \"bench\": \"perf_decision\",\n  \"headline_decisions_per_sec\": 1307.5,\n  \"results\": [\n    {\"n\": 250}\n  ]\n}\n";
        let body = "{\n    \"headline_evictions_per_sec\": 42.0,\n    \"results\": [\n      {\"policy\": \"LRU\"}\n    ]\n  }";
        let merged = upsert_section(base, "perf_eviction", body);
        assert_eq!(
            extract_section(&merged, "perf_eviction").as_deref(),
            Some(body)
        );
        assert_eq!(
            extract_number(&merged, "\"headline_decisions_per_sec\":"),
            Some(1307.5)
        );
        assert_eq!(
            extract_number(&merged, "\"headline_evictions_per_sec\":"),
            Some(42.0)
        );
        // Replacing is idempotent: no duplicate sections, other keys intact.
        let body2 = "{\n    \"headline_evictions_per_sec\": 43.5\n  }";
        let merged2 = upsert_section(&merged, "perf_eviction", body2);
        assert_eq!(merged2.matches("perf_eviction").count(), 1);
        assert_eq!(
            extract_number(&merged2, "\"headline_evictions_per_sec\":"),
            Some(43.5)
        );
        assert_eq!(
            extract_number(&merged2, "\"headline_decisions_per_sec\":"),
            Some(1307.5)
        );
        // Inserting into an empty object needs no comma.
        let fresh = upsert_section("{\n}\n", "perf_eviction", body2);
        assert_eq!(
            extract_number(&fresh, "\"headline_evictions_per_sec\":"),
            Some(43.5)
        );
    }

    #[test]
    fn run_produces_metrics() {
        let cfg = WorkloadConfig {
            jobs: 50,
            ..paper_workload(Popularity::zipf(), 0.01, 2)
        };
        let e = Experiment::generate(cfg);
        let m = e.run(OptFileBundle::new(), e.cache_for_requests(4.0));
        assert_eq!(m.jobs, 50);
        assert!(m.byte_miss_ratio() > 0.0); // cold misses at least
    }
}
