//! Competitive-ratio harness for the online bundle-marking policies
//! (`fbc_baselines::online_bundle`, Qin–Etesami): measures query-miss
//! competitive ratios against the *exact* offline optimum
//! (`fbc_core::offline::opt_query_misses`) and asserts them under the
//! proved `k − ℓ + 1` bound.
//!
//! ```text
//! cargo run --release -p fbc-bench --bin perf_online            # full run
//! cargo run --release -p fbc-bench --bin perf_online -- --smoke # CI gate
//! ```
//!
//! Three sections, all bit-for-bit deterministic (fixed seeds, no
//! wall-clock dependence), on unit-size catalogs where the bound's
//! arithmetic is exact:
//!
//! 1. **Adversarial lower bound** — the sliding-window sequence of
//!    `fbc_workload::adversary` for `(k, ℓ)` ∈ {(20, 2), (50, 4),
//!    (100, 8)}, `T = 10 (k − ℓ + 1)` queries. Every demand-driven
//!    policy misses every query here, so the marking policies sit
//!    *exactly at* their bound — tightness, measured. OptFileBundle and
//!    Landlord ride along for context (value-based retention can beat
//!    marking on this sequence; nothing can beat OPT).
//! 2. **Round-robin phases** — the benign phase workload: marking pays
//!    one loading burst per phase and then hits, landing far under the
//!    bound.
//! 3. **Distributed** — the same policy behind the sharded admission
//!    front-end (`run_concurrent_grid`, `m` ∈ {1, 2, 4} shards,
//!    capacity split `m` ways): each shard's measured ratio against
//!    *its own* routed sub-trace's offline optimum stays under the
//!    per-shard bound `ρ(k/m, ℓ)`.
//!
//! The full run writes `results/perf_online.csv` and the `"perf_online"`
//! section of `BENCH_core.json` (through `fbc_bench::measure`). `--smoke`
//! runs the same workload, writes nothing, and fails (non-zero exit)
//! when
//!
//! * any marking-policy ratio exceeds its bound (the competitive
//!   guarantee, machine-independently deterministic), or
//! * the committed section has a `headline_ratio` and the measured
//!   headline drifted from it by more than 1e-3 (the workload is seeded,
//!   so any drift is a behaviour change, not noise).

use fbc_baselines::online_bundle::{distributed_marking_bound, marking_competitive_bound};
use fbc_baselines::PolicyKind;
use fbc_bench::banner;
use fbc_bench::measure::{committed, smoke_mode, xorshift, Cell, Rows, Section};
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::offline::{competitive_ratio, opt_query_misses};
use fbc_core::policy::SendPolicy;
use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
use fbc_grid::concurrent::{run_concurrent_grid, ConcurrentConfig};
use fbc_grid::engine::GridConfig;
use fbc_grid::srm::SrmConfig;
use fbc_grid::{ShardBy, ShardMap};
use fbc_workload::adversary::{round_robin_phases, sliding_window, unit_catalog};

/// Replays `trace` through a fresh instance of `kind` on a `capacity`-byte
/// cache and returns the number of missed queries.
fn online_misses(kind: PolicyKind, trace: &[Bundle], catalog: &FileCatalog, capacity: u64) -> u64 {
    let mut policy = kind.build();
    let mut cache = CacheState::new(capacity);
    trace
        .iter()
        .map(|b| u64::from(!policy.handle(b, &mut cache, catalog).hit))
        .sum()
}

struct Row {
    section: &'static str,
    setting: String,
    policy: &'static str,
    misses: u64,
    opt: u64,
    ratio: f64,
    bound: f64,
}

fn main() {
    let smoke = smoke_mode();
    banner(if smoke {
        "perf_online — CI smoke (competitive-bound gate)"
    } else {
        "perf_online — online bundle caching vs offline OPT"
    });

    let comparators = [
        ("BundleMarking", PolicyKind::BundleMarking),
        ("BundleMarking(rand)", PolicyKind::BundleMarkingRand),
        ("OptFileBundle", PolicyKind::OptFileBundle),
        ("Landlord", PolicyKind::Landlord),
        ("LRU", PolicyKind::Lru),
    ];
    let is_marking = |p: &str| p == "BundleMarking" || p == "BundleMarking(rand)";

    let mut rows: Vec<Row> = Vec::new();

    // ── Section 1: adversarial sliding-window lower bound ────────────
    for (k, l) in [(20u32, 2u32), (50, 4), (100, 8)] {
        let bound = marking_competitive_bound(k as u64, l as u64);
        let t = 10 * (k - l + 1) as usize; // aligned: OPT pays exactly T / (k−ℓ+1)
        let trace = sliding_window(k, l, t);
        let catalog = unit_catalog(k as usize + 1);
        let opt = opt_query_misses(&trace, &catalog, k as u64);
        for (name, kind) in comparators {
            let misses = online_misses(kind, &trace, &catalog, k as u64);
            rows.push(Row {
                section: "sliding-window",
                setting: format!("k={k} l={l} T={t}"),
                policy: name,
                misses,
                opt,
                ratio: competitive_ratio(misses as f64, opt as f64),
                bound,
            });
        }
    }

    // ── Section 2: round-robin phase workload ────────────────────────
    {
        let (k, l, phases, qpp) = (50u32, 5u32, 8u32, 200usize);
        let bound = marking_competitive_bound(k as u64, l as u64);
        let trace = round_robin_phases(k, l, phases, qpp);
        let catalog = unit_catalog((phases * k) as usize);
        let opt = opt_query_misses(&trace, &catalog, k as u64);
        for (name, kind) in comparators {
            let misses = online_misses(kind, &trace, &catalog, k as u64);
            rows.push(Row {
                section: "round-robin",
                setting: format!("k={k} l={l} {phases}x{qpp}"),
                policy: name,
                misses,
                opt,
                ratio: competitive_ratio(misses as f64, opt as f64),
                bound,
            });
        }
    }

    // ── Section 3: distributed (sharded admission front-end) ─────────
    // Random ℓ-distinct-file bundles; capacity splits m ways; each
    // shard's ratio is measured against its own routed sub-trace's OPT
    // and must stay under the per-shard bound ρ(k/m, ℓ).
    {
        let (total_files, universe, l, jobs) = (96u64, 128u32, 4usize, 3_000usize);
        let catalog = unit_catalog(universe as usize);
        let mut state = 0x0B5Eu64;
        let bundles: Vec<Bundle> = (0..jobs)
            .map(|_| {
                let mut picks: Vec<u32> = Vec::with_capacity(l);
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
                    // Strictly sequential service per shard, so each
                    // shard's observed request order is its routed
                    // sub-trace order and OPT is a true lower bound.
                    max_concurrent_jobs: 1,
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
            // Pre-route with the same pure hash the front-end uses to
            // recover each shard's sub-trace for the offline optimum.
            let map = ShardMap::new(shards, ShardBy::default());
            let mut sub: Vec<Vec<Bundle>> = vec![Vec::new(); shards];
            for b in &bundles {
                sub[map.shard_of(b)].push(b.clone());
            }
            let per_shard_capacity = total_files / shards as u64;
            let bound = distributed_marking_bound(total_files, shards as u64, l as u64);
            for (i, shard) in stats.per_shard.iter().enumerate() {
                assert_eq!(
                    shard.cache.jobs,
                    sub[i].len() as u64,
                    "pre-routing diverged from the front-end's ShardMap"
                );
                let misses = shard.cache.jobs - shard.cache.hits;
                let opt = opt_query_misses(&sub[i], &catalog, per_shard_capacity);
                rows.push(Row {
                    section: "distributed",
                    setting: format!("m={shards} shard={i} k/m={per_shard_capacity}"),
                    policy: "BundleMarking",
                    misses,
                    opt,
                    ratio: competitive_ratio(misses as f64, opt as f64),
                    bound,
                });
            }
        }
    }

    let mut table = Rows::new([
        "section", "setting", "policy", "misses", "OPT", "ratio", "bound",
    ]);
    for r in &rows {
        table.push([
            r.section.into(),
            r.setting.clone().into(),
            r.policy.into(),
            r.misses.into(),
            r.opt.into(),
            Cell::num(r.ratio, 4),
            Cell::num(r.bound, 1),
        ]);
    }
    table.print();

    // The competitive guarantee, enforced: every marking-policy row must
    // sit at or under its bound. (Comparators are context, not gated —
    // value-based policies carry no such guarantee.)
    let mut violations = 0;
    for r in rows.iter().filter(|r| is_marking(r.policy)) {
        if r.ratio > r.bound + 1e-9 {
            println!(
                "VIOLATION: {} [{} {}] ratio {:.4} exceeds bound {:.1}",
                r.policy, r.section, r.setting, r.ratio, r.bound
            );
            violations += 1;
        }
    }
    assert_eq!(
        violations, 0,
        "competitive bound violated on {violations} row(s)"
    );

    let headline = rows
        .iter()
        .find(|r| {
            r.section == "sliding-window"
                && r.policy == "BundleMarking"
                && r.setting.starts_with("k=100")
        })
        .expect("headline row");
    println!(
        "\nheadline: BundleMarking {} — ratio {:.2} vs bound {:.0} (tight: the adversary \
         forces equality); all marking rows within bound",
        headline.setting, headline.ratio, headline.bound
    );

    if smoke {
        // The workload is fully seeded: any drift from the committed
        // headline is a behaviour change, not noise.
        if let Some(committed) = committed("perf_online", "headline_ratio") {
            assert!(
                (headline.ratio - committed).abs() <= 1e-3,
                "REGRESSION: measured headline ratio {:.4} drifted from the committed \
                 {committed:.4} on a deterministic workload",
                headline.ratio
            );
            println!(
                "smoke: headline ratio {:.2} matches committed {committed:.2}",
                headline.ratio
            );
        }
        println!("smoke: OK (all marking ratios within their competitive bounds)");
        return;
    }

    table.save_csv("perf_online.csv");
    // Deterministic: one run, no timing.
    Section::new("perf_online", 1)
        .set("headline_ratio", Cell::num(headline.ratio, 4))
        .set("headline_bound", Cell::num(headline.bound, 1))
        .rows("results", &table)
        .write();
}
