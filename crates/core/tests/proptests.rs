//! Property-based tests of the core data structures against reference
//! models (naive recomputation).

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::history::{RequestHistory, ValueFn};
use fbc_core::index::SupportIndex;
use fbc_core::types::FileId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn small_bundle() -> impl Strategy<Value = Bundle> {
    proptest::collection::vec(0u32..16, 1..=5).prop_map(Bundle::from_raw)
}

/// One request of the plain history model.
struct ModelEntry {
    count: u64,
    acc: f64,
    acc_tick: u64,
    first: u64,
    last: u64,
}

/// Checks `h` against the model after `tick` records.
fn check_history_model(
    h: &RequestHistory,
    model: &HashMap<Bundle, ModelEntry>,
    tick: u64,
    value_fn: ValueFn,
) {
    prop_assert_eq!(h.len(), model.len());
    prop_assert_eq!(h.total_requests(), tick);
    let degree = |f: FileId| model.keys().filter(|b| b.contains(f)).count() as u32;
    for f in (0..16).map(FileId) {
        prop_assert_eq!(h.degree(f), degree(f), "d({:?})", f);
    }
    prop_assert_eq!(
        h.max_degree(),
        (0..16).map(|f| degree(FileId(f))).max().unwrap()
    );
    for (b, m) in model {
        let value = match value_fn {
            ValueFn::Count => m.count as f64,
            ValueFn::Decay { half_life } => {
                m.acc * 0.5_f64.powf((tick - m.acc_tick) as f64 / half_life)
            }
        };
        prop_assert_eq!(h.value_of(b).map(f64::to_bits), Some(value.to_bits()));
    }
    // Entries iterate in first-record order; recency is last-record order.
    let mut by_first: Vec<(&Bundle, &ModelEntry)> = model.iter().collect();
    by_first.sort_by_key(|(_, m)| m.first);
    let entries: Vec<&Bundle> = h.entries().map(|e| &e.bundle).collect();
    prop_assert_eq!(
        entries,
        by_first.iter().map(|(b, _)| *b).collect::<Vec<_>>()
    );
    let mut by_last = by_first;
    by_last.sort_by_key(|(_, m)| std::cmp::Reverse(m.last));
    for n in [0, 1, 3, model.len(), model.len() + 2] {
        let got: Vec<&Bundle> = h.most_recent(n).into_iter().map(|e| &e.bundle).collect();
        let want: Vec<&Bundle> = by_last.iter().take(n).map(|(b, _)| *b).collect();
        prop_assert_eq!(got, want, "most_recent({})", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonicalisation: construction order never matters.
    #[test]
    fn bundle_canonicalisation_is_order_insensitive(mut ids in proptest::collection::vec(0u32..64, 1..=8)) {
        let a = Bundle::from_raw(ids.iter().copied());
        ids.reverse();
        let b = Bundle::from_raw(ids.iter().copied());
        prop_assert_eq!(&a, &b);
        // Idempotent: rebuilding from the canonical list is identity.
        let c = Bundle::new(a.iter());
        prop_assert_eq!(&a, &c);
        // Sorted and unique.
        prop_assert!(a.files().windows(2).all(|w| w[0] < w[1]));
    }

    /// `intersects` agrees with the set-theoretic definition.
    #[test]
    fn bundle_intersection_matches_sets(a in small_bundle(), b in small_bundle()) {
        let sa: HashSet<FileId> = a.iter().collect();
        let sb: HashSet<FileId> = b.iter().collect();
        prop_assert_eq!(a.intersects(&b), !sa.is_disjoint(&sb));
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    /// `RequestHistory` against a plain `HashMap` model of `L(R)` under
    /// random record sequences, counting and decayed: after every record,
    /// sizes, degrees, values (bit for bit), recency prefixes and a
    /// `write_to` → `read_from` round trip all agree with the model.
    #[test]
    fn history_matches_a_plain_model(
        records in proptest::collection::vec(small_bundle(), 1..60),
        decay in proptest::bool::ANY,
    ) {
        let value_fn = if decay {
            ValueFn::Decay { half_life: 3.0 }
        } else {
            ValueFn::Count
        };
        let catalog = FileCatalog::from_sizes(vec![1; 16]);
        let mut h = RequestHistory::with_value_fn(value_fn);
        let mut model: HashMap<Bundle, ModelEntry> = HashMap::new();
        for (i, bundle) in records.iter().enumerate() {
            let tick = i as u64 + 1;
            h.record(bundle);
            let m = model.entry(bundle.clone()).or_insert(ModelEntry {
                count: 0,
                acc: 0.0,
                acc_tick: tick,
                first: tick,
                last: tick,
            });
            m.acc = match value_fn {
                ValueFn::Count => (m.count + 1) as f64,
                ValueFn::Decay { half_life } => {
                    m.acc * 0.5_f64.powf((tick - m.acc_tick) as f64 / half_life) + 1.0
                }
            };
            (m.acc_tick, m.last) = (tick, tick);
            m.count += 1;

            let mut buf = Vec::new();
            h.write_to(&mut buf).unwrap();
            let back = RequestHistory::read_from(&buf[..], &catalog).unwrap();
            for h in [&h, &back] {
                check_history_model(h, &model, tick, value_fn);
            }
        }
    }

    /// Counting values equal occurrence counts; decayed values never exceed
    /// them and never go negative.
    #[test]
    fn decayed_values_bounded_by_counts(bundles in proptest::collection::vec(small_bundle(), 1..40)) {
        let mut count_h = RequestHistory::new();
        let mut decay_h = RequestHistory::with_value_fn(ValueFn::Decay { half_life: 4.0 });
        for b in &bundles {
            count_h.record(b);
            decay_h.record(b);
        }
        for b in &bundles {
            let c = count_h.value_of(b).unwrap();
            let d = decay_h.value_of(b).unwrap();
            prop_assert!(d > 0.0);
            prop_assert!(d <= c + 1e-9, "decayed {d} > count {c}");
        }
    }

    /// The cache's byte accounting matches a reference model under any
    /// insert/evict/pin sequence.
    #[test]
    fn cache_accounting_matches_model(ops in proptest::collection::vec(
        (0u32..12, 0u8..4), 1..80)) {
        let catalog = FileCatalog::from_sizes((1..=12).collect());
        let mut cache = CacheState::new(30);
        let mut model: HashMap<FileId, u64> = HashMap::new();
        let mut pins: HashMap<FileId, u32> = HashMap::new();
        for (raw, op) in ops {
            let f = FileId(raw);
            match op {
                0 => {
                    let size = catalog.size(f);
                    let used: u64 = model.values().sum();
                    let ok = cache.insert(f, &catalog).is_ok();
                    let expect = !model.contains_key(&f) && used + size <= 30;
                    prop_assert_eq!(ok, expect);
                    if ok { model.insert(f, size); }
                }
                1 => {
                    let ok = cache.evict(f).is_ok();
                    let expect = model.contains_key(&f)
                        && pins.get(&f).copied().unwrap_or(0) == 0;
                    prop_assert_eq!(ok, expect);
                    if ok { model.remove(&f); }
                }
                2 => {
                    if cache.pin(f).is_ok() {
                        *pins.entry(f).or_insert(0) += 1;
                    }
                }
                _ => {
                    if cache.unpin(f).is_ok() {
                        if let Some(p) = pins.get_mut(&f) {
                            *p = p.saturating_sub(1);
                        }
                    }
                }
            }
            prop_assert_eq!(cache.used(), model.values().sum::<u64>());
            prop_assert!(cache.check_invariants());
        }
    }

    /// The support index agrees with brute-force support computation under
    /// arbitrary record/insert/evict interleavings.
    #[test]
    fn support_index_matches_bruteforce(ops in proptest::collection::vec(
        (small_bundle(), 0u8..3), 1..60)) {
        let mut index = SupportIndex::new();
        let mut recorded: Vec<Bundle> = Vec::new();
        let mut resident: HashSet<FileId> = HashSet::new();
        for (bundle, op) in ops {
            match op {
                0 => {
                    index.on_record(&bundle);
                    if !recorded.contains(&bundle) {
                        recorded.push(bundle);
                    }
                }
                1 => {
                    for f in bundle.iter() {
                        index.on_insert(f);
                        resident.insert(f);
                    }
                }
                _ => {
                    for f in bundle.iter() {
                        index.on_evict(f);
                        resident.remove(&f);
                    }
                }
            }
            let got: HashSet<Bundle> = index.supported().into_iter().cloned().collect();
            let expect: HashSet<Bundle> = recorded
                .iter()
                .filter(|b| b.is_subset_of(|f| resident.contains(&f)))
                .cloned()
                .collect();
            prop_assert_eq!(got, expect);
        }
    }

    /// Lemma A.1 (Appendix A): for ANY feasible solution — in particular
    /// the exact optimum — the total *adjusted* size of its requests'
    /// bundles is at most the cache size.
    #[test]
    fn lemma_a1_adjusted_sizes_bounded_by_capacity(
        sizes in proptest::collection::vec(1u64..20, 2..10),
        raw_requests in proptest::collection::vec(
            (proptest::collection::vec(0u32..10, 1..=3), 1u32..50), 1..10),
        cap in 0u64..80,
    ) {
        use fbc_core::exact::solve_exact;
        use fbc_core::instance::FbcInstance;
        let m = sizes.len() as u32;
        let requests: Vec<(Vec<u32>, f64)> = raw_requests
            .into_iter()
            .map(|(files, v)| {
                (files.into_iter().map(|f| f % m).collect(), v as f64)
            })
            .collect();
        let inst = FbcInstance::new(cap, sizes, requests).unwrap();
        let opt = solve_exact(&inst);
        let total_adjusted: f64 = opt
            .chosen
            .iter()
            .map(|&i| inst.request_adjusted_size(i))
            .sum();
        prop_assert!(
            total_adjusted <= cap as f64 + 1e-9,
            "Lemma A.1 violated: {total_adjusted} > {cap}"
        );
    }

    /// Relative value scales linearly with the value and inversely with
    /// adjusted size: recording a bundle again strictly increases its
    /// relative value (counts grow, denominators fixed).
    #[test]
    fn relative_value_grows_with_recurrence(b in small_bundle()) {
        let catalog = FileCatalog::from_sizes(vec![100; 16]);
        let mut h = RequestHistory::new();
        h.record(&b);
        let v1 = h.relative_value(&b, &catalog);
        h.record(&b);
        let v2 = h.relative_value(&b, &catalog);
        prop_assert!(v2 > v1);
        prop_assert!((v2 / v1 - 2.0).abs() < 1e-9);
    }
}
