//! Model-based differential tests: the dense slab/bitset [`CacheState`]
//! must be bit-for-bit equivalent to the retained `HashMap`+`BTreeSet`
//! twin ([`CacheStateReference`], `reference-kernels` feature) under
//! arbitrary `insert`/`evict`/`pin`/`unpin`/`clear` interleavings —
//! same results, same error variants, same observable state after every
//! step — for dense id universes, for pre-sized (warm-start) caches, and
//! for an unregistered-id adversary whose ops also name ids the catalog
//! never registered, up to `u32::MAX`: both must refuse them with the same
//! errors and report them absent.

use fbc_core::bundle::Bundle;
use fbc_core::cache::{CacheState, CacheStateReference};
use fbc_core::catalog::FileCatalog;
use fbc_core::error::FbcError;
use fbc_core::types::{Bytes, FileId};
use proptest::prelude::*;

const NUM_DENSE: u32 = 16;

/// Ids the adversary's catalog never registers: the first id past its
/// end, one far past it, and the extremes a slab or bitset must never be
/// asked to cover.
const UNREGISTERED_IDS: [u32; 4] = [NUM_DENSE - 4, 1_000_000, u32::MAX - 1, u32::MAX];

#[derive(Clone, Debug)]
enum Op {
    Insert(u32),
    Evict(u32),
    Pin(u32),
    Unpin(u32),
    Clear,
    Probe(Vec<u32>),
}

/// Ops over a universe of `n` abstract file slots (mapped to real ids by
/// the harness, so the same sequences drive both catalogs).
/// The selector weights favour inserts so runs actually fill the cache.
fn ops(n: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u32..14, 0..n, proptest::collection::vec(0..n, 1..=4)),
        1..=len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(sel, slot, probe)| match sel {
                0..=3 => Op::Insert(slot),
                4..=6 => Op::Evict(slot),
                7..=8 => Op::Pin(slot),
                9..=10 => Op::Unpin(slot),
                11 => Op::Clear,
                _ => Op::Probe(probe),
            })
            .collect()
    })
}

/// The harness: applies `ops` (slot indices resolved through `ids`) to the
/// dense implementation and the reference twin in lockstep, asserting
/// result and full-state equality after every step.
fn run_model(ops: &[Op], ids: &[FileId], catalog: &FileCatalog, capacity: Bytes, warm_start: bool) {
    let mut dense = if warm_start {
        CacheState::with_catalog(capacity, catalog)
    } else {
        CacheState::new(capacity)
    };
    let mut reference = CacheStateReference::new(capacity);
    let unknown = FileId(NUM_DENSE + 7); // registered in no catalog below
    for op in ops {
        match op {
            Op::Insert(i) => {
                let f = ids[*i as usize];
                prop_assert_eq!(dense.insert(f, catalog), reference.insert(f, catalog));
            }
            Op::Evict(i) => {
                let f = ids[*i as usize];
                prop_assert_eq!(dense.evict(f), reference.evict(f));
            }
            Op::Pin(i) => {
                let f = ids[*i as usize];
                prop_assert_eq!(dense.pin(f), reference.pin(f));
            }
            Op::Unpin(i) => {
                let f = ids[*i as usize];
                prop_assert_eq!(dense.unpin(f), reference.unpin(f));
            }
            Op::Clear => {
                dense.clear();
                reference.clear();
            }
            Op::Probe(slots) => {
                let bundle = Bundle::new(slots.iter().map(|&i| ids[i as usize]));
                prop_assert_eq!(dense.contains_all(&bundle), reference.contains_all(&bundle));
                prop_assert_eq!(dense.missing_of(&bundle), reference.missing_of(&bundle));
                // Sizing an unregistered file panics in both; only
                // registered bundles have a missing-byte count.
                if bundle.iter().all(|f| catalog.contains(f)) {
                    prop_assert_eq!(
                        dense.missing_bytes(&bundle, catalog),
                        reference.missing_bytes(&bundle, catalog)
                    );
                }
            }
        }
        // Full observable-state equality after every step.
        prop_assert_eq!(dense.used(), reference.used());
        prop_assert_eq!(dense.free(), reference.free());
        prop_assert_eq!(dense.len(), reference.len());
        prop_assert_eq!(dense.is_empty(), reference.is_empty());
        prop_assert_eq!(dense.pinned_len(), reference.pinned_len());
        prop_assert_eq!(
            dense.resident_files_sorted(),
            reference.resident_files_sorted()
        );
        prop_assert_eq!(
            dense.pinned_files().collect::<Vec<_>>(),
            reference.pinned_files().collect::<Vec<_>>()
        );
        for &f in ids.iter().chain([&unknown]) {
            prop_assert_eq!(dense.contains(f), reference.contains(f));
            prop_assert_eq!(dense.is_pinned(f), reference.is_pinned(f));
            if !catalog.contains(f) {
                prop_assert!(!dense.contains(f) && !dense.is_pinned(f));
            }
        }
        // `iter` orders may legitimately differ (slab order vs BTreeMap
        // order); the multiset of pairs must not.
        let mut a: Vec<_> = dense.iter().collect();
        let mut b: Vec<_> = reference.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!(dense.check_invariants());
        prop_assert!(reference.check_invariants());
    }
}

fn dense_catalog() -> (FileCatalog, Vec<FileId>) {
    let catalog = FileCatalog::from_sizes((0..NUM_DENSE as u64).map(|i| (i % 5) + 1).collect());
    let ids = (0..NUM_DENSE).map(FileId).collect();
    (catalog, ids)
}

/// A catalog of `NUM_DENSE - 4` files and a universe that adds
/// [`UNREGISTERED_IDS`]: every op on those must fail or read false in
/// both implementations alike.
fn unregistered_catalog() -> (FileCatalog, Vec<FileId>) {
    let catalog =
        FileCatalog::from_sizes((0..(NUM_DENSE - 4) as u64).map(|i| (i % 5) + 1).collect());
    let ids = (0..NUM_DENSE - 4)
        .chain(UNREGISTERED_IDS)
        .map(FileId)
        .collect();
    (catalog, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_universe_matches_reference(ops in ops(NUM_DENSE, 48), capacity in 1u64..24) {
        let (catalog, ids) = dense_catalog();
        run_model(&ops, &ids, &catalog, capacity, false);
    }

    #[test]
    fn warm_start_matches_reference(ops in ops(NUM_DENSE, 48), capacity in 1u64..24) {
        let (catalog, ids) = dense_catalog();
        run_model(&ops, &ids, &catalog, capacity, true);
    }

    #[test]
    fn unregistered_adversary_matches_reference(ops in ops(NUM_DENSE, 48), capacity in 1u64..24) {
        let (catalog, ids) = unregistered_catalog();
        run_model(&ops, &ids, &catalog, capacity, false);
        run_model(&ops, &ids, &catalog, capacity, true);
    }
}

/// Deterministic spot check of the adversary's extremes: with every
/// registered file resident and pinned, each unregistered id is refused
/// as unknown on insert and as not resident on evict, pin and unpin, and
/// never reads as resident or pinned.
#[test]
fn unregistered_extreme_ids_are_refused() {
    let (catalog, ids) = unregistered_catalog();
    let mut cache = CacheState::with_catalog(1 << 20, &catalog);
    let (registered, unregistered) = ids.split_at(catalog.len());
    for &f in registered {
        cache.insert(f, &catalog).unwrap();
        cache.pin(f).unwrap();
    }
    for &f in unregistered {
        assert_eq!(cache.insert(f, &catalog), Err(FbcError::UnknownFile(f)));
        assert_eq!(cache.evict(f), Err(FbcError::NotResident(f)));
        assert_eq!(cache.pin(f), Err(FbcError::NotResident(f)));
        assert_eq!(cache.unpin(f), Err(FbcError::NotResident(f)));
        assert!(!cache.contains(f) && !cache.is_pinned(f));
        let bundle = Bundle::new([registered[0], f]);
        assert!(!cache.contains_all(&bundle));
        assert_eq!(cache.missing_of(&bundle), vec![f]);
    }
    assert!(cache.contains_all(&Bundle::new(registered.iter().copied())));
    assert_eq!(cache.len(), registered.len());
    assert_eq!(cache.pinned_len(), registered.len());
    assert_eq!(cache.used(), catalog.total_bytes());
    assert!(cache.check_invariants());
}
