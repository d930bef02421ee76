//! Property-based tests of the indexed eviction structures against naive
//! reference models: the lazy-deletion heap must make exactly the choices
//! of a filtered full scan (minimum key, ties to the lower id) under
//! arbitrary interleavings of re-prioritisation, removal, stale entries,
//! pins, and in-flight bundles. Also: the marking guard's least-recent
//! flavour is LRU under sequential service.

use fbc_baselines::util::{LazyHeap, OrderedList, SortedArena};
use fbc_baselines::{BundleMarking, Lru};
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::CachePolicy;
use fbc_core::types::FileId;
use proptest::prelude::*;
use std::collections::HashMap;

const UNIVERSE: u32 = 24;

/// One step of the model-based heap workout.
#[derive(Debug, Clone)]
enum Op {
    /// Insert or re-key a file (creates stale heap entries on re-key).
    Update(u32, u64),
    /// Stop tracking a file (and evict it from the cache).
    Remove(u32),
    /// Pin a file (pinned files must never be chosen).
    Pin(u32),
    /// Unpin a file.
    Unpin(u32),
    /// Ask for a victim while `bundle` is in flight and compare with the
    /// model's filtered minimum.
    Choose(Vec<u32>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted op mix (the vendored shim has no `prop_oneof!`): updates
    // dominate, with a steady trickle of removals, pins, and choices.
    (
        0u8..8,
        0..UNIVERSE,
        0u64..50,
        proptest::collection::vec(0..UNIVERSE, 0..4),
    )
        .prop_map(|(sel, f, k, ids)| match sel {
            0..=2 => Op::Update(f, k),
            3 => Op::Remove(f),
            4 => Op::Pin(f),
            5 => Op::Unpin(f),
            _ => Op::Choose(ids),
        })
}

/// The model: the minimum `(key, id)` over tracked files that are
/// resident, unpinned, and not part of the in-flight bundle — i.e. the
/// reference full scan the heap replaces.
fn model_choose(
    model: &HashMap<FileId, u64>,
    cache: &CacheState,
    bundle: &Bundle,
) -> Option<FileId> {
    model
        .iter()
        .filter(|&(&f, _)| cache.contains(f) && !cache.is_pinned(f) && !bundle.contains(f))
        .map(|(&f, &k)| (k, f))
        .min()
        .map(|(_, f)| f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Heap ≡ filtered-scan model under arbitrary op interleavings.
    #[test]
    fn lazy_heap_choose_matches_filtered_scan_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let catalog = FileCatalog::from_sizes(vec![1; UNIVERSE as usize]);
        let mut cache = CacheState::new(u64::from(UNIVERSE));
        let mut heap: LazyHeap<u64> = LazyHeap::new();
        let mut model: HashMap<FileId, u64> = HashMap::new();
        let mut pins: Vec<FileId> = Vec::new();

        for op in ops {
            match op {
                Op::Update(f, k) => {
                    let f = FileId(f);
                    if !cache.contains(f) {
                        cache.insert(f, &catalog).unwrap();
                    }
                    heap.update(f, k);
                    model.insert(f, k);
                    prop_assert_eq!(heap.key_of(f), Some(k));
                }
                Op::Remove(f) => {
                    let f = FileId(f);
                    if cache.contains(f) && !cache.is_pinned(f) {
                        cache.evict(f).unwrap();
                    }
                    if !cache.contains(f) {
                        heap.remove(f);
                        model.remove(&f);
                    }
                }
                Op::Pin(f) => {
                    let f = FileId(f);
                    if cache.contains(f) && !pins.contains(&f) {
                        cache.pin(f).unwrap();
                        pins.push(f);
                    }
                }
                Op::Unpin(f) => {
                    let f = FileId(f);
                    if let Some(i) = pins.iter().position(|&p| p == f) {
                        cache.unpin(f).unwrap();
                        pins.remove(i);
                    }
                }
                Op::Choose(ids) => {
                    let bundle = Bundle::from_raw(ids);
                    let expect = model_choose(&model, &cache, &bundle);
                    let got = heap.choose(&cache, &bundle);
                    prop_assert_eq!(got, expect, "heap victim != filtered-scan victim");
                    if let Some(v) = got {
                        // `choose` un-tracks the victim; the caller evicts it.
                        prop_assert!(!heap.contains(v));
                        cache.evict(v).unwrap();
                        model.remove(&v);
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
        }
    }

    /// Ties always break to the lower id, no matter the insertion order.
    #[test]
    fn lazy_heap_ties_break_to_lower_id(
        mut ids in proptest::collection::vec(0..UNIVERSE, 2..10),
        key in 0u64..5,
    ) {
        ids.sort_unstable();
        ids.dedup();
        let catalog = FileCatalog::from_sizes(vec![1; UNIVERSE as usize]);
        let mut cache = CacheState::new(u64::from(UNIVERSE));
        let mut heap: LazyHeap<u64> = LazyHeap::new();
        // Insert in reverse order so the lowest id goes in last.
        for &f in ids.iter().rev() {
            cache.insert(FileId(f), &catalog).unwrap();
            heap.update(FileId(f), key);
        }
        let empty = Bundle::from_raw(std::iter::empty::<u32>());
        prop_assert_eq!(heap.choose(&cache, &empty), Some(FileId(ids[0])));
    }

    /// Stale entries (left behind by re-keying) never win: after any
    /// sequence of re-keys, the chosen victim reflects only the latest keys.
    #[test]
    fn lazy_heap_rekeys_forget_old_priorities(
        rekeys in proptest::collection::vec((0..4u32, 0u64..50), 1..40)
    ) {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(4);
        let mut heap: LazyHeap<u64> = LazyHeap::new();
        let mut latest: HashMap<FileId, u64> = HashMap::new();
        for f in 0..4u32 {
            cache.insert(FileId(f), &catalog).unwrap();
            heap.update(FileId(f), 25);
            latest.insert(FileId(f), 25);
        }
        for (f, k) in rekeys {
            heap.update(FileId(f), k);
            latest.insert(FileId(f), k);
        }
        let empty = Bundle::from_raw(std::iter::empty::<u32>());
        let expect = model_choose(&latest, &cache, &empty);
        prop_assert_eq!(heap.choose(&cache, &empty), expect);
    }

    /// The ordered list is exactly a queue with O(1) removal: its front
    /// choice equals the oldest entry of a `VecDeque` model under the same
    /// exclusions.
    #[test]
    fn ordered_list_choose_matches_queue_model(
        ops in proptest::collection::vec(
            // 0..=2 → push/move to back, 3 → remove, else → choose excluding f.
            (0u8..6, 0..UNIVERSE).prop_map(|(sel, f)| (sel.min(4).saturating_sub(2), f)),
            1..100,
        )
    ) {
        let catalog = FileCatalog::from_sizes(vec![1; UNIVERSE as usize]);
        let mut cache = CacheState::new(u64::from(UNIVERSE));
        let mut list: OrderedList<()> = OrderedList::new();
        let mut model: Vec<FileId> = Vec::new();
        for (kind, f) in ops {
            let f = FileId(f);
            match kind {
                0 => {
                    if !cache.contains(f) {
                        cache.insert(f, &catalog).unwrap();
                    }
                    list.move_to_back(f, ());
                    model.retain(|&x| x != f);
                    model.push(f);
                }
                1 => {
                    if cache.contains(f) {
                        cache.evict(f).unwrap();
                    }
                    list.remove(f);
                    model.retain(|&x| x != f);
                }
                _ => {
                    let bundle = Bundle::new([f]);
                    let expect = model.iter().copied().find(|&x| x != f);
                    prop_assert_eq!(list.choose(&cache, &bundle), expect);
                    if let Some(v) = expect {
                        cache.evict(v).unwrap();
                        model.retain(|&x| x != v);
                    }
                }
            }
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(
                list.iter().map(|(x, _)| x).collect::<Vec<_>>(),
                model.clone()
            );
        }
    }

    /// `select_excluding` is exactly "sort, filter, index".
    #[test]
    fn sorted_arena_order_statistics_match_filter(
        mut resident in proptest::collection::vec(0..UNIVERSE, 1..16),
        mut excl in proptest::collection::vec(0..UNIVERSE, 0..8),
        idx_seed in 0usize..64,
    ) {
        resident.sort_unstable();
        resident.dedup();
        excl.sort_unstable();
        excl.dedup();
        excl.retain(|f| resident.contains(f));
        let mut arena = SortedArena::new();
        for &f in &resident {
            arena.insert(FileId(f));
        }
        let excl: Vec<FileId> = excl.into_iter().map(FileId).collect();
        let survivors: Vec<FileId> = resident
            .iter()
            .map(|&f| FileId(f))
            .filter(|f| !excl.contains(f))
            .collect();
        // No `prop_assume!` in the vendored shim: skip the empty case.
        if !survivors.is_empty() {
            let idx = idx_seed % survivors.len();
            prop_assert_eq!(arena.select_excluding(idx, &excl), survivors[idx]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The marking guard over the least-recent order is LRU under
    /// sequential service: every unmarked resident was last requested
    /// before the current phase began, so the least recent unmarked file
    /// is the least recent evictable file, and both break ties to the
    /// lowest id. Random sizes, capacities and traces, oversized bundles
    /// included.
    #[test]
    fn guarded_least_recent_is_lru_under_sequential_service(
        sizes in proptest::collection::vec(1u64..=6, 4..=UNIVERSE as usize),
        capacity in 1u64..=40,
        jobs in proptest::collection::vec(proptest::collection::vec(0..UNIVERSE, 1..=5), 1..=150),
    ) {
        let catalog = FileCatalog::from_sizes(sizes);
        let files = catalog.len() as u32;
        let mut marking = BundleMarking::new();
        let mut lru = Lru::new();
        let (mut cache_m, mut cache_l) = (CacheState::new(capacity), CacheState::new(capacity));
        for (i, ids) in jobs.iter().enumerate() {
            let bundle = Bundle::from_raw(ids.iter().map(|&f| f % files));
            let m = marking.handle(&bundle, &mut cache_m, &catalog);
            let l = lru.handle(&bundle, &mut cache_l, &catalog);
            prop_assert_eq!(m, l, "diverged at request {}", i);
        }
    }
}
