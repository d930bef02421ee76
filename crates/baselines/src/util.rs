//! Shared victim-selection kernel for the baseline policies.
//!
//! Every baseline used to rediscover its victim by collecting **and
//! sorting** the entire resident set per eviction — `O(n log n)` per victim
//! plus a fresh `Vec` each call. This module replaces that scan with
//! incrementally maintained *eviction indices* that make bit-for-bit
//! identical choices (including the lower-[`FileId`] tie-break):
//!
//! * [`LazyHeap`] — a lazy-deletion binary min-heap with version stamps,
//!   for priorities that change on access (LFU counts, GDSF H-values,
//!   LRU-K distances, Belady next-use, SLRU segment ticks). Reprioritising
//!   pushes a fresh stamped entry; stale entries are discarded when popped.
//! * [`OrderedList`] — an intrusive doubly-linked list over a slab with an
//!   FxHash position map, for pure recency/insertion orders (LRU, FIFO,
//!   ARC's T1/T2/ghost lists, SLRU's protected segment) where `O(1)`
//!   remove-by-id replaces the old `iter().position` scans.
//! * [`SortedArena`] — a sorted resident arena that lets `Random` replay
//!   the reference policy's exact seeded draw without materialising the
//!   candidate list.
//!
//! **Skip-on-pop contract:** pinned files and files of the in-flight bundle
//! are *not* pre-filtered out of the indices. They are skipped when popped
//! (and restored afterwards), so one eviction costs
//! `O((skipped + 1) · log n)` instead of `O(n log n)`.
//!
//! **Keyed policies.** A policy whose victim is "the evictable resident
//! minimising a key" (LRU, FIFO, LFU, SIZE, LRU-K, Belady-MIN, GDSF,
//! SLRU) states its key and bookkeeping once, as a [`KeyedPolicy`].
//! [`Indexed`] is its one `handle`: it picks victims from a
//! [`VictimIndex`] and re-keys every file the bookkeeping names from
//! [`KeyedPolicy::victim_key`], so the index cannot drift from the key.
//! [`ScanOracle`] (behind the `reference-kernels` feature) runs the same
//! bookkeeping but picks victims with the old full-scan selector,
//! [`choose_victim_min_by_reference`], retained verbatim; the root-level
//! `tests/evictor_equivalence.rs` differential suite pins the two equal.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{service_with_evictor, CachePolicy, RequestOutcome};
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Picks the evictable resident file minimising `key` — excluding files of
/// the in-flight `bundle` and pinned files. Ties are broken by lower
/// [`FileId`] so every policy is deterministic.
///
/// This is the pre-index full-scan implementation, retained verbatim so
/// [`ScanOracle`] (and the differential suites pinning the indexed kernels
/// to it) keeps the original semantics bit-for-bit.
#[cfg(any(test, feature = "reference-kernels"))]
pub fn choose_victim_min_by_reference<K, F>(
    cache: &CacheState,
    bundle: &Bundle,
    mut key: F,
) -> Option<FileId>
where
    K: PartialOrd,
    F: FnMut(FileId, u64) -> K,
{
    let mut best: Option<(FileId, K)> = None;
    let mut candidates: Vec<(FileId, u64)> = cache
        .iter()
        .filter(|&(f, _)| !bundle.contains(f) && !cache.is_pinned(f))
        .collect();
    candidates.sort_unstable_by_key(|&(f, _)| f);
    for (f, size) in candidates {
        let k = key(f, size);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((f, k)),
        }
    }
    best.map(|(f, _)| f)
}

/// A total-order wrapper for non-NaN `f64` priorities.
///
/// The reference scan compares keys with `PartialOrd`, under which `-0.0`
/// and `+0.0` are equal; `Ord` via `partial_cmp` preserves exactly that
/// (unlike `f64::total_cmp`, which orders `-0.0 < +0.0` and would flip the
/// id tie-break between them). Keys are never NaN in any policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("priority keys are never NaN")
    }
}

/// A lazy-deletion binary min-heap over `(key, FileId)` with version stamps.
///
/// [`update`](LazyHeap::update) pushes a freshly stamped entry instead of
/// reordering in place; [`remove`](LazyHeap::remove) only drops the live
/// record. Entries whose stamp no longer matches the live record are
/// discarded when popped, so the heap self-compacts as it is queried.
///
/// Ordering is `(key, FileId)` lexicographic — the same "minimum key, ties
/// to the lower id" rule as [`choose_victim_min_by_reference`].
#[derive(Debug, Clone)]
pub struct LazyHeap<K: Ord + Copy> {
    heap: BinaryHeap<Reverse<(K, FileId, u64)>>,
    /// Live record per file: (current stamp, current key).
    live: FxHashMap<FileId, (u64, K)>,
    stamp: u64,
    /// Reusable scratch for entries skipped during a pop (pinned /
    /// in-flight-bundle files); restored before returning, so the hot path
    /// allocates nothing in steady state.
    skipped: Vec<(K, FileId, u64)>,
}

impl<K: Ord + Copy> Default for LazyHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> LazyHeap<K> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            live: FxHashMap::default(),
            stamp: 0,
            skipped: Vec::new(),
        }
    }

    /// Number of live (tracked) files.
    #[inline]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no file is tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `file` is tracked.
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        self.live.contains_key(&file)
    }

    /// The current key of `file`, if tracked.
    #[inline]
    pub fn key_of(&self, file: FileId) -> Option<K> {
        self.live.get(&file).map(|&(_, k)| k)
    }

    /// Inserts `file` or reprioritises it to `key` (O(log n) amortised).
    pub fn update(&mut self, file: FileId, key: K) {
        self.stamp += 1;
        self.live.insert(file, (self.stamp, key));
        self.heap.push(Reverse((key, file, self.stamp)));
    }

    /// Stops tracking `file`; its heap entries become stale and are dropped
    /// lazily. Returns whether the file was tracked.
    pub fn remove(&mut self, file: FileId) -> bool {
        self.live.remove(&file).is_some()
    }

    /// Drops all state.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
        self.stamp = 0;
        self.skipped.clear();
    }

    /// Replaces the whole index with `entries` in one O(n) heapify — the
    /// resync path for a policy whose index is out of step with the cache
    /// (e.g. the policy was reset while the cache stayed warm).
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = (FileId, K)>) {
        self.heap.clear();
        self.live.clear();
        self.skipped.clear();
        let mut v: Vec<Reverse<(K, FileId, u64)>> = Vec::new();
        for (f, k) in entries {
            self.stamp += 1;
            self.live.insert(f, (self.stamp, k));
            v.push(Reverse((k, f, self.stamp)));
        }
        self.heap = BinaryHeap::from(v);
    }

    /// Pops the minimum-key evictable file: skips (and restores) files of
    /// the in-flight `bundle` and pinned files, drops stale entries, and
    /// lazily un-tracks files no longer resident. The chosen victim is
    /// removed from the index before returning.
    pub fn choose(&mut self, cache: &CacheState, bundle: &Bundle) -> Option<FileId> {
        debug_assert!(self.skipped.is_empty());
        let mut victim = None;
        while let Some(Reverse((key, file, stamp))) = self.heap.pop() {
            match self.live.get(&file) {
                Some(&(live_stamp, _)) if live_stamp == stamp => {
                    if !cache.contains(file) {
                        // Desynced entry (cache mutated behind the policy's
                        // back): permanently drop it.
                        self.live.remove(&file);
                    } else if bundle.contains(file) || cache.is_pinned(file) {
                        self.skipped.push((key, file, stamp));
                    } else {
                        self.live.remove(&file);
                        victim = Some(file);
                        break;
                    }
                }
                _ => {} // stale stamp: discard
            }
        }
        for &(key, file, stamp) in &self.skipped {
            self.heap.push(Reverse((key, file, stamp)));
        }
        self.skipped.clear();
        victim
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    file: FileId,
    value: V,
    prev: u32,
    next: u32,
}

/// An ordered intrusive doubly-linked list over a slab, with an FxHash
/// position map for `O(1)` remove-by-id — the index for pure
/// recency/insertion orders (LRU, FIFO, ARC's T1/T2 and ghost lists).
///
/// Front = oldest. Freed slots are recycled through a free list, so a
/// steady-state policy allocates nothing per eviction.
#[derive(Debug, Clone)]
pub struct OrderedList<V> {
    nodes: Vec<Node<V>>,
    pos: FxHashMap<FileId, u32>,
    head: u32,
    tail: u32,
    free: u32,
    len: usize,
}

impl<V> Default for OrderedList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> OrderedList<V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            pos: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `file` is in the list.
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        self.pos.contains_key(&file)
    }

    /// Appends `file` at the back (the newest end). `file` must not already
    /// be present.
    pub fn push_back(&mut self, file: FileId, value: V) {
        debug_assert!(!self.contains(file), "duplicate list entry {file:?}");
        let idx = match self.free {
            NIL => {
                self.nodes.push(Node {
                    file,
                    value,
                    prev: self.tail,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = Node {
                    file,
                    value,
                    prev: self.tail,
                    next: NIL,
                };
                idx
            }
        };
        match self.tail {
            NIL => self.head = idx,
            t => self.nodes[t as usize].next = idx,
        }
        self.tail = idx;
        self.pos.insert(file, idx);
        self.len += 1;
    }

    fn unlink(&mut self, idx: u32) -> V
    where
        V: Default,
    {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            nx => self.nodes[nx as usize].prev = prev,
        }
        let node = &mut self.nodes[idx as usize];
        let value = std::mem::take(&mut node.value);
        node.prev = NIL;
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        value
    }

    /// Removes `file` in O(1), returning its value if present.
    pub fn remove(&mut self, file: FileId) -> Option<V>
    where
        V: Default,
    {
        let idx = self.pos.remove(&file)?;
        Some(self.unlink(idx))
    }

    /// Moves `file` to the back (newest); inserts it if absent.
    pub fn move_to_back(&mut self, file: FileId, value: V)
    where
        V: Default,
    {
        if let Some(idx) = self.pos.remove(&file) {
            self.unlink(idx);
        }
        self.push_back(file, value);
    }

    /// Removes and returns the front (oldest) entry.
    pub fn pop_front(&mut self) -> Option<(FileId, V)>
    where
        V: Default,
    {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        let file = self.nodes[idx as usize].file;
        self.pos.remove(&file);
        let value = self.unlink(idx);
        Some((file, value))
    }

    /// Iterates front→back over `(file, &value)`.
    pub fn iter(&self) -> OrderedListIter<'_, V> {
        OrderedListIter {
            list: self,
            cur: self.head,
        }
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.pos.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        self.len = 0;
    }

    /// Walks from the front and unlinks + returns the first evictable file
    /// (resident, unpinned, not in the in-flight `bundle`). Entries for
    /// files no longer resident are lazily dropped along the way; skipped
    /// (pinned / in-flight) entries stay in place.
    pub fn choose(&mut self, cache: &CacheState, bundle: &Bundle) -> Option<FileId>
    where
        V: Default,
    {
        let mut cur = self.head;
        while cur != NIL {
            let file = self.nodes[cur as usize].file;
            let next = self.nodes[cur as usize].next;
            if !cache.contains(file) {
                // Desynced entry: permanently drop it.
                self.pos.remove(&file);
                self.unlink(cur);
            } else if !bundle.contains(file) && !cache.is_pinned(file) {
                self.pos.remove(&file);
                self.unlink(cur);
                return Some(file);
            }
            cur = next;
        }
        None
    }
}

/// Front→back iterator over an [`OrderedList`].
#[derive(Debug)]
pub struct OrderedListIter<'a, V> {
    list: &'a OrderedList<V>,
    cur: u32,
}

impl<'a, V> Iterator for OrderedListIter<'a, V> {
    type Item = (FileId, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cur as usize];
        self.cur = node.next;
        Some((node.file, &node.value))
    }
}

/// A sorted arena of resident file ids, used by `Random` to replay the
/// reference implementation's exact seeded draw: the reference sorts the
/// evictable candidates and indexes that array with `gen_range`, so the
/// replacement must produce the identical order statistic over
/// `residents \ excluded` without materialising the candidate list.
#[derive(Debug, Clone, Default)]
pub struct SortedArena {
    items: Vec<FileId>,
}

impl SortedArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked files.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the arena is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Inserts `file`, keeping ascending order (no-op if present).
    pub fn insert(&mut self, file: FileId) {
        if let Err(i) = self.items.binary_search(&file) {
            self.items.insert(i, file);
        }
    }

    /// Removes `file` if present.
    pub fn remove(&mut self, file: FileId) {
        if let Ok(i) = self.items.binary_search(&file) {
            self.items.remove(i);
        }
    }

    /// Replaces the contents with the residents of `cache`.
    pub fn rebuild(&mut self, cache: &CacheState) {
        self.items.clear();
        self.items.extend(cache.iter().map(|(f, _)| f));
        self.items.sort_unstable();
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The `idx`-th (0-based) element of `arena \ excl` in ascending order.
    ///
    /// `excl` must be sorted ascending, deduplicated, and a subset of the
    /// arena; `idx` must be `< len() - excl.len()`. Binary-searches on the
    /// non-decreasing rank function `g(pos) = pos + 1 − |{e ∈ excl : e ≤
    /// arena[pos]}|`: the leftmost position with `g(pos) = idx + 1` is
    /// never an excluded element (an excluded element leaves `g`
    /// unchanged from its predecessor), so it is exactly the answer.
    pub fn select_excluding(&self, idx: usize, excl: &[FileId]) -> FileId {
        debug_assert!(idx + excl.len() < self.items.len() + 1);
        let (mut lo, mut hi) = (0usize, self.items.len() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let g = mid + 1 - excl.partition_point(|&e| e <= self.items[mid]);
            if g > idx {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.items[lo]
    }
}

/// An incrementally maintained eviction index over resident files, keyed
/// by `K` — what [`Indexed`] picks victims from.
pub trait VictimIndex<K>: Default {
    /// Number of tracked files.
    fn len(&self) -> usize;

    /// Whether no file is tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the whole index with `entries`.
    fn rebuild(&mut self, entries: impl Iterator<Item = (FileId, K)>);

    /// Inserts `file` or moves it to `key`.
    fn rekey(&mut self, file: FileId, key: K);

    /// Removes and returns the evictable file of minimum `(key, FileId)`,
    /// skipping pinned files and files of the in-flight `bundle`.
    fn choose(&mut self, cache: &CacheState, bundle: &Bundle) -> Option<FileId>;

    /// Drops all entries.
    fn clear(&mut self);
}

impl<K: Ord + Copy> VictimIndex<K> for LazyHeap<K> {
    fn len(&self) -> usize {
        LazyHeap::len(self)
    }

    fn rebuild(&mut self, entries: impl Iterator<Item = (FileId, K)>) {
        LazyHeap::rebuild(self, entries);
    }

    fn rekey(&mut self, file: FileId, key: K) {
        self.update(file, key);
    }

    fn choose(&mut self, cache: &CacheState, bundle: &Bundle) -> Option<FileId> {
        LazyHeap::choose(self, cache, bundle)
    }

    fn clear(&mut self) {
        LazyHeap::clear(self);
    }
}

/// The list is its own order: a re-key moves the file to the back, so keys
/// must be handed out non-decreasing in `(key, FileId)` — a clock stamp,
/// with the files of one request re-keyed in ascending id order.
impl<K: Ord + Copy + Default> VictimIndex<K> for OrderedList<K> {
    fn len(&self) -> usize {
        OrderedList::len(self)
    }

    fn rebuild(&mut self, entries: impl Iterator<Item = (FileId, K)>) {
        let mut sorted: Vec<(K, FileId)> = entries.map(|(f, k)| (k, f)).collect();
        sorted.sort_unstable();
        OrderedList::clear(self);
        for (k, f) in sorted {
            self.push_back(f, k);
        }
    }

    fn rekey(&mut self, file: FileId, key: K) {
        self.remove(file);
        debug_assert!(
            self.tail == NIL || {
                let back = &self.nodes[self.tail as usize];
                (back.value, back.file) < (key, file)
            },
            "out-of-order re-key of {file:?}"
        );
        self.push_back(file, key);
    }

    fn choose(&mut self, cache: &CacheState, bundle: &Bundle) -> Option<FileId> {
        OrderedList::choose(self, cache, bundle)
    }

    fn clear(&mut self) {
        OrderedList::clear(self);
    }
}

/// A baseline whose victim is the evictable resident file of minimum
/// [`victim_key`](KeyedPolicy::victim_key) (ties to the lower [`FileId`]),
/// stated once: its key, its bookkeeping, and the index that serves it.
/// [`Indexed`] turns it into a [`CachePolicy`]; [`ScanOracle`] drives the
/// same bookkeeping with a full scan.
pub trait KeyedPolicy {
    /// The victim key; the minimum is evicted first.
    type Key: Ord + Copy;
    /// The index [`Indexed`] keeps over the key.
    type Index: VictimIndex<Self::Key>;

    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// The current key of resident `file` of `size` bytes, computed from
    /// the policy's own metadata.
    fn victim_key(&self, file: FileId, size: Bytes) -> Self::Key;

    /// Whether `file`'s key can change without the file being named by
    /// [`update`](KeyedPolicy::update). While any resident's key floats,
    /// [`Indexed`] rebuilds its index before every eviction. Default: never.
    fn key_floats(&self, _file: FileId) -> bool {
        false
    }

    /// Updates the metadata after a request was handled on `cache` and
    /// appends to `touched` every file whose key changed. An
    /// [`OrderedList`] index needs them in ascending `(key, id)` order; a
    /// [`LazyHeap`] takes them in any order.
    fn update(
        &mut self,
        bundle: &Bundle,
        outcome: &RequestOutcome,
        cache: &CacheState,
        catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    );

    /// The last step of a request, after the touched files were re-keyed.
    /// Default: nothing.
    fn finish(&mut self) {}

    /// Offline hook (see [`CachePolicy::prepare_from`]). Default: nothing.
    fn prepare_from(&mut self, _trace: &mut dyn Iterator<Item = &Bundle>) {}

    /// Clears all metadata.
    fn reset(&mut self);
}

/// A [`KeyedPolicy`] served from its [`VictimIndex`]: the production
/// `handle` of every keyed baseline.
///
/// When the index is out of step with the cache (`len` differs, e.g. after
/// a reset against a warm cache), or some resident's key floats, the index
/// is rebuilt from the policy's metadata before the next eviction. After
/// each request every touched resident is re-keyed from
/// [`KeyedPolicy::victim_key`].
#[derive(Debug, Clone)]
pub struct Indexed<P: KeyedPolicy> {
    policy: P,
    index: P::Index,
    /// Set while some resident's key floats (see
    /// [`KeyedPolicy::key_floats`]).
    rebuild_each_round: bool,
    /// Reusable scratch for the files [`KeyedPolicy::update`] names.
    touched: Vec<FileId>,
}

impl<P: KeyedPolicy + Default> Default for Indexed<P> {
    fn default() -> Self {
        Self::with_policy(P::default())
    }
}

impl<P: KeyedPolicy> Indexed<P> {
    /// Serves `policy` from an empty index.
    pub fn with_policy(policy: P) -> Self {
        Self {
            policy,
            index: P::Index::default(),
            rebuild_each_round: false,
            touched: Vec::new(),
        }
    }

    /// The keyed policy's metadata (diagnostics).
    pub(crate) fn policy(&self) -> &P {
        &self.policy
    }
}

impl<P: KeyedPolicy> CachePolicy for Indexed<P> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let Self {
            policy,
            index,
            rebuild_each_round,
            touched,
        } = self;
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            if *rebuild_each_round || index.len() != cache.len() {
                let mut floating = false;
                index.rebuild(cache.iter().map(|(f, size)| {
                    floating |= policy.key_floats(f);
                    (f, policy.victim_key(f, size))
                }));
                *rebuild_each_round = floating;
            }
            index.choose(cache, bundle)
        });
        touched.clear();
        policy.update(bundle, &outcome, cache, catalog, touched);
        for &f in touched.iter() {
            if cache.contains(f) {
                index.rekey(f, policy.victim_key(f, catalog.size(f)));
            }
        }
        policy.finish();
        outcome
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        self.policy.prepare_from(trace);
        self.index.clear();
    }

    fn reset(&mut self) {
        self.policy.reset();
        self.index.clear();
        self.rebuild_each_round = false;
    }
}

/// The differential oracle for a [`KeyedPolicy`]: the same bookkeeping as
/// [`Indexed`], but every victim comes from a full scan over
/// [`KeyedPolicy::victim_key`] ([`choose_victim_min_by_reference`]). It
/// pins the contract "the index picks what a full scan over the same key
/// picks" at every eviction.
#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone)]
pub struct ScanOracle<P> {
    policy: P,
    touched: Vec<FileId>,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl<P: KeyedPolicy> ScanOracle<P> {
    /// The oracle of `indexed`'s policy, taking over its metadata.
    pub fn new(indexed: Indexed<P>) -> Self {
        Self {
            policy: indexed.policy,
            touched: Vec::new(),
        }
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
impl<P: KeyedPolicy> CachePolicy for ScanOracle<P> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let policy = &self.policy;
        let outcome = service_with_evictor(bundle, cache, catalog, |cache| {
            choose_victim_min_by_reference(cache, bundle, |f, size| policy.victim_key(f, size))
        });
        self.touched.clear();
        self.policy
            .update(bundle, &outcome, cache, catalog, &mut self.touched);
        self.policy.finish();
        outcome
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        self.policy.prepare_from(trace);
    }

    fn reset(&mut self) {
        self.policy.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_picks_minimum_and_skips_bundle_and_pinned() {
        let catalog = FileCatalog::from_sizes(vec![1, 2, 3, 4]);
        let mut cache = CacheState::new(10);
        for i in 0..4 {
            cache.insert(FileId(i), &catalog).unwrap();
        }
        cache.pin(FileId(0)).unwrap();
        let bundle = Bundle::from_raw([1]);
        // key = size: smallest evictable is f2 (f0 pinned, f1 in bundle).
        let v = choose_victim_min_by_reference(&cache, &bundle, |_, size| size);
        assert_eq!(v, Some(FileId(2)));
    }

    #[test]
    fn reference_ties_break_to_lower_id() {
        let catalog = FileCatalog::from_sizes(vec![5, 5, 5]);
        let mut cache = CacheState::new(15);
        for i in 0..3 {
            cache.insert(FileId(i), &catalog).unwrap();
        }
        let v = choose_victim_min_by_reference(&cache, &Bundle::new([]), |_, _| 0u8);
        assert_eq!(v, Some(FileId(0)));
    }

    #[test]
    fn reference_empty_cache_yields_none() {
        let cache = CacheState::new(10);
        assert_eq!(
            choose_victim_min_by_reference(&cache, &Bundle::new([]), |_, s| s),
            None
        );
    }

    #[test]
    fn ordf64_matches_partialord_zero_semantics() {
        // -0.0 == +0.0 under PartialOrd — the id tie-break must apply, so
        // the Ord wrapper has to agree (total_cmp would not).
        assert_eq!(OrdF64(-0.0).cmp(&OrdF64(0.0)), std::cmp::Ordering::Equal);
        assert!(OrdF64(1.0) > OrdF64(0.5));
    }

    /// Drives the heap against the reference scan over a random schedule of
    /// updates/removals/evictions with pins and in-flight bundles.
    #[test]
    fn lazy_heap_matches_reference_scan() {
        let mut state = 0x1EAFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let catalog = FileCatalog::from_sizes(vec![1; 16]);
        for _round in 0..200 {
            let mut cache = CacheState::new(16);
            let mut heap = LazyHeap::new();
            let mut keys: FxHashMap<FileId, u64> = FxHashMap::default();
            for _op in 0..60 {
                match next() % 4 {
                    0 => {
                        // Insert/touch a file with a (possibly colliding) key.
                        let f = FileId((next() % 16) as u32);
                        if !cache.contains(f) && cache.insert(f, &catalog).is_err() {
                            continue;
                        }
                        let k = next() % 4;
                        keys.insert(f, k);
                        heap.update(f, k);
                    }
                    1 => {
                        // Evict a specific file.
                        let f = FileId((next() % 16) as u32);
                        if cache.evict(f).is_ok() {
                            keys.remove(&f);
                            heap.remove(f);
                        }
                    }
                    2 => {
                        // Toggle a pin.
                        let f = FileId((next() % 16) as u32);
                        if cache.is_pinned(f) {
                            cache.unpin(f).unwrap();
                        } else {
                            let _ = cache.pin(f);
                        }
                    }
                    _ => {
                        // Compare a choice under a random in-flight bundle.
                        let b = Bundle::from_raw((0..(next() % 3)).map(|_| (next() % 16) as u32));
                        let expect = choose_victim_min_by_reference(&cache, &b, |f, _| {
                            keys.get(&f).copied().unwrap_or(0)
                        });
                        let got = heap.choose(&cache, &b);
                        assert_eq!(got, expect);
                        if let Some(f) = got {
                            cache.evict(f).unwrap();
                            keys.remove(&f);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lazy_heap_skips_stale_entries() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(4);
        let mut heap: LazyHeap<u64> = LazyHeap::new();
        for i in 0..3 {
            cache.insert(FileId(i), &catalog).unwrap();
        }
        heap.update(FileId(0), 1);
        heap.update(FileId(1), 2);
        heap.update(FileId(0), 9); // stale entry (0, f0) remains queued
        let empty = Bundle::new([]);
        assert_eq!(heap.choose(&cache, &empty), Some(FileId(1)));
        assert_eq!(heap.choose(&cache, &empty), Some(FileId(0)));
        assert_eq!(heap.choose(&cache, &empty), None);
    }

    #[test]
    fn lazy_heap_restores_skipped_entries() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(4);
        let mut heap: LazyHeap<u64> = LazyHeap::new();
        for i in 0..3 {
            cache.insert(FileId(i), &catalog).unwrap();
        }
        heap.update(FileId(0), 0);
        heap.update(FileId(1), 1);
        heap.update(FileId(2), 2);
        cache.pin(FileId(0)).unwrap();
        let bundle = Bundle::from_raw([1]);
        // f0 pinned, f1 in flight: f2 wins, and both skips are restored.
        assert_eq!(heap.choose(&cache, &bundle), Some(FileId(2)));
        cache.evict(FileId(2)).unwrap();
        cache.unpin(FileId(0)).unwrap();
        let empty = Bundle::new([]);
        assert_eq!(heap.choose(&cache, &empty), Some(FileId(0)));
        assert_eq!(heap.choose(&cache, &empty), Some(FileId(1)));
    }

    #[test]
    fn ordered_list_is_fifo_with_o1_removal() {
        let mut list: OrderedList<()> = OrderedList::new();
        for i in 0..5u32 {
            list.push_back(FileId(i), ());
        }
        assert_eq!(list.remove(FileId(2)), Some(()));
        assert_eq!(list.remove(FileId(2)), None);
        let order: Vec<FileId> = list.iter().map(|(f, _)| f).collect();
        assert_eq!(
            order,
            vec![FileId(0), FileId(1), FileId(3), FileId(4)],
            "removal keeps relative order"
        );
        assert_eq!(list.pop_front(), Some((FileId(0), ())));
        list.move_to_back(FileId(1), ());
        let order: Vec<FileId> = list.iter().map(|(f, _)| f).collect();
        assert_eq!(order, vec![FileId(3), FileId(4), FileId(1)]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn ordered_list_choose_skips_pinned_and_inflight() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(4);
        let mut list: OrderedList<()> = OrderedList::new();
        for i in 0..4 {
            cache.insert(FileId(i), &catalog).unwrap();
            list.push_back(FileId(i), ());
        }
        cache.pin(FileId(0)).unwrap();
        let bundle = Bundle::from_raw([1]);
        assert_eq!(list.choose(&cache, &bundle), Some(FileId(2)));
        // Skipped entries stayed in place (and in order).
        let order: Vec<FileId> = list.iter().map(|(f, _)| f).collect();
        assert_eq!(order, vec![FileId(0), FileId(1), FileId(3)]);
    }

    #[test]
    fn ordered_list_slab_recycles_slots() {
        let mut list: OrderedList<u64> = OrderedList::new();
        for i in 0..8u32 {
            list.push_back(FileId(i), u64::from(i));
        }
        for i in 0..8u32 {
            assert_eq!(list.remove(FileId(i)), Some(u64::from(i)));
        }
        let slab_size = list.nodes.len();
        for i in 8..16u32 {
            list.push_back(FileId(i), u64::from(i));
        }
        assert_eq!(list.nodes.len(), slab_size, "freed slots were not reused");
        assert_eq!(list.len(), 8);
    }

    /// LFU that forgets to name its last touched file: the index keeps
    /// that file's stale count while the scan reads the fresh one.
    #[derive(Debug, Default)]
    struct SkipsOneRekey(crate::lfu::LfuKeys);

    impl KeyedPolicy for SkipsOneRekey {
        type Key = u64;
        type Index = LazyHeap<u64>;

        fn name(&self) -> &str {
            "LFU(skips one re-key)"
        }

        fn victim_key(&self, file: FileId, size: Bytes) -> u64 {
            self.0.victim_key(file, size)
        }

        fn update(
            &mut self,
            bundle: &Bundle,
            outcome: &RequestOutcome,
            cache: &CacheState,
            catalog: &FileCatalog,
            touched: &mut Vec<FileId>,
        ) {
            self.0.update(bundle, outcome, cache, catalog, touched);
            touched.pop();
        }

        fn reset(&mut self) {
            self.0.reset();
        }
    }

    /// The first request at which `P` served from its index and from a full
    /// scan disagree, over a seeded 400-request trace.
    fn first_divergence<P: KeyedPolicy + Default>() -> Option<usize> {
        let mut state = 0xD21F7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let catalog = FileCatalog::from_sizes((0..48).map(|i| 1 + i % 3).collect());
        let mut indexed = Indexed::<P>::default();
        let mut oracle = ScanOracle::new(Indexed::<P>::default());
        let (mut cache_a, mut cache_b) = (CacheState::new(24), CacheState::new(24));
        (0..400).find(|_| {
            // Skewed ids, so repeat requests move counts apart.
            let bundle = Bundle::from_raw((0..1 + next() % 3).map(|_| {
                let r = (next() % 48) as u32;
                r * r / 48
            }));
            let a = indexed.handle(&bundle, &mut cache_a, &catalog);
            let b = oracle.handle(&bundle, &mut cache_b, &catalog);
            a != b
        })
    }

    /// The single oracle still catches the bug class the per-policy twins
    /// existed for: a policy whose bookkeeping misses a re-key drifts from
    /// the scan, while the faithful policy never does on the same trace.
    #[test]
    fn scan_oracle_catches_a_skipped_rekey() {
        assert_eq!(first_divergence::<crate::lfu::LfuKeys>(), None);
        let at = first_divergence::<SkipsOneRekey>();
        assert!(at.is_some(), "a skipped re-key went unnoticed");
    }

    #[test]
    fn sorted_arena_select_matches_naive_filter() {
        let mut state = 0xA3E4u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..300 {
            let n = (next() % 20 + 1) as usize;
            let mut ids: Vec<FileId> = (0..n).map(|_| FileId((next() % 64) as u32)).collect();
            ids.sort_unstable();
            ids.dedup();
            let mut arena = SortedArena::new();
            for &f in &ids {
                arena.insert(f);
            }
            let excl: Vec<FileId> = ids.iter().copied().filter(|_| next() % 3 == 0).collect();
            let naive: Vec<FileId> = ids.iter().copied().filter(|f| !excl.contains(f)).collect();
            for (idx, &want) in naive.iter().enumerate() {
                assert_eq!(arena.select_excluding(idx, &excl), want);
            }
        }
    }
}
