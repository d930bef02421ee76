//! Disk-cache state: the set of resident files, with capacity and pinning
//! invariants enforced at every mutation.
//!
//! `CacheState` is policy-agnostic — every replacement policy (OptFileBundle,
//! Landlord, LRU, …) mutates the same structure, so the capacity invariant
//! `used ≤ capacity` is checked in exactly one place. Pinning models the SRM
//! behaviour of holding a job's files while the job is in service (paper §2
//! and the grid substrate); a pinned file cannot be evicted.
//!
//! # Representation (DESIGN.md §15)
//!
//! Residency is *dense and hash-free*: a file id is an index into its
//! catalog, so membership is a word-packed [`DenseBitSet`] bit test and the
//! per-file record (size, pin count) lives in a slab indexed directly by the
//! raw id. Every hot probe — `contains`, `contains_all`, `missing_bytes`,
//! `insert`, `evict`, `pin` — is O(1) arithmetic with no hashing and no
//! per-operation allocation. The slab and bitsets only grow on a successful
//! `insert`, which sizes the file through the catalog first, so an id the
//! catalog never registered fails with [`FbcError::UnknownFile`] and grows
//! nothing. Pinned files are kept as a sorted `Vec` (for O(pinned)
//! enumeration in ascending order) plus a bitset (for the O(1) pin test on
//! the eviction path) instead of the previous `BTreeSet`.
//!
//! The previous `HashMap`+`BTreeSet` implementation is retained verbatim as
//! [`CacheStateReference`] behind the `reference-kernels` feature and pinned
//! bit-for-bit by the model-based proptest suite
//! (`crates/core/tests/cache_model.rs`) and the workspace differential
//! suites: same results, same errors, same sorted enumerations.
//!
//! Determinism contract: [`CacheState::iter`] and
//! [`CacheState::resident_files`] remain *unspecified order* in the API, but
//! the implementation is deterministic (ascending ids) — strictly more
//! reproducible than the SipHash-randomized order of the reference twin,
//! which is why no committed output could ever have depended on it.

use crate::bitset::DenseBitSet;
use crate::bundle::Bundle;
use crate::catalog::FileCatalog;
use crate::error::{FbcError, Result};
use crate::types::{Bytes, FileId};

/// The set of files currently resident in the disk cache.
#[derive(Debug, Clone, Default)]
pub struct CacheState {
    capacity: Bytes,
    used: Bytes,
    /// Slab indexed by raw file id; an entry is meaningful iff the
    /// corresponding `resident` bit is set.
    slots: Vec<Resident>,
    /// Word-packed membership bits.
    resident: DenseBitSet,
    /// Word-packed `pins > 0` bits.
    pinned_bits: DenseBitSet,
    /// All pinned files, sorted ascending.
    pinned: Vec<FileId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Resident {
    size: Bytes,
    pins: u32,
}

impl CacheState {
    /// Creates an empty cache of the given capacity. The slab grows lazily
    /// with the largest inserted id; use [`with_catalog`](Self::with_catalog)
    /// to pre-size it and keep the first fill allocation-free.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Creates an empty cache pre-sized for `catalog`'s ids.
    /// Behaviorally identical to [`new`](Self::new) — sizing only.
    pub fn with_catalog(capacity: Bytes, catalog: &FileCatalog) -> Self {
        let n = catalog.len();
        Self {
            capacity,
            slots: vec![Resident::default(); n],
            resident: DenseBitSet::with_capacity(n),
            pinned_bits: DenseBitSet::with_capacity(n),
            ..Self::default()
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently occupied.
    #[inline]
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes still free.
    #[inline]
    pub fn free(&self) -> Bytes {
        self.capacity - self.used
    }

    /// Number of resident files.
    #[inline]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no file is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `file` is resident: one bit test.
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        self.resident.contains(file.0)
    }

    /// Whether every file of `bundle` is resident — i.e. whether the bundle
    /// is a *request-hit* (paper §3) — tested against the residency bitset
    /// in one pass: the batched hit-check kernel the engines call per
    /// arrival.
    #[inline]
    pub fn contains_all(&self, bundle: &Bundle) -> bool {
        bundle.iter().all(|f| self.contains(f))
    }

    /// The files of `bundle` that are *not* resident.
    pub fn missing_of(&self, bundle: &Bundle) -> Vec<FileId> {
        bundle.iter().filter(|&f| !self.contains(f)).collect()
    }

    /// Total bytes of `bundle`'s files that are not resident, computed in
    /// one pass over the bundle with no intermediate allocation.
    pub fn missing_bytes(&self, bundle: &Bundle, catalog: &FileCatalog) -> Bytes {
        bundle
            .iter()
            .filter(|&f| !self.contains(f))
            .map(|f| catalog.size(f))
            .sum()
    }

    /// Inserts `file` (size taken from `catalog`).
    ///
    /// Fails with [`FbcError::UnknownFile`] if the catalog does not
    /// register `file`, with [`FbcError::CapacityExceeded`] if the file does
    /// not fit and with [`FbcError::DuplicateFile`] if it is already
    /// resident — policies are expected to check all three, so violations
    /// indicate bugs.
    pub fn insert(&mut self, file: FileId, catalog: &FileCatalog) -> Result<()> {
        let size = catalog.try_size(file)?;
        if self.contains(file) {
            return Err(FbcError::DuplicateFile(file));
        }
        if self.used + size > self.capacity {
            return Err(FbcError::CapacityExceeded {
                capacity: self.capacity,
                used: self.used,
                requested: size,
            });
        }
        let idx = file.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Resident::default());
        }
        self.slots[idx] = Resident { size, pins: 0 };
        self.resident.insert(file.0);
        self.used += size;
        Ok(())
    }

    /// Evicts `file`, returning its size.
    ///
    /// Fails if the file is not resident or is pinned.
    pub fn evict(&mut self, file: FileId) -> Result<Bytes> {
        if !self.contains(file) {
            return Err(FbcError::NotResident(file));
        }
        if self.is_pinned(file) {
            return Err(FbcError::Pinned(file));
        }
        let size = self.slots[file.index()].size;
        self.resident.remove(file.0);
        self.used -= size;
        Ok(size)
    }

    /// Pins `file` for the duration of a job's service; pinned files cannot
    /// be evicted. Pins are counted, so overlapping jobs sharing a file each
    /// hold their own pin.
    pub fn pin(&mut self, file: FileId) -> Result<()> {
        if !self.contains(file) {
            return Err(FbcError::NotResident(file));
        }
        let r = &mut self.slots[file.index()];
        r.pins += 1;
        if r.pins == 1 {
            self.pinned_bits.insert(file.0);
            if let Err(i) = self.pinned.binary_search(&file) {
                self.pinned.insert(i, file);
            }
        }
        Ok(())
    }

    /// Releases one pin on `file`.
    pub fn unpin(&mut self, file: FileId) -> Result<()> {
        if !self.contains(file) {
            return Err(FbcError::NotResident(file));
        }
        let r = &mut self.slots[file.index()];
        r.pins = r.pins.saturating_sub(1);
        if r.pins == 0 {
            self.pinned_bits.remove(file.0);
            if let Ok(i) = self.pinned.binary_search(&file) {
                self.pinned.remove(i);
            }
        }
        Ok(())
    }

    /// Whether `file` is currently pinned: one bit test.
    #[inline]
    pub fn is_pinned(&self, file: FileId) -> bool {
        self.pinned_bits.contains(file.0)
    }

    /// Number of currently pinned files.
    #[inline]
    pub fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Iterates over the pinned files in ascending id order.
    pub fn pinned_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.pinned.iter().copied()
    }

    /// Iterates over resident `(FileId, size)` pairs in unspecified order.
    /// (The implementation yields ascending ids — deterministic, unlike the
    /// hash-ordered reference twin; callers must not rely on either.)
    pub fn iter(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.resident
            .iter_ones()
            .map(|i| (FileId(i), self.slots[i as usize].size))
    }

    /// All resident file ids (unspecified order).
    pub fn resident_files(&self) -> Vec<FileId> {
        self.iter().map(|(f, _)| f).collect()
    }

    /// Resident file ids sorted ascending — useful for deterministic output.
    pub fn resident_files_sorted(&self) -> Vec<FileId> {
        let mut v = self.resident_files();
        v.sort_unstable();
        v
    }

    /// Empties the cache (files, pins, usage), keeping the capacity and the
    /// slab/bitset allocations warm for reuse.
    pub fn clear(&mut self) {
        self.used = 0;
        self.resident.clear();
        self.pinned_bits.clear();
        self.pinned.clear();
    }

    /// Debug invariant: recomputes `used` from scratch and compares.
    /// Intended for tests and `debug_assert!`s in the simulators.
    pub fn check_invariants(&self) -> bool {
        let sum: Bytes = self.iter().map(|(_, s)| s).sum();
        let pins_tracked = self.pinned.iter().all(|&f| {
            self.contains(f) && self.slots[f.index()].pins > 0 && self.pinned_bits.contains(f.0)
        }) && self.iter().filter(|&(f, _)| self.is_pinned(f)).count()
            == self.pinned.len()
            && self.pinned.windows(2).all(|w| w[0] < w[1])
            && self.pinned_bits.len() == self.pinned.len();
        sum == self.used && self.used <= self.capacity && pins_tracked
    }
}

/// The previous `HashMap`+`BTreeSet` implementation of [`CacheState`],
/// retained verbatim as the reference twin (house pattern): the dense
/// implementation must match it bit-for-bit on every observable — results,
/// errors, sorted enumerations — which the model-based proptest suite
/// (`crates/core/tests/cache_model.rs`) drives with random operation
/// sequences including ids the catalog never registered.
#[cfg(any(test, feature = "reference-kernels"))]
pub struct CacheStateReference {
    capacity: Bytes,
    used: Bytes,
    /// Resident files mapped to `(size, pin_count)`.
    files: std::collections::HashMap<FileId, RefResident>,
    /// Files with `pins > 0`, kept sorted so policies can enumerate the
    /// pinned set in O(pinned) instead of scanning every resident.
    pinned: std::collections::BTreeSet<FileId>,
}

#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone, Copy)]
struct RefResident {
    size: Bytes,
    pins: u32,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl CacheStateReference {
    /// Creates an empty cache of the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            used: 0,
            files: std::collections::HashMap::new(),
            pinned: std::collections::BTreeSet::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> Bytes {
        self.capacity - self.used
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no file is resident.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Whether `file` is resident.
    pub fn contains(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// Whether every file of `bundle` is resident.
    pub fn contains_all(&self, bundle: &Bundle) -> bool {
        bundle.is_subset_of(|f| self.contains(f))
    }

    /// The files of `bundle` that are *not* resident.
    pub fn missing_of(&self, bundle: &Bundle) -> Vec<FileId> {
        bundle.iter().filter(|&f| !self.contains(f)).collect()
    }

    /// Total bytes of `bundle`'s files that are not resident.
    pub fn missing_bytes(&self, bundle: &Bundle, catalog: &FileCatalog) -> Bytes {
        bundle
            .iter()
            .filter(|&f| !self.contains(f))
            .map(|f| catalog.size(f))
            .sum()
    }

    /// Inserts `file` (size taken from `catalog`).
    pub fn insert(&mut self, file: FileId, catalog: &FileCatalog) -> Result<()> {
        let size = catalog.try_size(file)?;
        if self.files.contains_key(&file) {
            return Err(FbcError::DuplicateFile(file));
        }
        if self.used + size > self.capacity {
            return Err(FbcError::CapacityExceeded {
                capacity: self.capacity,
                used: self.used,
                requested: size,
            });
        }
        self.files.insert(file, RefResident { size, pins: 0 });
        self.used += size;
        Ok(())
    }

    /// Evicts `file`, returning its size.
    pub fn evict(&mut self, file: FileId) -> Result<Bytes> {
        match self.files.get(&file) {
            None => Err(FbcError::NotResident(file)),
            Some(r) if r.pins > 0 => Err(FbcError::Pinned(file)),
            Some(r) => {
                let size = r.size;
                self.files.remove(&file);
                self.used -= size;
                Ok(size)
            }
        }
    }

    /// Pins `file`; pins are counted.
    pub fn pin(&mut self, file: FileId) -> Result<()> {
        match self.files.get_mut(&file) {
            None => Err(FbcError::NotResident(file)),
            Some(r) => {
                r.pins += 1;
                if r.pins == 1 {
                    self.pinned.insert(file);
                }
                Ok(())
            }
        }
    }

    /// Releases one pin on `file`.
    pub fn unpin(&mut self, file: FileId) -> Result<()> {
        match self.files.get_mut(&file) {
            None => Err(FbcError::NotResident(file)),
            Some(r) => {
                r.pins = r.pins.saturating_sub(1);
                if r.pins == 0 {
                    self.pinned.remove(&file);
                }
                Ok(())
            }
        }
    }

    /// Whether `file` is currently pinned.
    pub fn is_pinned(&self, file: FileId) -> bool {
        self.files.get(&file).is_some_and(|r| r.pins > 0)
    }

    /// Number of currently pinned files.
    pub fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Iterates over the pinned files in ascending id order.
    pub fn pinned_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.pinned.iter().copied()
    }

    /// Iterates over resident `(FileId, size)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.files.iter().map(|(&f, r)| (f, r.size))
    }

    /// All resident file ids (unspecified order).
    pub fn resident_files(&self) -> Vec<FileId> {
        self.files.keys().copied().collect()
    }

    /// Resident file ids sorted ascending.
    pub fn resident_files_sorted(&self) -> Vec<FileId> {
        let mut v = self.resident_files();
        v.sort_unstable();
        v
    }

    /// Empties the cache, keeping the capacity.
    pub fn clear(&mut self) {
        self.used = 0;
        self.files.clear();
        self.pinned.clear();
    }

    /// Debug invariant: recomputes `used` from scratch and compares.
    pub fn check_invariants(&self) -> bool {
        let sum: Bytes = self.files.values().map(|r| r.size).sum();
        let pins_tracked = self
            .pinned
            .iter()
            .all(|f| self.files.get(f).is_some_and(|r| r.pins > 0))
            && self.files.values().filter(|r| r.pins > 0).count() == self.pinned.len();
        sum == self.used && self.used <= self.capacity && pins_tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> FileCatalog {
        FileCatalog::from_sizes(vec![10, 20, 30, 40])
    }

    #[test]
    fn insert_and_evict_track_usage() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.insert(FileId(2), &c).unwrap();
        assert_eq!(cache.used(), 40);
        assert_eq!(cache.free(), 60);
        assert_eq!(cache.evict(FileId(0)).unwrap(), 10);
        assert_eq!(cache.used(), 30);
        assert!(cache.check_invariants());
    }

    #[test]
    fn capacity_is_enforced() {
        let c = catalog();
        let mut cache = CacheState::new(25);
        cache.insert(FileId(1), &c).unwrap(); // 20
        let err = cache.insert(FileId(0), &c).unwrap_err(); // 10 > 5 free
        assert!(matches!(err, FbcError::CapacityExceeded { .. }));
        assert_eq!(cache.used(), 20);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        assert_eq!(
            cache.insert(FileId(0), &c),
            Err(FbcError::DuplicateFile(FileId(0)))
        );
    }

    #[test]
    fn evict_nonresident_rejected() {
        let mut cache = CacheState::new(100);
        assert_eq!(
            cache.evict(FileId(0)),
            Err(FbcError::NotResident(FileId(0)))
        );
    }

    #[test]
    fn pinned_files_cannot_be_evicted() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(1), &c).unwrap();
        cache.pin(FileId(1)).unwrap();
        assert_eq!(cache.evict(FileId(1)), Err(FbcError::Pinned(FileId(1))));
        cache.unpin(FileId(1)).unwrap();
        assert!(cache.evict(FileId(1)).is_ok());
    }

    #[test]
    fn pins_are_counted() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.pin(FileId(0)).unwrap();
        cache.pin(FileId(0)).unwrap();
        cache.unpin(FileId(0)).unwrap();
        assert!(cache.is_pinned(FileId(0)));
        cache.unpin(FileId(0)).unwrap();
        assert!(!cache.is_pinned(FileId(0)));
    }

    #[test]
    fn contains_all_and_missing() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.insert(FileId(1), &c).unwrap();
        let bundle = Bundle::from_raw([0, 1, 2]);
        assert!(!cache.contains_all(&bundle));
        assert_eq!(cache.missing_of(&bundle), vec![FileId(2)]);
        assert_eq!(cache.missing_bytes(&bundle, &c), 30);
        cache.insert(FileId(2), &c).unwrap();
        assert!(cache.contains_all(&bundle));
        assert_eq!(cache.missing_bytes(&bundle, &c), 0);
    }

    #[test]
    fn unknown_file_insert_fails_cleanly() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        assert_eq!(
            cache.insert(FileId(99), &c),
            Err(FbcError::UnknownFile(FileId(99)))
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn resident_files_sorted_is_deterministic() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        for i in [2u32, 0, 3] {
            cache.insert(FileId(i), &c).unwrap();
        }
        assert_eq!(
            cache.resident_files_sorted(),
            vec![FileId(0), FileId(2), FileId(3)]
        );
    }

    #[test]
    fn with_catalog_is_behaviorally_identical() {
        let c = catalog();
        let mut a = CacheState::new(100);
        let mut b = CacheState::with_catalog(100, &c);
        for i in [2u32, 0, 3] {
            a.insert(FileId(i), &c).unwrap();
            b.insert(FileId(i), &c).unwrap();
        }
        assert_eq!(a.resident_files_sorted(), b.resident_files_sorted());
        assert_eq!(a.used(), b.used());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.pin(FileId(0)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used(), 0);
        assert_eq!(cache.pinned_len(), 0);
        assert!(!cache.is_pinned(FileId(0)));
        assert_eq!(cache.capacity(), 100);
        cache.insert(FileId(0), &c).unwrap();
        assert!(!cache.is_pinned(FileId(0)), "pins do not survive clear");
        assert!(cache.check_invariants());
    }

    #[test]
    fn unregistered_max_id_grows_nothing() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        let max = FileId(u32::MAX);
        assert_eq!(cache.insert(max, &c), Err(FbcError::UnknownFile(max)));
        assert!(cache.slots.is_empty(), "the slab stays empty");
        assert_eq!(cache.resident, DenseBitSet::new());
        assert!(!cache.contains(max) && !cache.is_pinned(max));
        assert_eq!(cache.pin(max), Err(FbcError::NotResident(max)));
        assert_eq!(cache.evict(max), Err(FbcError::NotResident(max)));
        assert!(cache.is_empty() && cache.check_invariants());
    }

    #[test]
    fn iter_is_ascending_over_dense_ids() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        for i in [3u32, 1, 0] {
            cache.insert(FileId(i), &c).unwrap();
        }
        let got: Vec<FileId> = cache.iter().map(|(f, _)| f).collect();
        assert_eq!(got, vec![FileId(0), FileId(1), FileId(3)]);
    }
}
