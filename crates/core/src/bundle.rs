//! File-bundles: the unit of request in bundle-aware caching.
//!
//! A *file-bundle* is the set of files a job needs resident in the cache
//! simultaneously (paper §2, "One File-Bundle at a Time"). Two requests are
//! identical iff their bundles are identical, so the bundle doubles as the
//! hash key of the request history. Bundles are canonicalised (sorted,
//! deduplicated) at construction and held through a thin, 8-byte handle to
//! one refcounted allocation, so every request a trace or an arrival list
//! holds costs 8 bytes, and cloning a bundle is a refcount bump, not an
//! allocation. A bundle of up to seven files (the paper's hold 2–6) keeps
//! its ids inside that allocation, so reading them is one load past the
//! handle, as with a fat `Arc<[FileId]>`; a larger one keeps them in a boxed
//! slice behind it. A [`BundleInterner`] extends the sharing to a whole
//! trace: one bundle per distinct file set, not per request.

use crate::catalog::FileCatalog;
use crate::types::{Bytes, FileId};
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A canonical, immutable set of files requested together. It hashes,
/// compares and orders as its canonical file list.
#[derive(Clone)]
pub struct Bundle {
    files: Arc<Files>,
}

/// The most files a bundle keeps inline: seven fill the 32 bytes of
/// [`Files`], tag and length included.
const INLINE_FILES: usize = 7;

/// A bundle's canonical file list, inline when short.
enum Files {
    Inline {
        len: u8,
        ids: [FileId; INLINE_FILES],
    },
    Heap(Box<[FileId]>),
}

impl Files {
    fn new(files: &[FileId]) -> Self {
        if files.len() <= INLINE_FILES {
            let mut ids = [FileId(0); INLINE_FILES];
            ids[..files.len()].copy_from_slice(files);
            Files::Inline {
                len: files.len() as u8,
                ids,
            }
        } else {
            Files::Heap(files.into())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[FileId] {
        match self {
            Files::Inline { len, ids } => &ids[..usize::from(*len)],
            Files::Heap(ids) => ids,
        }
    }
}

impl Bundle {
    /// Builds a bundle from any collection of file ids, canonicalising by
    /// sorting and removing duplicates.
    ///
    /// ```
    /// use fbc_core::bundle::Bundle;
    /// use fbc_core::types::FileId;
    ///
    /// let b = Bundle::new([FileId(3), FileId(1), FileId(3), FileId(2)]);
    /// assert_eq!(b.len(), 3);
    /// assert_eq!(b.files(), &[FileId(1), FileId(2), FileId(3)]);
    /// ```
    pub fn new<I: IntoIterator<Item = FileId>>(files: I) -> Self {
        let mut v: Vec<FileId> = files.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self::from_canonical(&v)
    }

    /// The bundle of a slice that is already sorted and deduplicated.
    fn from_canonical(files: &[FileId]) -> Self {
        debug_assert!(files.windows(2).all(|w| w[0] < w[1]));
        Self {
            files: Arc::new(Files::new(files)),
        }
    }

    /// Builds a bundle from raw `u32` ids (test/bench convenience).
    pub fn from_raw<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::new(ids.into_iter().map(FileId))
    }

    /// The canonical (sorted, unique) file list.
    #[inline]
    pub fn files(&self) -> &[FileId] {
        self.files.as_slice()
    }

    /// Number of files in the bundle.
    #[inline]
    pub fn len(&self) -> usize {
        self.files().len()
    }

    /// Whether the bundle is empty. Empty bundles are legal (a job with no
    /// file needs is trivially a hit) but never produced by the generators.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.files().is_empty()
    }

    /// Whether `file` belongs to the bundle (binary search on the canonical
    /// order).
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        self.files().binary_search(&file).is_ok()
    }

    /// Total size of the bundle's files according to `catalog`.
    pub fn total_size(&self, catalog: &FileCatalog) -> Bytes {
        self.files().iter().map(|&f| catalog.size(f)).sum()
    }

    /// Iterates over the files of the bundle.
    pub fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files().iter().copied()
    }

    /// Whether every file of `self` is contained in the set described by
    /// `contains` (typically a closure over a cache state).
    pub fn is_subset_of<F: Fn(FileId) -> bool>(&self, contains: F) -> bool {
        self.files().iter().all(|&f| contains(f))
    }

    /// Whether `self` and `other` share at least one file. Runs in
    /// `O(|self| + |other|)` via a merge scan over the canonical orders.
    pub fn intersects(&self, other: &Bundle) -> bool {
        let (a, b) = (self.files(), other.files());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }
}

impl PartialEq for Bundle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.files, &other.files) || self.files() == other.files()
    }
}

impl Eq for Bundle {}

impl Hash for Bundle {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.files().hash(state);
    }
}

impl PartialOrd for Bundle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bundle {
    fn cmp(&self, other: &Self) -> Ordering {
        self.files().cmp(other.files())
    }
}

impl fmt::Debug for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bundle")
            .field("files", &self.files())
            .finish()
    }
}

/// A bundle hashes and compares as its canonical file list, so a set of
/// bundles can be probed with a plain slice.
impl Borrow<[FileId]> for Bundle {
    fn borrow(&self) -> &[FileId] {
        self.files()
    }
}

/// Hands out one shared [`Bundle`] per distinct file set: equal requests
/// share one allocation.
#[derive(Debug, Default)]
pub struct BundleInterner {
    bundles: FxHashSet<Bundle>,
}

impl BundleInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bundle of the files in `ids`. Canonicalises `ids` in place
    /// (sort, dedup; skipped when `ids` is already strictly ascending, as a
    /// written trace always is) and probes with it, so a repeated file set
    /// costs no allocation, only a refcount bump.
    ///
    /// ```
    /// use fbc_core::bundle::BundleInterner;
    /// use fbc_core::types::FileId;
    ///
    /// let mut interner = BundleInterner::new();
    /// let a = interner.intern(&mut vec![FileId(2), FileId(0), FileId(2)]);
    /// let b = interner.intern(&mut vec![FileId(0), FileId(2)]);
    /// assert_eq!(a, b);
    /// assert!(std::ptr::eq(a.files().as_ptr(), b.files().as_ptr()));
    /// ```
    pub fn intern(&mut self, ids: &mut Vec<FileId>) -> Bundle {
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            ids.sort_unstable();
            ids.dedup();
        }
        if let Some(bundle) = self.bundles.get(ids.as_slice()) {
            return bundle.clone();
        }
        let bundle = Bundle::from_canonical(ids);
        self.bundles.insert(bundle.clone());
        bundle
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, file) in self.files().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{file}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<FileId> for Bundle {
    fn from_iter<I: IntoIterator<Item = FileId>>(iter: I) -> Self {
        Bundle::new(iter)
    }
}

impl Serialize for Bundle {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        self.files().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Bundle {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let v = Vec::<FileId>::deserialize(deserializer)?;
        Ok(Bundle::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalisation_sorts_and_dedups() {
        let a = Bundle::from_raw([5, 1, 3, 1, 5]);
        let b = Bundle::from_raw([1, 3, 5]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn identical_bundles_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |b: &Bundle| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Bundle::from_raw([2, 1])), h(&Bundle::from_raw([1, 2])));
    }

    #[test]
    fn contains_uses_canonical_order() {
        let b = Bundle::from_raw([10, 2, 7]);
        assert!(b.contains(FileId(7)));
        assert!(!b.contains(FileId(3)));
    }

    #[test]
    fn total_size_sums_catalog_sizes() {
        let catalog = FileCatalog::from_sizes(vec![10, 20, 30]);
        let b = Bundle::from_raw([0, 2]);
        assert_eq!(b.total_size(&catalog), 40);
    }

    #[test]
    fn subset_and_intersection() {
        let b = Bundle::from_raw([1, 2, 3]);
        assert!(b.is_subset_of(|f| f.0 <= 3));
        assert!(!b.is_subset_of(|f| f.0 <= 2));
        assert!(b.intersects(&Bundle::from_raw([3, 9])));
        assert!(!b.intersects(&Bundle::from_raw([4, 9])));
        assert!(!b.intersects(&Bundle::new([])));
    }

    #[test]
    fn empty_bundle_is_subset_of_everything() {
        let e = Bundle::new([]);
        assert!(e.is_empty());
        assert!(e.is_subset_of(|_| false));
    }

    #[test]
    fn display_formats_as_set() {
        let b = Bundle::from_raw([2, 1]);
        assert_eq!(b.to_string(), "{f1,f2}");
    }

    #[test]
    fn bundle_is_a_thin_handle() {
        assert_eq!(std::mem::size_of::<Bundle>(), 8);
        assert_eq!(std::mem::size_of::<Option<Bundle>>(), 8);
        assert_eq!(std::mem::size_of::<Files>(), 32);
    }

    #[test]
    fn bundle_hashes_and_compares_as_its_file_slice() {
        use std::hash::BuildHasher;
        // The interner and the history probe look bundles up by slice, which
        // `Borrow` allows only if both hash and compare alike.
        let state = rustc_hash::FxBuildHasher::default();
        let b = Bundle::from_raw([9, 4, 4, 1]);
        let files: &[FileId] = &[FileId(1), FileId(4), FileId(9)];
        assert_eq!(state.hash_one(&b), state.hash_one(files));
        assert_eq!(Borrow::<[FileId]>::borrow(&b), files);
        let set: FxHashSet<Bundle> = [b.clone()].into_iter().collect();
        assert!(set.contains(files));
        assert!(!set.contains(&files[1..]));
    }

    #[test]
    fn interner_canonicalises_only_unsorted_ids() {
        let mut interner = BundleInterner::new();
        let mut sorted = vec![FileId(1), FileId(5), FileId(8)];
        let a = interner.intern(&mut sorted);
        assert_eq!(sorted, [FileId(1), FileId(5), FileId(8)]);
        for raw in [vec![8, 1, 5], vec![1, 5, 5, 8], vec![5, 8, 1, 8, 1]] {
            let mut ids: Vec<FileId> = raw.into_iter().map(FileId).collect();
            let b = interner.intern(&mut ids);
            assert_eq!(ids, [FileId(1), FileId(5), FileId(8)]);
            assert!(std::ptr::eq(a.files().as_ptr(), b.files().as_ptr()));
        }
        assert!(interner.intern(&mut Vec::new()).is_empty());
        assert_eq!(interner.intern(&mut vec![FileId(3)]).files(), &[FileId(3)]);
    }

    #[test]
    fn long_bundles_leave_the_inline_storage_alike() {
        // One file past the inline capacity moves the ids to the heap; the
        // bundle still hashes, compares, orders and prints as its files.
        use std::hash::BuildHasher;
        let state = rustc_hash::FxBuildHasher::default();
        let n = INLINE_FILES as u32;
        for len in [n, n + 1, 3 * n] {
            let b = Bundle::from_raw((0..len).rev());
            let files: Vec<FileId> = (0..len).map(FileId).collect();
            assert_eq!(b.files(), files.as_slice());
            assert_eq!(state.hash_one(&b), state.hash_one(files.as_slice()));
            assert_eq!(b, Bundle::from_raw(0..len));
            assert!(b < Bundle::from_raw([len]));
            assert!(Bundle::from_raw(0..len - 1) < b);
            assert!(b.contains(FileId(len - 1)) && !b.contains(FileId(len)));
        }
        assert_eq!(
            format!("{:?}", Bundle::from_raw([3, 1])),
            "Bundle { files: [FileId(1), FileId(3)] }"
        );
    }

    #[test]
    fn clone_is_cheap_shared_storage() {
        let a = Bundle::from_raw([1, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.files().as_ptr(), b.files().as_ptr()));
    }
}
