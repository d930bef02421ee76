//! File-bundles: the unit of request in bundle-aware caching.
//!
//! A *file-bundle* is the set of files a job needs resident in the cache
//! simultaneously (paper §2, "One File-Bundle at a Time"). Two requests are
//! identical iff their bundles are identical, so the bundle doubles as the
//! hash key of the request history. Bundles are canonicalised (sorted,
//! deduplicated) at construction and stored in a shared `Arc<[FileId]>`, so
//! cloning a bundle — which happens on every history update — is a refcount
//! bump, not an allocation. A [`BundleInterner`] extends the sharing to a
//! whole trace: one allocation per distinct bundle, not per request.

use crate::catalog::FileCatalog;
use crate::types::{Bytes, FileId};
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A canonical, immutable set of files requested together.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bundle {
    files: Arc<[FileId]>,
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
        Self { files: v.into() }
    }

    /// Builds a bundle from raw `u32` ids (test/bench convenience).
    pub fn from_raw<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::new(ids.into_iter().map(FileId))
    }

    /// The canonical (sorted, unique) file list.
    #[inline]
    pub fn files(&self) -> &[FileId] {
        &self.files
    }

    /// Number of files in the bundle.
    #[inline]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the bundle is empty. Empty bundles are legal (a job with no
    /// file needs is trivially a hit) but never produced by the generators.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Whether `file` belongs to the bundle (binary search on the canonical
    /// order).
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        self.files.binary_search(&file).is_ok()
    }

    /// Total size of the bundle's files according to `catalog`.
    pub fn total_size(&self, catalog: &FileCatalog) -> Bytes {
        self.files.iter().map(|&f| catalog.size(f)).sum()
    }

    /// Iterates over the files of the bundle.
    pub fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.iter().copied()
    }

    /// Whether every file of `self` is contained in the set described by
    /// `contains` (typically a closure over a cache state).
    pub fn is_subset_of<F: Fn(FileId) -> bool>(&self, contains: F) -> bool {
        self.files.iter().all(|&f| contains(f))
    }

    /// Whether `self` and `other` share at least one file. Runs in
    /// `O(|self| + |other|)` via a merge scan over the canonical orders.
    pub fn intersects(&self, other: &Bundle) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.files.len() && j < other.files.len() {
            match self.files[i].cmp(&other.files[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// A bundle hashes and compares as its canonical file list, so a set of
/// bundles can be probed with a plain slice.
impl Borrow<[FileId]> for Bundle {
    fn borrow(&self) -> &[FileId] {
        &self.files
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
    /// (sort, dedup) and probes with it, so a repeated file set costs no
    /// allocation, only a refcount bump.
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
        ids.sort_unstable();
        ids.dedup();
        if let Some(bundle) = self.bundles.get(ids.as_slice()) {
            return bundle.clone();
        }
        let bundle = Bundle {
            files: ids.as_slice().into(),
        };
        self.bundles.insert(bundle.clone());
        bundle
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, file) in self.files.iter().enumerate() {
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
        self.files.serialize(serializer)
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
    fn clone_is_cheap_shared_storage() {
        let a = Bundle::from_raw([1, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.files().as_ptr(), b.files().as_ptr()));
    }
}
