//! The file catalog: the authoritative registry of file sizes.
//!
//! In a data-grid the catalog corresponds to the metadata service that knows,
//! for every logical file name, how large the file is. Both the caching
//! algorithms (which reason about sizes) and the simulators (which account
//! for transfer volumes) consult it.
//!
//! There is one id space: a catalog of `n` files names them `FileId(0)`
//! through `FileId(n - 1)`, so every per-file table in the crate (the
//! cache's residency slab and bitsets, the history's file slab) is indexed
//! by the raw id. An id at or above `len()` is unknown:
//! [`FileCatalog::try_size`] reports it as [`FbcError::UnknownFile`], and
//! the cache asks it before any table grows. External id spaces are mapped
//! onto this one at the trace boundary.

use crate::error::{FbcError, Result};
use crate::types::{Bytes, FileId};
use serde::{Deserialize, Serialize};

/// Registry mapping [`FileId`]s to file sizes.
///
/// Ids are dense, assigned in registration order, so lookups are plain
/// vector indexing.
///
/// ```
/// use fbc_core::catalog::FileCatalog;
/// use fbc_core::types::MIB;
///
/// let mut catalog = FileCatalog::new();
/// let a = catalog.add_file(4 * MIB);
/// let b = catalog.add_file(16 * MIB);
/// assert_eq!(catalog.size(a), 4 * MIB);
/// assert_eq!(catalog.size(b), 16 * MIB);
/// assert_eq!(catalog.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileCatalog {
    sizes: Vec<Bytes>,
}

impl FileCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a catalog with pre-allocated capacity for `n` files.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            sizes: Vec::with_capacity(n),
        }
    }

    /// Builds a catalog directly from a list of sizes; `sizes[i]` becomes the
    /// size of `FileId(i)`.
    pub fn from_sizes(sizes: Vec<Bytes>) -> Self {
        Self { sizes }
    }

    /// Registers a new file of the given size and returns its id.
    pub fn add_file(&mut self, size: Bytes) -> FileId {
        let id = FileId(self.sizes.len() as u32);
        self.sizes.push(size);
        id
    }

    /// Size of `file` in bytes.
    ///
    /// # Panics
    /// Panics if the file is unknown; use [`FileCatalog::try_size`] for a
    /// fallible lookup.
    #[inline]
    pub fn size(&self, file: FileId) -> Bytes {
        match self.try_size(file) {
            Ok(s) => s,
            Err(_) => panic!("unknown file {file}"),
        }
    }

    /// Fallible size lookup.
    #[inline]
    pub fn try_size(&self, file: FileId) -> Result<Bytes> {
        match self.sizes.get(file.index()) {
            Some(&s) => Ok(s),
            None => Err(FbcError::UnknownFile(file)),
        }
    }

    /// Whether `file` is registered.
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        file.index() < self.sizes.len()
    }

    /// Number of registered files; every id below it is registered.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the catalog is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Total size of all registered files.
    pub fn total_bytes(&self) -> Bytes {
        self.sizes.iter().sum()
    }

    /// Sum of sizes over an iterator of file ids.
    pub fn total_size_of<I: IntoIterator<Item = FileId>>(&self, files: I) -> Bytes {
        files.into_iter().map(|f| self.size(f)).sum()
    }

    /// Iterates over `(FileId, size)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (FileId(i as u32), s))
    }

    /// All file ids in the catalog, ascending.
    pub fn ids(&self) -> impl Iterator<Item = FileId> + '_ {
        self.iter().map(|(f, _)| f)
    }

    /// Mean file size, or 0 for an empty catalog.
    pub fn mean_size(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MIB;

    #[test]
    fn ids_are_dense_and_sequential() {
        let mut c = FileCatalog::new();
        for i in 0..10 {
            let id = c.add_file((i + 1) * MIB);
            assert_eq!(id, FileId(i as u32));
        }
        assert_eq!(c.len(), 10);
        let collected: Vec<FileId> = c.ids().collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[9], FileId(9));
    }

    #[test]
    fn size_lookup() {
        let c = FileCatalog::from_sizes(vec![5, 10, 15]);
        assert_eq!(c.size(FileId(0)), 5);
        assert_eq!(c.size(FileId(2)), 15);
        assert_eq!(c.try_size(FileId(1)), Ok(10));
        assert_eq!(c.try_size(FileId(3)), Err(FbcError::UnknownFile(FileId(3))));
    }

    #[test]
    #[should_panic]
    fn size_panics_on_unknown() {
        let c = FileCatalog::new();
        let _ = c.size(FileId(0));
    }

    #[test]
    fn totals_and_means() {
        let c = FileCatalog::from_sizes(vec![2, 4, 6]);
        assert_eq!(c.total_bytes(), 12);
        assert!((c.mean_size() - 4.0).abs() < f64::EPSILON);
        assert_eq!(c.total_size_of([FileId(0), FileId(2)]), 8);
    }

    #[test]
    fn empty_catalog() {
        let c = FileCatalog::new();
        assert!(c.is_empty());
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.mean_size(), 0.0);
        assert!(!c.contains(FileId(0)));
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let c = FileCatalog::from_sizes(vec![1, 2]);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(FileId(0), 1), (FileId(1), 2)]);
    }
}
