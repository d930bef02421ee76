//! Largest-file-first replacement: the victim is the biggest evictable
//! resident file. A classic web-caching heuristic (SIZE) that maximises the
//! *number* of objects kept — usually at the expense of the byte miss ratio,
//! which is exactly the trade-off the paper's metric punishes.
//!
//! Victim selection is indexed by a [`LazyHeap`] keyed on `Reverse(size)` —
//! sizes never change, so the index only tracks admissions and evictions.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use std::cmp::Reverse;

use crate::util::{Indexed, KeyedPolicy, LazyHeap};

/// SIZE's key: the file size, largest first. It keeps no metadata.
#[derive(Debug, Clone, Default)]
pub struct SizeKeys;

impl KeyedPolicy for SizeKeys {
    type Key = Reverse<Bytes>;
    type Index = LazyHeap<Reverse<Bytes>>;

    fn name(&self) -> &str {
        "SIZE"
    }

    fn victim_key(&self, _file: FileId, size: Bytes) -> Reverse<Bytes> {
        Reverse(size)
    }

    fn update(
        &mut self,
        _bundle: &Bundle,
        outcome: &RequestOutcome,
        _cache: &CacheState,
        _catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        touched.extend_from_slice(&outcome.fetched_files);
    }

    fn reset(&mut self) {}
}

/// Largest-first replacement policy.
pub type LargestFirst = Indexed<SizeKeys>;

impl LargestFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::cache::CacheState;
    use fbc_core::policy::CachePolicy;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn evicts_largest_file() {
        let catalog = FileCatalog::from_sizes(vec![5, 3, 4]);
        let mut cache = CacheState::new(8);
        let mut p = LargestFirst::new();
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.handle(&b(&[1]), &mut cache, &catalog);
        let out = p.handle(&b(&[2]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(0)]);
        assert!(cache.contains(FileId(1)));
    }

    #[test]
    fn reset_clears_the_index() {
        let catalog = FileCatalog::from_sizes(vec![5, 3]);
        let mut cache = CacheState::new(8);
        let mut p = LargestFirst::new();
        p.handle(&b(&[0]), &mut cache, &catalog);
        p.reset();
        assert_eq!(p.name(), "SIZE");
        // The index resyncs from the still-warm cache on the next eviction.
        p.handle(&b(&[1]), &mut cache, &catalog);
        let out = p.handle(&b(&[0]), &mut cache, &catalog);
        assert!(out.serviced);
    }
}
