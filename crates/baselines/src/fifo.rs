//! First-In-First-Out replacement, bundle-adapted: the victim is the file
//! that has been resident the longest, regardless of use.
//!
//! Victim selection is indexed by an [`OrderedList`] in admission order:
//! newly fetched files append at the back (in ascending-id order within a
//! request, matching the id tie-break) and hits never move anything, so the
//! front is always the minimum `(admission tick, FileId)`.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;

use crate::util::{Indexed, KeyedPolicy, OrderedList};

/// FIFO's key and bookkeeping: the admission tick per resident file.
#[derive(Debug, Clone, Default)]
pub struct FifoKeys {
    clock: u64,
    admitted_at: FxHashMap<FileId, u64>,
}

impl KeyedPolicy for FifoKeys {
    type Key = u64;
    /// Residents in admission order (front = oldest admission).
    type Index = OrderedList<u64>;

    fn name(&self) -> &str {
        "FIFO"
    }

    fn victim_key(&self, file: FileId, _size: Bytes) -> u64 {
        self.admitted_at.get(&file).copied().unwrap_or(0)
    }

    fn update(
        &mut self,
        _bundle: &Bundle,
        outcome: &RequestOutcome,
        _cache: &CacheState,
        _catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        self.clock += 1;
        for f in &outcome.evicted_files {
            self.admitted_at.remove(f);
        }
        // Only *newly fetched* files get an admission stamp; hits on
        // resident files do not renew their lease (that's what makes it
        // FIFO rather than LRU).
        for &f in &outcome.fetched_files {
            self.admitted_at.insert(f, self.clock);
            touched.push(f);
        }
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.admitted_at.clear();
    }
}

/// FIFO replacement policy.
pub type Fifo = Indexed<FifoKeys>;

impl Fifo {
    /// Creates an empty FIFO policy.
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
    fn evicts_oldest_admission() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut fifo = Fifo::new();
        fifo.handle(&b(&[0]), &mut cache, &catalog);
        fifo.handle(&b(&[1]), &mut cache, &catalog);
        fifo.handle(&b(&[0]), &mut cache, &catalog); // hit: no lease renewal
        let out = fifo.handle(&b(&[2]), &mut cache, &catalog);
        // f0 is oldest despite its recent hit.
        assert_eq!(out.evicted_files, vec![FileId(0)]);
    }

    #[test]
    fn refetched_file_gets_new_lease() {
        let catalog = FileCatalog::from_sizes(vec![1; 3]);
        let mut cache = CacheState::new(2);
        let mut fifo = Fifo::new();
        fifo.handle(&b(&[0]), &mut cache, &catalog);
        fifo.handle(&b(&[1]), &mut cache, &catalog);
        fifo.handle(&b(&[2]), &mut cache, &catalog); // evicts f0
        fifo.handle(&b(&[0]), &mut cache, &catalog); // evicts f1, readmits f0
        let out = fifo.handle(&b(&[1]), &mut cache, &catalog);
        // Oldest now is f2 (admitted at tick 3), not the readmitted f0.
        assert_eq!(out.evicted_files, vec![FileId(2)]);
        assert!(cache.contains(FileId(0)));
    }
}
