//! Inverted file→request index over a
//! [`RequestHistory`](crate::history::RequestHistory).
//!
//! `OptFileBundle` with cache-supported truncation must find, on every
//! replacement, the historical requests whose files are all in
//! `F(C) ∪ F(r_new)`. Scanning the whole history is `O(|R| · b)`; with an
//! inverted index the scan touches only requests that intersect the cache:
//! for each cached file, the index lists the bundles using it, and a bundle
//! is a candidate when its *resident-file counter* equals its size.
//!
//! The index is maintained incrementally alongside the history and the
//! cache (`on_record` / `on_insert` / `on_evict`); `candidates()` is then
//! `O(Σ_{f resident} |bundles(f)|)` amortised — in the common regime where
//! the cache holds a small fraction of all files this is far below a full
//! scan.
//!
//! Only the reference (rebuild) decision path of `OptFileBundle` builds
//! the index, so the module compiles only under `cfg(test)` or the
//! `reference-kernels` feature.

use crate::bitset::DenseBitSet;
use crate::bundle::Bundle;
use crate::types::FileId;
use rustc_hash::FxHashMap;

/// Incrementally maintained "which bundles are fully resident" index.
#[derive(Debug, Clone, Default)]
pub struct SupportIndex {
    /// file → indices of bundles containing it. FxHash throughout: keys
    /// are small fixed-width ids on the decision hot path, and no map's
    /// iteration order is ever observed (results follow `bundles`'
    /// registration order).
    by_file: FxHashMap<FileId, Vec<u32>>,
    /// All tracked bundles.
    bundles: Vec<Bundle>,
    /// Bundle → its index in `bundles`.
    ids: FxHashMap<Bundle, u32>,
    /// Per-bundle count of currently resident files.
    resident_count: Vec<u32>,
    /// Mirror of the cache's resident set, in the same word-packed
    /// representation [`crate::cache::CacheState`] uses — membership here
    /// is the same one-load bit test as the cache's own `contains`.
    resident: DenseBitSet,
}

impl SupportIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// Whether no bundle is tracked.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// Registers a (possibly already known) bundle; call when the history
    /// records a request.
    pub fn on_record(&mut self, bundle: &Bundle) {
        if self.ids.contains_key(bundle) {
            return;
        }
        let id = self.bundles.len() as u32;
        self.ids.insert(bundle.clone(), id);
        self.bundles.push(bundle.clone());
        let mut count = 0;
        for f in bundle.iter() {
            self.by_file.entry(f).or_default().push(id);
            if self.resident.contains(f.0) {
                count += 1;
            }
        }
        self.resident_count.push(count);
    }

    /// Notifies the index that `file` became resident.
    pub fn on_insert(&mut self, file: FileId) {
        if self.resident.insert(file.0) {
            if let Some(bundles) = self.by_file.get(&file) {
                for &b in bundles {
                    self.resident_count[b as usize] += 1;
                }
            }
        }
    }

    /// Notifies the index that `file` was evicted.
    pub fn on_evict(&mut self, file: FileId) {
        if self.resident.remove(file.0) {
            if let Some(bundles) = self.by_file.get(&file) {
                for &b in bundles {
                    self.resident_count[b as usize] -= 1;
                }
            }
        }
    }

    /// Whether the index believes `file` is resident.
    pub fn is_resident(&self, file: FileId) -> bool {
        self.resident.contains(file.0)
    }

    /// The bundle registered under dense id `id` (as returned by
    /// [`SupportIndex::supported_with`]).
    #[inline]
    pub fn bundle(&self, id: u32) -> &Bundle {
        &self.bundles[id as usize]
    }

    /// Dense ids of the bundles that are fully supported by the resident
    /// set *plus* the files of `extra` (the arriving request, whose space
    /// is reserved). Results are in registration order; resolve ids with
    /// [`SupportIndex::bundle`]. Returning ids instead of `&Bundle`s lets
    /// callers key follow-up work off a `u32` rather than re-hashing whole
    /// bundles.
    pub fn supported_with(&self, extra: &Bundle) -> Vec<u32> {
        let mut out = Vec::new();
        // Count additional support each bundle gains from `extra`'s
        // non-resident files.
        let mut bonus: FxHashMap<u32, u32> = FxHashMap::default();
        for f in extra.iter() {
            if !self.resident.contains(f.0) {
                if let Some(bundles) = self.by_file.get(&f) {
                    for &b in bundles {
                        *bonus.entry(b).or_insert(0) += 1;
                    }
                }
            }
        }
        for (i, bundle) in self.bundles.iter().enumerate() {
            let have = self.resident_count[i] + bonus.get(&(i as u32)).copied().unwrap_or(0);
            if have as usize == bundle.len() {
                out.push(i as u32);
            }
        }
        out
    }

    /// Bundles fully supported by the resident set alone.
    pub fn supported(&self) -> Vec<&Bundle> {
        self.supported_with(&Bundle::new([]))
            .into_iter()
            .map(|id| self.bundle(id))
            .collect()
    }

    /// Exhaustive consistency check against a membership oracle (tests).
    pub fn check_consistency<F: Fn(FileId) -> bool>(&self, resident: F) -> bool {
        self.bundles.iter().enumerate().all(|(i, b)| {
            let expected = b.iter().filter(|&f| resident(f)).count() as u32;
            self.resident_count[i] == expected
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn tracks_residency_incrementally() {
        let mut idx = SupportIndex::new();
        idx.on_record(&b(&[0, 1]));
        idx.on_record(&b(&[1, 2]));
        assert!(idx.supported().is_empty());

        idx.on_insert(FileId(0));
        idx.on_insert(FileId(1));
        let s: Vec<_> = idx.supported().into_iter().cloned().collect();
        assert_eq!(s, vec![b(&[0, 1])]);

        idx.on_insert(FileId(2));
        assert_eq!(idx.supported().len(), 2);

        idx.on_evict(FileId(1));
        assert!(idx.supported().is_empty());
    }

    #[test]
    fn duplicate_records_and_events_are_idempotent() {
        let mut idx = SupportIndex::new();
        idx.on_record(&b(&[0]));
        idx.on_record(&b(&[0]));
        assert_eq!(idx.len(), 1);
        idx.on_insert(FileId(0));
        idx.on_insert(FileId(0)); // double insert: no double count
        assert_eq!(idx.supported().len(), 1);
        idx.on_evict(FileId(0));
        idx.on_evict(FileId(0)); // double evict: no underflow
        assert!(idx.supported().is_empty());
    }

    #[test]
    fn late_registration_counts_existing_residents() {
        let mut idx = SupportIndex::new();
        idx.on_insert(FileId(3));
        idx.on_insert(FileId(4));
        idx.on_record(&b(&[3, 4])); // registered after its files arrived
        assert_eq!(idx.supported().len(), 1);
    }

    #[test]
    fn supported_with_extends_by_incoming_bundle() {
        let mut idx = SupportIndex::new();
        idx.on_record(&b(&[0, 1]));
        idx.on_record(&b(&[1, 2]));
        idx.on_insert(FileId(1));
        // Neither bundle is supported by {1} alone...
        assert!(idx.supported().is_empty());
        // ...but with the arriving request {0} the first one is.
        let s = idx.supported_with(&b(&[0]));
        assert_eq!(s.len(), 1);
        assert_eq!(*idx.bundle(s[0]), b(&[0, 1]));
    }

    #[test]
    fn extra_files_already_resident_do_not_double_count() {
        let mut idx = SupportIndex::new();
        idx.on_record(&b(&[0, 1]));
        idx.on_insert(FileId(0));
        idx.on_insert(FileId(1));
        // `extra` overlapping the resident set must not over-count.
        let s = idx.supported_with(&b(&[0, 1]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn consistency_check_matches_oracle() {
        let mut idx = SupportIndex::new();
        let mut resident = std::collections::HashSet::new();
        let mut state = 0xFACEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            match next() % 3 {
                0 => {
                    let k = (next() % 3 + 1) as usize;
                    let files: Vec<u32> = (0..k).map(|_| (next() % 12) as u32).collect();
                    idx.on_record(&Bundle::from_raw(files));
                }
                1 => {
                    let f = FileId((next() % 12) as u32);
                    resident.insert(f);
                    idx.on_insert(f);
                }
                _ => {
                    let f = FileId((next() % 12) as u32);
                    resident.remove(&f);
                    idx.on_evict(f);
                }
            }
            assert!(idx.check_consistency(|f| resident.contains(&f)));
        }
    }
}
