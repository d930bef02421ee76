//! Word-packed bitsets over dense file-id universes.
//!
//! `FileId`s are indices into their catalog (see [`crate::catalog`]), so
//! residency — "is this file in the cache?" — is a membership test over a
//! bounded integer universe. A word-packed bitset answers it with one shift
//! and one mask instead of a hash probe; [`DenseBitSet`] is that kernel,
//! shared by [`crate::cache::CacheState`] (the cache's residency and pin
//! bits), the victim scan of [`crate::optfilebundle::OptFileBundle`] and
//! the reference decision path's residency mirror, so every layer keeps
//! the *same* representation. A set's words cover the largest index ever
//! inserted, which is below the catalog's length.

/// A growable, word-packed bitset over `u32` indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    ones: usize,
}

impl DenseBitSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized to hold indices `< nbits` without growing.
    pub fn with_capacity(nbits: usize) -> Self {
        Self {
            words: vec![0; nbits.div_ceil(64)],
            ones: 0,
        }
    }

    /// Whether `idx` is in the set. Out-of-range indices are absent, not
    /// an error — the set semantically extends with zeros.
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        self.words
            .get((idx >> 6) as usize)
            .is_some_and(|w| w >> (idx & 63) & 1 != 0)
    }

    /// Inserts `idx`, growing if needed; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, idx: u32) -> bool {
        let word = (idx >> 6) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (idx & 63);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.ones += newly as usize;
        newly
    }

    /// Removes `idx`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, idx: u32) -> bool {
        let Some(w) = self.words.get_mut((idx >> 6) as usize) else {
            return false;
        };
        let mask = 1u64 << (idx & 63);
        let was = *w & mask != 0;
        *w &= !mask;
        self.ones -= was as usize;
        was
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Clears every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Iterates the set indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some((wi as u32) << 6 | bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = DenseBitSet::new();
        assert!(!s.contains(100));
        assert!(s.insert(100));
        assert!(!s.insert(100), "double insert reports already-present");
        assert!(s.contains(100));
        assert_eq!(s.len(), 1);
        assert!(s.remove(100));
        assert!(!s.remove(100), "double remove reports already-absent");
        assert!(s.is_empty());
    }

    #[test]
    fn out_of_range_queries_are_absent() {
        let s = DenseBitSet::with_capacity(64);
        assert!(!s.contains(1_000_000));
        let mut s = DenseBitSet::new();
        assert!(!s.remove(9999));
        assert!(!s.contains(0));
    }

    #[test]
    fn word_boundaries() {
        let mut s = DenseBitSet::new();
        for idx in [0u32, 63, 64, 127, 128, 4095] {
            assert!(s.insert(idx));
        }
        assert_eq!(s.len(), 6);
        let ones: Vec<u32> = s.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 127, 128, 4095]);
    }

    #[test]
    fn iter_ones_is_ascending_and_complete() {
        let mut s = DenseBitSet::new();
        let mut expect = Vec::new();
        let mut state = 0x1234_5678u64;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = (state % 10_000) as u32;
            if s.insert(idx) {
                expect.push(idx);
            }
        }
        expect.sort_unstable();
        let got: Vec<u32> = s.iter_ones().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn clear_keeps_capacity_semantics() {
        let mut s = DenseBitSet::with_capacity(256);
        s.insert(200);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(200));
        assert!(s.insert(200));
    }
}
