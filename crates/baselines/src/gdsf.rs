//! Greedy-Dual-Size-Frequency (GDSF) replacement, bundle-adapted.
//!
//! GDSF ranks each resident file by `H(f) = L + freq(f) · cost(f) / size(f)`
//! where `L` is an inflation value updated to the `H` of the last victim.
//! Here `cost(f) = size(f)` (cost proportional to bytes re-fetched, the
//! natural model for a data-grid), so `H(f) = L + freq(f)` — frequency with
//! aging. GDSF is the strongest of the classic web-caching heuristics and a
//! natural additional comparator beyond the paper's Landlord.
//!
//! Victim selection is indexed by a [`LazyHeap`] keyed on the stored H
//! values, which only change when a file is serviced (L is folded into H at
//! insertion time, exactly as the classic priority-queue formulation of the
//! GreedyDual family prescribes). The one subtlety is a resync against a
//! warm cache: residents with no stored H are keyed `L + freq` with the
//! *current* L, so while any such file remains resident its key floats
//! ([`KeyedPolicy::key_floats`]) and the index is re-keyed per eviction
//! round until every resident has a stored H again.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::RequestOutcome;
use fbc_core::types::{Bytes, FileId};
use rustc_hash::FxHashMap;

use crate::util::{Indexed, KeyedPolicy, LazyHeap, OrdF64};

/// GDSF's key and bookkeeping: frequencies, stored H values and the
/// inflation value `L`.
#[derive(Debug, Clone, Default)]
pub struct GdsfKeys {
    freq: FxHashMap<FileId, u64>,
    h: FxHashMap<FileId, f64>,
    /// Inflation value L.
    l: f64,
}

impl GdsfKeys {
    /// `L + freq` with the current `L`.
    fn h_value(&self, f: FileId) -> f64 {
        self.l + self.freq.get(&f).copied().unwrap_or(0) as f64
    }
}

impl KeyedPolicy for GdsfKeys {
    type Key = OrdF64;
    type Index = LazyHeap<OrdF64>;

    fn name(&self) -> &str {
        "GDSF"
    }

    /// The stored H, or — for a resident with none (after a reset against
    /// a warm cache) — H computed with the current `L`.
    fn victim_key(&self, file: FileId, _size: Bytes) -> OrdF64 {
        OrdF64(
            self.h
                .get(&file)
                .copied()
                .unwrap_or_else(|| self.h_value(file)),
        )
    }

    /// A resident with no stored H is keyed with the current `L`, which
    /// moves whenever a request evicts.
    fn key_floats(&self, file: FileId) -> bool {
        !self.h.contains_key(&file)
    }

    fn update(
        &mut self,
        bundle: &Bundle,
        outcome: &RequestOutcome,
        _cache: &CacheState,
        catalog: &FileCatalog,
        touched: &mut Vec<FileId>,
    ) {
        // L rises to the largest H evicted in this round. The victims' keys
        // are read before any metadata moves, so they are the keys the
        // victims were chosen by.
        if let Some(max_h) = outcome
            .evicted_files
            .iter()
            .map(|&f| self.victim_key(f, catalog.size(f)).0)
            .fold(None::<f64>, |acc, h| Some(acc.map_or(h, |a| a.max(h))))
        {
            self.l = self.l.max(max_h);
        }
        for f in &outcome.evicted_files {
            self.freq.remove(f);
            self.h.remove(f);
        }
        if outcome.serviced {
            for f in bundle.iter() {
                *self.freq.entry(f).or_insert(0) += 1;
                let h = self.h_value(f);
                self.h.insert(f, h);
                touched.push(f);
            }
        }
    }

    fn reset(&mut self) {
        self.freq.clear();
        self.h.clear();
        self.l = 0.0;
    }
}

/// The GDSF policy.
pub type Gdsf = Indexed<GdsfKeys>;

impl Gdsf {
    /// GDSF with size-proportional cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current inflation value `L` (diagnostics).
    pub fn inflation(&self) -> f64 {
        self.policy().l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::ScanOracle;
    use fbc_core::cache::CacheState;
    use fbc_core::policy::CachePolicy;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn evicts_lowest_h_value() {
        let catalog = FileCatalog::from_sizes(vec![1; 4]);
        let mut cache = CacheState::new(2);
        let mut g = Gdsf::new();
        g.handle(&b(&[0]), &mut cache, &catalog);
        g.handle(&b(&[0]), &mut cache, &catalog); // f0 freq 2
        g.handle(&b(&[1]), &mut cache, &catalog); // f1 freq 1
        let out = g.handle(&b(&[2]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(1)]);
    }

    #[test]
    fn inflation_rises_monotonically() {
        let catalog = FileCatalog::from_sizes(vec![1; 10]);
        let mut cache = CacheState::new(2);
        let mut g = Gdsf::new();
        let mut prev_l = 0.0;
        for i in 0..10u32 {
            g.handle(&b(&[i]), &mut cache, &catalog);
            assert!(g.inflation() >= prev_l);
            prev_l = g.inflation();
        }
        // After enough distinct insertions, evictions must have raised L.
        assert!(prev_l > 0.0);
    }

    #[test]
    fn aging_lets_new_files_displace_stale_popular_ones() {
        let catalog = FileCatalog::from_sizes(vec![1; 20]);
        let mut cache = CacheState::new(2);
        let mut g = Gdsf::new();
        // Make f0 very popular early.
        for _ in 0..5 {
            g.handle(&b(&[0]), &mut cache, &catalog);
        }
        // A long run of distinct files inflates L past f0's H.
        for i in 1..15u32 {
            g.handle(&b(&[i]), &mut cache, &catalog);
        }
        // f0 must eventually have been evicted despite its high frequency.
        assert!(!cache.contains(FileId(0)));
    }

    /// A reset against a warm cache leaves residents with no stored H; the
    /// index must keep matching the reference until that state heals.
    #[test]
    fn warm_reset_tracks_reference() {
        let catalog = FileCatalog::from_sizes(vec![1; 8]);
        let trace: Vec<Bundle> = (0..20u32).map(|i| b(&[i % 5, (i * 3) % 5])).collect();
        let mut fast = Gdsf::new();
        let mut slow = ScanOracle::new(Gdsf::new());
        let mut cache_fast = CacheState::new(3);
        let mut cache_slow = CacheState::new(3);
        for (i, r) in trace.iter().enumerate() {
            if i == 7 {
                fast.reset();
                slow.reset();
            }
            let a = fast.handle(r, &mut cache_fast, &catalog);
            let b = slow.handle(r, &mut cache_slow, &catalog);
            assert_eq!(a, b, "diverged at request {i}");
        }
    }
}
