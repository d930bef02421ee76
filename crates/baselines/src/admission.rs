//! Admission control: a decorator that protects any replacement policy from
//! one-shot requests.
//!
//! The paper's companion work (Otoo, Rotem & Shoshani, "Impact of admission
//! and cache replacement policies on response times of jobs on data grids")
//! studies *admission* separately from *replacement*. This module provides
//! the classic second-hit admission gate, bundle-adapted: a request's files
//! are admitted into the managed cache only once the request has recurred
//! `min_occurrences` times; colder requests are serviced in **bypass** mode
//! — their missing files are streamed from mass storage straight to the
//! compute resource without entering the cache, so scans never pollute it.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{CachePolicy, OutcomeObsSlots, RequestOutcome};
use fbc_obs::Obs;
use std::collections::HashMap;

/// Second-hit (more generally, N-th-hit) admission gate around any policy.
#[derive(Debug, Clone)]
pub struct AdmissionGate<P> {
    inner: P,
    min_occurrences: u64,
    counts: HashMap<Bundle, u64>,
    /// Observability sink for bypassed (streamed) requests; admitted
    /// requests are recorded by the wrapped policy itself.
    obs: Obs,
    /// Memoized counter slots for the per-request obs flush.
    obs_slots: OutcomeObsSlots,
    name: String,
}

impl<P: CachePolicy> AdmissionGate<P> {
    /// Wraps `inner`; bundles are admitted from their
    /// `min_occurrences`-th occurrence onward (1 = admit always, i.e. a
    /// transparent wrapper).
    pub fn new(inner: P, min_occurrences: u64) -> Self {
        assert!(min_occurrences >= 1, "min_occurrences must be >= 1");
        let name = format!("{}+admit({min_occurrences})", inner.name());
        Self {
            inner,
            min_occurrences,
            counts: HashMap::new(),
            obs: Obs::disabled(),
            obs_slots: OutcomeObsSlots::default(),
            name,
        }
    }

    /// The classic second-hit gate.
    pub fn second_hit(inner: P) -> Self {
        Self::new(inner, 2)
    }

    /// Occurrence count of a bundle (diagnostics).
    pub fn occurrences(&self, bundle: &Bundle) -> u64 {
        self.counts.get(bundle).copied().unwrap_or(0)
    }

    /// Read access to the wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Bypass service: the job's missing files are *streamed* from mass
    /// storage to the compute resource without entering the cache — the
    /// bytes still count as miss traffic, but the cache is untouched.
    fn bypass(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let requested_bytes = bundle.total_size(catalog);
        let mut outcome = RequestOutcome {
            requested_bytes,
            serviced: true,
            ..RequestOutcome::default()
        };
        if cache.contains_all(bundle) {
            outcome.hit = true;
            return outcome;
        }
        let missing = cache.missing_of(bundle);
        for &f in &missing {
            outcome.fetched_bytes += catalog.size(f);
            outcome.fetched_files.push(f);
        }
        outcome.streamed = true;
        outcome
    }
}

impl<P: CachePolicy> CachePolicy for AdmissionGate<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        self.inner.prepare_from(trace);
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let count = {
            let c = self.counts.entry(bundle.clone()).or_insert(0);
            *c += 1;
            *c
        };
        if count >= self.min_occurrences {
            self.inner.handle(bundle, cache, catalog)
        } else {
            let outcome = self.bypass(bundle, cache, catalog);
            outcome.record_obs(&self.obs, &mut self.obs_slots);
            outcome
        }
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs.clone();
        self.inner.attach_obs(obs);
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;
    use fbc_core::types::FileId;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn first_occurrence_streams_and_leaves_cache_clean() {
        let catalog = FileCatalog::from_sizes(vec![1; 6]);
        let mut cache = CacheState::new(4);
        let mut gate = AdmissionGate::second_hit(Lru::new());
        let out = gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.serviced && !out.hit);
        assert!(out.streamed);
        assert_eq!(out.fetched_bytes, 2); // miss traffic still counted
        assert_eq!(out.evicted_bytes, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn second_occurrence_is_admitted() {
        let catalog = FileCatalog::from_sizes(vec![1; 6]);
        let mut cache = CacheState::new(4);
        let mut gate = AdmissionGate::second_hit(Lru::new());
        gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        let out = gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.serviced);
        assert!(cache.contains_all(&b(&[0, 1])));
        assert_eq!(gate.occurrences(&b(&[0, 1])), 2);
        // Third occurrence is now a hit.
        let out = gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.hit);
    }

    #[test]
    fn scan_does_not_pollute_hot_content() {
        let catalog = FileCatalog::from_sizes(vec![1; 30]);
        let mut cache = CacheState::new(2);
        let mut gate = AdmissionGate::second_hit(Lru::new());
        // Establish a hot pair.
        gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        gate.handle(&b(&[0, 1]), &mut cache, &catalog); // admitted
                                                        // A long one-shot scan.
        for i in 10..30u32 {
            gate.handle(&b(&[i]), &mut cache, &catalog);
        }
        // The hot pair survived the scan.
        assert!(cache.contains_all(&b(&[0, 1])));
        // Unwrapped LRU would have evicted it.
        let mut plain = Lru::new();
        let mut cache2 = CacheState::new(2);
        plain.handle(&b(&[0, 1]), &mut cache2, &catalog);
        plain.handle(&b(&[0, 1]), &mut cache2, &catalog);
        for i in 10..30u32 {
            plain.handle(&b(&[i]), &mut cache2, &catalog);
        }
        assert!(!cache2.contains_all(&b(&[0, 1])));
    }

    #[test]
    fn bypass_works_even_with_a_full_cache() {
        let catalog = FileCatalog::from_sizes(vec![2, 2, 2]);
        let mut cache = CacheState::new(4);
        let mut gate = AdmissionGate::second_hit(Lru::new());
        // Fill the cache through admission.
        gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        gate.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert_eq!(cache.free(), 0);
        // A one-shot request streams without evicting anything.
        let out = gate.handle(&b(&[2]), &mut cache, &catalog);
        assert!(out.serviced && out.streamed);
        assert!(!cache.contains(FileId(2)));
        assert!(cache.contains_all(&b(&[0, 1])));
    }

    #[test]
    fn min_occurrences_one_is_transparent() {
        let catalog = FileCatalog::from_sizes(vec![1; 8]);
        let trace: Vec<Bundle> = (0..30u32).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let run_gate = || {
            let mut cache = CacheState::new(4);
            let mut p = AdmissionGate::new(Lru::new(), 1);
            trace
                .iter()
                .map(|r| p.handle(r, &mut cache, &catalog).fetched_bytes)
                .collect::<Vec<_>>()
        };
        let run_plain = || {
            let mut cache = CacheState::new(4);
            let mut p = Lru::new();
            trace
                .iter()
                .map(|r| p.handle(r, &mut cache, &catalog).fetched_bytes)
                .collect::<Vec<_>>()
        };
        assert_eq!(run_gate(), run_plain());
    }

    #[test]
    fn reset_clears_counts_and_inner() {
        let catalog = FileCatalog::from_sizes(vec![1]);
        let mut cache = CacheState::new(1);
        let mut gate = AdmissionGate::second_hit(Lru::new());
        gate.handle(&b(&[0]), &mut cache, &catalog);
        gate.reset();
        assert_eq!(gate.occurrences(&b(&[0])), 0);
    }

    #[test]
    #[should_panic(expected = "min_occurrences")]
    fn zero_threshold_rejected() {
        let _ = AdmissionGate::new(Lru::new(), 0);
    }
}
