//! `TimedPolicy`: times the `core.policy` and `core.cache` layers from
//! outside, by wrapping the policy the engine calls.
//!
//! Every `CachePolicy` method is forwarded unchanged, so a wrapped run must
//! return the same statistics as a plain one (the benchmark checks it).
//! Each decision is timed separately from one extra `contains_all` probe
//! of the same bundle, which times the cache's hit check without counting
//! it as policy time. The record goes to a shared sink when the wrapper
//! is dropped, which — with the construction instant — brackets the
//! wrapper's lifetime: one shard of the sharded service.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{CachePolicy, RequestOutcome, SendPolicy};
use fbc_obs::Obs;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where finished wrappers leave their records.
pub type Sink = Arc<Mutex<Vec<LayerRecord>>>;

/// What one wrapper saw over its lifetime.
#[derive(Debug, Clone)]
pub struct LayerRecord {
    pub created: Instant,
    pub dropped: Instant,
    /// Wall ns of every decision that was not a request hit, in call order.
    pub miss_ns: Vec<u64>,
    pub hit_ns: u64,
    pub hits: u64,
    /// Decisions: one per `handle` call plus one per bundle of a batch.
    pub calls: u64,
    pub serviced: u64,
    pub batch_calls: u64,
    pub batch_jobs: u64,
    pub evicted_files: u64,
    pub fetched_bytes: u64,
    pub probe_ns: u64,
    pub probes: u64,
}

impl LayerRecord {
    fn new(miss_capacity: usize) -> Self {
        let now = Instant::now();
        Self {
            created: now,
            dropped: now,
            miss_ns: Vec::with_capacity(miss_capacity),
            hit_ns: 0,
            hits: 0,
            calls: 0,
            serviced: 0,
            batch_calls: 0,
            batch_jobs: 0,
            evicted_files: 0,
            fetched_bytes: 0,
            probe_ns: 0,
            probes: 0,
        }
    }

    /// Wall ns spent inside the wrapped policy.
    pub fn policy_ns(&self) -> u64 {
        self.hit_ns + self.miss_ns.iter().sum::<u64>()
    }

    fn decision(&mut self, outcome: &RequestOutcome, ns: u64) {
        self.calls += 1;
        self.serviced += u64::from(outcome.serviced);
        self.evicted_files += outcome.evicted_files.len() as u64;
        self.fetched_bytes += outcome.fetched_bytes;
        if outcome.hit {
            self.hits += 1;
            self.hit_ns += ns;
        } else {
            self.miss_ns.push(ns);
        }
    }
}

/// A `CachePolicy` that forwards to `inner` and times each call.
pub struct TimedPolicy {
    inner: SendPolicy,
    record: LayerRecord,
    sink: Sink,
}

impl TimedPolicy {
    /// Wraps `inner`; `miss_capacity` preallocates the per-miss buffer so
    /// recording never reallocates inside a timed run.
    pub fn new(inner: SendPolicy, sink: Sink, miss_capacity: usize) -> Self {
        Self {
            inner,
            record: LayerRecord::new(miss_capacity),
            sink,
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl CachePolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let t0 = Instant::now();
        black_box(cache.contains_all(black_box(bundle)));
        let t1 = Instant::now();
        let outcome = self.inner.handle(bundle, cache, catalog);
        let t2 = Instant::now();
        self.record.probes += 1;
        self.record.probe_ns += ns_between(t0, t1);
        self.record.decision(&outcome, ns_between(t1, t2));
        outcome
    }

    fn handle_batch(
        &mut self,
        bundles: &[&Bundle],
        cache: &mut CacheState,
        catalog: &FileCatalog,
        out: &mut Vec<RequestOutcome>,
    ) {
        let t0 = Instant::now();
        for bundle in bundles {
            black_box(cache.contains_all(black_box(bundle)));
        }
        let t1 = Instant::now();
        let first = out.len();
        self.inner.handle_batch(bundles, cache, catalog, out);
        let t2 = Instant::now();
        self.record.probes += bundles.len() as u64;
        self.record.probe_ns += ns_between(t0, t1);
        self.record.batch_calls += 1;
        self.record.batch_jobs += bundles.len() as u64;
        // The batch is timed as a whole; each outcome gets an equal share.
        let outcomes = &out[first..];
        let total = ns_between(t1, t2);
        let n = outcomes.len().max(1) as u64;
        for (i, outcome) in outcomes.iter().enumerate() {
            let share = total / n + u64::from((i as u64) < total % n);
            self.record.decision(outcome, share);
        }
    }

    fn prepare(&mut self, trace: &[Bundle]) {
        self.inner.prepare(trace)
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        self.inner.prepare_from(trace)
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs)
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let empty = LayerRecord::new(0);
        let mut record = std::mem::replace(&mut self.record, empty);
        record.dropped = Instant::now();
        // A poisoned sink only loses this record; the benchmark then fails
        // its record-count check instead of panicking inside `drop`.
        if let Ok(mut records) = self.sink.lock() {
            records.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::optfilebundle::OptFileBundle;

    #[test]
    fn wrapper_forwards_and_counts_every_decision() {
        let catalog = FileCatalog::from_sizes(vec![10; 6]);
        let bundles = [
            Bundle::from_raw([0, 1]),
            Bundle::from_raw([0, 1]),
            Bundle::from_raw([2, 3]),
            Bundle::from_raw([4, 5]),
            Bundle::from_raw([0, 1]),
        ];
        let mut plain = OptFileBundle::new();
        let mut plain_cache = CacheState::new(40);
        let expected: Vec<RequestOutcome> = bundles
            .iter()
            .map(|b| plain.handle(b, &mut plain_cache, &catalog))
            .collect();

        let sink = Sink::default();
        let mut timed = TimedPolicy::new(Box::new(OptFileBundle::new()), sink.clone(), 8);
        let mut cache = CacheState::new(40);
        let mut got: Vec<RequestOutcome> = bundles[..3]
            .iter()
            .map(|b| timed.handle(b, &mut cache, &catalog))
            .collect();
        let rest: Vec<&Bundle> = bundles[3..].iter().collect();
        timed.handle_batch(&rest, &mut cache, &catalog, &mut got);
        drop(timed);

        assert_eq!(got, expected);
        let records = sink.lock().unwrap();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.calls, 5);
        assert_eq!(r.probes, 5);
        assert_eq!((r.batch_calls, r.batch_jobs), (1, 2));
        let misses = expected.iter().filter(|o| !o.hit).count();
        assert_eq!(r.miss_ns.len(), misses);
        assert_eq!(r.hits as usize, 5 - misses);
        assert!(r.dropped >= r.created);
    }
}
