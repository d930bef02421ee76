//! The uniform interface every bundle-aware replacement policy implements,
//! plus shared servicing helpers.
//!
//! A policy is driven one request at a time: the simulator hands it the
//! arriving bundle, the cache and the catalog; the policy decides what to
//! evict, fetches the missing files, and reports an accounting
//! [`RequestOutcome`] from which all metrics (byte miss ratio, request-hit
//! ratio, volume moved per request) are derived.

use crate::bundle::Bundle;
use crate::cache::CacheState;
use crate::catalog::FileCatalog;
use crate::types::{Bytes, FileId};
use fbc_obs::{CounterSlot, Field, Obs};

/// Accounting record for one serviced request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestOutcome {
    /// Whether every file was already resident (a *request-hit*, paper §3).
    pub hit: bool,
    /// Whether the request could be serviced at all. False only when the
    /// bundle is larger than the entire cache.
    pub serviced: bool,
    /// Total size of the files the request asked for.
    pub requested_bytes: Bytes,
    /// Bytes fetched from mass storage to service this request (its cache
    /// misses, plus any prefetching the policy chose to do).
    pub fetched_bytes: Bytes,
    /// Files fetched.
    pub fetched_files: Vec<FileId>,
    /// Bytes evicted to make room.
    pub evicted_bytes: Bytes,
    /// Files evicted.
    pub evicted_files: Vec<FileId>,
    /// Whether the missing data was *streamed* to the job without being
    /// admitted into the cache (admission-control bypass). When set, the
    /// bundle need not be resident after service; `fetched_bytes` still
    /// counts the mass-storage traffic.
    pub streamed: bool,
}

/// Memoized [`CounterSlot`]s for the fixed `policy.*` counter roster
/// [`RequestOutcome::record_obs`] flushes. Each policy holds one (a plain
/// [`Default`] field next to its `Obs` handle) so the steady-state flush
/// bumps counters without hashing their names; the slots re-resolve
/// automatically — via the registry epoch check — after `Obs::clear` or
/// when a different sink is attached.
#[derive(Debug, Clone, Default)]
pub struct OutcomeObsSlots {
    requests: CounterSlot,
    requested_bytes: CounterSlot,
    hits: CounterSlot,
    unserviced: CounterSlot,
    fetched_files: CounterSlot,
    fetched_bytes: CounterSlot,
    evicted_files: CounterSlot,
    evicted_bytes: CounterSlot,
}

impl RequestOutcome {
    /// Folds this outcome into a policy's observability registry: the
    /// `policy.*` counters shared by every implementation, plus `admit`
    /// and `evict` events when files actually moved. One branch and
    /// nothing else when `obs` is disabled — policies call this
    /// unconditionally at the end of `handle`.
    ///
    /// The whole flush — up to six counters and two events — runs inside
    /// one [`Obs::batch`] session, so an attached sink costs one lock
    /// acquisition per request instead of one per recording, and every
    /// counter bumps through the caller's [`OutcomeObsSlots`] memo
    /// instead of a string-keyed map probe. Recording order is unchanged,
    /// keeping JSONL traces and registry dumps byte-identical to the
    /// per-call flush this replaces.
    pub fn record_obs(&self, obs: &Obs, slots: &mut OutcomeObsSlots) {
        obs.batch(|b| {
            b.incr_cached(&mut slots.requests, "policy.requests");
            b.add_cached(
                &mut slots.requested_bytes,
                "policy.requested_bytes",
                self.requested_bytes,
            );
            if self.hit {
                b.incr_cached(&mut slots.hits, "policy.hits");
            }
            if !self.serviced {
                b.incr_cached(&mut slots.unserviced, "policy.unserviced");
            }
            if !self.fetched_files.is_empty() {
                b.add_cached(
                    &mut slots.fetched_files,
                    "policy.fetched_files",
                    self.fetched_files.len() as u64,
                );
                b.add_cached(
                    &mut slots.fetched_bytes,
                    "policy.fetched_bytes",
                    self.fetched_bytes,
                );
                b.event(
                    "admit",
                    &[
                        ("files", Field::u(self.fetched_files.len() as u64)),
                        ("bytes", Field::u(self.fetched_bytes)),
                        ("streamed", Field::b(self.streamed)),
                    ],
                );
            }
            if !self.evicted_files.is_empty() {
                b.add_cached(
                    &mut slots.evicted_files,
                    "policy.evicted_files",
                    self.evicted_files.len() as u64,
                );
                b.add_cached(
                    &mut slots.evicted_bytes,
                    "policy.evicted_bytes",
                    self.evicted_bytes,
                );
                b.event(
                    "evict",
                    &[
                        ("files", Field::u(self.evicted_files.len() as u64)),
                        ("bytes", Field::u(self.evicted_bytes)),
                    ],
                );
            }
        });
    }
}

/// A cache replacement policy driven by file-bundle requests.
pub trait CachePolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Services one request against the cache: makes room, fetches missing
    /// files, updates internal bookkeeping, and returns the accounting.
    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome;

    /// Services a run of queued arrivals in order, appending one outcome
    /// per bundle to `out`.
    ///
    /// Semantics are *defined* as sequential: the result must be
    /// bit-identical to calling [`handle`](CachePolicy::handle) once per
    /// bundle — each arrival sees the cache state its predecessor left.
    /// The default does exactly that. Policies override it to amortise
    /// per-call overhead (dispatch, observability checks, scratch warm-up)
    /// across the run, never to change outcomes; a driver with a backlog
    /// may call this instead of looping `handle` itself.
    fn handle_batch(
        &mut self,
        bundles: &[&Bundle],
        cache: &mut CacheState,
        catalog: &FileCatalog,
        out: &mut Vec<RequestOutcome>,
    ) {
        out.reserve(bundles.len());
        for bundle in bundles {
            out.push(self.handle(bundle, cache, catalog));
        }
    }

    /// Offline hook: policies that need future knowledge (e.g. Belady MIN)
    /// receive the full trace before the run starts. Online policies ignore
    /// it.
    ///
    /// The default forwards to [`prepare_from`](CachePolicy::prepare_from);
    /// policies wanting the offline hook should override `prepare_from`
    /// (which both entry points funnel through) rather than this method.
    fn prepare(&mut self, trace: &[Bundle]) {
        self.prepare_from(&mut trace.iter());
    }

    /// Borrowing variant of [`prepare`](CachePolicy::prepare): receives the
    /// trace as an iterator of borrowed bundles, so drivers holding requests
    /// inside larger records (e.g. the grid engines' arrival lists) need not
    /// materialise a cloned `Vec<Bundle>` for online policies that ignore
    /// the hook. Default: no-op.
    fn prepare_from(&mut self, _trace: &mut dyn Iterator<Item = &Bundle>) {}

    /// Observability hook: hands the policy a shared [`Obs`] handle to
    /// record its admit/evict accounting (and any policy-specific
    /// signals) into. The default keeps the policy unobserved; drivers
    /// call this once before a run when tracing is on. Attaching a
    /// disabled handle is equivalent to never attaching.
    fn attach_obs(&mut self, _obs: Obs) {}

    /// Clears internal state so the policy can be reused for another run.
    fn reset(&mut self);
}

impl<P: CachePolicy + ?Sized> CachePolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        (**self).handle(bundle, cache, catalog)
    }

    fn handle_batch(
        &mut self,
        bundles: &[&Bundle],
        cache: &mut CacheState,
        catalog: &FileCatalog,
        out: &mut Vec<RequestOutcome>,
    ) {
        (**self).handle_batch(bundles, cache, catalog, out)
    }

    fn prepare(&mut self, trace: &[Bundle]) {
        (**self).prepare(trace)
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        (**self).prepare_from(trace)
    }

    fn attach_obs(&mut self, obs: Obs) {
        (**self).attach_obs(obs)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// A boxed policy that can be moved across threads — what a sharded
/// driver hands each worker.
pub type SendPolicy = Box<dyn CachePolicy + Send>;

/// Builds fresh policy instances on demand, from any thread.
///
/// Concurrent drivers (one policy per shard, constructed inside worker
/// threads) can't share a `&mut dyn CachePolicy`; they take a factory and
/// build per-shard instances instead. Any `Fn() -> SendPolicy` closure
/// that is itself `Send + Sync` qualifies via the blanket impl — e.g.
/// `|| -> SendPolicy { Box::new(Lru::new()) }` or a `PolicyKind`-driven
/// constructor.
pub trait PolicyFactory: Send + Sync {
    /// Constructs a fresh, unprepared policy instance.
    fn build_policy(&self) -> SendPolicy;
}

impl<F: Fn() -> SendPolicy + Send + Sync> PolicyFactory for F {
    fn build_policy(&self) -> SendPolicy {
        self()
    }
}

/// Services `bundle` using a caller-supplied victim chooser, centralising
/// the hit/fetch/evict accounting shared by most baseline policies.
///
/// `choose_victim` is called while more space is needed; it must return a
/// resident, unpinned file that is *not* part of `bundle`, or `None` when it
/// has no candidate left (in which case the request goes unserviced — with
/// well-formed policies this only happens when pins block eviction).
pub fn service_with_evictor<F>(
    bundle: &Bundle,
    cache: &mut CacheState,
    catalog: &FileCatalog,
    mut choose_victim: F,
) -> RequestOutcome
where
    F: FnMut(&CacheState) -> Option<FileId>,
{
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
    if requested_bytes > cache.capacity() {
        outcome.serviced = false;
        return outcome;
    }

    // One pass over the bundle collects the missing files and their total
    // size together (a second residency sweep would double the bit tests).
    let mut missing = Vec::new();
    let mut missing_bytes: Bytes = 0;
    for f in bundle.iter() {
        if !cache.contains(f) {
            missing_bytes += catalog.size(f);
            missing.push(f);
        }
    }

    while cache.free() < missing_bytes {
        match choose_victim(cache) {
            Some(victim) => {
                debug_assert!(
                    !bundle.contains(victim),
                    "policy tried to evict a file of the request being serviced"
                );
                match cache.evict(victim) {
                    Ok(size) => {
                        outcome.evicted_bytes += size;
                        outcome.evicted_files.push(victim);
                    }
                    Err(_) => {
                        // Pinned or raced; the chooser must move on, but a
                        // chooser that repeats a bad victim would loop — bail.
                        outcome.serviced = false;
                        return outcome;
                    }
                }
            }
            None => {
                outcome.serviced = false;
                return outcome;
            }
        }
    }

    for f in missing {
        cache
            .insert(f, catalog)
            .expect("space was reserved by the eviction loop");
        outcome.fetched_bytes += catalog.size(f);
        outcome.fetched_files.push(f);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FileCatalog, CacheState) {
        let catalog = FileCatalog::from_sizes(vec![10, 20, 30, 40]);
        let cache = CacheState::new(60);
        (catalog, cache)
    }

    #[test]
    fn hit_requires_no_work() {
        let (catalog, mut cache) = setup();
        cache.insert(FileId(0), &catalog).unwrap();
        cache.insert(FileId(1), &catalog).unwrap();
        let out = service_with_evictor(&Bundle::from_raw([0, 1]), &mut cache, &catalog, |_| None);
        assert!(out.hit && out.serviced);
        assert_eq!(out.fetched_bytes, 0);
        assert_eq!(out.evicted_bytes, 0);
        assert_eq!(out.requested_bytes, 30);
    }

    #[test]
    fn cold_fetch_without_eviction() {
        let (catalog, mut cache) = setup();
        let out = service_with_evictor(&Bundle::from_raw([0, 2]), &mut cache, &catalog, |_| None);
        assert!(!out.hit && out.serviced);
        assert_eq!(out.fetched_bytes, 40);
        assert_eq!(out.fetched_files.len(), 2);
        assert!(cache.contains_all(&Bundle::from_raw([0, 2])));
    }

    #[test]
    fn eviction_makes_room() {
        let (catalog, mut cache) = setup();
        cache.insert(FileId(3), &catalog).unwrap(); // 40 bytes
                                                    // Request {1,2} needs 50; free = 20, must evict f3.
        let out = service_with_evictor(&Bundle::from_raw([1, 2]), &mut cache, &catalog, |c| {
            c.resident_files_sorted()
                .into_iter()
                .find(|&f| !Bundle::from_raw([1, 2]).contains(f))
        });
        assert!(out.serviced && !out.hit);
        assert_eq!(out.evicted_files, vec![FileId(3)]);
        assert_eq!(out.fetched_bytes, 50);
        assert!(cache.check_invariants());
    }

    #[test]
    fn oversized_bundle_goes_unserviced() {
        let (catalog, mut cache) = setup();
        // f2 + f3 = 70 > capacity 60.
        let out = service_with_evictor(&Bundle::from_raw([2, 3]), &mut cache, &catalog, |_| None);
        assert!(!out.serviced);
        assert_eq!(out.fetched_bytes, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn chooser_exhaustion_reports_unserviced() {
        let (catalog, mut cache) = setup();
        cache.insert(FileId(3), &catalog).unwrap();
        cache.pin(FileId(3)).unwrap();
        // Needs eviction but the chooser has nothing evictable.
        let out = service_with_evictor(&Bundle::from_raw([1, 2]), &mut cache, &catalog, |_| None);
        assert!(!out.serviced);
        assert_eq!(out.evicted_bytes, 0);
    }

    #[test]
    fn partial_residency_fetches_only_missing() {
        let (catalog, mut cache) = setup();
        cache.insert(FileId(1), &catalog).unwrap();
        let out = service_with_evictor(&Bundle::from_raw([0, 1]), &mut cache, &catalog, |_| None);
        assert!(out.serviced && !out.hit);
        assert_eq!(out.fetched_files, vec![FileId(0)]);
        assert_eq!(out.fetched_bytes, 10);
    }
}
