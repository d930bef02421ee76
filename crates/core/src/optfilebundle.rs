//! `OptFileBundle` — the paper's cache replacement policy (§3, Algorithm 2).
//!
//! On each arriving request the policy (1) reserves space for the request's
//! files, (2) runs [`OptCacheSelect`](crate::select::opt_cache_select) over
//! the request history to decide which previously useful file combinations
//! to retain in the remaining space, (3) evicts everything else, fetches the
//! missing files, and (4) records the request in the history.
//!
//! The configuration exposes every knob the paper studies:
//!
//! * **History truncation** (§5.2/Fig. 5): full history, a sliding window of
//!   the most recent distinct requests, or — the paper's recommended default
//!   — only requests currently *supported* by the cache, with popularity and
//!   file degrees still taken from the global history.
//! * **Greedy variant** (§3 Note): literal Algorithm 1 vs. marginal-size
//!   charging vs. full recompute-and-resort.
//! * **Prefetching** (Algorithm 2 Step 3, literally): load files of selected
//!   historical requests that are not resident.

use crate::bitset::DenseBitSet;
use crate::bundle::Bundle;
use crate::cache::CacheState;
use crate::catalog::FileCatalog;
use crate::history::{RequestHistory, ValueFn};
#[cfg(any(test, feature = "reference-kernels"))]
use crate::index::SupportIndex;
#[cfg(any(test, feature = "reference-kernels"))]
use crate::instance::FbcInstance;
use crate::policy::{CachePolicy, OutcomeObsSlots, RequestOutcome};
use crate::resident::ResidentInstance;
use crate::select::GreedyVariant;
#[cfg(any(test, feature = "reference-kernels"))]
use crate::select::{opt_cache_select, SelectOptions};
use crate::types::{Bytes, FileId};
use fbc_obs::{Field, Obs};
#[cfg(any(test, feature = "reference-kernels"))]
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// Which slice of the request history feeds `OptCacheSelect` (paper §5.2,
/// "Request History Length").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HistoryMode {
    /// Every request ever seen. Most faithful to Algorithm 2 as printed,
    /// most expensive per decision.
    Full,
    /// The `n` most recently seen distinct requests.
    Window(usize),
    /// Only requests whose files are all in `F(C) ∪ F(r_new)` — the paper's
    /// recommended truncation, with constant per-decision cost.
    #[default]
    CacheSupported,
}

/// Configuration of the `OptFileBundle` policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OfbConfig {
    /// History truncation mode.
    pub history_mode: HistoryMode,
    /// Greedy flavour of the underlying `OptCacheSelect`.
    pub variant: GreedyVariant,
    /// Whether to load files of selected historical requests that are not
    /// currently resident (Algorithm 2 Step 3 verbatim). Only meaningful
    /// under [`HistoryMode::Full`]/[`HistoryMode::Window`]; with
    /// `CacheSupported` truncation the prefetch set is empty by construction.
    pub prefetch: bool,
    /// Value function for request popularity.
    pub value_fn: ValueFn,
}

impl Default for OfbConfig {
    fn default() -> Self {
        Self {
            history_mode: HistoryMode::default(),
            variant: GreedyVariant::SharedCredit,
            prefetch: false,
            value_fn: ValueFn::Count,
        }
    }
}

/// A dry-run report of the replacement decision `OptFileBundle` would take
/// for a hypothetical incoming bundle (see [`OptFileBundle::explain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionExplanation {
    /// Cache capacity left for `OptCacheSelect` after reserving the
    /// incoming bundle's space.
    pub select_capacity: Bytes,
    /// Historical requests considered by the decision, in ranking input
    /// order.
    pub candidates: Vec<Bundle>,
    /// Files the selection would retain (sorted).
    pub retained: Vec<FileId>,
    /// Resident files exposed for eviction — not retained, not part of the
    /// incoming bundle (sorted). Only as many as needed would actually be
    /// evicted.
    pub victims: Vec<FileId>,
}

/// The `OptFileBundle` replacement policy (paper Algorithm 2).
#[derive(Debug, Clone)]
pub struct OptFileBundle {
    config: OfbConfig,
    history: RequestHistory,
    /// The persistent decision state over the history's ids: cache
    /// residency, the supported set, cached file orders and kernel lanes,
    /// maintained by O(Δ) hooks so `decide_retained` never rebuilds,
    /// re-interns or re-sorts (see [`crate::resident`]).
    resident: ResidentInstance,
    /// Inverted index for cache-supported candidate lookup — used only by
    /// the verbatim rebuild (reference) decision path.
    #[cfg(any(test, feature = "reference-kernels"))]
    index: SupportIndex,
    /// When set, every decision runs the pre-resident rebuild path
    /// verbatim; differential suites pin it bit-for-bit equal to the
    /// resident path.
    #[cfg(any(test, feature = "reference-kernels"))]
    reference: bool,
    /// Membership bits of the decision's retained files, set for the
    /// victim scan and cleared right after it: a bit test per resident
    /// instead of a binary search over a sorted retained list.
    retained: DenseBitSet,
    /// Observability sink (disabled unless a driver attaches one); records
    /// per-phase spans, candidate/retained histograms and decision events.
    obs: Obs,
    /// Memoized counter slots for the per-request obs flush.
    obs_slots: OutcomeObsSlots,
    name: String,
}

impl OptFileBundle {
    /// Creates the policy with the paper-default configuration
    /// (cache-supported history, shared-credit greedy, no prefetch).
    pub fn new() -> Self {
        Self::with_config(OfbConfig::default())
    }

    /// Creates the policy with an explicit configuration and a pre-loaded
    /// request history — a *warm start*, as an SRM would do after a restart
    /// with a history persisted via
    /// [`RequestHistory::write_to`](crate::history::RequestHistory::write_to).
    /// The cache itself starts empty; popularity and file degrees carry
    /// over. The history's value function overrides `config.value_fn`.
    pub fn with_history(mut config: OfbConfig, history: RequestHistory) -> Self {
        config.value_fn = history.value_fn();
        let mut policy = Self::with_config(config);
        policy.resident.populate(&history);
        policy.history = history;
        policy
    }

    /// Creates the policy with an explicit configuration.
    pub fn with_config(config: OfbConfig) -> Self {
        let name = match config.history_mode {
            HistoryMode::Full => "OptFileBundle(full)".to_string(),
            HistoryMode::Window(n) => format!("OptFileBundle(window={n})"),
            HistoryMode::CacheSupported => "OptFileBundle".to_string(),
        };
        Self {
            config,
            history: RequestHistory::with_value_fn(config.value_fn),
            resident: ResidentInstance::new(),
            #[cfg(any(test, feature = "reference-kernels"))]
            index: SupportIndex::new(),
            #[cfg(any(test, feature = "reference-kernels"))]
            reference: false,
            retained: DenseBitSet::new(),
            obs: Obs::disabled(),
            obs_slots: OutcomeObsSlots::default(),
            name,
        }
    }

    /// Creates the policy with the pre-resident *rebuild* decision path —
    /// the exact per-decision instance reconstruction this crate shipped
    /// before [`crate::resident`]. Identical outputs, bit for bit; exists
    /// so differential tests and benchmarks can pin the resident path
    /// against it.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn with_config_reference(config: OfbConfig) -> Self {
        let mut policy = Self::with_config(config);
        policy.reference = true;
        policy
    }

    /// Reference-path counterpart of [`OptFileBundle::with_history`].
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn with_history_reference(mut config: OfbConfig, history: RequestHistory) -> Self {
        config.value_fn = history.value_fn();
        let mut policy = Self::with_config_reference(config);
        if policy.indexing() {
            for e in history.entries() {
                policy.index.on_record(&e.bundle);
            }
        }
        policy.history = history;
        policy
    }

    #[cfg(any(test, feature = "reference-kernels"))]
    fn indexing(&self) -> bool {
        self.config.history_mode == HistoryMode::CacheSupported
    }

    /// Records a request in the history and syncs the persistent decision
    /// state (reference path: the support index) from the updated entry.
    fn record(&mut self, bundle: &Bundle) {
        #[cfg(any(test, feature = "reference-kernels"))]
        if self.reference {
            self.history.record(bundle);
            if self.indexing() {
                self.index.on_record(bundle);
            }
            return;
        }
        let eid = self.history.record(bundle);
        self.resident.on_record(&self.history, eid);
    }

    /// Applies a cache insertion to the persistent decision state.
    fn note_insert(&mut self, file: FileId) {
        #[cfg(any(test, feature = "reference-kernels"))]
        if self.reference {
            self.index.on_insert(file);
            return;
        }
        self.resident.on_insert(&mut self.history, file);
    }

    /// Applies a cache eviction to the persistent decision state.
    fn note_evict(&mut self, file: FileId) {
        #[cfg(any(test, feature = "reference-kernels"))]
        if self.reference {
            self.index.on_evict(file);
            return;
        }
        self.resident.on_evict(&self.history, file);
    }

    /// The policy's configuration.
    pub fn config(&self) -> &OfbConfig {
        &self.config
    }

    /// Read access to the request history (for schedulers and diagnostics).
    pub fn history(&self) -> &RequestHistory {
        &self.history
    }

    /// Adjusted relative value `v'(r)` of an arbitrary bundle under the
    /// current history — the ranking key the queued scheduler of §5.3 uses.
    pub fn relative_value(&self, bundle: &Bundle, catalog: &FileCatalog) -> f64 {
        self.history.relative_value(bundle, catalog)
    }

    /// Explains — without mutating anything — the replacement decision the
    /// policy *would* take if `incoming` arrived now and required eviction:
    /// which historical requests are candidates, which would be selected,
    /// which files would be retained, and which residents would be exposed
    /// as victims. A diagnostics/tooling API; [`CachePolicy::handle`]
    /// remains the only way to act (`&mut self` only touches the reusable
    /// decision scratch — no observable state changes).
    pub fn explain(
        &mut self,
        cache: &CacheState,
        catalog: &FileCatalog,
        incoming: &Bundle,
    ) -> DecisionExplanation {
        let requested_bytes = incoming.total_size(catalog);
        let select_capacity = cache.capacity().saturating_sub(requested_bytes);
        let candidates: Vec<Bundle> = self.candidate_bundles(cache, incoming);
        // Sorted, so resident-membership checks are binary searches rather
        // than linear scans (O(r log r) overall, where the per-file
        // `contains` scan was O(r²)).
        let (mut retained, _) = self.decide_retained(cache, catalog, incoming, select_capacity);
        retained.sort_unstable();
        let mut victims: Vec<FileId> = cache
            .iter()
            .map(|(f, _)| f)
            .filter(|&f| !incoming.contains(f) && retained.binary_search(&f).is_err())
            .collect();
        victims.sort_unstable();
        DecisionExplanation {
            select_capacity,
            candidates,
            retained,
            victims,
        }
    }

    /// The candidate bundles the next decision for `incoming` would rank,
    /// in ranking input order (diagnostics; used by [`Self::explain`]).
    fn candidate_bundles(&mut self, cache: &CacheState, incoming: &Bundle) -> Vec<Bundle> {
        #[cfg(any(test, feature = "reference-kernels"))]
        if self.reference {
            return candidates_of(&self.config, &self.history, &self.index, incoming)
                .into_iter()
                .map(|e| e.bundle.clone())
                .collect();
        }
        let _ = cache;
        self.resident
            .assemble_candidates(&self.history, self.config.history_mode, incoming);
        self.resident
            .candidates()
            .iter()
            .map(|&e| self.history.entry(e).bundle.clone())
            .collect()
    }

    /// Runs the replacement decision: returns the files (global ids, in
    /// no particular order) to retain alongside `incoming`'s files, plus
    /// the prefetch list. `&mut self` only for the per-decision epoch
    /// stamps and scratch of the resident state.
    ///
    /// Unlike the pre-resident rebuild path (kept verbatim in
    /// [`Self::decide_retained_reference`]), this applies the pending delta
    /// (candidate assembly off the maintained supported set / recency
    /// list), overlays the incoming bundle's files at size 0 via epoch
    /// stamps, and runs the greedy in place — no per-decision instance, no
    /// re-interning, re-hashing or re-sorting of the whole candidate set.
    fn decide_retained(
        &mut self,
        cache: &CacheState,
        catalog: &FileCatalog,
        incoming: &Bundle,
        select_capacity: Bytes,
    ) -> (Vec<FileId>, Vec<FileId>) {
        #[cfg(any(test, feature = "reference-kernels"))]
        if self.reference {
            return self.decide_retained_reference(cache, catalog, incoming, select_capacity);
        }
        let Self {
            config,
            history,
            resident,
            obs,
            ..
        } = self;
        let delta_span = obs.span("ofb.delta_apply");
        resident.assemble_candidates(history, config.history_mode, incoming);
        drop(delta_span);
        obs.observe("ofb.candidates", resident.candidates().len() as u64);
        if resident.candidates().is_empty() {
            return (Vec::new(), Vec::new());
        }

        let build_span = obs.span("ofb.instance_build");
        resident.prepare_decision(history, catalog, select_capacity, config.variant);
        drop(build_span);
        let select_span = obs.span("ofb.greedy_select");
        let single = match config.variant {
            GreedyVariant::SharedCredit => {
                let single = resident.select_fast(history, catalog, select_capacity);
                let (takes, rebuilds) = resident.greedy_work();
                obs.observe("ofb.greedy_takes", u64::from(takes));
                obs.observe("ofb.greedy_rebuilds", u64::from(rebuilds));
                single
            }
            GreedyVariant::SortedOnce => {
                resident.select_sorted(history, catalog, select_capacity, true)
            }
            GreedyVariant::PaperLiteral => {
                resident.select_sorted(history, catalog, select_capacity, false)
            }
        };
        drop(select_span);
        let (retained, prefetch) =
            resident.decision_outputs(history, cache, config.prefetch, single);
        obs.observe("ofb.retained_files", retained.len() as u64);
        (retained, prefetch)
    }

    /// The pre-resident rebuild decision path, verbatim: re-collects the
    /// candidates from the history map, re-sorts them by recency, and
    /// re-interns every candidate file into a fresh local instance.
    #[cfg(any(test, feature = "reference-kernels"))]
    fn decide_retained_reference(
        &mut self,
        cache: &CacheState,
        catalog: &FileCatalog,
        incoming: &Bundle,
        select_capacity: Bytes,
    ) -> (Vec<FileId>, Vec<FileId>) {
        let Self {
            config,
            history,
            index,
            obs,
            ..
        } = self;
        let candidates = candidates_of(config, history, index, incoming);
        obs.observe("ofb.candidates", candidates.len() as u64);
        if candidates.is_empty() {
            return (Vec::new(), Vec::new());
        }

        // Build a local FBC instance over the union of candidate files.
        let build_span = obs.span("ofb.instance_build");
        let mut local_of: FxHashMap<FileId, u32> = FxHashMap::default();
        let mut global_of: Vec<FileId> = Vec::new();
        let mut sizes: Vec<Bytes> = Vec::new();
        let mut degrees: Vec<u32> = Vec::new();
        let mut requests: Vec<(Vec<u32>, f64)> = Vec::with_capacity(candidates.len());
        let now = history.total_requests();
        let value_fn = history.value_fn();
        for entry in &candidates {
            let mut files = Vec::with_capacity(entry.bundle.len());
            for f in entry.bundle.iter() {
                let local = *local_of.entry(f).or_insert_with(|| {
                    let idx = global_of.len() as u32;
                    global_of.push(f);
                    // Files of the incoming request are pre-reserved: their
                    // space is already accounted for, so they are free here.
                    sizes.push(if incoming.contains(f) {
                        0
                    } else {
                        catalog.size(f)
                    });
                    // Degrees come from the *global* history (paper §5.2).
                    degrees.push(history.degree(f));
                    idx
                });
                files.push(local);
            }
            requests.push((files, entry.value_at(now, value_fn)));
        }

        let inst = FbcInstance::with_degrees(select_capacity, sizes, requests, Some(degrees))
            .expect("locally built instance is structurally valid");
        drop(build_span);

        let select_span = obs.span("ofb.greedy_select");
        let selection = opt_cache_select(
            &inst,
            &SelectOptions {
                variant: config.variant,
                max_single_fallback: true,
            },
        );
        drop(select_span);

        let mut retained: Vec<FileId> = selection
            .files
            .iter()
            .map(|&l| global_of[l as usize])
            .collect();
        retained.sort_unstable();
        let prefetch: Vec<FileId> = if config.prefetch {
            selection
                .files
                .iter()
                .map(|&l| global_of[l as usize])
                .filter(|&f| !cache.contains(f) && !incoming.contains(f))
                .collect()
        } else {
            Vec::new()
        };

        obs.observe("ofb.retained_files", retained.len() as u64);
        (retained, prefetch)
    }
}

/// Candidate history entries for a replacement decision, per the configured
/// truncation mode — the rebuild (reference) path's candidate gathering. A
/// free function (rather than a method) so the decision path can borrow the
/// history immutably while recording to the obs sink.
#[cfg(any(test, feature = "reference-kernels"))]
fn candidates_of<'h>(
    config: &OfbConfig,
    history: &'h RequestHistory,
    index: &'h SupportIndex,
    incoming: &Bundle,
) -> Vec<&'h crate::history::HistoryEntry> {
    let mut cands: Vec<&crate::history::HistoryEntry> = match config.history_mode {
        HistoryMode::Full => history.entries().collect(),
        HistoryMode::Window(n) => history.most_recent(n),
        HistoryMode::CacheSupported => index
            .supported_with(incoming)
            .into_iter()
            .filter_map(|id| history.get(index.bundle(id)))
            .collect(),
    };
    // Sort by recency (last_seen is a unique tick) so greedy tie-breaking
    // — and thus the whole simulation — is deterministic.
    cands.sort_unstable_by_key(|e| std::cmp::Reverse(e.last_seen));
    cands
}

impl Default for OptFileBundle {
    fn default() -> Self {
        Self::new()
    }
}

impl OptFileBundle {
    /// The full Algorithm 2 servicing pipeline for one arrival, minus the
    /// per-request observability flush (`RequestOutcome::record_obs`), which
    /// the callers — `handle` and `decide_retained_batch` — perform so the
    /// flush strategy can differ without touching the decision logic.
    fn handle_inner(
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

        if requested_bytes > cache.capacity() {
            outcome.serviced = false;
            self.record(bundle);
            return outcome;
        }

        if cache.contains_all(bundle) {
            outcome.hit = true;
            self.record(bundle);
            return outcome;
        }

        let missing = cache.missing_of(bundle);
        let missing_bytes: Bytes = missing.iter().map(|&f| catalog.size(f)).sum();

        if missing_bytes > cache.free() {
            // Replacement decision (Algorithm 2 Steps 1-3): reserve space
            // for the whole incoming bundle, let OptCacheSelect fill the
            // rest of the cache with the most valuable historical bundles.
            // `requested_bytes == capacity()` is reachable (the size guard
            // above rejects only strictly-larger bundles), so the subtraction
            // must not underflow: a bundle filling the whole cache leaves
            // zero capacity for retained selections.
            let select_capacity = cache.capacity().saturating_sub(requested_bytes);
            let (retained, prefetch) =
                self.decide_retained(cache, catalog, bundle, select_capacity);
            let prefetch_bytes: Bytes = prefetch.iter().map(|&f| catalog.size(f)).sum();
            let retained_files = retained.len() as u64;
            let planned_prefetch = prefetch.len() as u64;

            // Evict residents that are neither part of the incoming bundle
            // nor retained by the selection — but only *as many as needed*
            // (for the missing files plus any planned prefetch): if the
            // selection leaves slack, unselected files stay resident — they
            // cost nothing and may still produce hits. Least useful first:
            // ascending file degree, then largest size (frees space
            // fastest), then id for determinism.
            let evict_span = self.obs.span("ofb.evict");
            let target = missing_bytes + prefetch_bytes;
            let mask = &mut self.retained;
            for &f in &retained {
                mask.insert(f.0);
            }
            // Keys are built once per victim (one degree lookup each); the
            // id makes them unique, so the unstable sort is deterministic.
            let mut victims: Vec<(u32, std::cmp::Reverse<Bytes>, FileId)> = cache
                .iter()
                .filter(|&(f, _)| !bundle.contains(f) && !mask.contains(f.0))
                .map(|(f, size)| (self.history.degree(f), std::cmp::Reverse(size), f))
                .collect();
            for &f in &retained {
                mask.remove(f.0);
            }
            victims.sort_unstable();
            for (_, _, f) in victims {
                if cache.free() >= target {
                    break;
                }
                if let Ok(size) = cache.evict(f) {
                    self.note_evict(f);
                    outcome.evicted_bytes += size;
                    outcome.evicted_files.push(f);
                }
            }

            // Pins (or a conservative selection) may still leave too little
            // room; shed retained files (never the incoming bundle's) in
            // ascending degree order until the bundle fits.
            if cache.free() < missing_bytes {
                let mut shed: Vec<(u32, FileId)> = cache
                    .iter()
                    .filter(|&(f, _)| !bundle.contains(f))
                    .map(|(f, _)| (self.history.degree(f), f))
                    .collect();
                shed.sort_unstable();
                for (_, f) in shed {
                    if cache.free() >= missing_bytes {
                        break;
                    }
                    if let Ok(size) = cache.evict(f) {
                        self.note_evict(f);
                        outcome.evicted_bytes += size;
                        outcome.evicted_files.push(f);
                    }
                }
            }
            drop(evict_span);

            if cache.free() < missing_bytes {
                // Only possible when pinned files block the space.
                outcome.serviced = false;
                self.record(bundle);
                return outcome;
            }

            // Fetch the incoming bundle's missing files.
            for f in &missing {
                cache
                    .insert(*f, catalog)
                    .expect("eviction loop reserved space");
                self.note_insert(*f);
                outcome.fetched_bytes += catalog.size(*f);
                outcome.fetched_files.push(*f);
            }

            // Optional literal Step 3: prefetch selected non-resident files
            // while they fit.
            for f in prefetch {
                if !cache.contains(f) && catalog.size(f) <= cache.free() {
                    cache.insert(f, catalog).expect("checked fit");
                    self.note_insert(f);
                    outcome.fetched_bytes += catalog.size(f);
                    outcome.fetched_files.push(f);
                }
            }

            self.obs.batch(|b| {
                b.incr("ofb.replacements");
                b.event(
                    "decision",
                    &[
                        ("retained", Field::u(retained_files)),
                        ("evicted", Field::u(outcome.evicted_files.len() as u64)),
                        ("fetched", Field::u(outcome.fetched_files.len() as u64)),
                        ("prefetch_planned", Field::u(planned_prefetch)),
                    ],
                );
            });
        } else {
            // Plain cold fetch (Fig. 4a): space is available.
            for f in &missing {
                cache.insert(*f, catalog).expect("free space was checked");
                self.note_insert(*f);
                outcome.fetched_bytes += catalog.size(*f);
                outcome.fetched_files.push(*f);
            }
        }

        // Step 4: update L(R).
        self.record(bundle);
        outcome
    }

    /// Batched multi-request admission: service `bundles` in arrival order,
    /// appending one outcome per bundle to `out`.
    ///
    /// Determinism contract: the result — cache contents, every outcome
    /// field, and the observability trace — is bit-identical to calling
    /// `handle` once per bundle, **by construction**: each arrival observes
    /// exactly the cache and history state left by its predecessor, and the
    /// per-request counter flush happens in the same order. What a batch
    /// amortizes is the per-call overhead around the pipeline: one virtual
    /// dispatch and one obs-enabled check for the whole run instead of one
    /// per arrival, with the decision scratch staying hot across the run.
    pub fn decide_retained_batch(
        &mut self,
        bundles: &[&Bundle],
        cache: &mut CacheState,
        catalog: &FileCatalog,
        out: &mut Vec<RequestOutcome>,
    ) {
        out.reserve(bundles.len());
        if self.obs.is_enabled() {
            for bundle in bundles {
                let outcome = self.handle_inner(bundle, cache, catalog);
                // Flushed per request, in order: the JSONL trace interleaves
                // decision/admit/evict events with each request's counters,
                // so deferring flushes across arrivals would reorder it.
                outcome.record_obs(&self.obs, &mut self.obs_slots);
                out.push(outcome);
            }
        } else {
            for bundle in bundles {
                out.push(self.handle_inner(bundle, cache, catalog));
            }
        }
    }
}

impl CachePolicy for OptFileBundle {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        let outcome = self.handle_inner(bundle, cache, catalog);
        outcome.record_obs(&self.obs, &mut self.obs_slots);
        outcome
    }

    fn handle_batch(
        &mut self,
        bundles: &[&Bundle],
        cache: &mut CacheState,
        catalog: &FileCatalog,
        out: &mut Vec<RequestOutcome>,
    ) {
        self.decide_retained_batch(bundles, cache, catalog, out);
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn reset(&mut self) {
        self.history = RequestHistory::with_value_fn(self.config.value_fn);
        self.resident = ResidentInstance::new();
        #[cfg(any(test, feature = "reference-kernels"))]
        {
            self.index = SupportIndex::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_unit(n: u32) -> FileCatalog {
        FileCatalog::from_sizes(vec![1; n as usize])
    }

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn cold_start_fills_cache_without_eviction() {
        let catalog = catalog_unit(10);
        let mut cache = CacheState::new(5);
        let mut ofb = OptFileBundle::new();
        let out = ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.serviced && !out.hit);
        assert_eq!(out.fetched_bytes, 2);
        assert!(out.evicted_files.is_empty());
        assert_eq!(cache.used(), 2);
    }

    #[test]
    fn repeat_request_is_a_hit() {
        let catalog = catalog_unit(10);
        let mut cache = CacheState::new(5);
        let mut ofb = OptFileBundle::new();
        ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        let out = ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.hit);
        assert_eq!(out.fetched_bytes, 0);
        assert_eq!(ofb.history().get(&b(&[0, 1])).unwrap().count, 2);
    }

    #[test]
    fn replacement_keeps_popular_combinations() {
        // Cache of 3 unit files. Make {0,1} popular, then push {2,3} through;
        // on the next eviction decision files 0,1 should be retained over
        // a random singleton.
        let catalog = catalog_unit(10);
        let mut cache = CacheState::new(3);
        let mut ofb = OptFileBundle::new();
        for _ in 0..5 {
            ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        }
        ofb.handle(&b(&[2]), &mut cache, &catalog); // fills cache: {0,1,2}
        assert_eq!(cache.used(), 3);
        // {3} arrives: must evict one file. OptCacheSelect retains the
        // popular pair {0,1}, so f2 is the victim.
        let out = ofb.handle(&b(&[3]), &mut cache, &catalog);
        assert!(out.serviced);
        assert_eq!(out.evicted_files, vec![FileId(2)]);
        assert!(cache.contains_all(&b(&[0, 1])));
        assert!(cache.contains(FileId(3)));
    }

    #[test]
    fn oversized_request_is_not_serviced() {
        let catalog = FileCatalog::from_sizes(vec![10, 10]);
        let mut cache = CacheState::new(15);
        let mut ofb = OptFileBundle::new();
        let out = ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(!out.serviced);
        assert!(cache.is_empty());
        // Still recorded in the history.
        assert_eq!(ofb.history().len(), 1);
    }

    #[test]
    fn bundle_exactly_filling_cache_is_serviced() {
        // Regression: a bundle whose size equals the cache capacity passes
        // the `> capacity` guard, and the replacement path must not
        // underflow computing `capacity - requested` (reserve = 0).
        let catalog = FileCatalog::from_sizes(vec![4, 6, 3]);
        let mut cache = CacheState::new(10);
        let mut ofb = OptFileBundle::new();
        ofb.handle(&b(&[2]), &mut cache, &catalog); // resident f2 forces eviction
        let out = ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        assert!(out.serviced && !out.hit);
        assert_eq!(out.fetched_bytes, 10);
        assert_eq!(out.evicted_files, vec![FileId(2)]);
        assert_eq!(cache.used(), 10);
        assert!(cache.contains_all(&b(&[0, 1])));
    }

    #[test]
    fn capacity_invariant_holds_across_random_workload() {
        let catalog = FileCatalog::from_sizes((0..50).map(|i| (i % 7) + 1).collect::<Vec<u64>>());
        let mut cache = CacheState::new(25);
        let mut ofb = OptFileBundle::new();
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let k = (next() % 4 + 1) as usize;
            let files: Vec<u32> = (0..k).map(|_| (next() % 50) as u32).collect();
            let out = ofb.handle(&Bundle::from_raw(files.clone()), &mut cache, &catalog);
            assert!(cache.check_invariants());
            if out.serviced {
                assert!(cache.contains_all(&Bundle::from_raw(files)));
            }
        }
    }

    #[test]
    fn full_history_with_prefetch_loads_selected_files() {
        let catalog = catalog_unit(10);
        let mut cache = CacheState::new(4);
        let mut ofb = OptFileBundle::with_config(OfbConfig {
            history_mode: HistoryMode::Full,
            prefetch: true,
            ..OfbConfig::default()
        });
        // Make {0,1} very popular, then flush it out with distinct singles.
        for _ in 0..10 {
            ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        }
        ofb.handle(&b(&[2]), &mut cache, &catalog);
        ofb.handle(&b(&[3]), &mut cache, &catalog); // cache {0,1,2,3} full
                                                    // New request {4}: replacement triggers; full history still knows
                                                    // {0,1} and it stays; with prefetch on, nothing extra is needed
                                                    // since {0,1} is resident. Now force {0,1} out by a big request:
        let out = ofb.handle(&b(&[5, 6, 7]), &mut cache, &catalog);
        assert!(out.serviced);
        // Next single request: selection should want {0,1} back and
        // prefetch whichever of them was evicted.
        let out = ofb.handle(&b(&[8]), &mut cache, &catalog);
        assert!(out.serviced);
        assert!(
            cache.contains_all(&b(&[0, 1])),
            "prefetch should restore the popular pair; cache={:?}",
            cache.resident_files_sorted()
        );
    }

    #[test]
    fn window_mode_limits_candidates() {
        let catalog = catalog_unit(100);
        let mut cache = CacheState::new(3);
        let mut ofb = OptFileBundle::with_config(OfbConfig {
            history_mode: HistoryMode::Window(2),
            ..OfbConfig::default()
        });
        for i in 0..20u32 {
            ofb.handle(&b(&[i]), &mut cache, &catalog);
        }
        // Only the 2 most recent requests are candidates; run one more and
        // make sure nothing panics and invariants hold.
        let out = ofb.handle(&b(&[50]), &mut cache, &catalog);
        assert!(out.serviced);
        assert!(cache.check_invariants());
    }

    #[test]
    fn reset_clears_history() {
        let catalog = catalog_unit(4);
        let mut cache = CacheState::new(4);
        let mut ofb = OptFileBundle::new();
        ofb.handle(&b(&[0]), &mut cache, &catalog);
        assert_eq!(ofb.history().len(), 1);
        ofb.reset();
        assert_eq!(ofb.history().len(), 0);
    }

    #[test]
    fn explain_is_a_faithful_dry_run() {
        let catalog = catalog_unit(10);
        let mut cache = CacheState::new(3);
        let mut ofb = OptFileBundle::new();
        for _ in 0..5 {
            ofb.handle(&b(&[0, 1]), &mut cache, &catalog);
        }
        ofb.handle(&b(&[2]), &mut cache, &catalog); // cache full: {0,1,2}
        let snapshot_history_len = ofb.history().len();

        let explanation = ofb.explain(&cache, &catalog, &b(&[3]));
        // Dry run: nothing changed.
        assert_eq!(ofb.history().len(), snapshot_history_len);
        assert_eq!(cache.used(), 3);
        // The popular pair would be retained; f2 is the exposed victim.
        assert_eq!(explanation.retained, vec![FileId(0), FileId(1)]);
        assert_eq!(explanation.victims, vec![FileId(2)]);
        assert_eq!(explanation.select_capacity, 2);
        assert!(explanation.candidates.contains(&b(&[0, 1])));

        // And the real decision matches the explanation.
        let out = ofb.handle(&b(&[3]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, explanation.victims);
        assert!(cache.contains_all(&b(&[0, 1])));
    }

    #[test]
    fn warm_start_preserves_learned_popularity() {
        let catalog = catalog_unit(10);
        // First life: learn that {0,1} is hot.
        let mut first = OptFileBundle::new();
        let mut cache = CacheState::new(3);
        for _ in 0..5 {
            first.handle(&b(&[0, 1]), &mut cache, &catalog);
        }
        let mut buf = Vec::new();
        first.history().write_to(&mut buf).unwrap();

        // Restart: cold cache, warm history.
        let restored = RequestHistory::read_from(&buf[..], &catalog).unwrap();
        let mut second = OptFileBundle::with_history(OfbConfig::default(), restored);
        let mut cache = CacheState::new(3);
        // Refill the cache: {0,1} then {2}.
        second.handle(&b(&[0, 1]), &mut cache, &catalog);
        second.handle(&b(&[2]), &mut cache, &catalog);
        // {3} forces replacement; the warm-started history still knows the
        // pair is hot and protects it.
        let out = second.handle(&b(&[3]), &mut cache, &catalog);
        assert_eq!(out.evicted_files, vec![FileId(2)]);
        assert!(cache.contains_all(&b(&[0, 1])));
        assert!(second.history().get(&b(&[0, 1])).unwrap().count >= 6);
    }

    /// Regression: a history saved over a larger catalog used to load, and
    /// a Full-mode warm start then panicked in `catalog.size` at its first
    /// replacement decision. The load now rejects it.
    #[test]
    fn full_mode_warm_start_over_a_smaller_catalog_fails_at_load() {
        let full = OfbConfig {
            history_mode: HistoryMode::Full,
            ..OfbConfig::default()
        };
        let big = catalog_unit(12);
        let mut first = OptFileBundle::with_config(full);
        let mut cache = CacheState::new(3);
        for ids in [&[0u32, 1][..], &[10, 11], &[2]] {
            first.handle(&b(ids), &mut cache, &big);
        }
        let mut buf = Vec::new();
        first.history().write_to(&mut buf).unwrap();

        let err = RequestHistory::read_from(&buf[..], &catalog_unit(8)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("file 10"), "{err}");

        // Over the catalog it was saved with, the same warm start decides.
        let restored = RequestHistory::read_from(&buf[..], &big).unwrap();
        let mut second = OptFileBundle::with_history(full, restored);
        let mut cache = CacheState::new(3);
        for ids in [&[0u32, 1][..], &[2], &[3]] {
            assert!(second.handle(&b(ids), &mut cache, &big).serviced);
        }
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(OptFileBundle::new().name(), "OptFileBundle");
        let w = OptFileBundle::with_config(OfbConfig {
            history_mode: HistoryMode::Window(7),
            ..OfbConfig::default()
        });
        assert_eq!(w.name(), "OptFileBundle(window=7)");
    }
}
