//! `fbc-obs` — the workspace's deterministic observability kernel.
//!
//! Everything below the end-of-run aggregates used to be invisible: no
//! event log, no per-phase timing, no counter registry anywhere in
//! `fbc-{core,sim,grid}`. This crate supplies that substrate as three
//! pieces behind one cheap handle:
//!
//! * a [`Registry`] of named counters, gauges and exact histograms
//!   (quantiles via the shared nearest-rank helper in [`quantile`]);
//! * a bounded ring-buffer [`EventLog`] with JSONL export;
//! * [`Span`] scoped timers that stamp **virtual simulation time** by
//!   default — wall-clock durations only behind the explicit
//!   [`ObsConfig::wall_clock`] opt-in, so traces stay byte-reproducible
//!   under a fixed seed.
//!
//! # The determinism contract
//!
//! With `wall_clock` off (the default), every byte this crate produces —
//! JSONL traces, counter tables, histogram quantiles — is a pure
//! function of the instrumented program's deterministic execution: two
//! same-seed runs render byte-identical output. Enabling `wall_clock`
//! adds real-time `wall_ns` measurements to span histograms and span
//! events, which are machine-dependent by nature and void the contract.
//!
//! # Cost model
//!
//! [`Obs`] is a handle over `Option<Arc<Mutex<..>>>`. A disabled handle
//! (the [`Obs::disabled`] default every policy and driver starts with)
//! is `None`: every recording call short-circuits on one branch, takes
//! no lock and formats nothing. `perf_decision --smoke` gates that the
//! instrumented-but-disabled decision path stays within 1.05× of
//! baseline. Enabled recording takes an uncontended mutex per call;
//! clones share the same sink, which is what lets a driver, a policy and
//! the grid engine feed one trace.
//!
//! # Example
//!
//! ```
//! use fbc_obs::{Field, Obs};
//!
//! let obs = Obs::enabled();
//! obs.set_now(42); // virtual time, e.g. job index or sim microseconds
//! obs.incr("requests");
//! obs.event("fetch", &[("bytes", Field::u(1024))]);
//! {
//!     let _span = obs.span("decision");
//! } // drop records `decision.calls` and a span event at t = 42
//! assert_eq!(obs.counter("requests"), 1);
//! assert_eq!(obs.counter("decision.calls"), 1);
//! assert!(obs.jsonl().starts_with("{\"t\":42,\"ev\":\"fetch\",\"bytes\":1024}"));
//! ```

pub mod event;
pub mod quantile;
pub mod registry;

pub use event::{Event, EventLog, Field};
pub use registry::{CounterSlot, Registry};

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Configuration of an enabled [`Obs`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Maximum events held by the ring buffer; older events are dropped
    /// (and counted) beyond this.
    pub event_capacity: usize,
    /// Record machine-dependent wall-clock span durations. Off by
    /// default: it breaks byte-reproducibility of traces and tables.
    pub wall_clock: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            event_capacity: 65_536,
            wall_clock: false,
        }
    }
}

#[derive(Debug)]
struct Inner {
    now: u64,
    wall_clock: bool,
    registry: Registry,
    events: EventLog,
}

/// A cheap, cloneable observability handle.
///
/// Disabled (the [`Default`]) it is a `None` and costs one branch per
/// recording call. Enabled, all clones share one registry and one event
/// log behind a mutex, so a policy, its driver and the grid engine can
/// write interleaved into a single trace.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Obs {
    /// The no-op handle: every call short-circuits.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with the default configuration.
    pub fn enabled() -> Self {
        Self::with_config(ObsConfig::default())
    }

    /// An enabled handle with an explicit configuration.
    pub fn with_config(config: ObsConfig) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Inner {
                now: 0,
                wall_clock: config.wall_clock,
                registry: Registry::new(),
                events: EventLog::new(config.event_capacity),
            }))),
        }
    }

    /// Whether recording calls do anything. The one branch the disabled
    /// cost model refers to.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        // A poisoned lock (a panic while recording) still yields usable
        // data; observability must never turn a failing run opaque.
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Sets the virtual clock subsequent events are stamped with. The
    /// unit is the driver's choice — job index for the trace simulator,
    /// simulated microseconds for the grid engine.
    pub fn set_now(&self, t: u64) {
        if let Some(mut g) = self.lock() {
            g.now = t;
        }
    }

    /// Current virtual clock (0 when disabled).
    pub fn now(&self) -> u64 {
        self.lock().map_or(0, |g| g.now)
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(mut g) = self.lock() {
            g.registry.add(name, delta);
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, value: i64) {
        if let Some(mut g) = self.lock() {
            g.registry.set_gauge(name, value);
        }
    }

    /// Records one histogram sample.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(mut g) = self.lock() {
            g.registry.observe(name, value);
        }
    }

    /// Appends an event stamped with the current virtual clock. Kind and
    /// keys are `&'static str` — instrumentation sites name them with
    /// literals, so recording allocates at most the payload vector, and
    /// (once the ring is at capacity) nothing at all: the push recycles
    /// the evicted event's allocation.
    pub fn event(&self, kind: &'static str, fields: &[(&'static str, Field)]) {
        if let Some(mut g) = self.lock() {
            let t = g.now;
            g.events.push_borrowed(t, kind, fields);
        }
    }

    /// Opens a scoped timer. On drop it increments `<name>.calls` and
    /// appends a `span` event stamped with the virtual clock; under the
    /// [`ObsConfig::wall_clock`] opt-in it additionally records the
    /// elapsed wall nanoseconds into the `<name>.wall_ns` histogram and
    /// the event. Disabled handles return an inert guard.
    pub fn span(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span { state: None };
        }
        let wall_clock = self.lock().is_some_and(|g| g.wall_clock);
        let obs = self.clone();
        let name = name.to_string();
        // The clock starts last and stops first (in `drop`), so a
        // `wall_ns` sample holds none of the span's own bookkeeping.
        let wall = wall_clock.then(Instant::now);
        Span {
            state: Some(SpanState { obs, name, wall }),
        }
    }

    /// Runs `f` inside a batched recording session that holds the sink's
    /// lock once for every recording made through it, instead of once per
    /// call — the hot-path flush primitive (a request outcome records up
    /// to four counters and two events; one acquisition instead of six).
    ///
    /// Recordings land in exactly the order they are made, so the JSONL
    /// trace and registry dump are byte-identical to the equivalent
    /// sequence of individual [`add`](Self::add)/[`event`](Self::event)
    /// calls. When the handle is disabled `f` is never called and `None`
    /// is returned.
    ///
    /// The lock is **not reentrant**: calling any recording method on this
    /// handle (or a clone sharing its sink — including dropping a
    /// [`Span`]) from inside `f` deadlocks. Keep batches straight-line.
    pub fn batch<R>(&self, f: impl FnOnce(&mut ObsBatch<'_>) -> R) -> Option<R> {
        let mut g = self.lock()?;
        Some(f(&mut ObsBatch { inner: &mut g }))
    }

    /// Current value of a counter (0 when disabled or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().map_or(0, |g| g.registry.counter(name))
    }

    /// Current value of a gauge (0 when disabled or never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.lock().map_or(0, |g| g.registry.gauge(name))
    }

    /// Nearest-rank quantile of a histogram (`None` when disabled or
    /// empty).
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<u64> {
        self.lock()?.registry.histogram_quantile(name, q)
    }

    /// Events currently held in the ring.
    pub fn events_recorded(&self) -> usize {
        self.lock().map_or(0, |g| g.events.len())
    }

    /// Events dropped because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.lock().map_or(0, |g| g.events.dropped())
    }

    /// Renders the registry as a deterministic two-column table (empty
    /// string when disabled).
    pub fn render_table(&self) -> String {
        self.lock()
            .map_or(String::new(), |g| g.registry.render_table())
    }

    /// Renders the event ring as JSON Lines (empty string when
    /// disabled).
    pub fn jsonl(&self) -> String {
        self.lock().map_or(String::new(), |g| g.events.to_jsonl())
    }

    /// Clears all metrics and events, keeping the handle enabled.
    pub fn clear(&self) {
        if let Some(mut g) = self.lock() {
            g.registry.clear();
            g.events.clear();
            g.now = 0;
        }
    }

    /// A fresh sink with this handle's configuration (event capacity,
    /// wall-clock opt-in) but its own registry, ring and clock — disabled
    /// when this handle is disabled.
    ///
    /// Concurrent drivers give each worker a child so recording never
    /// contends on the parent's mutex or interleaves nondeterministically,
    /// then fold the children back with [`merge_from`](Self::merge_from)
    /// in a fixed order.
    pub fn child(&self) -> Obs {
        match self.lock() {
            None => Obs::disabled(),
            Some(g) => Obs::with_config(ObsConfig {
                event_capacity: g.events.capacity(),
                wall_clock: g.wall_clock,
            }),
        }
    }

    /// Folds `other`'s recordings into this sink: counters add, histogram
    /// samples concatenate, gauges take `other`'s value, `other`'s events
    /// append (oldest first, through this ring's own bounded push), and
    /// the virtual clock advances to the later of the two. A no-op when
    /// either handle is disabled or both share one sink.
    ///
    /// Merging children in a fixed order (e.g. shard index) keeps the
    /// combined trace deterministic regardless of worker scheduling.
    pub fn merge_from(&self, other: &Obs) {
        if let (Some(a), Some(b)) = (&self.inner, &other.inner) {
            if Arc::ptr_eq(a, b) {
                return;
            }
            // Lock ordering: `other` is fully read before `self` is
            // touched, so no lock is ever held while taking another.
            let (registry, events, other_now) = {
                let g = b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                (g.registry.clone(), g.events.clone(), g.now)
            };
            let mut g = a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            g.registry.merge(&registry);
            g.events.absorb(&events);
            g.now = g.now.max(other_now);
        }
    }
}

/// A batched recording session created by [`Obs::batch`]: the same
/// recording surface as [`Obs`] (counters, gauges, histograms, events),
/// but every call writes under the one lock acquired at session start.
pub struct ObsBatch<'a> {
    inner: &'a mut Inner,
}

impl ObsBatch<'_> {
    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, name: &str, delta: u64) {
        self.inner.registry.add(name, delta);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to a counter through a caller-held [`CounterSlot`]
    /// memo — the per-request flush primitive for fixed counter rosters:
    /// after the first resolution the bump is an epoch compare plus an
    /// array add, no string hashing (see [`Registry::add_cached`]).
    #[inline]
    pub fn add_cached(&mut self, slot: &mut CounterSlot, name: &str, delta: u64) {
        self.inner.registry.add_cached(slot, name, delta);
    }

    /// Increments a counter by one through a [`CounterSlot`] memo.
    #[inline]
    pub fn incr_cached(&mut self, slot: &mut CounterSlot, name: &str) {
        self.add_cached(slot, name, 1);
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.inner.registry.set_gauge(name, value);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.inner.registry.observe(name, value);
    }

    /// Appends an event stamped with the current virtual clock. Like
    /// [`Obs::event`], recycles the evicted event's allocation once the
    /// ring is at capacity.
    pub fn event(&mut self, kind: &'static str, fields: &[(&'static str, Field)]) {
        let t = self.inner.now;
        self.inner.events.push_borrowed(t, kind, fields);
    }
}

struct SpanState {
    obs: Obs,
    name: String,
    wall: Option<Instant>,
}

/// Guard returned by [`Obs::span`]; records on drop.
pub struct Span {
    state: Option<SpanState>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let wall_ns = state
            .wall
            .map(|start| start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        let Some(mut g) = state.obs.lock() else {
            return;
        };
        let t = g.now;
        g.registry.add(&format!("{}.calls", state.name), 1);
        let mut fields = vec![("name", Field::s(state.name.clone()))];
        if let Some(ns) = wall_ns {
            g.registry.observe(&format!("{}.wall_ns", state.name), ns);
            fields.push(("wall_ns", Field::u(ns)));
        }
        g.events.push(Event {
            t,
            kind: "span",
            fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.set_now(9);
        obs.incr("c");
        obs.observe("h", 1);
        obs.event("e", &[]);
        drop(obs.span("s"));
        assert_eq!(obs.now(), 0);
        assert_eq!(obs.counter("c"), 0);
        assert_eq!(obs.events_recorded(), 0);
        assert_eq!(obs.jsonl(), "");
        assert_eq!(obs.render_table(), "");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn clones_share_one_sink() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.incr("shared");
        obs.incr("shared");
        assert_eq!(obs.counter("shared"), 2);
        assert_eq!(clone.counter("shared"), 2);
    }

    #[test]
    fn events_are_stamped_with_virtual_time() {
        let obs = Obs::enabled();
        obs.set_now(5);
        obs.event("a", &[("k", Field::u(1))]);
        obs.set_now(6);
        obs.event("b", &[]);
        assert_eq!(
            obs.jsonl(),
            "{\"t\":5,\"ev\":\"a\",\"k\":1}\n{\"t\":6,\"ev\":\"b\"}\n"
        );
    }

    #[test]
    fn span_records_calls_and_a_virtual_time_event() {
        let obs = Obs::enabled();
        obs.set_now(3);
        {
            let _s = obs.span("phase");
        }
        assert_eq!(obs.counter("phase.calls"), 1);
        // No wall_ns anywhere without the opt-in: the trace line is a
        // pure function of virtual time.
        assert_eq!(
            obs.jsonl(),
            "{\"t\":3,\"ev\":\"span\",\"name\":\"phase\"}\n"
        );
        assert_eq!(obs.histogram_quantile("phase.wall_ns", 0.5), None);
    }

    #[test]
    fn wall_clock_opt_in_records_durations() {
        let obs = Obs::with_config(ObsConfig {
            wall_clock: true,
            ..ObsConfig::default()
        });
        {
            let _s = obs.span("timed");
        }
        assert_eq!(obs.counter("timed.calls"), 1);
        assert!(obs.histogram_quantile("timed.wall_ns", 1.0).is_some());
        assert!(obs.jsonl().contains("\"wall_ns\":"));
    }

    #[test]
    fn ring_capacity_is_respected_through_the_handle() {
        let obs = Obs::with_config(ObsConfig {
            event_capacity: 2,
            ..ObsConfig::default()
        });
        for i in 0..5 {
            obs.set_now(i);
            obs.event("e", &[]);
        }
        assert_eq!(obs.events_recorded(), 2);
        assert_eq!(obs.events_dropped(), 3);
        assert!(obs.jsonl().starts_with("{\"t\":3"));
    }

    #[test]
    fn clear_resets_but_keeps_enabled() {
        let obs = Obs::enabled();
        obs.incr("c");
        obs.event("e", &[]);
        obs.clear();
        assert!(obs.is_enabled());
        assert_eq!(obs.counter("c"), 0);
        assert_eq!(obs.events_recorded(), 0);
    }

    #[test]
    fn identical_recordings_render_identical_bytes() {
        let run = || {
            let obs = Obs::enabled();
            for i in 0..100u64 {
                obs.set_now(i);
                obs.incr("jobs");
                obs.observe("size", i % 7);
                obs.event("job", &[("i", Field::u(i)), ("odd", Field::b(i % 2 == 1))]);
            }
            (obs.jsonl(), obs.render_table())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_is_byte_identical_to_individual_calls() {
        let record_individually = |obs: &Obs| {
            obs.set_now(4);
            obs.incr("reqs");
            obs.add("bytes", 128);
            obs.observe("h", 7);
            obs.set_gauge("g", -2);
            obs.event("admit", &[("files", Field::u(3)), ("hit", Field::b(false))]);
            obs.event("evict", &[("files", Field::u(1))]);
        };
        let a = Obs::enabled();
        record_individually(&a);
        let b = Obs::enabled();
        b.set_now(4);
        let ret = b.batch(|s| {
            s.incr("reqs");
            s.add("bytes", 128);
            s.observe("h", 7);
            s.set_gauge("g", -2);
            s.event("admit", &[("files", Field::u(3)), ("hit", Field::b(false))]);
            s.event("evict", &[("files", Field::u(1))]);
            42
        });
        assert_eq!(ret, Some(42));
        assert_eq!(a.jsonl(), b.jsonl());
        assert_eq!(a.render_table(), b.render_table());
        // Disabled: the closure never runs.
        assert_eq!(
            Obs::disabled().batch(|_| unreachable!("disabled")),
            None::<()>
        );
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }

    #[test]
    fn child_inherits_config_but_not_state() {
        let parent = Obs::with_config(ObsConfig {
            event_capacity: 3,
            ..ObsConfig::default()
        });
        parent.incr("c");
        parent.set_now(9);
        let child = parent.child();
        assert!(child.is_enabled());
        assert_eq!(child.counter("c"), 0, "fresh registry");
        assert_eq!(child.now(), 0, "fresh clock");
        for i in 0..5 {
            child.set_now(i);
            child.event("e", &[]);
        }
        assert_eq!(child.events_recorded(), 3, "inherits the ring capacity");
        assert_eq!(parent.events_recorded(), 0, "separate sinks");
        assert!(!Obs::disabled().child().is_enabled());
    }

    #[test]
    fn merge_from_folds_a_child_back() {
        let parent = Obs::enabled();
        parent.incr("shared");
        parent.set_gauge("g", 1);
        parent.set_now(5);
        parent.event("p", &[]);
        let child = parent.child();
        child.incr("shared");
        child.incr("child.only");
        child.set_gauge("g", 7);
        child.observe("h", 10);
        child.set_now(9);
        child.event("c", &[("k", Field::u(1))]);
        parent.merge_from(&child);
        assert_eq!(parent.counter("shared"), 2);
        assert_eq!(parent.counter("child.only"), 1);
        assert_eq!(parent.gauge("g"), 7, "gauge: merged-in value wins");
        assert_eq!(parent.histogram_quantile("h", 1.0), Some(10));
        assert_eq!(parent.now(), 9, "clock advances to the later run");
        assert_eq!(
            parent.jsonl(),
            "{\"t\":5,\"ev\":\"p\"}\n{\"t\":9,\"ev\":\"c\",\"k\":1}\n"
        );
        // Self-merge and disabled-merge are no-ops.
        parent.merge_from(&parent.clone());
        parent.merge_from(&Obs::disabled());
        assert_eq!(parent.counter("shared"), 2);
    }

    #[test]
    fn fixed_order_merge_is_deterministic() {
        let run = || {
            let parent = Obs::enabled();
            let children: Vec<Obs> = (0..4).map(|_| parent.child()).collect();
            for (i, c) in children.iter().enumerate() {
                c.set_now(i as u64 * 10);
                c.incr("jobs");
                c.event("done", &[("shard", Field::u(i as u64))]);
            }
            for c in &children {
                parent.merge_from(c);
            }
            (parent.jsonl(), parent.render_table())
        };
        assert_eq!(run(), run());
    }
}
