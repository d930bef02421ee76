//! Property-based tests of the grid substrate components.

use fbc_grid::event::EventQueue;
use fbc_grid::mss::{MassStorage, MssConfig};
use fbc_grid::network::{Link, LinkConfig};
use fbc_grid::stats::ResponseStats;
use fbc_grid::time::{SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    External(usize),
    Internal(usize),
}

/// Drains `q`, taking each event from `next`. The `n`th pop schedules an
/// internal event `delays[n % len]` later if that is below 6, up to 200 of
/// them.
fn drain(
    q: &mut EventQueue<Ev>,
    delays: &[u64],
    mut next: impl FnMut(&mut EventQueue<Ev>) -> Option<(SimTime, Ev)>,
) -> Vec<(SimTime, Ev)> {
    let mut popped = Vec::new();
    while let Some((at, ev)) = next(q) {
        let n = popped.len();
        let d = delays[n % delays.len()];
        if d < 6 && n < 200 {
            q.schedule(at + SimDuration(d), Ev::Internal(n));
        }
        popped.push((at, ev));
    }
    popped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for any schedule-at-time-zero batch.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(x) = q.pop() {
            popped.push(x);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                // FIFO among ties: sequence numbers increase.
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    /// Merging a sorted external stream past the heap pops the same
    /// sequence as scheduling the whole stream first, with internal events
    /// scheduled during the drain (ties included). `batch` puts every
    /// external event at time zero, as a batch arrival does.
    #[test]
    fn merged_stream_pops_like_one_heap(
        mut times in proptest::collection::vec(0u64..20, 0..40),
        batch: bool,
        delays in proptest::collection::vec(0u64..9, 1..16),
    ) {
        if batch {
            times.iter_mut().for_each(|t| *t = 0);
        }
        times.sort_unstable();
        let externals = || times.iter().enumerate().map(|(i, &t)| (SimTime(t), Ev::External(i)));
        let mut one_heap = EventQueue::new();
        for (at, ev) in externals() {
            one_heap.schedule(at, ev);
        }
        let expected = drain(&mut one_heap, &delays, |q| q.pop());
        let mut stream = externals().peekable();
        let merged = drain(&mut EventQueue::new(), &delays, |q| q.pop_merged(&mut stream));
        prop_assert_eq!(merged, expected);
    }

    /// Link transfers never complete before `now + latency + bytes/bw` and
    /// are FIFO: completion times are non-decreasing in submission order.
    #[test]
    fn link_transfers_are_causal_and_fifo(sizes in proptest::collection::vec(1u64..10_000_000, 1..30)) {
        let config = LinkConfig {
            latency: SimDuration::from_millis(5),
            bandwidth: 1e6,
        };
        let mut link = Link::new(config);
        let mut prev = SimTime::ZERO;
        let mut carried = 0u64;
        for &bytes in &sizes {
            let done = link.schedule_transfer(SimTime::ZERO, bytes);
            let min = SimTime::ZERO + link.transfer_time(bytes);
            prop_assert!(done >= min);
            prop_assert!(done >= prev);
            prev = done;
            carried += bytes;
        }
        prop_assert_eq!(link.bytes_carried(), carried);
    }

    /// With `d` drives, the MSS completes any batch submitted at t=0 no
    /// later than a single drive would, and no earlier than the work
    /// conservation bound (total service / d).
    #[test]
    fn mss_parallelism_is_work_conserving(
        sizes in proptest::collection::vec(1u64..5_000_000, 1..20),
        drives in 1usize..6,
    ) {
        let config = |d: usize| MssConfig {
            drives: d,
            mount_latency: SimDuration::from_millis(100),
            drive_bandwidth: 1e6,
        };
        let run = |d: usize| {
            let mut mss = MassStorage::new(config(d));
            sizes
                .iter()
                .map(|&b| mss.schedule_fetch(SimTime::ZERO, b))
                .max()
                .unwrap()
        };
        let single = run(1);
        let multi = run(drives);
        prop_assert!(multi <= single);
        // Work conservation: total busy time / drives lower-bounds makespan.
        let total_micros: u64 = sizes
            .iter()
            .map(|&b| MassStorage::new(config(1)).service_time(b).micros())
            .sum();
        prop_assert!(multi.micros() >= total_micros / drives as u64);
    }

    /// Arrival processes are monotone in time and preserve job order.
    #[test]
    fn arrivals_are_monotone(n in 1usize..60, rate in 0.1f64..100.0, seed: u64) {
        use fbc_core::bundle::Bundle;
        use fbc_grid::client::{schedule_arrivals, ArrivalProcess};
        let jobs: Vec<Bundle> = (0..n as u32).map(|i| Bundle::from_raw([i])).collect();
        let arr = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate, seed });
        prop_assert_eq!(arr.len(), n);
        for w in arr.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        for (i, a) in arr.iter().enumerate() {
            prop_assert_eq!(&a.bundle, &jobs[i]);
        }
    }

    /// `ResponseStats` answers like brute force over its samples: every
    /// nearest-rank quantile equals sort-then-index, `max` and the
    /// truncating `mean` match, and `merge` is concatenation. Values come
    /// from a small range, so duplicates are common.
    #[test]
    fn response_stats_match_brute_force(
        a in proptest::collection::vec(0u64..50, 0..80),
        b in proptest::collection::vec(0u64..50, 0..80),
        q in 0.0f64..=1.0,
    ) {
        let record = |xs: &[u64]| {
            let mut r = ResponseStats::new();
            for &x in xs {
                r.record(SimDuration(x));
            }
            r
        };
        let mut merged = record(&a);
        merged.merge(&record(&b));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(&merged, &record(&all));
        let expected: Vec<SimDuration> = all.iter().map(|&x| SimDuration(x)).collect();
        prop_assert_eq!(merged.samples(), expected.as_slice());
        prop_assert_eq!(merged.len(), all.len() as u64);

        let mut sorted = all.clone();
        sorted.sort_unstable();
        for q in [0.0, 1.0, q] {
            let brute = fbc_obs::quantile::nearest_rank(&sorted, q).unwrap_or(0);
            prop_assert_eq!(merged.quantile(q), SimDuration(brute), "q={}", q);
        }
        prop_assert_eq!(merged.max(), SimDuration(sorted.last().copied().unwrap_or(0)));
        let mean = if all.is_empty() { 0 } else { all.iter().sum::<u64>() / all.len() as u64 };
        prop_assert_eq!(merged.mean(), SimDuration(mean));
    }
}
