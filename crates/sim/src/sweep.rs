//! Parallel parameter sweeps.
//!
//! The paper's evaluation burned "over 1000 hours of CPU time" across many
//! parameter combinations; this module spreads independent simulation runs
//! over OS threads with `std::thread::scope`. Each run is a pure function
//! of its configuration (seeded RNGs), so results are independent of
//! scheduling and identical to a sequential sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `f` over every config, in parallel on up to `threads` workers, and
/// returns the outputs in input order.
///
/// Workers claim indices from a shared atomic counter and send each
/// `(index, result)` pair over a channel, so completing a run never
/// serializes behind a lock held by another worker; the coordinator
/// reassembles input order after the scope joins.
///
/// `threads = 0` (or 1) degenerates to a sequential sweep.
pub fn parallel_sweep<T, R, F>(configs: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return configs.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn({
                let next = &next;
                let f = &f;
                move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&configs[i]);
                    // The receiver outlives the scope; a send only fails if
                    // the coordinator is gone, which cannot happen here.
                    let _ = tx.send((i, r));
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every sweep slot filled"))
        .collect()
}

/// A reasonable default worker count: the machine's available parallelism,
/// leaving one core for the coordinator.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let configs: Vec<u64> = (0..100).collect();
        let out = parallel_sweep(&configs, 8, |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let configs: Vec<u64> = (0..50).collect();
        let seq = parallel_sweep(&configs, 1, |&x| x + 1);
        let par = parallel_sweep(&configs, 4, |&x| x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = parallel_sweep(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let out = parallel_sweep(&[1, 2], 64, |&x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn simulation_sweep_matches_direct_runs() {
        use crate::runner::{run_trace, RunConfig};
        use fbc_core::optfilebundle::OptFileBundle;
        use fbc_workload::{Workload, WorkloadConfig};

        use fbc_core::types::MIB;
        let sizes: Vec<u64> = vec![50 * MIB, 100 * MIB, 200 * MIB];
        let base = WorkloadConfig {
            cache_size: 1000 * MIB,
            num_files: 30,
            max_file_frac: 0.05,
            pool_requests: 20,
            jobs: 200,
            files_per_request: (1, 3),
            popularity: fbc_workload::Popularity::zipf(),
            seed: 5,
        };
        let trace = Workload::generate(base).into_trace();
        let run_one = |cache: &u64| {
            let mut p = OptFileBundle::new();
            run_trace(
                &mut p,
                &trace,
                &RunConfig::new(*cache),
                &fbc_obs::Obs::disabled(),
            )
            .byte_miss_ratio()
        };
        let par = parallel_sweep(&sizes, 3, run_one);
        let seq: Vec<f64> = sizes.iter().map(run_one).collect();
        assert_eq!(par, seq);
    }
}
