//! `OptCacheSelect` — the greedy heuristic at the heart of `OptFileBundle`
//! (paper §3, Algorithm 1).
//!
//! Given an FBC instance, the algorithm services requests in decreasing
//! order of adjusted relative value `v'(r)`, admitting each request whose
//! files still fit, and finally returns the better of the greedy set and the
//! single most valuable request (which is what makes the
//! `½(1 − e^{−1/d})` bound of Theorem 4.1 hold — see Appendix A).
//!
//! Three variants are provided:
//!
//! * [`GreedyVariant::PaperLiteral`] — Algorithm 1 exactly as printed: one
//!   sort, and each admitted request is charged the *full* size of its
//!   bundle even if some files were already loaded by an earlier selection.
//! * [`GreedyVariant::SortedOnce`] — one sort, but each request is charged
//!   only the *marginal* size of its not-yet-loaded files (the natural
//!   implementation of "load the files in `F(r_i)`").
//! * [`GreedyVariant::SharedCredit`] — the paper's "Note" refinement: after
//!   every selection the adjusted relative values are recomputed with the
//!   sizes of already-selected files set to zero, and the candidate list is
//!   effectively re-sorted. Never worse in solution quality on the
//!   workloads of §5.
//!
//! Every variant is a plain loop over the instance: the sorted variants
//! sort once and make one admission pass; shared credit rescans every
//! unselected request after each selection (`O(n · b)` per selection for
//! `n` requests of bundle size `b`). Instances are the offline solvers'
//! (partial enumeration, the bound checks), which are small enough for
//! [`solve_exact`](crate::exact::solve_exact). The online policy decides
//! in place over its resident state instead ([`crate::resident`]), with
//! the same keys and tie-breaking, so its selections equal these bit for
//! bit.

use crate::instance::{FbcInstance, Selection};
use serde::{Deserialize, Serialize};

/// Which flavour of the greedy loop to run. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GreedyVariant {
    /// Algorithm 1 verbatim (full-size charging, single sort).
    PaperLiteral,
    /// Single sort, marginal-size charging.
    SortedOnce,
    /// Recompute-and-resort after every selection (the paper's Note).
    #[default]
    SharedCredit,
}

/// Options for [`opt_cache_select`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectOptions {
    /// Greedy flavour.
    pub variant: GreedyVariant,
    /// Whether to apply Algorithm 1's Step 3 (return the single best request
    /// if it beats the greedy set). Disable only for ablation.
    pub max_single_fallback: bool,
}

impl Default for SelectOptions {
    fn default() -> Self {
        Self {
            variant: GreedyVariant::default(),
            max_single_fallback: true,
        }
    }
}

/// Runs `OptCacheSelect` on `inst` and returns the selected requests.
///
/// ```
/// use fbc_core::instance::FbcInstance;
/// use fbc_core::select::{opt_cache_select, SelectOptions};
///
/// // Two requests share file 0; capacity fits both bundles together.
/// let inst = FbcInstance::new(
///     30,
///     vec![10, 10, 10],
///     vec![(vec![0, 1], 2.0), (vec![0, 2], 2.0)],
/// ).unwrap();
/// let sel = opt_cache_select(&inst, &SelectOptions::default());
/// assert_eq!(sel.chosen.len(), 2);
/// assert_eq!(sel.bytes, 30); // union {0,1,2}, file 0 counted once
/// ```
pub fn opt_cache_select(inst: &FbcInstance, opts: &SelectOptions) -> Selection {
    let greedy = match opts.variant {
        GreedyVariant::PaperLiteral => greedy_sorted(inst, false),
        GreedyVariant::SortedOnce => greedy_sorted(inst, true),
        GreedyVariant::SharedCredit => greedy_shared_credit(inst, &[], inst.capacity()),
    };
    if opts.max_single_fallback {
        max_of(greedy, best_single(inst))
    } else {
        greedy
    }
}

/// Step 3 of Algorithm 1: the single feasible request of highest value.
///
/// Request sizes are memoised by [`FbcInstance`] at construction, so the
/// scan is a flat pass over two arrays rather than `n` bundle summations.
pub fn best_single(inst: &FbcInstance) -> Selection {
    let mut best: Option<usize> = None;
    for i in 0..inst.num_requests() {
        if inst.request_size(i) <= inst.capacity() {
            match best {
                Some(b) if inst.requests()[b].value >= inst.requests()[i].value => {}
                _ => best = Some(i),
            }
        }
    }
    match best {
        Some(i) => Selection::from_chosen(inst, vec![i]),
        None => Selection::empty(),
    }
}

fn max_of(a: Selection, b: Selection) -> Selection {
    if b.value > a.value {
        b
    } else {
        a
    }
}

/// Requests ordered by decreasing adjusted relative value, ties broken by
/// lower index for determinism. Keys are computed once and sorted with the
/// values inline (`sort_unstable_by` over `(key, index)` pairs), avoiding
/// the indirect `rv[b]` lookups of a comparator closure. The comparator is
/// a total order (ties fall through to the index), so the unstable sort
/// yields exactly the order the previous stable sort did.
fn order_by_relative_value(inst: &FbcInstance) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = (0..inst.num_requests())
        .map(|i| (inst.relative_value(i), i))
        .collect();
    keyed.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Single-sort greedy. With `marginal = false` this is Algorithm 1 verbatim
/// (each request charged its full bundle size); with `marginal = true`
/// already-loaded files are free.
fn greedy_sorted(inst: &FbcInstance, marginal: bool) -> Selection {
    let order = order_by_relative_value(inst);
    let mut loaded = vec![false; inst.num_files()];
    let mut remaining = inst.capacity();
    let mut chosen = Vec::new();
    for i in order {
        let req = &inst.requests()[i];
        let charge: u64 = if marginal {
            req.files()
                .iter()
                .filter(|&&f| !loaded[f as usize])
                .map(|&f| inst.file_size(f))
                .sum()
        } else {
            inst.request_size(i)
        };
        if charge <= remaining {
            remaining -= charge;
            for &f in req.files() {
                loaded[f as usize] = true;
            }
            chosen.push(i);
        }
    }
    Selection::from_chosen(inst, chosen)
}

/// The shared-credit ranking key: `v(r)` over the marginal adjusted size,
/// `+∞` when every file is already loaded (or zero-sized) — free to take.
/// Shared with the resident-state decision kernel (`resident.rs`), which
/// must rank candidates with bit-identical keys.
#[inline]
pub(crate) fn rv_of(value: f64, marginal_adjusted: f64) -> f64 {
    if marginal_adjusted <= 0.0 {
        f64::INFINITY
    } else {
        value / marginal_adjusted
    }
}

/// The recompute-and-resort refinement (paper §3 "Note"), generalised to
/// start from a pre-selected seed (used by partial enumeration): `seed`
/// requests are taken as already chosen, their files pre-loaded, and
/// `capacity` is the space still available for *additional* files.
///
/// At every step the request maximising
/// `v(r) / Σ_{f ∈ F(r), f not loaded} s'(f)` among those whose marginal
/// size fits is selected, ties to the lower index; requests whose files
/// are all loaded are free (`+∞`) and taken first. Each step rescans
/// every unselected request: `O(n · b)` per selection.
pub fn greedy_shared_credit(inst: &FbcInstance, seed: &[usize], capacity: u64) -> Selection {
    let n = inst.num_requests();
    let mut loaded = vec![false; inst.num_files()];
    let mut taken = vec![false; n];
    let mut chosen: Vec<usize> = seed.to_vec();
    for &i in seed {
        taken[i] = true;
        for &f in inst.requests()[i].files() {
            loaded[f as usize] = true;
        }
    }
    let mut remaining = capacity;

    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, req) in inst.requests().iter().enumerate() {
            if taken[i] {
                continue;
            }
            let mut marginal_bytes: u64 = 0;
            let mut marginal_adjusted = 0.0;
            for &f in req.files() {
                if !loaded[f as usize] {
                    marginal_bytes += inst.file_size(f);
                    marginal_adjusted += inst.adjusted_size(f);
                }
            }
            if marginal_bytes > remaining {
                continue;
            }
            let rv = rv_of(req.value, marginal_adjusted);
            let better = match best {
                None => true,
                Some((bi, brv)) => rv > brv || (rv == brv && i < bi),
            };
            if better {
                best = Some((i, rv));
            }
        }
        match best {
            None => break,
            Some((i, _)) => {
                taken[i] = true;
                for &f in inst.requests()[i].files() {
                    if !loaded[f as usize] {
                        remaining -= inst.file_size(f);
                        loaded[f as usize] = true;
                    }
                }
                chosen.push(i);
            }
        }
    }
    Selection::from_chosen(inst, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(variant: GreedyVariant) -> SelectOptions {
        SelectOptions {
            variant,
            max_single_fallback: true,
        }
    }

    /// The paper's worked example (Fig. 3): unit-size files, cache of 3.
    /// Popularity-based caching keeps {f5,f6,f7} (1 request-hit); the
    /// bundle-aware optimum keeps {f1,f3,f5} (3 request-hits).
    fn paper_example() -> FbcInstance {
        // Local file indices 0..=6 map to f1..=f7.
        // Local file indices 0..=6 map to f1..=f7; the request sets are the
        // assignment consistent with the paper's Tables 1 and 2.
        FbcInstance::new(
            3,
            vec![1; 7],
            vec![
                (vec![0, 2, 4], 1.0), // r1 = {f1,f3,f5}
                (vec![1, 5, 6], 1.0), // r2 = {f2,f6,f7}
                (vec![0, 4], 1.0),    // r3 = {f1,f5}
                (vec![3, 5, 6], 1.0), // r4 = {f4,f6,f7}
                (vec![2, 4], 1.0),    // r5 = {f3,f5}
                (vec![4, 5, 6], 1.0), // r6 = {f5,f6,f7}
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_selects_three_requests() {
        let inst = paper_example();
        // Marginal-charging variants find the optimum the paper describes:
        // requests r1, r3, r5 supported by cache content {f1,f3,f5}.
        for variant in [GreedyVariant::SortedOnce, GreedyVariant::SharedCredit] {
            let sel = opt_cache_select(&inst, &opts(variant));
            assert_eq!(sel.value, 3.0, "variant {variant:?}");
            assert_eq!(sel.files, vec![0, 2, 4], "variant {variant:?}");
            assert_eq!(sel.bytes, 3);
        }
        // Algorithm 1 verbatim charges each admitted request its *full*
        // bundle size, so after admitting r1 (2 of 3 units) nothing else
        // "fits" — it returns a single request. This is exactly why the
        // paper's Note recommends recomputation; the ablation bench
        // (`ablation_recompute`) quantifies the gap.
        let literal = opt_cache_select(&inst, &opts(GreedyVariant::PaperLiteral));
        assert_eq!(literal.value, 1.0);
    }

    #[test]
    fn shared_credit_exploits_overlap_where_literal_cannot() {
        // capacity 6, files of size 2 each; r0={0,1} v=10, r1={1,2} v=9.
        let inst = FbcInstance::new(
            6,
            vec![2, 2, 2],
            vec![(vec![0, 1], 10.0), (vec![1, 2], 9.0)],
        )
        .unwrap();
        let literal = opt_cache_select(&inst, &opts(GreedyVariant::PaperLiteral));
        let credit = opt_cache_select(&inst, &opts(GreedyVariant::SharedCredit));
        // Literal: r0 charged 4, then r1 charged its *full* 4 bytes > 2
        // remaining even though the shared file f1 is already loaded.
        assert_eq!(literal.value, 10.0);
        // Marginal charging sees r1's true cost (2 bytes for f2) and fits
        // both requests in the union {f0,f1,f2} of 6 bytes.
        assert_eq!(credit.value, 19.0);
        assert_eq!(credit.bytes, 6);
    }

    #[test]
    fn max_single_fallback_rescues_big_valuable_request() {
        // Many tiny low-value requests vs one huge high-value one.
        // v'(tiny) = 1/1 = 1.0 each; v'(big) = 50/100 = 0.5, so the greedy
        // fills the cache with tiny requests first; capacity 100 admits the
        // tiny ones (total value 3) and then cannot fit the big one.
        let inst = FbcInstance::new(
            100,
            vec![1, 1, 1, 100],
            vec![
                (vec![0], 1.0),
                (vec![1], 1.0),
                (vec![2], 1.0),
                (vec![3], 50.0),
            ],
        )
        .unwrap();
        let with = opt_cache_select(&inst, &opts(GreedyVariant::SharedCredit));
        assert_eq!(with.value, 50.0);
        assert_eq!(with.chosen, vec![3]);
        let without = opt_cache_select(
            &inst,
            &SelectOptions {
                variant: GreedyVariant::SharedCredit,
                max_single_fallback: false,
            },
        );
        assert_eq!(without.value, 3.0);
    }

    #[test]
    fn infeasible_requests_are_never_selected() {
        let inst =
            FbcInstance::new(5, vec![10, 1], vec![(vec![0], 100.0), (vec![1], 1.0)]).unwrap();
        for variant in [
            GreedyVariant::PaperLiteral,
            GreedyVariant::SortedOnce,
            GreedyVariant::SharedCredit,
        ] {
            let sel = opt_cache_select(&inst, &opts(variant));
            assert_eq!(sel.chosen, vec![1], "variant {variant:?}");
            assert!(sel.bytes <= inst.capacity());
        }
    }

    #[test]
    fn empty_instance_yields_empty_selection() {
        let inst = FbcInstance::new(10, vec![], vec![]).unwrap();
        let sel = opt_cache_select(&inst, &SelectOptions::default());
        assert_eq!(sel, Selection::empty());
    }

    #[test]
    fn zero_capacity_selects_only_free_requests() {
        let inst = FbcInstance::new(0, vec![5, 0], vec![(vec![0], 9.0), (vec![1], 1.0)]).unwrap();
        let sel = opt_cache_select(&inst, &SelectOptions::default());
        assert_eq!(sel.chosen, vec![1]);
        assert_eq!(sel.bytes, 0);
    }

    #[test]
    fn selection_is_always_feasible() {
        // Deterministic pseudo-random smoke check across variants.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let m = (next() % 10 + 2) as usize;
            let sizes: Vec<u64> = (0..m).map(|_| next() % 50 + 1).collect();
            let n = (next() % 12 + 1) as usize;
            let reqs: Vec<(Vec<u32>, f64)> = (0..n)
                .map(|_| {
                    let k = (next() % 4 + 1) as usize;
                    let files: Vec<u32> = (0..k).map(|_| (next() % m as u64) as u32).collect();
                    (files, (next() % 100) as f64)
                })
                .collect();
            let cap = next() % 120;
            let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
            for variant in [
                GreedyVariant::PaperLiteral,
                GreedyVariant::SortedOnce,
                GreedyVariant::SharedCredit,
            ] {
                let sel = opt_cache_select(&inst, &opts(variant));
                assert!(sel.bytes <= cap, "variant {variant:?} overflowed");
                assert!(inst.is_feasible(&sel.chosen));
            }
        }
    }

    #[test]
    fn seeded_shared_credit_respects_seed() {
        let inst = FbcInstance::new(
            10,
            vec![5, 5, 5],
            vec![(vec![0], 1.0), (vec![1], 100.0), (vec![2], 50.0)],
        )
        .unwrap();
        // Seed with request 0 (files {0}); 5 bytes remain for others.
        let sel = greedy_shared_credit(&inst, &[0], 5);
        assert!(sel.chosen.contains(&0));
        assert!(sel.chosen.contains(&1)); // highest value fits the remainder
        assert_eq!(sel.chosen.len(), 2);
    }

    /// A parked request (infeasible now, feasible later): r2 does not fit
    /// until r0 loads the shared file 0, after which it is free.
    #[test]
    fn shared_credit_takes_requests_freed_by_shared_files() {
        let inst = FbcInstance::new(
            10,
            vec![6, 4, 5],
            vec![
                (vec![0, 1], 10.0), // loads {0,1}, remaining 0
                (vec![0, 2], 9.0),  // marginal 5 > 0 even after f0 loads
                (vec![0], 1.0),     // free once f0 is loaded
            ],
        )
        .unwrap();
        let sel = greedy_shared_credit(&inst, &[], inst.capacity());
        assert_eq!(sel.chosen, vec![0, 2]);
        assert_eq!(sel.bytes, 10);
    }

    /// Seeded runs (partial enumeration's entry point) on random instances:
    /// the seed leads the selection, the union fits the seed's bytes plus
    /// `capacity`, and the greedy is maximal — no unselected request's
    /// marginal size fits what is left.
    #[test]
    fn seeded_shared_credit_is_feasible_and_maximal() {
        let mut state = 0xC0FFEE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let m = (next() % 12 + 1) as usize;
            let sizes: Vec<u64> = (0..m).map(|_| next() % 30).collect();
            let n = (next() % 15 + 1) as usize;
            let reqs: Vec<(Vec<u32>, f64)> = (0..n)
                .map(|_| {
                    let k = (next() % 5 + 1) as usize;
                    let files: Vec<u32> = (0..k).map(|_| (next() % m as u64) as u32).collect();
                    (files, (next() % 40) as f64)
                })
                .collect();
            let cap = next() % 200;
            let inst = FbcInstance::new(cap, sizes, reqs).unwrap();
            let seed: Vec<usize> = if next() % 3 == 0 {
                vec![(next() % n as u64) as usize]
            } else {
                vec![]
            };
            // Seeded calls mirror partial enumeration: capacity is what's
            // left after the seed's own files.
            let seed_bytes = inst.union_size(&seed);
            if seed_bytes > cap {
                continue;
            }
            let sel = greedy_shared_credit(&inst, &seed, cap - seed_bytes);
            assert_eq!(sel.chosen[..seed.len()], seed[..], "round {round}");
            assert!(inst.is_feasible(&sel.chosen), "round {round}");
            for i in (0..n).filter(|i| !sel.chosen.contains(i)) {
                let mut with = sel.chosen.clone();
                with.push(i);
                assert!(!inst.is_feasible(&with), "round {round}: r{i} still fits");
            }
        }
    }
}
