//! Property-based integration tests (proptest) on the cross-crate
//! invariants listed in DESIGN.md §6.

use file_bundle_cache::core::exact::solve_exact;
use file_bundle_cache::core::instance::FbcInstance;
use file_bundle_cache::core::select::{opt_cache_select, GreedyVariant, SelectOptions};
use file_bundle_cache::prelude::*;
use proptest::prelude::*;

/// Strategy: a small random FBC instance.
fn fbc_instance() -> impl Strategy<Value = FbcInstance> {
    (2usize..=8, 1usize..=10).prop_flat_map(|(m, n)| {
        let sizes = proptest::collection::vec(1u64..=20, m);
        let request = (proptest::collection::vec(0u32..m as u32, 1..=3), 1u32..=50);
        let requests = proptest::collection::vec(request, n);
        (sizes, requests, 0u64..=80).prop_map(|(sizes, requests, cap)| {
            let reqs = requests
                .into_iter()
                .map(|(files, v)| (files, v as f64))
                .collect();
            FbcInstance::new(cap, sizes, reqs).expect("valid instance")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 4.1: the greedy's value is at least ½(1 − e^{−1/d}) of the
    /// exact optimum, on every instance.
    #[test]
    fn greedy_respects_theorem_4_1(inst in fbc_instance()) {
        let exact = solve_exact(&inst);
        let greedy = opt_cache_select(&inst, &SelectOptions::default());
        let check = file_bundle_cache::core::bounds::check_greedy_bound(
            &inst, greedy.value, exact.value);
        prop_assert!(check.holds,
            "ratio {} < guarantee {} (d={})",
            check.achieved_ratio, check.guarantee, check.d);
    }

    /// Every greedy variant returns a feasible selection.
    #[test]
    fn greedy_selections_are_feasible(inst in fbc_instance()) {
        for variant in [GreedyVariant::PaperLiteral, GreedyVariant::SortedOnce,
                        GreedyVariant::SharedCredit] {
            let sel = opt_cache_select(&inst, &SelectOptions {
                variant, max_single_fallback: true });
            prop_assert!(sel.bytes <= inst.capacity());
            prop_assert!(inst.is_feasible(&sel.chosen));
            // Value must equal the sum of chosen request values.
            let recomputed = inst.total_value(&sel.chosen);
            prop_assert!((sel.value - recomputed).abs() < 1e-9);
        }
    }

    /// Partial enumeration never does worse than the plain greedy and never
    /// exceeds the optimum.
    #[test]
    fn enumeration_is_sandwiched(inst in fbc_instance()) {
        let exact = solve_exact(&inst);
        let plain = opt_cache_select(&inst, &SelectOptions::default());
        let e2 = file_bundle_cache::core::enumerate::opt_cache_select_enumerated(&inst, 2);
        prop_assert!(e2.value + 1e-9 >= plain.value);
        prop_assert!(exact.value + 1e-9 >= e2.value);
    }
}

/// Strategy: a random trace over a small catalog.
fn trace_and_cache() -> impl Strategy<Value = (Trace, Bytes)> {
    (3usize..=20, 1u64..=64)
        .prop_flat_map(|(m, cache_units)| {
            let sizes = proptest::collection::vec(1u64..=8, m);
            let bundle = proptest::collection::vec(0u32..m as u32, 1..=4);
            let jobs = proptest::collection::vec(bundle, 1..=60);
            (sizes, jobs, Just(cache_units))
        })
        .prop_map(|(sizes, jobs, cache_units)| {
            let catalog = FileCatalog::from_sizes(sizes);
            let requests = jobs.into_iter().map(Bundle::from_raw).collect();
            (Trace::new(catalog, requests), cache_units)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cache capacity and residency invariants hold for every policy on
    /// arbitrary traces, including infeasible (over-capacity) bundles.
    #[test]
    fn all_policies_respect_invariants((trace, cache) in trace_and_cache()) {
        let mut kinds = PolicyKind::ONLINE.to_vec();
        kinds.push(PolicyKind::BeladyMin);
        for kind in kinds {
            let mut policy = kind.build();
            policy.prepare(&trace.requests);
            let mut state = CacheState::new(cache);
            for bundle in &trace.requests {
                let out = policy.handle(bundle, &mut state, &trace.catalog);
                prop_assert!(state.check_invariants(), "{kind:?} broke invariants");
                if out.serviced {
                    prop_assert!(state.contains_all(bundle), "{kind:?}: serviced but missing files");
                } else {
                    // Only oversized bundles may go unserviced in a pin-free run.
                    prop_assert!(bundle.total_size(&trace.catalog) > cache,
                        "{kind:?} failed a feasible bundle");
                }
                prop_assert_eq!(out.requested_bytes, bundle.total_size(&trace.catalog));
                // Accounting sanity: fetched files were really missing; sizes add up.
                let fetched_sum: u64 = out.fetched_files.iter()
                    .map(|&f| trace.catalog.size(f)).sum();
                prop_assert_eq!(fetched_sum, out.fetched_bytes);
            }
        }
    }

    /// Simulation runs are deterministic: same trace, same policy config,
    /// same metrics.
    #[test]
    fn runs_are_deterministic((trace, cache) in trace_and_cache()) {
        for kind in [PolicyKind::OptFileBundle, PolicyKind::Landlord, PolicyKind::Random] {
            let mut a = kind.build();
            let mut b = kind.build();
            let ma = run_trace(a.as_mut(), &trace, &RunConfig::new(cache), &Obs::disabled());
            let mb = run_trace(b.as_mut(), &trace, &RunConfig::new(cache), &Obs::disabled());
            prop_assert_eq!(ma, mb, "{:?} nondeterministic", kind);
        }
    }

    /// Trace text serialisation round-trips arbitrary traces.
    #[test]
    fn trace_roundtrip((trace, _cache) in trace_and_cache()) {
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// A queue of one is exactly FCFS for every discipline: the whole
    /// `Metrics`, series and warmup gate included.
    #[test]
    fn queue_of_one_is_fcfs((trace, cache) in trace_and_cache(),
                            warmup in 0u64..10, window in 1u64..8) {
        let fcfs_cfg = RunConfig {
            warmup_jobs: warmup,
            series_window: Some(window),
            ..RunConfig::new(cache)
        };
        let mut a = OptFileBundle::new();
        let fcfs = run_trace(&mut a, &trace, &fcfs_cfg, &Obs::disabled());
        for discipline in [Discipline::Fcfs, Discipline::HighestRelativeValue,
                           Discipline::ShortestJobFirst] {
            let cfg = RunConfig {
                queue: QueueConfig { queue_len: 1, discipline },
                ..fcfs_cfg
            };
            let mut b = OptFileBundle::new();
            let q1 = run_trace(&mut b, &trace, &cfg, &Obs::disabled());
            prop_assert_eq!(&fcfs, &q1, "{:?}", discipline);
        }
    }

    /// Queued admission services every job exactly once (no lockout, no
    /// duplication) under any discipline.
    #[test]
    fn queueing_never_drops_jobs((trace, cache) in trace_and_cache(),
                                 q in 1usize..=16) {
        for discipline in [Discipline::Fcfs, Discipline::HighestRelativeValue,
                           Discipline::ShortestJobFirst] {
            let mut p = OptFileBundle::new();
            let cfg = RunConfig {
                queue: QueueConfig { queue_len: q, discipline },
                ..RunConfig::new(cache)
            };
            let m = run_trace(&mut p, &trace, &cfg, &Obs::disabled());
            prop_assert_eq!(m.jobs, trace.len() as u64);
        }
    }
}

/// Bytes the text formats are made of, so edits often stay near-valid.
const FORMAT_BYTES: &[u8] = b"0123456789-+.,;:=* \n#eEinfaNsdrvkltpo";

/// One random byte edit: overwrite, insert before, or delete the byte at
/// `pos % len`. Half the bytes come from [`FORMAT_BYTES`], half from the
/// whole `u8` range.
fn apply_edit(input: &mut Vec<u8>, (pos, kind, byte): (usize, u8, u8)) {
    let byte = if byte & 1 == 0 {
        FORMAT_BYTES[(byte >> 1) as usize % FORMAT_BYTES.len()]
    } else {
        byte
    };
    let at = pos % (input.len() + 1);
    match kind % 3 {
        0 if at < input.len() => input[at] = byte,
        2 if at < input.len() => {
            input.remove(at);
        }
        _ => input.insert(at, byte),
    }
}

/// The hostile variants of a valid input: a prefix of it, the input with
/// `edits` applied, and a prefix of the edited input.
fn hostile_variants(valid: &[u8], edits: &[(usize, u8, u8)], cut: usize) -> [Vec<u8>; 3] {
    let mut edited = valid.to_vec();
    for &e in edits {
        apply_edit(&mut edited, e);
    }
    let edited_prefix = edited[..cut % (edited.len() + 1)].to_vec();
    [
        valid[..cut % (valid.len() + 1)].to_vec(),
        edited,
        edited_prefix,
    ]
}

/// Strategy: an index into a list of valid inputs, up to five byte edits
/// and a cut point.
fn hostile(valid: usize) -> impl Strategy<Value = (usize, Vec<(usize, u8, u8)>, usize)> {
    (
        0..valid,
        proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..=5),
        any::<usize>(),
    )
}

const FAULT_SPECS: &[&str] = &[
    "preset:tape-outage",
    "preset:flaky-wan",
    "preset:blackout",
    "drive=0,60,300;transient=0.01;seed=7",
    "drive=*,0,inf;link-down=5,10;seed=3",
    "link-slow=0,600,0.5;transient=0.02;seed=1",
    "seed=99",
];

/// Valid history files: `Count` and `Decay` histories over a 12-file
/// catalog, written with `write_to`.
fn valid_histories() -> (FileCatalog, Vec<Vec<u8>>) {
    let catalog = FileCatalog::from_sizes((1..=12).collect());
    let histories = [ValueFn::Count, ValueFn::Decay { half_life: 40.0 }].map(|value_fn| {
        let mut h = RequestHistory::with_value_fn(value_fn);
        for i in 0..30u32 {
            h.record(&Bundle::from_raw([i % 12, (i * 5 + 1) % 12, (i * 7) % 12]));
        }
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        buf
    });
    (catalog, histories.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile fault specs: edits and prefixes of valid specs parse to a
    /// plan or an error, never a panic, and every plan they parse to is
    /// valid.
    #[test]
    fn fault_spec_mutations_never_panic((i, edits, cut) in hostile(FAULT_SPECS.len())) {
        for input in hostile_variants(FAULT_SPECS[i].as_bytes(), &edits, cut) {
            let spec = String::from_utf8_lossy(&input);
            if let Ok(plan) = file_bundle_cache::grid::faults::FaultPlan::parse(&spec) {
                prop_assert!(plan.validate().is_ok(), "{spec:?} parsed to an invalid plan");
            }
        }
    }

    /// Hostile shard routing labels: only the exact labels parse.
    #[test]
    fn shard_by_mutations_never_panic((i, edits, cut) in hostile(2)) {
        use file_bundle_cache::grid::shard::ShardBy;
        let labels = [ShardBy::File, ShardBy::Bundle];
        for input in hostile_variants(labels[i].label().as_bytes(), &edits, cut) {
            let label = String::from_utf8_lossy(&input);
            if let Some(by) = ShardBy::parse(&label) {
                prop_assert_eq!(by.label(), &*label);
            }
        }
    }

    /// Hostile history files: edits and prefixes of valid histories load
    /// or fail with an error, never a panic, and a history that loads can
    /// warm-start `OptFileBundle` and decide.
    #[test]
    fn history_mutations_never_panic((i, edits, cut) in hostile(2)) {
        let (catalog, histories) = valid_histories();
        for input in hostile_variants(&histories[i], &edits, cut) {
            if let Ok(h) = RequestHistory::read_from(&input[..], &catalog) {
                let mut policy = OptFileBundle::with_history(OfbConfig::default(), h);
                let mut cache = CacheState::new(10);
                for b in [[0, 1, 2], [3, 4, 5], [0, 6, 11]] {
                    policy.handle(&Bundle::from_raw(b), &mut cache, &catalog);
                }
            }
        }
    }

    /// The streaming trace reader accepts and rejects exactly what its
    /// reference twin (a `String` per line, `trim`, `split_whitespace`,
    /// `str::parse`) does, with equal error kinds and messages: on v1
    /// text rendered with random whitespace, `+` signs, comments, blank
    /// lines and non-ASCII separators, with requests that repeat earlier
    /// lines byte for byte or re-rendered, and on hostile edits and
    /// prefixes of it. Every input is also read one byte per `read`, so
    /// that every line crosses a refill of the reader's buffer.
    #[test]
    fn trace_reader_matches_reference(
        (trace, _) in trace_and_cache(),
        noise in proptest::collection::vec(any::<u8>(), 1..=64),
        (_, edits, cut) in hostile(1),
    ) {
        let trace = with_repeats(&trace, &noise);
        let (text, valid) = noisy_trace_text(&trace, &noise);
        if valid {
            let read = Trace::read_from(&text[..]);
            prop_assert!(read.as_ref().is_ok_and(|t| *t == trace),
                "{:?}: {:?}", String::from_utf8_lossy(&text), read.err());
        }
        for input in hostile_variants(&text, &edits, cut).iter().chain([&text]) {
            let want = outcome(Trace::read_from_reference(&input[..]));
            prop_assert_eq!(outcome(Trace::read_from(&input[..])), want.clone(),
                "{:?}", String::from_utf8_lossy(input));
            prop_assert_eq!(outcome(Trace::read_from(OneByteReads(input))), want,
                "{:?} (one byte per read)", String::from_utf8_lossy(input));
        }
    }
}

/// A reader's result with the error reduced to what the contract pins:
/// its kind and message.
fn outcome(
    read: std::io::Result<Trace>,
) -> std::result::Result<Trace, (std::io::ErrorKind, String)> {
    read.map_err(|e| (e.kind(), e.to_string()))
}

/// A reader that hands out one byte per `read`.
struct OneByteReads<'a>(&'a [u8]);

impl std::io::Read for OneByteReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Whitespace the text formats must treat as separators: the ASCII
/// `White_Space` bytes (`\x0B` included) and non-ASCII ones.
const SEPARATORS: &[&str] = &[
    " ", "\t", "\x0B", "\x0C", "\r", "  ", " \t", "\u{A0}", "\u{85}", "\u{2003}", "\u{3000}",
];

/// Lines the formats skip.
const SKIPPED: &[&str] = &[
    "",
    "   ",
    "\t\x0B",
    "#",
    "# comment",
    "#\u{E9}t\u{E9}",
    "\u{A0}",
    "  # x",
];

/// Layout choices, drawn in turn from a cycled byte string.
struct Noise<'a> {
    draws: std::iter::Cycle<std::slice::Iter<'a, u8>>,
    /// Whether a header keyword got a separator other than one space,
    /// which the format rejects.
    broke_a_header: bool,
}

impl Noise<'_> {
    fn draw(&mut self) -> u8 {
        *self.draws.next().expect("noise is not empty")
    }

    fn separator(&mut self) -> &'static str {
        SEPARATORS[self.draw() as usize % SEPARATORS.len()]
    }

    /// Appends one line: skipped lines first, then leading whitespace, an
    /// optional header keyword, `values` and a line ending.
    fn line(&mut self, out: &mut String, keyword: Option<&str>, values: &[u64]) {
        for _ in 0..self.draw() % 3 {
            out.push_str(SKIPPED[self.draw() as usize % SKIPPED.len()]);
            out.push('\n');
        }
        if self.draw().is_multiple_of(3) {
            out.push_str(self.separator());
        }
        if let Some(keyword) = keyword {
            out.push_str(keyword);
            let separator = if self.draw().is_multiple_of(7) {
                self.separator()
            } else {
                " "
            };
            self.broke_a_header |= separator != " ";
            out.push_str(separator);
        }
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push_str(self.separator());
            }
            match self.draw() % 4 {
                0 => out.push('+'),
                1 => out.push('0'),
                _ => {}
            }
            out.push_str(&v.to_string());
        }
        match self.draw() % 5 {
            0 => out.push_str("\r\n"),
            1 => {
                out.push_str(self.separator());
                out.push('\n');
            }
            _ => out.push('\n'),
        }
    }
}

/// `trace` with about half of its requests replaced by an earlier one,
/// chosen by `noise`.
fn with_repeats(trace: &Trace, noise: &[u8]) -> Trace {
    let mut draws = noise.iter().rev().cycle().map(|&d| usize::from(d));
    let mut requests: Vec<Bundle> = Vec::with_capacity(trace.len());
    for r in &trace.requests {
        let d = draws.next().expect("noise is not empty");
        let r = match d % 2 {
            1 if !requests.is_empty() => requests[d / 2 % requests.len()].clone(),
            _ => r.clone(),
        };
        requests.push(r);
    }
    Trace::new(trace.catalog.clone(), requests)
}

/// `trace` in the v1 format, with each choice of layout drawn from
/// `noise`: line endings (`\n`, `\r\n`, trailing whitespace), leading
/// whitespace, separators between ids and after header keywords, `+`
/// signs and leading zeros on numbers, skipped lines between data lines,
/// and a last line without `\n`. A repeated request either repeats an
/// earlier rendering of it byte for byte, skipped lines included, or is
/// rendered afresh. Now and then a request line naming a file past the
/// catalog is written twice. Also returns whether the text is still a
/// valid trace: a header keyword followed by anything but one space is
/// not, nor is an unknown file.
fn noisy_trace_text(trace: &Trace, noise: &[u8]) -> (Vec<u8>, bool) {
    let mut noise = Noise {
        draws: noise.iter().cycle(),
        broke_a_header: false,
    };
    let mut out = String::from("# fbc-trace v1\n");
    noise.line(&mut out, Some("files"), &[trace.catalog.len() as u64]);
    for (_, size) in trace.catalog.iter() {
        noise.line(&mut out, None, &[size]);
    }
    noise.line(&mut out, Some("requests"), &[trace.len() as u64]);
    let mut rendered: Vec<(Vec<u64>, String)> = Vec::new();
    let mut unknown_file = false;
    for r in &trace.requests {
        let mut ids: Vec<u64> = r.iter().map(|f| u64::from(f.0)).collect();
        if noise.draw().is_multiple_of(29) {
            ids.push(trace.catalog.len() as u64);
            unknown_file = true;
        }
        let line = match rendered.iter().find(|(seen, _)| *seen == ids) {
            Some((_, line)) if !noise.draw().is_multiple_of(3) => line.clone(),
            _ => {
                let mut line = String::new();
                noise.line(&mut line, None, &ids);
                rendered.push((ids, line.clone()));
                line
            }
        };
        out.push_str(&line);
        if unknown_file {
            out.push_str(&line);
            break;
        }
    }
    if noise.draw().is_multiple_of(2) {
        out.truncate(out.trim_end_matches(['\n', '\r']).len());
    }
    (out.into_bytes(), !noise.broke_a_header && !unknown_file)
}
