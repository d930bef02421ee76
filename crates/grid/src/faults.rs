//! Deterministic fault injection for the grid substrate.
//!
//! Real data-grids lose tape drives, see WAN brownouts, and hit transient
//! fetch errors; the paper's "optimal service" claims only matter if the
//! caching layer degrades gracefully under them. This module describes
//! faults as a declarative, *seeded* [`FaultPlan`] — drive outage windows,
//! link outages, bandwidth-degradation windows, and a per-fetch transient
//! error probability — and compiles it into a [`FaultInjector`] the engine
//! consults while scheduling fetches.
//!
//! # Determinism contract
//!
//! A run with a fixed `(workload seed, arrival seed, FaultPlan)` is
//! bit-for-bit reproducible: all windows are virtual-time intervals fixed
//! up front, and the only randomness (transient errors, retry jitter) comes
//! from the plan's own seeded generator, drawn in event order. A plan with
//! no faults ([`FaultPlan::is_zero_fault`]) draws **nothing** from that
//! generator and schedules identically to a run without any injector, so
//! `FaultPlan::default()` reproduces fault-free outputs exactly.
//!
//! # Outage semantics
//!
//! Outage and degradation windows *suspend* (or slow) service: a fetch in
//! progress across a window makes no (or reduced) progress during it and
//! resumes afterwards — the work is not lost. A window reaching
//! [`FOREVER`] models a permanently dead component: fetches that
//! cannot finish are reported to the SRM, which retries with backoff and
//! eventually reports the job `failed` (see `engine::run_grid_observed`).

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The end of time, used for permanent ("until repaired — never") outages.
pub const FOREVER: SimTime = SimTime(u64::MAX);

/// A half-open virtual-time window `[from, until)` with a service-rate
/// factor: `0.0` is a full outage, `0.5` halves effective bandwidth, `1.0`
/// is a no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); [`FOREVER`] for a permanent condition.
    pub until: SimTime,
    /// Service-rate multiplier in `[0, 1]` while the window is active.
    pub rate: f64,
}

impl RateWindow {
    /// A full outage over `[from, until)`.
    pub fn outage(from: SimTime, until: SimTime) -> Self {
        Self {
            from,
            until,
            rate: 0.0,
        }
    }

    /// A degradation over `[from, until)` running at `rate` of nominal.
    pub fn degraded(from: SimTime, until: SimTime, rate: f64) -> Self {
        Self { from, until, rate }
    }
}

/// Which drives a drive-fault clause applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveSelector {
    /// One specific drive by index.
    One(usize),
    /// Every drive of the MSS.
    All,
}

/// A declarative, seeded description of every fault in a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Drive outage windows (per drive, or all drives).
    pub drive_faults: Vec<(DriveSelector, RateWindow)>,
    /// Link outage / degradation windows.
    pub link_faults: Vec<RateWindow>,
    /// Probability that any single fetch attempt fails after completing its
    /// transfer (bad checksum, dropped connection at the last byte, …).
    pub transient_fetch_failure: f64,
    /// Seed for transient-error and retry-jitter draws.
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: injects nothing, draws nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan can never perturb a run. Zero-fault plans are
    /// guaranteed to reproduce fault-free outputs byte for byte.
    pub fn is_zero_fault(&self) -> bool {
        self.transient_fetch_failure <= 0.0
            && self.drive_faults.iter().all(|(_, w)| w.rate >= 1.0)
            && self.link_faults.iter().all(|w| w.rate >= 1.0)
    }

    /// Validates probabilities, rates and window ordering.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.transient_fetch_failure) {
            return Err(format!(
                "transient failure probability {} outside [0, 1]",
                self.transient_fetch_failure
            ));
        }
        let check = |w: &RateWindow| -> Result<(), String> {
            if !(0.0..=1.0).contains(&w.rate) {
                return Err(format!("window rate {} outside [0, 1]", w.rate));
            }
            if w.from >= w.until {
                return Err(format!(
                    "empty fault window [{}, {})",
                    w.from.micros(),
                    w.until.micros()
                ));
            }
            Ok(())
        };
        for (_, w) in &self.drive_faults {
            check(w)?;
        }
        for w in &self.link_faults {
            check(w)?;
        }
        Ok(())
    }

    /// [`FaultPlan::validate`] plus a check that every named drive index
    /// exists on an MSS with `drives` drives. Callers holding user input
    /// should use this before building a [`FaultInjector`], which panics
    /// on out-of-range indices.
    pub fn validate_for_drives(&self, drives: usize) -> Result<(), String> {
        self.validate()?;
        for (sel, _) in &self.drive_faults {
            if let DriveSelector::One(i) = *sel {
                if i >= drives {
                    return Err(format!(
                        "fault plan references drive {i}, but the MSS has {drives} drives (indices 0..{drives})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Parses a fault specification string.
    ///
    /// The spec is either a preset name (`preset:tape-outage`,
    /// `preset:flaky-wan`, `preset:blackout`) or `;`-separated clauses:
    ///
    /// ```text
    /// drive=IDX,FROM,UNTIL        drive IDX (or '*') down for [FROM, UNTIL) seconds
    /// link-down=FROM,UNTIL        WAN outage for [FROM, UNTIL) seconds
    /// link-slow=FROM,UNTIL,RATE   WAN at RATE (0..1) of nominal bandwidth
    /// transient=P                 each fetch attempt fails with probability P
    /// seed=N                      seed for transient/jitter draws [default 0]
    /// ```
    ///
    /// `UNTIL` may be `inf` for a permanent condition. Example:
    /// `drive=0,60,300;transient=0.01;seed=7`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(name) = spec.strip_prefix("preset:") {
            return Self::preset(name)
                .ok_or_else(|| format!("unknown fault preset '{name}' (one of: {PRESET_NAMES})"));
        }
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is not KEY=VALUE"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "drive" => {
                    let (sel, rest) = value.split_once(',').ok_or_else(|| {
                        format!("drive clause '{value}': expected IDX,FROM,UNTIL")
                    })?;
                    let selector = if sel == "*" {
                        DriveSelector::All
                    } else {
                        DriveSelector::One(
                            sel.parse()
                                .map_err(|_| format!("bad drive index '{sel}'"))?,
                        )
                    };
                    let (from, until) = parse_window(key, value, rest)?;
                    plan.drive_faults
                        .push((selector, RateWindow::outage(from, until)));
                }
                "link-down" => {
                    let (from, until) = parse_window(key, value, value)?;
                    plan.link_faults.push(RateWindow::outage(from, until));
                }
                "link-slow" => {
                    let mut parts = value.splitn(3, ',');
                    let window = format!(
                        "{},{}",
                        parts.next().unwrap_or_default(),
                        parts.next().unwrap_or_default()
                    );
                    let (from, until) = parse_window(key, value, &window)?;
                    let rate: f64 = parts
                        .next()
                        .ok_or_else(|| format!("link-slow clause '{value}': missing RATE"))?
                        .trim()
                        .parse()
                        .map_err(|_| format!("link-slow clause '{value}': bad RATE"))?;
                    plan.link_faults
                        .push(RateWindow::degraded(from, until, rate));
                }
                "transient" => {
                    plan.transient_fetch_failure = value
                        .parse()
                        .map_err(|_| format!("bad transient probability '{value}'"))?;
                }
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
                }
                other => return Err(format!("unknown fault clause key '{other}'")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// A named preset plan, or `None` for an unknown name.
    pub fn preset(name: &str) -> Option<Self> {
        let plan = match name {
            // One tape drive out for minutes 1–5: classic robot-arm jam.
            "tape-outage" => FaultPlan {
                drive_faults: vec![(
                    DriveSelector::One(0),
                    RateWindow::outage(SimTime(60_000_000), SimTime(300_000_000)),
                )],
                seed: 1,
                ..FaultPlan::default()
            },
            // Congested WAN: half bandwidth for the first 10 minutes plus
            // 2% transient fetch errors throughout.
            "flaky-wan" => FaultPlan {
                link_faults: vec![RateWindow::degraded(
                    SimTime::ZERO,
                    SimTime(600_000_000),
                    0.5,
                )],
                transient_fetch_failure: 0.02,
                seed: 1,
                ..FaultPlan::default()
            },
            // Every drive dead from t=0, forever: nothing that misses the
            // cache can ever be fetched. Exercises retry exhaustion.
            "blackout" => FaultPlan {
                drive_faults: vec![(
                    DriveSelector::All,
                    RateWindow::outage(SimTime::ZERO, FOREVER),
                )],
                seed: 1,
                ..FaultPlan::default()
            },
            _ => return None,
        };
        Some(plan)
    }
}

/// Names accepted by [`FaultPlan::preset`], for error messages and help.
pub const PRESET_NAMES: &str = "tape-outage, flaky-wan, blackout";

/// Parses the `FROM,UNTIL` seconds `window` of clause `key=value`. FROM
/// must be finite and non-negative, UNTIL non-negative or `inf`: the time
/// conversion would clamp a negative or NaN bound to 0 and silently move
/// the window to the start of the run.
fn parse_window(key: &str, value: &str, window: &str) -> Result<(SimTime, SimTime), String> {
    let err = |what: &str| format!("{key} clause '{value}': {what}");
    let (from, until) = window
        .split_once(',')
        .ok_or_else(|| err("expected FROM,UNTIL seconds"))?;
    let from: f64 = from.trim().parse().map_err(|_| err("bad FROM"))?;
    if !(from.is_finite() && from >= 0.0) {
        return Err(err("FROM must be a finite, non-negative number of seconds"));
    }
    let until: f64 = until.trim().parse().map_err(|_| err("bad UNTIL"))?;
    if until.is_nan() || until < 0.0 {
        return Err(err("UNTIL must be a non-negative number of seconds or inf"));
    }
    let until = if until.is_infinite() {
        FOREVER
    } else {
        SimTime::ZERO + SimDuration::from_secs_f64(until)
    };
    Ok((SimTime::ZERO + SimDuration::from_secs_f64(from), until))
}

/// Completion time of `work` full-rate microseconds starting at `start`,
/// under the given sorted, non-overlapping rate windows (rate 1 outside
/// them). `None` when the work can never finish (a zero-rate window that
/// lasts forever).
pub fn finish_time(start: SimTime, work: SimDuration, windows: &[RateWindow]) -> Option<SimTime> {
    let mut now = start;
    let mut remaining = work.micros() as f64;
    for w in windows {
        if w.until <= now {
            continue;
        }
        // Full-rate stretch before the window opens.
        if w.from > now {
            let gap = (w.from.micros() - now.micros()) as f64;
            if remaining <= gap {
                return Some(SimTime(now.micros() + remaining.round() as u64));
            }
            remaining -= gap;
            now = w.from;
        }
        // Inside the window, progress accrues at `rate`.
        if w.rate <= 0.0 {
            if w.until == FOREVER {
                return None;
            }
            now = w.until;
        } else {
            let span = (w.until.micros() - now.micros()) as f64;
            let capacity = span * w.rate;
            if remaining <= capacity {
                return Some(SimTime(now.micros() + (remaining / w.rate).round() as u64));
            }
            remaining -= capacity;
            now = w.until;
        }
    }
    Some(SimTime(now.micros() + remaining.round() as u64))
}

/// A [`FaultPlan`] compiled against a concrete MSS, ready for the engine.
///
/// Holds per-drive and link window lists plus the plan's seeded generator
/// for transient-error and jitter draws. The engine owns exactly one per
/// run; every query is deterministic given the plan and the event order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    drive_windows: Vec<Vec<RateWindow>>,
    link_windows: Vec<RateWindow>,
    transient_p: f64,
    rng: StdRng,
}

impl FaultInjector {
    /// Compiles `plan` for an MSS with `drives` drives.
    ///
    /// Panics if the plan references a drive index out of range or fails
    /// [`FaultPlan::validate`] — plans from user input should be validated
    /// (or built by [`FaultPlan::parse`], which validates) first.
    pub fn new(plan: &FaultPlan, drives: usize) -> Self {
        plan.validate().expect("invalid fault plan");
        let mut drive_windows: Vec<Vec<RateWindow>> = vec![Vec::new(); drives];
        for (sel, w) in &plan.drive_faults {
            match *sel {
                DriveSelector::One(i) => {
                    assert!(
                        i < drives,
                        "fault plan references drive {i}, MSS has {drives}"
                    );
                    drive_windows[i].push(*w);
                }
                DriveSelector::All => {
                    for d in &mut drive_windows {
                        d.push(*w);
                    }
                }
            }
        }
        for d in &mut drive_windows {
            d.sort_by_key(|w| w.from);
        }
        let mut link_windows = plan.link_faults.clone();
        link_windows.sort_by_key(|w| w.from);
        Self {
            drive_windows,
            link_windows,
            transient_p: plan.transient_fetch_failure,
            rng: StdRng::seed_from_u64(plan.seed),
        }
    }

    /// Completion time of `work` on `drive` starting at `start`, or `None`
    /// if the drive never finishes it.
    pub fn drive_completion(
        &self,
        drive: usize,
        start: SimTime,
        work: SimDuration,
    ) -> Option<SimTime> {
        finish_time(start, work, &self.drive_windows[drive])
    }

    /// Completion time of `work` on the link starting at `start`, or `None`
    /// if the link never carries it.
    pub fn link_completion(&self, start: SimTime, work: SimDuration) -> Option<SimTime> {
        finish_time(start, work, &self.link_windows)
    }

    /// Whether the next fetch attempt suffers a transient failure.
    ///
    /// Draws from the plan's generator **only** when the probability is
    /// positive, preserving the zero-fault determinism contract.
    pub fn draw_transient_failure(&mut self) -> bool {
        self.transient_p > 0.0 && self.rng.gen_bool(self.transient_p)
    }

    /// A multiplicative jitter factor in `[1, 1 + frac)` for retry backoff.
    ///
    /// Draws only when `frac` is positive (zero-fault runs never reach
    /// backoff at all, but retry configs with zero jitter also stay
    /// draw-free).
    pub fn backoff_jitter(&mut self, frac: f64) -> f64 {
        if frac > 0.0 {
            1.0 + frac * self.rng.gen::<f64>()
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    #[test]
    fn finish_time_without_windows_is_start_plus_work() {
        let t = finish_time(secs(10), SimDuration::from_secs(5), &[]);
        assert_eq!(t, Some(secs(15)));
    }

    #[test]
    fn outage_suspends_and_resumes() {
        // 5 s of work starting at t=0; outage [2, 10): 2 s done before, the
        // remaining 3 s resume at 10 → finish at 13.
        let w = [RateWindow::outage(secs(2), secs(10))];
        let t = finish_time(SimTime::ZERO, SimDuration::from_secs(5), &w);
        assert_eq!(t, Some(secs(13)));
    }

    #[test]
    fn work_finishing_before_outage_is_untouched() {
        let w = [RateWindow::outage(secs(100), secs(200))];
        let t = finish_time(SimTime::ZERO, SimDuration::from_secs(5), &w);
        assert_eq!(t, Some(secs(5)));
    }

    #[test]
    fn start_inside_outage_waits_for_repair() {
        let w = [RateWindow::outage(secs(0), secs(30))];
        let t = finish_time(secs(10), SimDuration::from_secs(4), &w);
        assert_eq!(t, Some(secs(34)));
    }

    #[test]
    fn degradation_scales_elapsed_time() {
        // 10 s of work at half rate from t=0 takes 20 s.
        let w = [RateWindow::degraded(SimTime::ZERO, secs(1000), 0.5)];
        let t = finish_time(SimTime::ZERO, SimDuration::from_secs(10), &w);
        assert_eq!(t, Some(secs(20)));
    }

    #[test]
    fn degradation_window_that_ends_splits_the_work() {
        // Half rate for [0, 10): 5 s of work done in it; remaining 5 s at
        // full rate → finish at 15.
        let w = [RateWindow::degraded(SimTime::ZERO, secs(10), 0.5)];
        let t = finish_time(SimTime::ZERO, SimDuration::from_secs(10), &w);
        assert_eq!(t, Some(secs(15)));
    }

    #[test]
    fn permanent_outage_never_finishes() {
        let w = [RateWindow::outage(secs(2), FOREVER)];
        assert_eq!(
            finish_time(SimTime::ZERO, SimDuration::from_secs(5), &w),
            None
        );
        // But work fitting before the outage still completes.
        assert_eq!(
            finish_time(SimTime::ZERO, SimDuration::from_secs(1), &w),
            Some(secs(1))
        );
    }

    #[test]
    fn consecutive_windows_compose() {
        let w = [
            RateWindow::outage(secs(1), secs(2)),
            RateWindow::degraded(secs(3), secs(5), 0.5),
        ];
        // 4 s of work from t=0: 1 s before the outage, resume at 2, 1 s
        // more to t=3, then 1 s of work takes 2 s → t=5, final 1 s → 6.
        let t = finish_time(SimTime::ZERO, SimDuration::from_secs(4), &w);
        assert_eq!(t, Some(secs(6)));
    }

    #[test]
    fn parse_clauses_roundtrip() {
        let plan = FaultPlan::parse("drive=0,60,300;link-slow=0,50,0.5;transient=0.01;seed=7")
            .expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert!((plan.transient_fetch_failure - 0.01).abs() < 1e-12);
        assert_eq!(plan.drive_faults.len(), 1);
        assert_eq!(plan.drive_faults[0].0, DriveSelector::One(0));
        assert_eq!(plan.drive_faults[0].1.from, secs(60));
        assert_eq!(plan.link_faults.len(), 1);
        assert!((plan.link_faults[0].rate - 0.5).abs() < 1e-12);
        assert!(!plan.is_zero_fault());
    }

    #[test]
    fn parse_accepts_inf_and_star() {
        let plan = FaultPlan::parse("drive=*,0,inf").expect("valid spec");
        assert_eq!(plan.drive_faults[0].0, DriveSelector::All);
        assert_eq!(plan.drive_faults[0].1.until, FOREVER);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("drive=0").is_err());
        assert!(FaultPlan::parse("transient=2.0").is_err());
        assert!(FaultPlan::parse("drive=0,300,60").is_err()); // empty window
        assert!(FaultPlan::parse("preset:unheard-of").is_err());
    }

    /// A NaN or negative window bound used to clamp to 0 and parse as a
    /// window opening at the start of the run; it must be rejected with an
    /// error naming the clause.
    fn assert_window_rejected(spec: &str, clause: &str) {
        let err = FaultPlan::parse(spec).expect_err(spec);
        assert!(
            err.starts_with(&format!("{clause} clause")),
            "{spec}: {err}"
        );
    }

    #[test]
    fn parse_rejects_nan_from() {
        assert_window_rejected("link-down=nan,5", "link-down");
    }

    #[test]
    fn parse_rejects_negative_from() {
        assert_window_rejected("link-down=-3,5", "link-down");
    }

    #[test]
    fn parse_rejects_nan_drive_window() {
        assert_window_rejected("drive=0,NaN,inf", "drive");
    }

    #[test]
    fn parse_rejects_negative_slow_link_window() {
        assert_window_rejected("link-slow=-1,10,0.5", "link-slow");
    }

    #[test]
    fn parse_rejects_bad_until_and_infinite_from() {
        assert_window_rejected("link-down=0,nan", "link-down");
        assert_window_rejected("drive=*,0,-5", "drive");
        assert_window_rejected("link-down=inf,inf", "link-down");
        // `inf` (any case) stays a valid UNTIL.
        let plan = FaultPlan::parse("link-down=0,INF").expect("valid spec");
        assert_eq!(plan.link_faults[0].until, FOREVER);
    }

    #[test]
    fn presets_are_valid_plans() {
        for name in ["tape-outage", "flaky-wan", "blackout"] {
            let plan = FaultPlan::preset(name).expect("known preset");
            assert!(plan.validate().is_ok(), "preset {name} invalid");
            assert!(!plan.is_zero_fault(), "preset {name} is a no-op");
        }
        assert!(FaultPlan::preset("nope").is_none());
    }

    #[test]
    fn empty_plan_is_zero_fault() {
        assert!(FaultPlan::none().is_zero_fault());
        assert!(FaultPlan::parse("").expect("empty spec").is_zero_fault());
    }

    #[test]
    fn injector_expands_all_selector() {
        let plan = FaultPlan::parse("drive=*,0,10").unwrap();
        let inj = FaultInjector::new(&plan, 3);
        for d in 0..3 {
            assert_eq!(
                inj.drive_completion(d, SimTime::ZERO, SimDuration::from_secs(1)),
                Some(secs(11))
            );
        }
    }

    #[test]
    #[should_panic(expected = "references drive")]
    fn injector_rejects_out_of_range_drive() {
        let plan = FaultPlan::parse("drive=5,0,10").unwrap();
        let _ = FaultInjector::new(&plan, 2);
    }

    #[test]
    fn validate_for_drives_catches_out_of_range_index() {
        let plan = FaultPlan::parse("drive=5,0,10").unwrap();
        let err = plan.validate_for_drives(2).unwrap_err();
        assert!(err.contains("drive 5"), "unhelpful error: {err}");
        assert!(plan.validate_for_drives(6).is_ok());
        // The wildcard selector fits any drive count.
        let all = FaultPlan::parse("drive=*,0,10").unwrap();
        assert!(all.validate_for_drives(1).is_ok());
    }

    #[test]
    fn transient_draws_match_probability_roughly() {
        let plan = FaultPlan {
            transient_fetch_failure: 0.25,
            seed: 99,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 1);
        let fails = (0..10_000).filter(|_| inj.draw_transient_failure()).count();
        let freq = fails as f64 / 10_000.0;
        assert!((freq - 0.25).abs() < 0.02, "frequency {freq} far from 0.25");
    }

    #[test]
    fn zero_probability_never_draws() {
        // Two injectors, one consulted often, one never: identical streams
        // afterwards prove p=0 consumed nothing.
        let plan = FaultPlan {
            seed: 5,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(&plan, 1);
        let mut b = FaultInjector::new(&plan, 1);
        for _ in 0..100 {
            assert!(!a.draw_transient_failure());
            assert_eq!(a.backoff_jitter(0.0), 1.0);
        }
        // First real draw out of each must coincide.
        assert_eq!(a.backoff_jitter(0.5), b.backoff_jitter(0.5));
    }

    #[test]
    fn jitter_stays_in_band() {
        let plan = FaultPlan {
            seed: 2,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 1);
        for _ in 0..1000 {
            let j = inj.backoff_jitter(0.1);
            assert!((1.0..1.1).contains(&j), "jitter {j} out of band");
        }
    }
}
