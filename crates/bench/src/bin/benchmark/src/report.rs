//! Statistics over measurements and the benchmark's output format.

use fbc_obs::quantile::nearest_rank_index;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(q: f64, n: usize) -> usize {
    nearest_rank_index(q, n).map_or(0, |i| n - 1 - i)
}

/// The nearest-rank `q`-quantile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (p99 needs 1,000).
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let i = nearest_rank_index(q, sorted.len())?;
    (samples_beyond(q, sorted.len()) >= MIN_BEYOND).then(|| sorted[i])
}

/// The highest order statistic of ascending `sorted` that still has
/// [`MIN_BEYOND`] samples beyond it, with the quantile it stands for;
/// `None` when there are too few samples for any.
pub fn highest_supported(sorted: &[u64]) -> Option<(u64, f64)> {
    let i = sorted.len().checked_sub(MIN_BEYOND + 1)?;
    Some((sorted[i], (i + 1) as f64 / sorted.len() as f64))
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank upper quartile; 0 when empty.
pub fn upper_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank_index(0.75, v.len()).map_or(0.0, |i| v[i])
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; `None` for NaN and infinities, which JSON cannot carry.
fn json_num(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Returns `Err` naming the first metric that cannot be written.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "invalid metric name or unit: {} [{}]",
                m.name, m.unit
            ));
        }
        let value = json_num(m.value).ok_or_else(|| format!("{} is not finite", m.name))?;
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=2_000).collect();
        assert_eq!(tail_quantile(&s, 0.5), Some(1_000));
        assert_eq!(tail_quantile(&s, 0.99), Some(1_980));
        assert_eq!(tail_quantile(&s, 0.0), Some(1));
        // The maximum never has samples beyond it.
        assert_eq!(tail_quantile(&s, 1.0), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let enough: Vec<u64> = (0..1_000).collect();
        assert_eq!(samples_beyond(0.99, 1_000), 10);
        assert_eq!(tail_quantile(&enough, 0.99), Some(989));
        let short: Vec<u64> = (0..999).collect();
        assert_eq!(samples_beyond(0.99, 999), 9);
        assert_eq!(tail_quantile(&short, 0.99), None);
        // The fallback: the highest order statistic with ten beyond it.
        assert_eq!(highest_supported(&short), Some((988, 989.0 / 999.0)));
        assert_eq!(highest_supported(&short[..10]), None);
    }

    #[test]
    fn response_tail_has_twenty_samples_beyond_on_the_smallest_workload() {
        assert!(samples_beyond(0.9999, 200_000) >= 20);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(upper_quartile(&[1.0, 2.0, 3.0]), 3.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "jobs_per_s",
            "response_p99.99_s",
            "core.policy.miss_ns_p50",
            "9-a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "-x",
            "a b",
            "a/b",
            "p99%",
            "é",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("jobs/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let good = [metric("setup_s", 0.5, "s")];
        assert_eq!(
            result_line(true, 3, 0, &good).unwrap(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        assert!(result_line(true, 1, 0, &[metric("a b", 1.0, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[metric("x", f64::NAN, "s")]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }
}
