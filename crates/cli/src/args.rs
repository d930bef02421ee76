//! Minimal dependency-free command-line argument parsing.
//!
//! Supports `--flag value`, `--flag=value` and boolean `--flag` forms, plus
//! human-friendly byte sizes (`10GiB`, `512MiB`, `4096`) and `MIN:MAX`
//! ranges.

use fbc_core::types::{Bytes, GIB, KIB, MIB, TIB};
use std::collections::BTreeMap;

/// Parsed flags of one subcommand invocation.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    /// Positional (non-flag) arguments in order.
    pub positional: Vec<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program/subcommand names).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err(ArgError("unexpected bare '--'".into()));
                }
                if let Some((k, v)) = stripped.split_once('=') {
                    args.flags.insert(k.to_string(), v.to_string());
                } else if iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false)
                {
                    let v = iter.next().expect("peeked");
                    args.flags.insert(stripped.to_string(), v);
                } else {
                    // Boolean flag.
                    args.flags.insert(stripped.to_string(), "true".to_string());
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Raw string value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// Typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value '{v}' for --{key}"))),
        }
    }

    /// Count flag with a default that must be at least 1.
    pub fn get_count_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get_or(key, default)? {
            0 => Err(ArgError(format!("--{key} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// Float flag with a default that must be finite and positive (rates,
    /// bandwidths): NaN, infinities, zero and negatives are rejected here
    /// instead of reaching an engine assert.
    pub fn get_positive_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        let v: f64 = self.get_or(key, default)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(ArgError(format!(
                "--{key} must be a positive finite number, got {v}"
            )))
        }
    }

    /// Float flag with a default that must be finite and non-negative
    /// (latencies).
    pub fn get_non_negative_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        let v: f64 = self.get_or(key, default)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(ArgError(format!(
                "--{key} must be a non-negative finite number, got {v}"
            )))
        }
    }

    /// Byte-size flag (`10GiB` etc.) with a default.
    pub fn get_bytes_or(&self, key: &str, default: Bytes) -> Result<Bytes, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse_bytes(v).map_err(|e| ArgError(format!("--{key}: {e}"))),
        }
    }

    /// `MIN:MAX` inclusive usize range flag with a default.
    pub fn get_range_or(
        &self,
        key: &str,
        default: (usize, usize),
    ) -> Result<(usize, usize), ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                let (a, b) = v
                    .split_once(':')
                    .ok_or_else(|| ArgError(format!("--{key}: expected MIN:MAX, got '{v}'")))?;
                let lo: usize = a
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad minimum '{a}'")))?;
                let hi: usize = b
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad maximum '{b}'")))?;
                if lo == 0 || lo > hi {
                    return Err(ArgError(format!("--{key}: invalid range {lo}:{hi}")));
                }
                Ok((lo, hi))
            }
        }
    }

    /// Rejects unknown flags — catches typos like `--cach`.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Parses a byte size: a plain integer, or an integer/decimal with a
/// `KiB`/`MiB`/`GiB`/`TiB`/`KB`/`MB`/`GB`/`TB`/`B` suffix
/// (decimal suffixes are treated as their binary counterparts). A size
/// that does not fit in a `u64` is an error.
pub fn parse_bytes(s: &str) -> Result<Bytes, ArgError> {
    let s = s.trim();
    let (number, unit): (&str, Bytes) =
        if let Some(p) = s.strip_suffix("TiB").or(s.strip_suffix("TB")) {
            (p, TIB)
        } else if let Some(p) = s.strip_suffix("GiB").or(s.strip_suffix("GB")) {
            (p, GIB)
        } else if let Some(p) = s.strip_suffix("MiB").or(s.strip_suffix("MB")) {
            (p, MIB)
        } else if let Some(p) = s.strip_suffix("KiB").or(s.strip_suffix("KB")) {
            (p, KIB)
        } else if let Some(p) = s.strip_suffix('B') {
            (p, 1)
        } else {
            (s, 1)
        };
    let number = number.trim();
    let too_large = || ArgError(format!("byte size '{s}' does not fit in 64 bits"));
    // Integers stay exact; only a decimal goes through `f64`.
    if let Ok(n) = number.parse::<Bytes>() {
        return n.checked_mul(unit).ok_or_else(too_large);
    }
    let value: f64 = number
        .parse()
        .map_err(|_| ArgError(format!("invalid byte size '{s}'")))?;
    if !(value.is_finite() && value >= 0.0) {
        return Err(ArgError(format!("invalid byte size '{s}'")));
    }
    let bytes = (value * unit as f64).round();
    // `u64::MAX as f64` rounds up to 2^64, the first value that overflows.
    if bytes >= Bytes::MAX as f64 {
        return Err(too_large());
    }
    Ok(bytes as Bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn flag_forms() {
        let a = parse(&["trace.txt", "--jobs", "100", "--popularity=zipf", "--quick"]);
        assert_eq!(a.get("jobs"), Some("100"));
        assert_eq!(a.get("popularity"), Some("zipf"));
        assert!(a.has("quick"));
        assert_eq!(a.positional, vec!["trace.txt"]);
    }

    #[test]
    fn flag_greedily_takes_following_value() {
        // A flag followed by a non-flag token consumes it as its value —
        // boolean flags must come last or use the --flag=true form.
        let a = parse(&["--quick", "trace.txt"]);
        assert_eq!(a.get("quick"), Some("trace.txt"));
        assert!(a.positional.is_empty());
    }

    #[test]
    fn typed_getters() {
        let a = parse(&["--jobs", "100"]);
        assert_eq!(a.get_or("jobs", 5usize).unwrap(), 100);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
        assert!(a.get_or::<usize>("jobs", 0).is_ok());
        let bad = parse(&["--jobs", "x"]);
        assert!(bad.get_or::<usize>("jobs", 0).is_err());
        // Checked getters: counts from 1, finite positive and finite
        // non-negative floats.
        assert_eq!(parse(&[]).get_count_or("n", 4).unwrap(), 4);
        assert!(parse(&["--n", "0"]).get_count_or("n", 4).is_err());
        assert_eq!(
            parse(&["--r", "2.5"]).get_positive_or("r", 1.0).unwrap(),
            2.5
        );
        for v in ["0", "-1", "nan", "inf", "-inf"] {
            assert!(parse(&["--r", v]).get_positive_or("r", 1.0).is_err(), "{v}");
        }
        assert_eq!(
            parse(&["--l", "0"]).get_non_negative_or("l", 1.0).unwrap(),
            0.0
        );
        for v in ["-1", "nan", "inf"] {
            assert!(
                parse(&["--l", v]).get_non_negative_or("l", 1.0).is_err(),
                "{v}"
            );
        }
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert_eq!(parse_bytes("1KiB").unwrap(), 1024);
        assert_eq!(parse_bytes("10GiB").unwrap(), 10 * GIB);
        assert_eq!(parse_bytes("1.5MiB").unwrap(), 3 * MIB / 2);
        assert_eq!(parse_bytes("2GB").unwrap(), 2 * GIB);
        assert_eq!(parse_bytes("512B").unwrap(), 512);
        assert!(parse_bytes("abc").is_err());
        assert!(parse_bytes("-5MiB").is_err());
    }

    #[test]
    fn byte_sizes_beyond_u64_are_rejected() {
        assert_eq!(parse_bytes("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(parse_bytes("16777215TiB").unwrap(), 16_777_215 * TIB);
        assert_eq!(parse_bytes("9007199254740993").unwrap(), (1 << 53) + 1);
        for s in [
            "18446744073709551616",
            "16777216TiB",
            "1e30TiB",
            "1e20",
            "17179869184GiB",
            "16777216.0TiB",
        ] {
            let err = parse_bytes(s).expect_err(s);
            assert!(err.0.contains("does not fit"), "{s}: {err}");
        }
        let a = parse(&["--cache", "1e30TiB"]);
        assert!(a.get_bytes_or("cache", 1).is_err());
    }

    /// Fragments the random tokens are glued from: flag syntax, digits,
    /// unit suffixes, separators and values at the edge of `u64`/`f64`.
    const FRAGMENTS: [&str; 26] = [
        "--",
        "-",
        "=",
        ":",
        "cache",
        "bundle",
        "n",
        "0",
        "1",
        "7",
        "42",
        ".",
        "e",
        "308",
        "18446744073709551616",
        "TiB",
        "GiB",
        "KB",
        "B",
        "nan",
        "inf",
        " ",
        "+",
        "é",
        "\u{0}",
        "x",
    ];

    proptest::proptest! {
        /// `Args::parse` and the checked getters return errors on hostile
        /// tokens, never panic, and an accepted value satisfies its getter's
        /// contract.
        #[test]
        fn getters_never_panic_on_random_tokens(
            tokens in proptest::collection::vec(
                proptest::collection::vec(0..FRAGMENTS.len(), 0..6),
                0..6,
            )
        ) {
            let raw = tokens
                .iter()
                .map(|t| t.iter().map(|&i| FRAGMENTS[i]).collect::<String>());
            let Ok(a) = Args::parse(raw) else { return };
            for key in ["cache", "bundle", "n"] {
                let _ = a.get_bytes_or(key, 1);
                if let Ok((lo, hi)) = a.get_range_or(key, (1, 1)) {
                    assert!(1 <= lo && lo <= hi);
                }
                if let Ok(n) = a.get_count_or(key, 1) {
                    assert!(n >= 1);
                }
            }
        }
    }

    #[test]
    fn ranges() {
        let a = parse(&["--bundle", "2:6"]);
        assert_eq!(a.get_range_or("bundle", (1, 1)).unwrap(), (2, 6));
        assert_eq!(a.get_range_or("other", (1, 4)).unwrap(), (1, 4));
        let bad = parse(&["--bundle", "6:2"]);
        assert!(bad.get_range_or("bundle", (1, 1)).is_err());
        let bad = parse(&["--bundle", "3"]);
        assert!(bad.get_range_or("bundle", (1, 1)).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = parse(&["--cach", "10"]);
        assert!(a.reject_unknown(&["cache"]).is_err());
        let ok = parse(&["--cache", "10"]);
        assert!(ok.reject_unknown(&["cache"]).is_ok());
    }

    #[test]
    fn required_flags() {
        let a = parse(&[]);
        assert!(a.require("trace").is_err());
        let b = parse(&["--trace", "t.txt"]);
        assert_eq!(b.require("trace").unwrap(), "t.txt");
    }
}
