//! Policy construction by name for the CLI.

use fbc_baselines::PolicyKind;
use fbc_core::policy::CachePolicy;

/// All accepted policy names (canonical spellings).
pub const POLICY_NAMES: [&str; 14] = [
    "optfilebundle",
    "landlord",
    "lru",
    "lru2",
    "arc",
    "lfu",
    "gdsf",
    "fifo",
    "random",
    "size",
    "slru",
    "marking",
    "marking-rand",
    "belady",
];

/// Resolves a (case-insensitive) name or alias to its [`PolicyKind`];
/// returns `None` for unknown names. `PolicyKind` is `Copy`, so drivers
/// that need fresh per-shard instances can keep the kind and call
/// [`PolicyKind::build_send`] per worker.
pub fn policy_kind_by_name(name: &str) -> Option<PolicyKind> {
    Some(match name.to_ascii_lowercase().as_str() {
        "optfilebundle" | "ofb" | "opt" => PolicyKind::OptFileBundle,
        "landlord" | "ll" => PolicyKind::Landlord,
        "lru" => PolicyKind::Lru,
        "lru2" | "lru-2" | "lruk" => PolicyKind::Lru2,
        "arc" => PolicyKind::Arc,
        "lfu" => PolicyKind::Lfu,
        "gdsf" => PolicyKind::Gdsf,
        "fifo" => PolicyKind::Fifo,
        "random" | "rand" => PolicyKind::Random,
        "size" | "largest" => PolicyKind::LargestFirst,
        "slru" => PolicyKind::Slru,
        "marking" | "bundle-marking" | "qe" => PolicyKind::BundleMarking,
        "marking-rand" | "bundle-marking-rand" | "qe-rand" => PolicyKind::BundleMarkingRand,
        "belady" | "min" | "opt-offline" => PolicyKind::BeladyMin,
        _ => return None,
    })
}

/// Builds a policy from a (case-insensitive) name; returns `None` for
/// unknown names.
pub fn policy_by_name(name: &str) -> Option<Box<dyn CachePolicy>> {
    policy_kind_by_name(name).map(PolicyKind::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_name_resolves() {
        for name in POLICY_NAMES {
            assert!(policy_by_name(name).is_some(), "{name} did not resolve");
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        assert_eq!(policy_by_name("OFB").unwrap().name(), "OptFileBundle");
        assert_eq!(policy_by_name("LRU-2").unwrap().name(), "LRU-2");
        assert_eq!(policy_by_name("min").unwrap().name(), "Belady-MIN");
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(policy_by_name("definitely-not-a-policy").is_none());
        assert!(policy_by_name("").is_none());
    }
}
