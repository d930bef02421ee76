//! Standalone instances of the File-Bundle Caching (FBC) combinatorial
//! problem (paper §4).
//!
//! An instance decouples the *algorithms* (`OptCacheSelect`, the exact
//! branch-and-bound, partial enumeration) from the *online machinery*
//! (history, cache): given requests with values over files with sizes and a
//! capacity, find a subset of requests of maximum total value whose union of
//! files fits. The online `OptFileBundle` policy decides in place over its
//! resident state and builds none (its rebuild reference still builds one
//! per decision); offline solvers, tests and benches build them directly.
//!
//! Files inside an instance are dense local indices (`u32`), not global
//! [`FileId`](crate::types::FileId)s — the caller maintains the
//! mapping. A file may be given size 0 to mark it *pre-reserved* (e.g. the
//! files of the arriving request, whose space is already accounted for), so
//! selecting requests that reuse it costs nothing.

use crate::error::{FbcError, Result};
use crate::types::Bytes;

/// One request of an FBC instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRequest {
    /// Sorted, deduplicated local file indices.
    files: Vec<u32>,
    /// The request's value `v(r)` (must be non-negative and finite).
    pub value: f64,
}

impl InstanceRequest {
    /// The request's files (sorted local indices).
    #[inline]
    pub fn files(&self) -> &[u32] {
        &self.files
    }
}

/// An immutable, validated FBC problem instance.
#[derive(Debug, Clone)]
pub struct FbcInstance {
    capacity: Bytes,
    file_sizes: Vec<Bytes>,
    requests: Vec<InstanceRequest>,
    /// `d(f)` per file. Defaults to the in-instance degree; may be
    /// overridden with global-history degrees (paper §5.2: popularity and
    /// file sharing are taken "from the global history").
    degrees: Vec<u32>,
    /// Memoised `Σ_{f ∈ F(r_i)} s(f)` per request. `best_single` and the
    /// literal greedy consult request sizes in a loop; precomputing them at
    /// construction turns those lookups into array reads for the same total
    /// cost as one pass.
    request_sizes: Vec<Bytes>,
    /// Memoised `Σ_{f ∈ F(r_i)} s'(f)` per request, summed in ascending
    /// local-index order — the exact order [`Self::request_adjusted_size`]
    /// used to sum on the fly, so the cached value is bit-identical. The
    /// sorted greedy variants read this denominator once per candidate;
    /// memoising it turns `O(b)` float loops into array reads. Depends on
    /// the degrees, so [`Self::recompute_degrees`] refreshes it.
    request_adjusted: Vec<f64>,
}

impl FbcInstance {
    /// Builds an instance, computing file degrees from the requests.
    ///
    /// Each request is given as `(file_indices, value)`. File indices must
    /// be `< file_sizes.len()`; duplicates within a request are removed.
    pub fn new(
        capacity: Bytes,
        file_sizes: Vec<Bytes>,
        requests: Vec<(Vec<u32>, f64)>,
    ) -> Result<Self> {
        let mut inst = Self::with_degrees(capacity, file_sizes, requests, None)?;
        inst.recompute_degrees();
        Ok(inst)
    }

    /// Builds an instance with explicit degree overrides (`None` entries in
    /// the public constructor path are filled by [`Self::recompute_degrees`]).
    pub fn with_degrees(
        capacity: Bytes,
        file_sizes: Vec<Bytes>,
        requests: Vec<(Vec<u32>, f64)>,
        degrees: Option<Vec<u32>>,
    ) -> Result<Self> {
        let m = file_sizes.len();
        let mut reqs = Vec::with_capacity(requests.len());
        let mut request_sizes = Vec::with_capacity(requests.len());
        for (mut files, value) in requests {
            files.sort_unstable();
            files.dedup();
            if let Some(&bad) = files.iter().find(|&&f| f as usize >= m) {
                return Err(FbcError::InvalidConfig(format!(
                    "request references file index {bad} but instance has only {m} files"
                )));
            }
            if !value.is_finite() || value < 0.0 {
                return Err(FbcError::InvalidConfig(format!(
                    "request value must be finite and non-negative, got {value}"
                )));
            }
            request_sizes.push(files.iter().map(|&f| file_sizes[f as usize]).sum());
            reqs.push(InstanceRequest { files, value });
        }
        let degrees = match degrees {
            Some(d) => {
                if d.len() != m {
                    return Err(FbcError::InvalidConfig(format!(
                        "degree override has {} entries for {m} files",
                        d.len()
                    )));
                }
                d
            }
            None => vec![0; m],
        };
        let mut inst = Self {
            capacity,
            file_sizes,
            requests: reqs,
            degrees,
            request_sizes,
            request_adjusted: Vec::new(),
        };
        inst.memoise_adjusted();
        Ok(inst)
    }

    /// Recomputes `d(f)` as the number of instance requests containing `f`.
    pub fn recompute_degrees(&mut self) {
        self.degrees = vec![0; self.file_sizes.len()];
        for r in &self.requests {
            for &f in &r.files {
                self.degrees[f as usize] += 1;
            }
        }
        // The adjusted-size memo divides by the degrees; refresh it.
        self.memoise_adjusted();
    }

    /// Rebuilds the per-request adjusted-size memo from the current degrees,
    /// summing each request's `s'(f)` terms in file order (ascending local
    /// index) — the same order the on-the-fly computation used.
    fn memoise_adjusted(&mut self) {
        self.request_adjusted.clear();
        self.request_adjusted.reserve(self.requests.len());
        for r in &self.requests {
            let sum: f64 = r
                .files
                .iter()
                .map(|&f| {
                    self.file_sizes[f as usize] as f64 / self.degrees[f as usize].max(1) as f64
                })
                .sum();
            self.request_adjusted.push(sum);
        }
    }

    /// Problem capacity `s(C)`.
    #[inline]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Number of files `m`.
    #[inline]
    pub fn num_files(&self) -> usize {
        self.file_sizes.len()
    }

    /// Number of requests `n`.
    #[inline]
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Size `s(f)` of local file `f`.
    #[inline]
    pub fn file_size(&self, f: u32) -> Bytes {
        self.file_sizes[f as usize]
    }

    /// Degree `d(f)` of local file `f`.
    #[inline]
    pub fn degree(&self, f: u32) -> u32 {
        self.degrees[f as usize]
    }

    /// Maximum degree `d` over all files (the `d` of Theorem 4.1).
    /// Returns 1 for an instance with no shared files or no requests, so the
    /// bound formulas never divide by zero.
    pub fn max_degree(&self) -> u32 {
        self.degrees.iter().copied().max().unwrap_or(0).max(1)
    }

    /// Adjusted size `s'(f) = s(f) / d(f)` (degree clamped to 1).
    #[inline]
    pub fn adjusted_size(&self, f: u32) -> f64 {
        self.file_sizes[f as usize] as f64 / self.degrees[f as usize].max(1) as f64
    }

    /// The requests of the instance.
    #[inline]
    pub fn requests(&self) -> &[InstanceRequest] {
        &self.requests
    }

    /// Total (deduplicated) size of the files of request `i` (memoised at
    /// construction).
    #[inline]
    pub fn request_size(&self, i: usize) -> Bytes {
        self.request_sizes[i]
    }

    /// Sum of adjusted sizes `Σ s'(f)` over request `i`'s files (memoised
    /// at construction / [`Self::recompute_degrees`], summed in the same
    /// ascending-index order the pre-memo implementation did, so the value
    /// is bit-identical).
    #[inline]
    pub fn request_adjusted_size(&self, i: usize) -> f64 {
        self.request_adjusted[i]
    }

    /// Adjusted relative value `v'(r_i) = v(r_i) / Σ s'(f)`.
    ///
    /// A request whose files are all pre-reserved (denominator 0) gets
    /// `+∞` — it consumes no cache resources and should always be taken.
    pub fn relative_value(&self, i: usize) -> f64 {
        let denom = self.request_adjusted_size(i);
        if denom <= 0.0 {
            if self.requests[i].value > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.requests[i].value / denom
        }
    }

    /// Union of files over a set of request indices (sorted, deduplicated).
    pub fn union_files(&self, chosen: &[usize]) -> Vec<u32> {
        let mut v: Vec<u32> = chosen
            .iter()
            .flat_map(|&i| self.requests[i].files.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total size of the union of files over `chosen`.
    pub fn union_size(&self, chosen: &[usize]) -> Bytes {
        self.union_files(chosen)
            .iter()
            .map(|&f| self.file_sizes[f as usize])
            .sum()
    }

    /// Total value over `chosen`.
    pub fn total_value(&self, chosen: &[usize]) -> f64 {
        chosen.iter().map(|&i| self.requests[i].value).sum()
    }

    /// Whether `chosen` is a feasible solution (union fits in capacity).
    pub fn is_feasible(&self, chosen: &[usize]) -> bool {
        self.union_size(chosen) <= self.capacity
    }
}

/// A solution to an FBC instance: which requests were selected, the file
/// union they pin in the cache, and its value/size.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Indices (into [`FbcInstance::requests`]) of the selected requests,
    /// in selection order.
    pub chosen: Vec<usize>,
    /// Union of the selected requests' files (sorted local indices).
    pub files: Vec<u32>,
    /// Total value `v(G)`.
    pub value: f64,
    /// Total size of the file union in bytes.
    pub bytes: Bytes,
}

impl Selection {
    /// The empty selection.
    pub fn empty() -> Self {
        Self {
            chosen: Vec::new(),
            files: Vec::new(),
            value: 0.0,
            bytes: 0,
        }
    }

    /// Builds a selection from chosen request indices, deriving the union.
    pub fn from_chosen(inst: &FbcInstance, chosen: Vec<usize>) -> Self {
        let files = inst.union_files(&chosen);
        let bytes = files.iter().map(|&f| inst.file_size(f)).sum();
        let value = inst.total_value(&chosen);
        Self {
            chosen,
            files,
            value,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> FbcInstance {
        // files: sizes 10, 20, 30
        // r0 = {0,1} v=3 ; r1 = {1,2} v=4 ; r2 = {0} v=1
        FbcInstance::new(
            60,
            vec![10, 20, 30],
            vec![(vec![0, 1], 3.0), (vec![1, 2], 4.0), (vec![0], 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn degrees_computed_from_requests() {
        let inst = toy();
        assert_eq!(inst.degree(0), 2);
        assert_eq!(inst.degree(1), 2);
        assert_eq!(inst.degree(2), 1);
        assert_eq!(inst.max_degree(), 2);
    }

    #[test]
    fn adjusted_sizes_and_relative_values() {
        let inst = toy();
        assert!((inst.adjusted_size(0) - 5.0).abs() < 1e-12);
        assert!((inst.adjusted_size(1) - 10.0).abs() < 1e-12);
        assert!((inst.adjusted_size(2) - 30.0).abs() < 1e-12);
        // v'(r0) = 3 / (5+10) = 0.2 ; v'(r1) = 4/40 = 0.1 ; v'(r2) = 1/5.
        assert!((inst.relative_value(0) - 0.2).abs() < 1e-12);
        assert!((inst.relative_value(1) - 0.1).abs() < 1e-12);
        assert!((inst.relative_value(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn union_accounting_dedupes_shared_files() {
        let inst = toy();
        assert_eq!(inst.union_files(&[0, 1]), vec![0, 1, 2]);
        assert_eq!(inst.union_size(&[0, 1]), 60);
        assert!((inst.total_value(&[0, 1]) - 7.0).abs() < 1e-12);
        assert!(inst.is_feasible(&[0, 1]));
    }

    #[test]
    fn degree_override_is_respected() {
        let inst =
            FbcInstance::with_degrees(100, vec![100], vec![(vec![0], 1.0)], Some(vec![4])).unwrap();
        assert_eq!(inst.degree(0), 4);
        assert!((inst.adjusted_size(0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(FbcInstance::new(10, vec![5], vec![(vec![1], 1.0)]).is_err());
        assert!(FbcInstance::new(10, vec![5], vec![(vec![0], f64::NAN)]).is_err());
        assert!(FbcInstance::new(10, vec![5], vec![(vec![0], -1.0)]).is_err());
        assert!(FbcInstance::with_degrees(10, vec![5], vec![], Some(vec![1, 2])).is_err());
    }

    #[test]
    fn zero_size_files_give_infinite_relative_value() {
        let inst =
            FbcInstance::new(10, vec![0, 0], vec![(vec![0, 1], 2.0), (vec![0], 0.0)]).unwrap();
        assert_eq!(inst.relative_value(0), f64::INFINITY);
        assert_eq!(inst.relative_value(1), 0.0); // zero value, zero size
    }

    #[test]
    fn duplicate_files_within_request_are_removed() {
        let inst = FbcInstance::new(100, vec![10], vec![(vec![0, 0, 0], 1.0)]).unwrap();
        assert_eq!(inst.requests()[0].files(), &[0]);
        assert_eq!(inst.request_size(0), 10);
    }

    #[test]
    fn selection_from_chosen_derives_union() {
        let inst = toy();
        let sel = Selection::from_chosen(&inst, vec![0, 2]);
        assert_eq!(sel.files, vec![0, 1]);
        assert_eq!(sel.bytes, 30);
        assert!((sel.value - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_instance_max_degree_is_one() {
        let inst = FbcInstance::new(10, vec![], vec![]).unwrap();
        assert_eq!(inst.max_degree(), 1);
    }
}
