//! The pSigene feature library (§II-B of the paper).
//!
//! Features are counting regexes over normalized payloads, drawn
//! from the three sources of Table II:
//!
//! 1. [`reserved`] — MySQL reserved words;
//! 2. [`fragments`] — IDS/WAF signatures deconstructed into logical
//!    components (including the paper's own quoted fragments);
//! 3. [`refdocs`] — cheat-sheet idioms from SQLi reference documents.
//!
//! [`FeatureSet::full`] is the analog of the paper's initial 477
//! features; [`FeatureSet::prune_unobserved`] reproduces the pruning
//! that took the paper to 159.
//!
//! # Example
//!
//! ```
//! use psigene_features::{extract, FeatureSet};
//!
//! let set = FeatureSet::full();
//! let row = extract::extract_row(&set, b"id=1+UNION+SELECT+password,2,3--");
//! assert!(!row.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod extract;
pub mod feature;
pub mod fragments;
pub mod refdocs;
pub mod reserved;
pub mod set;
pub mod sources;

pub use compiled::{CompiledFeatureSet, FusedScanReport};
pub use feature::Feature;
pub use set::FeatureSet;
pub use sources::FeatureSource;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The full library, built once per test binary (compiling ~450
    /// regexes per test or proptest case would dominate the run).
    pub(crate) fn full_set() -> &'static FeatureSet {
        static SET: OnceLock<FeatureSet> = OnceLock::new();
        SET.get_or_init(FeatureSet::full)
    }

    /// The oracle every extraction test in this crate compares
    /// against: `Feature::count` of every feature over the normalized
    /// payload — no set-level engine, no shared scratch.
    pub(crate) fn naive_dense(set: &FeatureSet, payload: &[u8]) -> Vec<f64> {
        let norm = psigene_http::normalize::normalize(payload);
        set.features()
            .iter()
            .map(|f| f.count(&norm) as f64)
            .collect()
    }

    /// SQL tokens spliced between arbitrary bytes, so payloads reach the
    /// variable-width counting runs (comments between keywords, above
    /// all) and not only the fused scan's skip.
    const TOKENS: &[&str] = &["union", "all", "select", "/*", "*/", "+", " ", "  "];

    /// A token of [`TOKENS`] per pick in range, the byte otherwise.
    fn splice(parts: &[(usize, u8)]) -> Vec<u8> {
        let mut payload = Vec::new();
        for &(pick, byte) in parts {
            match TOKENS.get(pick) {
                Some(token) => payload.extend_from_slice(token.as_bytes()),
                None => payload.push(byte),
            }
        }
        payload
    }

    /// The sparse row a dense vector stands for: its nonzero entries
    /// in ascending id order.
    pub(crate) fn nonzero(dense: &[f64]) -> Vec<(usize, f64)> {
        dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(c, &v)| (c, v))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn extraction_never_panics_on_arbitrary_bytes(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let set = full_set();
            let row = extract::extract_row(set, &payload);
            // Columns are valid and counts positive.
            prop_assert!(row.iter().all(|&(c, v)| c < set.len() && v >= 1.0));
        }

        /// Fused-scan exactness (the matcher's one equality check):
        /// on arbitrary byte payloads, extraction produces rows
        /// *identical* to naive per-feature extraction — same columns
        /// in the same order with the same counts, not merely the
        /// same nonzero support — and identical full dense vectors
        /// (zeros included). Also on SQL-token splices, which reach
        /// the counting automata that arbitrary bytes rarely wake.
        #[test]
        fn extraction_equals_per_feature_counts_on_arbitrary_bytes(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            parts in proptest::collection::vec((0usize..TOKENS.len() + 2, any::<u8>()), 0..60),
        ) {
            let set = full_set();
            for payload in [payload, splice(&parts)] {
                let naive = naive_dense(set, &payload);
                prop_assert_eq!(&extract::extract_row(set, &payload), &nonzero(&naive));
                let mut dense = Vec::new();
                extract::extract_dense_into(set, &payload, &mut dense);
                prop_assert_eq!(&dense, &naive);
            }
        }

        #[test]
        fn dense_and_sparse_extraction_agree(
            payload in "[ -~]{0,120}",
        ) {
            let set = full_set();
            let mut dense = Vec::new();
            extract::extract_dense_into(set, payload.as_bytes(), &mut dense);
            let sparse = extract::extract_row(set, payload.as_bytes());
            for &(c, v) in &sparse {
                prop_assert_eq!(dense[c], v);
            }
            // The hot path's caller-owned row is the same row, also
            // over a dirty buffer, and it is exactly the dense
            // vector's nonzero entries in ascending id order.
            let mut row = vec![(usize::MAX, f64::NAN); 3];
            extract::extract_sparse_into(set, payload.as_bytes(), &mut row, None);
            prop_assert_eq!(&row, &sparse);
            prop_assert_eq!(&row, &nonzero(&dense));
        }
    }
}
