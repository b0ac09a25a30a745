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

pub mod extract;
pub mod feature;
pub mod fragments;
pub mod prescan;
pub mod refdocs;
pub mod reserved;
pub mod set;
pub mod sources;

pub use feature::Feature;
pub use prescan::{CompiledFeatureSet, FusedScanReport};
pub use set::{FeatureSet, MatchMode};
pub use sources::FeatureSource;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The full library, built once (compiling ~450 regexes per
    /// proptest case would dominate the run).
    fn full_set() -> &'static FeatureSet {
        static SET: OnceLock<FeatureSet> = OnceLock::new();
        SET.get_or_init(FeatureSet::full)
    }

    /// The same library with quiescent-state acceleration disabled —
    /// a separate compiled automaton, so alternating extractions
    /// between the two sets also exercises the thread-local DFA
    /// cache's rebind (hot-reload) path on every case.
    fn unaccelerated_set() -> &'static FeatureSet {
        static SET: OnceLock<FeatureSet> = OnceLock::new();
        SET.get_or_init(|| FeatureSet::full().with_acceleration(false))
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

        /// Set-level scan soundness (the tentpole invariant): on
        /// arbitrary byte payloads, every extraction mode — fused
        /// lazy-DFA (default), literal prescan, and the forced
        /// always-run oracle — produces rows *identical* to naive
        /// per-feature extraction: same columns in the same order
        /// with the same counts, not merely the same nonzero support.
        #[test]
        fn fused_and_prescan_extraction_equal_naive_extraction(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let set = full_set();
            // Default mode is Fused.
            let row = extract::extract_row(set, &payload);
            // Naive oracle: every feature's VM runs, no set-level
            // engine involved.
            let norm = psigene_http::normalize::normalize(&payload);
            let naive: Vec<(usize, f64)> = set
                .features()
                .iter()
                .filter_map(|f| {
                    let c = f.count(&norm);
                    (c > 0).then_some((f.id, c as f64))
                })
                .collect();
            prop_assert_eq!(&row, &naive);
            // Dense path: identical full vectors (zeros included).
            let dense = extract::extract_dense(set, &payload);
            let naive_dense: Vec<f64> = set
                .features()
                .iter()
                .map(|f| f.count(&norm) as f64)
                .collect();
            prop_assert_eq!(&dense, &naive_dense);
            // Every explicit mode agrees bit-for-bit with the fused
            // default.
            for mode in [MatchMode::Prescan, MatchMode::Naive] {
                let alt = set.with_match_mode(mode);
                prop_assert_eq!(&row, &extract::extract_row(&alt, &payload));
                prop_assert_eq!(&dense, &extract::extract_dense(&alt, &payload));
            }
        }

        /// Acceleration invariant at the library level: skipping
        /// quiescent DFA runs must be invisible in results. Sparse
        /// rows are equal and dense vectors are *bitwise* identical
        /// (`f64::to_bits`, not `==` — the downstream detector dots
        /// these against trained weights, so even a sign-of-zero
        /// difference would be a real divergence).
        #[test]
        fn accelerated_extraction_is_bit_identical(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let on = full_set();
            let off = unaccelerated_set();
            prop_assert!(on.acceleration_enabled());
            prop_assert!(!off.acceleration_enabled());
            prop_assert_eq!(
                extract::extract_row(on, &payload),
                extract::extract_row(off, &payload)
            );
            let dense_on: Vec<u64> = extract::extract_dense(on, &payload)
                .iter().map(|v| v.to_bits()).collect();
            let dense_off: Vec<u64> = extract::extract_dense(off, &payload)
                .iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(dense_on, dense_off);
        }

        #[test]
        fn dense_and_sparse_extraction_agree(
            payload in "[ -~]{0,120}",
        ) {
            let set = full_set();
            let dense = extract::extract_dense(set, payload.as_bytes());
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
            let nonzero: Vec<(usize, f64)> = dense
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(c, &v)| (c, v))
                .collect();
            prop_assert_eq!(&row, &nonzero);
        }
    }
}
