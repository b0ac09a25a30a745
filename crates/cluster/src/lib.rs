//! Hierarchical agglomerative clustering, biclustering, and cluster
//! diagnostics for the pSigene pipeline (§II-C of the paper).
//!
//! * [`hac`] — O(n²) nearest-neighbor-chain HAC for single, complete,
//!   UPGMA (the paper's choice) and WPGMA linkages;
//! * [`dendrogram`] — merge trees, flat cuts, leaf ordering;
//! * [`cophenetic`] — the cophenetic correlation coefficient the
//!   paper validates its tree with (0.92);
//! * [`bicluster`] — the two-way row-then-column clustering with the
//!   5 %-of-samples selection rule and black-hole filtering;
//! * [`heatmap`] — Figure 2 as data (CSV / PGM / ASCII).
//!
//! # Example
//!
//! ```
//! use psigene_cluster::{hac, Linkage};
//! use psigene_linalg::Matrix;
//!
//! let pts = Matrix::from_rows(4, 1, vec![0.0, 0.5, 10.0, 10.5]);
//! let dend = hac::cluster_rows(&pts, Linkage::Average);
//! let labels = dend.cut_k(2);
//! assert_eq!(labels[0], labels[1]);
//! assert_ne!(labels[0], labels[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bicluster;
pub mod cophenetic;
pub mod dendrogram;
pub mod hac;
pub mod heatmap;
pub mod linkage;

pub use bicluster::{bicluster as bicluster_matrix, Bicluster, BiclusterConfig, BiclusterResult};
pub use cophenetic::{cophenetic_correlation, cophenetic_correlation_streaming};
pub use dendrogram::{Dendrogram, Merge};
pub use linkage::Linkage;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use psigene_linalg::Matrix;

    fn points() -> impl Strategy<Value = Matrix> {
        (2usize..12, 1usize..4).prop_flat_map(|(n, d)| {
            proptest::collection::vec(-10.0f64..10.0, n * d)
                .prop_map(move |data| Matrix::from_rows(n, d, data))
        })
    }

    proptest! {
        #[test]
        fn merges_are_monotone_for_all_linkages(m in points()) {
            for link in [Linkage::Single, Linkage::Complete, Linkage::Average, Linkage::Weighted] {
                let dend = hac::cluster_rows(&m, link);
                prop_assert_eq!(dend.merges.len(), m.rows() - 1);
                for w in dend.merges.windows(2) {
                    prop_assert!(w[0].distance <= w[1].distance + 1e-9);
                }
                // Root contains everything.
                prop_assert_eq!(dend.merges.last().unwrap().size, m.rows());
            }
        }

        #[test]
        fn every_cut_is_a_partition(m in points(), k_frac in 0.0f64..1.0) {
            let dend = hac::cluster_rows(&m, Linkage::Average);
            let k = 1 + ((m.rows() - 1) as f64 * k_frac) as usize;
            let labels = dend.cut_k(k);
            prop_assert_eq!(labels.len(), m.rows());
            let distinct: std::collections::HashSet<_> = labels.iter().collect();
            prop_assert_eq!(distinct.len(), k);
            // Labels are 0..k.
            prop_assert!(labels.iter().all(|&l| l < k));
        }

        #[test]
        fn leaf_order_is_a_permutation(m in points()) {
            let dend = hac::cluster_rows(&m, Linkage::Complete);
            let mut order = dend.leaf_order();
            order.sort_unstable();
            prop_assert_eq!(order, (0..m.rows()).collect::<Vec<_>>());
        }

        #[test]
        fn cophenetic_dominates_original_for_single_linkage(m in points()) {
            // For single linkage the cophenetic distance is the
            // minimax path distance, always ≤ the direct distance.
            let cond = psigene_linalg::distance::pairwise_euclidean(&m, 1);
            let mut work = cond.clone();
            let dend = hac::cluster_condensed(m.rows(), &mut work, Linkage::Single);
            let coph = dend.cophenetic_distances();
            for (c, o) in coph.iter().zip(&cond) {
                prop_assert!(*c <= *o + 1e-9);
            }
        }

        #[test]
        fn cophenetic_correlation_in_range(m in points()) {
            let cond = psigene_linalg::distance::pairwise_euclidean(&m, 1);
            let mut work = cond.clone();
            let dend = hac::cluster_condensed(m.rows(), &mut work, Linkage::Average);
            let c = cophenetic_correlation(&dend, &cond);
            prop_assert!((-1.0..=1.0).contains(&c) || c.is_nan());
        }
    }
}
