//! The feature set: construction from the three sources and the
//! 477 → 159-style pruning of §II-B.

use crate::compiled::CompiledFeatureSet;
use crate::feature::Feature;
use crate::fragments::SIGNATURE_FRAGMENTS;
use crate::refdocs::REFERENCE_PATTERNS;
use crate::reserved::{word_boundary_pattern, MYSQL_RESERVED};
use crate::sources::FeatureSource;
use psigene_linalg::CsrMatrix;
use std::sync::{Arc, OnceLock};

/// An ordered collection of features; column `j` of every extracted
/// matrix corresponds to `features()[j]`.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    features: Vec<Feature>,
    /// Lazily-built set-level engine (the fused automaton), shared by
    /// clones (a clone has the same features, so the automaton is
    /// reusable).
    compiled: OnceLock<Arc<CompiledFeatureSet>>,
}

impl FeatureSet {
    /// Builds the full raw library from all three Table II sources.
    /// At construction this is the analog of the paper's initial 477
    /// features; pruning against training data shrinks it (the paper
    /// ends at 159).
    pub fn full() -> FeatureSet {
        let mut features = Vec::new();
        let mut id = 0;
        for word in MYSQL_RESERVED {
            features.push(
                Feature::new(
                    id,
                    format!("kw:{word}"),
                    word_boundary_pattern(word),
                    FeatureSource::ReservedWords,
                )
                .expect("reserved-word pattern compiles"),
            );
            id += 1;
        }
        for frag in SIGNATURE_FRAGMENTS {
            features.push(
                Feature::new(
                    id,
                    format!("sig:{frag}"),
                    *frag,
                    FeatureSource::NidsSignatures,
                )
                .expect("signature fragment compiles"),
            );
            id += 1;
        }
        for pat in REFERENCE_PATTERNS {
            features.push(
                Feature::new(
                    id,
                    format!("ref:{pat}"),
                    *pat,
                    FeatureSource::ReferenceDocuments,
                )
                .expect("reference pattern compiles"),
            );
            id += 1;
        }
        FeatureSet::from_feature_vec(features)
    }

    /// Builds a set from explicit features (renumbering ids).
    pub fn from_features(features: Vec<Feature>) -> FeatureSet {
        let features = features
            .into_iter()
            .enumerate()
            .map(|(i, mut f)| {
                f.id = i;
                f
            })
            .collect();
        FeatureSet::from_feature_vec(features)
    }

    fn from_feature_vec(features: Vec<Feature>) -> FeatureSet {
        FeatureSet {
            features,
            compiled: OnceLock::new(),
        }
    }

    /// The set-level engine for this feature set, built on first use
    /// and shared by clones.
    pub fn compiled(&self) -> &CompiledFeatureSet {
        self.compiled
            .get_or_init(|| Arc::new(CompiledFeatureSet::build(&self.features)))
    }

    /// The features, in column order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Per-source counts (for the Table II summary).
    pub fn source_histogram(&self) -> Vec<(FeatureSource, usize)> {
        FeatureSource::ALL
            .iter()
            .map(|&s| (s, self.features.iter().filter(|f| f.source == s).count()))
            .collect()
    }

    /// The pruning step of §II-B: keep only features observed in the
    /// training matrix ("removing those features that were not found
    /// in any of the samples used in the training phase").
    ///
    /// Returns the pruned set plus, for each kept feature, its column
    /// index in the original matrix.
    pub fn prune_unobserved(&self, training: &CsrMatrix) -> (FeatureSet, Vec<usize>) {
        assert_eq!(
            training.cols(),
            self.len(),
            "matrix width does not match feature count"
        );
        let mut seen = vec![false; self.len()];
        for r in 0..training.rows() {
            for (c, v) in training.row(r) {
                if v != 0.0 {
                    seen[c] = true;
                }
            }
        }
        let kept: Vec<usize> = (0..self.len()).filter(|&c| seen[c]).collect();
        let features = kept
            .iter()
            .map(|&c| self.features[c].clone())
            .collect::<Vec<_>>();
        (FeatureSet::from_features(features), kept)
    }

    /// How many features behave as binary (only values 0/1) on the
    /// given matrix — the paper reports 70 of its 159.
    pub fn binary_feature_count(&self, m: &CsrMatrix) -> usize {
        let mut max = vec![0.0f64; self.len()];
        let mut any = vec![false; self.len()];
        for r in 0..m.rows() {
            for (c, v) in m.row(r) {
                max[c] = max[c].max(v);
                any[c] = any[c] || v != 0.0;
            }
        }
        (0..self.len()).filter(|&c| any[c] && max[c] <= 1.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptests::full_set;
    use psigene_linalg::CsrBuilder;

    #[test]
    fn full_library_size_is_paper_scale() {
        let set = full_set();
        // The paper starts from 477 features; our three sources land
        // in the same band.
        assert!(
            (380..=520).contains(&set.len()),
            "library size {} outside paper band",
            set.len()
        );
    }

    #[test]
    fn histogram_covers_all_sources() {
        let set = full_set();
        for (source, n) in set.source_histogram() {
            assert!(n > 0, "{source:?} contributed nothing");
        }
    }

    #[test]
    fn ids_are_column_indices() {
        let set = full_set();
        for (i, f) in set.features().iter().enumerate() {
            assert_eq!(f.id, i);
        }
    }

    #[test]
    fn pruning_drops_unobserved_columns() {
        let set = full_set();
        let n = set.len();
        // A matrix where only columns 3 and 7 are ever non-zero.
        let mut b = CsrBuilder::new(n);
        b.push_row(&[(3, 2.0)]);
        b.push_row(&[(7, 1.0)]);
        b.push_row(&[]);
        let m = b.build();
        let (pruned, kept) = set.prune_unobserved(&m);
        assert_eq!(pruned.len(), 2);
        assert_eq!(kept, vec![3, 7]);
        assert_eq!(pruned.features()[0].pattern, set.features()[3].pattern);
        assert_eq!(pruned.features()[0].id, 0);
    }

    #[test]
    fn binary_feature_detection() {
        let set = FeatureSet::from_features(vec![
            Feature::new(0, "a", "a", FeatureSource::ReservedWords).unwrap(),
            Feature::new(1, "b", "b", FeatureSource::ReservedWords).unwrap(),
            Feature::new(2, "c", "c", FeatureSource::ReservedWords).unwrap(),
        ]);
        let mut bld = CsrBuilder::new(3);
        bld.push_row(&[(0, 1.0), (1, 3.0)]);
        bld.push_row(&[(0, 1.0)]);
        let m = bld.build();
        // Feature 0: values {1,1} → binary. Feature 1: {3} → not.
        // Feature 2: never seen → not counted.
        assert_eq!(set.binary_feature_count(&m), 1);
    }
}
