//! Generalized signatures (§II-D of the paper).

use psigene_learn::{sigmoid, LogisticModel};

/// One generalized signature: a logistic regression model over the
/// feature subset its bicluster selected.
///
/// "A signature `Sig_bj` is a logistic regression model built to
/// predict whether an SQL query is an attack similar to the samples
/// in cluster `bj`."
#[derive(Debug, Clone)]
pub struct GeneralizedSignature {
    /// The bicluster id this signature was trained from (1-based,
    /// largest cluster first — the paper's numbering).
    pub id: usize,
    /// Indices into the pruned feature set: the bicluster's features
    /// `F_j`, i.e. the variables of the hypothesis function.
    pub feature_indices: Vec<usize>,
    /// The fitted model (Θ_j: bias + one weight per feature index).
    pub model: LogisticModel,
    /// Probability threshold for flagging.
    pub threshold: f64,
    /// Number of attack samples the signature was trained on
    /// (Table VI "number of samples").
    pub training_samples: usize,
}

impl GeneralizedSignature {
    /// The signature's probability that a request (given as the dense
    /// feature vector over the *full* pruned feature set) belongs to
    /// its attack class.
    ///
    /// # Panics
    /// Panics when `full_features` is shorter than the largest feature
    /// index.
    pub fn probability(&self, full_features: &[f64]) -> f64 {
        // Equivalent to gathering `full_features[feature_indices]`
        // into a dense `x` and calling `predict_proba(&x)`, but
        // indexing in place — the scoring hot path runs this once per
        // signature per request and must not allocate. The fold order
        // is identical (weights order), so the result is bit-for-bit
        // the same.
        let z = self.model.bias
            + self
                .model
                .weights
                .iter()
                .zip(&self.feature_indices)
                .map(|(w, &i)| w * full_features[i])
                .sum::<f64>();
        sigmoid(z)
    }

    /// Whether the signature flags the request at its threshold.
    pub fn matches(&self, full_features: &[f64]) -> bool {
        self.probability(full_features) >= self.threshold
    }

    /// Number of features the biclustering step assigned (Table VI
    /// "number of features (biclustering)").
    pub fn bicluster_feature_count(&self) -> usize {
        self.feature_indices.len()
    }

    /// Number of features logistic regression kept (weight magnitude
    /// above `eps`) — Table VI "number of features (signature)". The
    /// paper observes LR prunes aggressively (e.g. 88 % for cluster 3).
    pub fn signature_feature_count(&self, eps: f64) -> usize {
        self.model.active_feature_count(eps)
    }

    /// Like [`GeneralizedSignature::signature_feature_count`] but with
    /// the threshold relative to the strongest weight: a feature
    /// "counts" when it carries at least `fraction` of the maximum
    /// weight magnitude. L2 regularization shrinks rather than zeroes
    /// weights, so the absolute-eps view under-reports LR's pruning.
    pub fn effective_feature_count(&self, fraction: f64) -> usize {
        let max = self
            .model
            .weights
            .iter()
            .fold(0.0f64, |a, w| a.max(w.abs()));
        if max == 0.0 {
            return 0;
        }
        self.model
            .weights
            .iter()
            .filter(|w| w.abs() >= fraction * max)
            .count()
    }

    /// The feature indices LR kept, paired with their weights.
    pub fn active_features(&self, eps: f64) -> Vec<(usize, f64)> {
        self.feature_indices
            .iter()
            .zip(&self.model.weights)
            .filter(|(_, w)| w.abs() > eps)
            .map(|(&i, &w)| (i, w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> GeneralizedSignature {
        GeneralizedSignature {
            id: 6,
            feature_indices: vec![2, 5, 9],
            model: LogisticModel {
                bias: -3.0,
                weights: vec![2.0, 0.0, 4.0],
            },
            threshold: 0.5,
            training_samples: 2741,
        }
    }

    #[test]
    fn probability_uses_indexed_features() {
        let s = sig();
        let mut full = vec![0.0; 12];
        full[2] = 1.0;
        full[9] = 1.0;
        // z = -3 + 2*1 + 0 + 4*1 = 3 → p ≈ 0.95.
        assert!(s.probability(&full) > 0.9);
        assert!(s.matches(&full));
        let quiet = vec![0.0; 12];
        assert!(s.probability(&quiet) < 0.1);
        assert!(!s.matches(&quiet));
    }

    #[test]
    fn table_vi_counts() {
        let s = sig();
        assert_eq!(s.bicluster_feature_count(), 3);
        assert_eq!(s.signature_feature_count(1e-9), 2);
        let active = s.active_features(1e-9);
        assert_eq!(active, vec![(2, 2.0), (9, 4.0)]);
    }
}
