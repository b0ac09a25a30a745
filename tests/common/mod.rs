//! The matcher's oracle, shared by the integration tests: every
//! feature counted by its own regex over the normalized payload — no
//! fused scan, no shared scratch — and, at verdict level, the dense
//! reference scorer over that vector.

use psigene::psigene_features::FeatureSet;
use psigene::psigene_http::{normalize::normalize, HttpRequest};
use psigene::psigene_rulesets::Detection;
use psigene::Psigene;

/// `Feature::count` of every feature of `set` over `normalize(payload)`.
pub fn oracle_dense(set: &FeatureSet, payload: &[u8]) -> Vec<f64> {
    let norm = normalize(payload);
    set.features()
        .iter()
        .map(|f| f.count(&norm) as f64)
        .collect()
}

/// The verdict `engine` owes `request`: [`Psigene::score_features`] of
/// the oracle vector. For engines trained on count features (the
/// default), which is every engine the tests train.
pub fn oracle_detection(engine: &Psigene, request: &HttpRequest) -> Detection {
    engine.score_features(&oracle_dense(
        engine.feature_set(),
        request.detection_payload(),
    ))
}

/// Whether two detections are the same verdict, scores compared by
/// bit pattern.
pub fn same_bits(a: &Detection, b: &Detection) -> bool {
    a.flagged == b.flagged
        && a.matched_rules == b.matched_rules
        && a.score.to_bits() == b.score.to_bits()
}
