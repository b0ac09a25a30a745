//! The per-engine scoring plan: what the sparse verdict path reads
//! instead of the signatures themselves.
//!
//! §II-D scores a request against every signature,
//! `Sig_bj = g(θ_jᵀ·x_Fj)`, but a request lights up a handful of the
//! pruned features (about one on benign traffic) and every other term
//! of every dot product is `w·0`. The plan inverts the signatures
//! into `feature → (signature slot, weight)` postings, so scoring
//! walks the request's sparse row once and accumulates `w·x` only into
//! the signatures a matched feature belongs to; a signature no feature
//! touched resolves to its precomputed `sigmoid(bias)`.
//!
//! **Bit identity with [`GeneralizedSignature::probability`].** The
//! dense reference folds `w₀·x₀ + w₁·x₁ + …` in weight order. A
//! signature whose `feature_indices` ascend strictly (every trained
//! signature: they are bicluster columns in matrix order) meets its
//! nonzero terms in that same order when the row is walked in
//! ascending feature id, and skipping a `w·0` term is exact: `a + ±0`
//! is `a` for `a ≠ 0`, and a sum that is still zero can differ from
//! the reference only in its sign, which `bias + sum` either absorbs
//! (`bias ≠ 0`) or hands to `sigmoid(±0)`, 0.5 both ways. A signature
//! whose indices do not ascend (shuffled or repeated — hand-built
//! ones only) is scored by walking its own weights in order with
//! look-ups into the row: the reference computation over different
//! storage. Terms are never collected and sorted.
//!
//! **Freshness.** The plan is derived from `Psigene::signatures` and
//! cached in a [`PlanCell`] on the engine. Cloning an engine yields an
//! *empty* cell, and every mutation of `signatures` in this crate is
//! clone-then-mutate (`with_threshold`, `with_signatures`,
//! `retrain_with`, `with_benign_weight_guard`), so an engine can never
//! score with another engine's weights.

use crate::signature::GeneralizedSignature;
use psigene_learn::sigmoid;
use psigene_rulesets::Detection;
use psigene_telemetry::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One signature as the hot path sees it.
pub(crate) struct Slot {
    /// Signature id as reported in `Detection::matched_rules`.
    pub id: u32,
    bias: f64,
    threshold: f64,
    /// The signature's own `(feature, weight)` terms in weight order,
    /// kept only when its `feature_indices` do not ascend strictly —
    /// i.e. when row order is not weight order and the accumulated sum
    /// cannot be used.
    in_weight_order: Option<Vec<(usize, f64)>>,
    /// The `detector.sig_match.<id>` counter, resolved on the first
    /// hit (so a signature that never fires still leaves no counter in
    /// a snapshot) and lock-free from then on.
    hits: OnceLock<Arc<Counter>>,
}

impl Slot {
    /// Counts one request this signature flagged.
    fn record_hit(&self) {
        self.hits
            .get_or_init(|| {
                psigene_telemetry::global().counter(&format!("detector.sig_match.{}", self.id))
            })
            .inc();
    }
}

/// Reusable per-thread working memory of [`ScorePlan::score`].
#[derive(Default)]
pub(crate) struct ScoreScratch {
    /// Per slot: the running `Σ w·x` over the row walked so far.
    acc: Vec<f64>,
    /// Per slot: whether any row feature belongs to the signature.
    touched: Vec<bool>,
    /// Per slot: the probabilities of the last non-quiet row.
    scores: Vec<f64>,
}

/// The inverted signatures of one engine. See the module docs.
pub(crate) struct ScorePlan {
    /// Unique per built plan in this process: what a thread's drift
    /// batch (`crate::insight::DriftBatch`) checks it is still
    /// following the same slots by.
    serial: u64,
    /// Feature `f`'s postings are `postings[starts[f]..starts[f + 1]]`;
    /// features past the last indexed one have none.
    starts: Vec<u32>,
    /// `(signature slot, weight)`, grouped by feature.
    postings: Vec<(u32, f64)>,
    /// One per signature, in `Psigene::signatures` order.
    pub slots: Vec<Slot>,
    /// Per slot, `sigmoid(bias)`: the probability on a row that
    /// touches none of the signature's features.
    quiet_scores: Vec<f64>,
    /// The verdict of a row that touches no signature at all.
    quiet: Detection,
}

impl ScorePlan {
    pub fn build(signatures: &[GeneralizedSignature]) -> ScorePlan {
        // `probability` zips weights with indices (a surplus of either
        // is ignored); so do the postings.
        fn terms(s: &GeneralizedSignature) -> impl Iterator<Item = (usize, f64)> + '_ {
            s.feature_indices
                .iter()
                .copied()
                .zip(s.model.weights.iter().copied())
        }
        let slots: Vec<Slot> = signatures
            .iter()
            .map(|s| {
                let ascending = s.feature_indices.windows(2).all(|w| w[0] < w[1]);
                Slot {
                    id: s.id as u32,
                    bias: s.model.bias,
                    threshold: s.threshold,
                    in_weight_order: (!ascending).then(|| terms(s).collect()),
                    hits: OnceLock::new(),
                }
            })
            .collect();
        // Counting sort of the terms by feature; within a feature the
        // postings keep slot order.
        let width = signatures
            .iter()
            .flat_map(|s| terms(s).map(|(f, _)| f + 1))
            .max()
            .unwrap_or(0);
        let mut starts = vec![0u32; width + 1];
        for s in signatures {
            for (f, _) in terms(s) {
                starts[f + 1] += 1;
            }
        }
        for f in 0..width {
            starts[f + 1] += starts[f];
        }
        let mut next = starts.clone();
        let mut postings = vec![(0u32, 0.0f64); starts[width] as usize];
        for (slot, s) in signatures.iter().enumerate() {
            for (f, w) in terms(s) {
                postings[next[f] as usize] = (slot as u32, w);
                next[f] += 1;
            }
        }
        let quiet_scores: Vec<f64> = slots.iter().map(|s| sigmoid(s.bias)).collect();
        let quiet = verdict(&slots, &quiet_scores);
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        ScorePlan {
            serial: SERIAL.fetch_add(1, Ordering::Relaxed),
            starts,
            postings,
            slots,
            quiet_scores,
            quiet,
        }
    }

    /// This plan's process-unique build number.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Per slot, the probability of a row that touches none of the
    /// signature's features: `sigmoid(bias)`.
    pub fn quiet_scores(&self) -> &[f64] {
        &self.quiet_scores
    }

    /// Counts one flagged request against each matched signature.
    /// `matched` is in slot order (as [`ScorePlan::score`] reports
    /// it), so one forward walk over the slots finds every counter.
    pub fn record_hits(&self, matched: &[u32]) {
        let mut slots = self.slots.iter();
        for &id in matched {
            if let Some(slot) = slots.find(|slot| slot.id == id) {
                slot.record_hit();
            }
        }
    }

    fn postings(&self, feature: usize) -> &[(u32, f64)] {
        match (self.starts.get(feature), self.starts.get(feature + 1)) {
            (Some(&a), Some(&b)) => &self.postings[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Scores one sparse row — `(feature id, value)`, ascending id, as
    /// `extract_sparse_into` produces it — against every signature.
    /// Returns the detection plus each signature's probability in slot
    /// order; both equal `Psigene::score_features_into` on the
    /// densified row to the bit.
    pub fn score<'a>(
        &'a self,
        row: &[(usize, f64)],
        scratch: &'a mut ScoreScratch,
    ) -> (Detection, &'a [f64]) {
        let ScoreScratch {
            acc,
            touched,
            scores,
        } = scratch;
        acc.clear();
        acc.resize(self.slots.len(), 0.0);
        touched.clear();
        touched.resize(self.slots.len(), false);
        let mut any = false;
        for &(feature, x) in row {
            for &(slot, w) in self.postings(feature) {
                acc[slot as usize] += w * x;
                touched[slot as usize] = true;
                any = true;
            }
        }
        if !any {
            return (self.quiet.clone(), &self.quiet_scores);
        }
        scores.clear();
        scores.extend(self.slots.iter().enumerate().map(|(k, slot)| {
            if !touched[k] {
                self.quiet_scores[k]
            } else if let Some(terms) = &slot.in_weight_order {
                sigmoid(slot.bias + dot_in_weight_order(terms, row))
            } else {
                sigmoid(slot.bias + acc[k])
            }
        }));
        (verdict(&self.slots, scores), scores)
    }
}

/// The detection a column of per-slot probabilities amounts to — the
/// same max / threshold rule as `Psigene::score_features_into`.
fn verdict(slots: &[Slot], scores: &[f64]) -> Detection {
    let mut matched = Vec::new();
    let mut best = 0.0f64;
    for (slot, &p) in slots.iter().zip(scores) {
        if p > best {
            best = p;
        }
        if p >= slot.threshold {
            matched.push(slot.id);
        }
    }
    Detection {
        flagged: !matched.is_empty(),
        matched_rules: matched,
        score: best,
    }
}

/// The `Σ w·x` of [`GeneralizedSignature::probability`] with the dense
/// vector replaced by look-ups into the sorted sparse row: same terms,
/// same fold, for signatures whose indices do not ascend.
fn dot_in_weight_order(terms: &[(usize, f64)], row: &[(usize, f64)]) -> f64 {
    terms
        .iter()
        .map(|&(feature, w)| {
            let x = row
                .binary_search_by_key(&feature, |&(f, _)| f)
                .map_or(0.0, |at| row[at].1);
            w * x
        })
        .sum::<f64>()
}

/// Where an engine keeps its [`ScorePlan`]: built on first use (or by
/// `prepare()`), and **not** carried over by `Clone` — a copy of an
/// engine is about to have its signatures edited, so it starts with no
/// plan and derives its own.
#[derive(Default)]
pub(crate) struct PlanCell(OnceLock<ScorePlan>);

impl PlanCell {
    pub fn get_or_build(&self, signatures: &[GeneralizedSignature]) -> &ScorePlan {
        self.0.get_or_init(|| ScorePlan::build(signatures))
    }
}

impl Clone for PlanCell {
    fn clone(&self) -> PlanCell {
        PlanCell::default()
    }
}

impl std::fmt::Debug for PlanCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "PlanCell(built)"
        } else {
            "PlanCell(empty)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Psigene;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use psigene_learn::LogisticModel;

    /// Feature ids the generated signatures draw from; rows also reach
    /// a few ids past it (features no signature lists).
    const WIDTH: usize = 24;

    /// An engine carrying exactly `signatures`: the dense reference
    /// (`score_features_into`) is a method of `Psigene`, so the cases
    /// borrow one small trained system and swap its signatures.
    fn engine_with(signatures: Vec<GeneralizedSignature>) -> Psigene {
        static BASE: OnceLock<Psigene> = OnceLock::new();
        let mut engine = BASE
            .get_or_init(|| {
                Psigene::train(&PipelineConfig {
                    crawl_samples: 120,
                    benign_train: 300,
                    cluster_sample_cap: 120,
                    threads: 1,
                    ..PipelineConfig::default()
                })
            })
            .clone();
        engine.signatures = signatures;
        engine
    }

    /// Zero of either sign, or anything in `±3`.
    fn weight() -> impl Strategy<Value = f64> {
        (0u8..6, -3.0f64..3.0).prop_map(|(kind, w)| match kind {
            0 => 0.0,
            1 => -0.0,
            _ => w,
        })
    }

    /// Ascending, shuffled or repeating `feature_indices`, in equal
    /// shares, with a weight per index.
    fn signature() -> impl Strategy<Value = GeneralizedSignature> {
        (
            0u8..3,
            vec((0usize..WIDTH, weight()), 0..10),
            weight(),
            0.0f64..1.0,
        )
            .prop_map(|(shape, mut terms, bias, threshold)| {
                if shape < 2 {
                    // Distinct indices, first occurrence wins …
                    let mut seen = [false; WIDTH];
                    terms.retain(|&(f, _)| !std::mem::replace(&mut seen[f], true));
                }
                if shape == 0 {
                    // … and in matrix order, as the trainer emits them.
                    terms.sort_by_key(|&(f, _)| f);
                }
                GeneralizedSignature {
                    id: 0,
                    feature_indices: terms.iter().map(|&(f, _)| f).collect(),
                    model: LogisticModel {
                        bias,
                        weights: terms.iter().map(|&(_, w)| w).collect(),
                    },
                    threshold,
                    training_samples: 0,
                }
            })
    }

    /// A sparse row as extraction produces it: ascending distinct ids,
    /// positive values. Empty about one time in nine.
    fn row() -> impl Strategy<Value = Vec<(usize, f64)>> {
        vec((0usize..WIDTH + 4, 0.05f64..40.0, any::<bool>()), 0..9).prop_map(|mut entries| {
            entries.sort_by_key(|&(f, _, _)| f);
            entries.dedup_by_key(|&mut (f, _, _)| f);
            entries
                .into_iter()
                .map(|(f, x, whole)| (f, if whole { x.ceil() } else { x }))
                .collect()
        })
    }

    proptest! {
        /// Sparse ≡ dense to the bit: every per-signature probability,
        /// the score, the matched ids and the flag equal
        /// `score_features_into` on the densified row, whatever the
        /// index order of a signature, with zero and negative weights,
        /// on count-valued and on binarized (all-ones) rows, on the
        /// empty row, and over scratch a previous row left dirty.
        #[test]
        fn sparse_scoring_equals_the_dense_reference(
            signatures in vec(signature(), 0..6),
            rows in vec(row(), 1..4),
            binary in any::<bool>(),
        ) {
            let mut signatures = signatures;
            for (slot, s) in signatures.iter_mut().enumerate() {
                s.id = 10 + slot;
            }
            let engine = engine_with(signatures.clone());
            let plan = ScorePlan::build(&signatures);
            let mut scratch = ScoreScratch::default();
            let mut want_scores = Vec::new();
            for row in rows {
                let row: Vec<(usize, f64)> = row
                    .into_iter()
                    .map(|(f, x)| (f, if binary { 1.0 } else { x }))
                    .collect();
                let mut dense = vec![0.0; WIDTH + 4];
                for &(f, x) in &row {
                    dense[f] = x;
                }
                let want = engine.score_features_into(&dense, &mut want_scores);
                let (got, got_scores) = plan.score(&row, &mut scratch);
                let bits = |scores: &[f64]| scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got_scores), bits(&want_scores), "{:?} on {:?}", signatures, row);
                prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
                prop_assert_eq!(&got.matched_rules, &want.matched_rules);
                prop_assert_eq!(got.flagged, want.flagged);
            }
        }
    }

    #[test]
    fn a_clone_starts_without_a_plan() {
        let engine = engine_with(Vec::new());
        engine.plan.get_or_build(&engine.signatures);
        assert_eq!(format!("{:?}", engine.plan), "PlanCell(built)");
        assert_eq!(format!("{:?}", engine.clone().plan), "PlanCell(empty)");
    }
}
