//! Incremental learning (Experiment 2, §III-E).
//!
//! "We progressively added some attack samples from the test dataset
//! into the training dataset ... the incremental training is also an
//! automatic process and therefore, we are spared the tedium of
//! manually updating prior signatures."
//!
//! New samples are assigned to existing biclusters by nearest
//! centroid (within the cluster's assignment radius) and each
//! affected signature's Θ is refitted on the enlarged sample set.
//! Clustering itself is *not* redone — matching the paper, which
//! re-learns Θ only.

use crate::pipeline::{fit_signature, row_centroid_distance_with_norm, Psigene};
use psigene_corpus::Dataset;
use psigene_features::extract::extract_matrix;

/// Statistics from one incremental update.
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Samples offered.
    pub offered: usize,
    /// Samples assigned to some bicluster (and trained on).
    pub assigned: usize,
    /// Samples too far from every centroid (ignored as noise).
    pub unassigned: usize,
    /// Signatures whose Θ was refitted.
    pub retrained_signatures: usize,
    /// Ids of the refitted signatures. Untouched signatures keep Θ
    /// bit-identical, so consumers (the control plane's promotion
    /// check, drift rebaselining) can reason per signature about what
    /// actually changed.
    pub retrained_ids: Vec<usize>,
}

impl Psigene {
    /// Returns a new system whose signatures were retrained with the
    /// additional attack samples folded in.
    pub fn retrain_with(&self, new_attacks: &Dataset, threads: usize) -> (Psigene, UpdateStats) {
        let _span = psigene_telemetry::span("incremental.retrain");
        let mut out = self.clone();
        let mut stats = UpdateStats {
            offered: new_attacks.len(),
            ..UpdateStats::default()
        };
        if new_attacks.is_empty() || self.signatures.is_empty() {
            return (out, stats);
        }
        let payloads: Vec<&[u8]> = new_attacks
            .samples
            .iter()
            .map(|s| s.request.detection_payload())
            .collect();
        let m = extract_matrix(&self.feature_set, &payloads, threads.max(1));

        // Assign each new sample to the signature whose *feature
        // subset* represents it best. A bicluster is defined by its
        // features (§II-C); a sample whose active features fall
        // outside F_j is invisible to signature j's hypothesis no
        // matter how Θ_j is refit, so feature overlap — not raw
        // centroid distance — decides where a fresh sample can
        // actually teach something. Centroid distance breaks ties.
        let mut touched = vec![false; out.signatures.len()];
        // Centroid norms are loop-invariant across samples; hoist them
        // once instead of recomputing per (sample, signature) pair.
        let centroid_norms: Vec<f64> = out
            .state
            .centroids
            .iter()
            .map(|c| c.iter().map(|v| v * v).sum())
            .collect();
        for r in 0..m.rows() {
            let active: Vec<usize> = m.row(r).map(|(c, _)| c).collect();
            if active.is_empty() {
                stats.unassigned += 1;
                continue;
            }
            let mut best: Option<usize> = None;
            let mut best_key = (0usize, f64::INFINITY);
            for (i, sig) in out.signatures.iter().enumerate() {
                let overlap = active
                    .iter()
                    .filter(|c| sig.feature_indices.contains(c))
                    .count();
                if overlap == 0 {
                    continue;
                }
                let d = row_centroid_distance_with_norm(
                    &m,
                    r,
                    &out.state.centroids[i],
                    centroid_norms[i],
                );
                if overlap > best_key.0 || (overlap == best_key.0 && d < best_key.1) {
                    best_key = (overlap, d);
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    out.state.attack_rows[i].push(m.row(r).collect());
                    touched[i] = true;
                    stats.assigned += 1;
                }
                None => stats.unassigned += 1,
            }
        }

        // Refit Θ for every touched signature on its enlarged sample
        // set.
        for (i, was_touched) in touched.iter().enumerate() {
            if !was_touched {
                continue;
            }
            let old = &out.signatures[i];
            let refit = fit_signature(
                old.id,
                &old.feature_indices,
                &out.state.attack_rows[i],
                &out.state.benign,
                &out.state.train_opts,
                old.threshold,
            );
            stats.retrained_ids.push(old.id);
            out.signatures[i] = refit;
            stats.retrained_signatures += 1;
        }
        // Update centroids to reflect the enlarged membership.
        for (i, rows) in out.state.attack_rows.iter().enumerate() {
            let mut c = vec![0.0; out.feature_set.len()];
            for row in rows {
                for &(col, v) in row {
                    c[col] += v;
                }
            }
            let len = rows.len().max(1) as f64;
            for v in &mut c {
                *v /= len;
            }
            out.state.centroids[i] = c;
        }
        let telemetry = psigene_telemetry::global();
        telemetry
            .counter("incremental.samples_offered")
            .add(stats.offered as u64);
        telemetry
            .counter("incremental.samples_assigned")
            .add(stats.assigned as u64);
        telemetry
            .counter("incremental.samples_unassigned")
            .add(stats.unassigned as u64);
        telemetry
            .counter("incremental.signatures_retrained")
            .add(stats.retrained_signatures as u64);
        (out, stats)
    }

    /// ModSec-Learn's negative-weight treatment, applied post-fit: a
    /// feature that fires predominantly on *benign* traffic must not
    /// carry positive weight, no matter what the (pseudo-labeled)
    /// retraining set said. The logistic fit sees only the buffered
    /// samples; a feature common in live benign traffic but rare in
    /// the small benign reservoir can pick up positive weight there
    /// and turn into a false-positive engine after promotion. The
    /// guard compares each signature feature's firing rate on the
    /// signature's attack samples against its rate on `benign_features`
    /// (dense rows over the pruned feature set — typically recent live
    /// benign traffic; the retained benign training matrix is used
    /// when empty) and forces strongly benign-predominant features to
    /// non-positive weight, zeroing mildly benign-leaning positive
    /// ones.
    ///
    /// Returns the guarded copy and the number of weights changed
    /// (also exported as the `learn.benign_guard.clamped` counter).
    pub fn with_benign_weight_guard(&self, benign_features: &[Vec<f64>]) -> (Psigene, usize) {
        let nfeat = self.feature_set.len();
        let benign_rate: Vec<f64> = if benign_features.is_empty() {
            let rows = self.state.benign.rows().max(1) as f64;
            let mut counts = vec![0usize; nfeat];
            for r in 0..self.state.benign.rows() {
                for (c, v) in self.state.benign.row(r) {
                    if v > 0.0 {
                        counts[c] += 1;
                    }
                }
            }
            counts.into_iter().map(|c| c as f64 / rows).collect()
        } else {
            let rows = benign_features.len() as f64;
            let mut counts = vec![0usize; nfeat];
            for f in benign_features {
                for (c, v) in f.iter().enumerate().take(nfeat) {
                    if *v > 0.0 {
                        counts[c] += 1;
                    }
                }
            }
            counts.into_iter().map(|c| c as f64 / rows).collect()
        };
        let mut out = self.clone();
        let mut clamped = 0usize;
        for (i, sig) in out.signatures.iter_mut().enumerate() {
            let rows = &self.state.attack_rows[i];
            let n = rows.len().max(1) as f64;
            for (j, &col) in sig.feature_indices.iter().enumerate() {
                let fired = rows
                    .iter()
                    .filter(|r| r.iter().any(|&(c, v)| c == col && v > 0.0))
                    .count();
                let (w, changed) =
                    guard_weight(sig.model.weights[j], fired as f64 / n, benign_rate[col]);
                if changed {
                    sig.model.weights[j] = w;
                    clamped += 1;
                }
            }
        }
        psigene_telemetry::counter("learn.benign_guard.clamped").add(clamped as u64);
        (out, clamped)
    }
}

/// The per-weight guard decision: `(new weight, changed)` given how
/// often the feature fires on the signature's attack samples vs. on
/// benign traffic. Strongly benign-predominant (benign rate more than
/// double the attack rate, with margin) → non-positive weight; mildly
/// benign-leaning with positive weight → zero; otherwise untouched.
fn guard_weight(w: f64, attack_rate: f64, benign_rate: f64) -> (f64, bool) {
    if benign_rate > 2.0 * attack_rate + 0.05 {
        let g = -w.abs();
        (g, g != w)
    } else if benign_rate > attack_rate && benign_rate >= 0.05 && w > 0.0 {
        (0.0, true)
    } else {
        (w, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use psigene_corpus::sqlmap::{self, SqlmapConfig};

    #[test]
    fn incremental_update_assigns_and_retrains() {
        let p = Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        });
        let fresh = sqlmap::generate(&SqlmapConfig {
            samples: 100,
            ..SqlmapConfig::default()
        });
        let (updated, stats) = p.retrain_with(&fresh, 2);
        assert_eq!(stats.offered, 100);
        assert!(stats.assigned + stats.unassigned == 100);
        assert!(stats.assigned > 10, "assigned only {}", stats.assigned);
        assert!(stats.retrained_signatures > 0);
        // Training sample counts grew.
        let before: usize = p.signatures().iter().map(|s| s.training_samples).sum();
        let after: usize = updated
            .signatures()
            .iter()
            .map(|s| s.training_samples)
            .sum();
        assert!(after > before);
    }

    #[test]
    fn empty_update_is_identity() {
        let p = Psigene::train(&PipelineConfig {
            crawl_samples: 200,
            benign_train: 800,
            cluster_sample_cap: 200,
            threads: 2,
            ..PipelineConfig::default()
        });
        let (updated, stats) = p.retrain_with(&Dataset::new(), 2);
        assert_eq!(stats.offered, 0);
        assert!(stats.retrained_ids.is_empty());
        assert_eq!(updated.signatures().len(), p.signatures().len());
    }

    #[test]
    fn retrained_ids_name_exactly_the_refitted_signatures() {
        let p = Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        });
        let fresh = sqlmap::generate(&SqlmapConfig {
            samples: 50,
            ..SqlmapConfig::default()
        });
        let (updated, stats) = p.retrain_with(&fresh, 2);
        assert_eq!(stats.retrained_ids.len(), stats.retrained_signatures);
        for (before, after) in p.signatures().iter().zip(updated.signatures()) {
            assert_eq!(before.id, after.id);
            let touched = stats.retrained_ids.contains(&before.id);
            let identical = before.model.bias.to_bits() == after.model.bias.to_bits()
                && before
                    .model
                    .weights
                    .iter()
                    .zip(&after.model.weights)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !touched {
                assert!(identical, "untouched signature {} changed", before.id);
            }
        }
    }

    #[test]
    fn guard_weight_decisions() {
        // Strongly benign-predominant: positive weight flips negative.
        assert_eq!(guard_weight(1.5, 0.1, 0.9), (-1.5, true));
        // Already negative: unchanged even when benign-predominant.
        assert_eq!(guard_weight(-0.4, 0.1, 0.9), (-0.4, false));
        // Mildly benign-leaning positive weight: zeroed.
        assert_eq!(guard_weight(0.7, 0.4, 0.5), (0.0, true));
        // Attack-predominant: untouched.
        assert_eq!(guard_weight(2.0, 0.8, 0.1), (2.0, false));
        // Rarely-firing feature: untouched (no evidence either way).
        assert_eq!(guard_weight(0.3, 0.02, 0.04), (0.3, false));
    }

    #[test]
    fn benign_weight_guard_forces_non_positive_weights() {
        let p = Psigene::train(&PipelineConfig {
            crawl_samples: 200,
            benign_train: 800,
            cluster_sample_cap: 200,
            threads: 2,
            ..PipelineConfig::default()
        });
        // Synthetic live traffic where *every* feature fires on every
        // benign request: any signature feature that is not common on
        // its own attack samples must end up non-positive.
        let rows: Vec<Vec<f64>> = (0..8).map(|_| vec![1.0; p.feature_set().len()]).collect();
        let (guarded, clamped) = p.with_benign_weight_guard(&rows);
        let mut changed = 0usize;
        for (i, (sig, gsig)) in p.signatures().iter().zip(guarded.signatures()).enumerate() {
            let attack_rows = &p.state.attack_rows[i];
            let n = attack_rows.len().max(1) as f64;
            for (j, &col) in sig.feature_indices.iter().enumerate() {
                let fired = attack_rows
                    .iter()
                    .filter(|r| r.iter().any(|&(c, v)| c == col && v > 0.0))
                    .count();
                let ar = fired as f64 / n;
                if 1.0 > 2.0 * ar + 0.05 {
                    assert!(
                        gsig.model.weights[j] <= 0.0,
                        "sig {} feature {col} still positive",
                        sig.id
                    );
                }
                if gsig.model.weights[j].to_bits() != sig.model.weights[j].to_bits() {
                    changed += 1;
                }
            }
        }
        assert_eq!(clamped, changed);
        // Falling back to the training benign matrix also works.
        let (_, fallback_clamped) = p.with_benign_weight_guard(&[]);
        let _ = fallback_clamped;
    }
}
