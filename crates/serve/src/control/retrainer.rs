//! The production [`Retrainer`]: pSigene's incremental retraining
//! (paper §III-E) behind the control plane's trait, hardened with the
//! ModSec-Learn-style benign-weight guard.
//!
//! The retrainer owns the *trained* state the serving layer does not:
//! the current [`Psigene`] (with its retained centroids, attack rows
//! and benign matrix) and, between a retrain and the plane's verdict,
//! the pending successor. Promotion commits the pending model as the
//! new current and rebaselines its drift monitors against the
//! promoted signature set; rollback simply discards it — the live
//! engine and its monitors are never touched on a rejected shadow.

use crate::buffer::TrafficSample;
use crate::handoff::lock;
use crate::plane::{ModelMeta, RetrainedModel, Retrainer};
use psigene::{Psigene, UpdateStats};
use psigene_corpus::{AttackFamily, Dataset, Label, Sample, Source};
use psigene_rulesets::DetectionEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// [`Retrainer`] backed by [`Psigene::retrain_with`]; see the module
/// docs.
pub struct PsigeneRetrainer {
    current: Mutex<Psigene>,
    pending: Mutex<Option<Psigene>>,
    threads: usize,
    /// Next model id to mint (the seed model is 1). Monotonic across
    /// retrains; rolled-back ids are skipped, never reused.
    next_model_id: AtomicU64,
    last_stats: Mutex<Option<UpdateStats>>,
}

impl PsigeneRetrainer {
    /// Wraps the live engine (model id 1) with `threads` retraining
    /// workers.
    pub fn new(live: Psigene, threads: usize) -> Arc<PsigeneRetrainer> {
        Arc::new(PsigeneRetrainer {
            current: Mutex::new(live),
            pending: Mutex::new(None),
            threads: threads.max(1),
            next_model_id: AtomicU64::new(2),
            last_stats: Mutex::new(None),
        })
    }

    /// A clone of the engine the retrainer currently considers live.
    pub fn current(&self) -> Psigene {
        lock(&self.current).clone()
    }

    /// Assignment/refit statistics of the most recent retrain —
    /// `retrained_ids` tells callers which signatures actually moved.
    pub fn last_stats(&self) -> Option<UpdateStats> {
        lock(&self.last_stats).clone()
    }
}

impl Retrainer for PsigeneRetrainer {
    fn retrain(
        &self,
        attacks: &[TrafficSample],
        benign: &[TrafficSample],
        trained_at: u64,
    ) -> Result<RetrainedModel, String> {
        if attacks.is_empty() {
            return Err("no attack samples buffered".into());
        }
        // Incremental retraining consumes only the request payloads;
        // the family tag is a placeholder (production traffic carries
        // no ground-truth family).
        let mut ds = Dataset::new();
        for s in attacks {
            ds.samples.push(Sample {
                request: s.request.clone(),
                label: Label::Attack(AttackFamily::UnionBased),
                source: Source::Sqlmap,
            });
        }
        let base = lock(&self.current).clone();
        let (next, stats) = base.retrain_with(&ds, self.threads);
        if stats.assigned == 0 {
            return Err(format!(
                "none of {} buffered attacks assigned to a signature",
                stats.offered
            ));
        }
        // ModSec-Learn treatment against the *buffered live* benign
        // traffic: features firing predominantly on it lose positive
        // weight before the shadow is ever scored.
        let benign_rows: Vec<Vec<f64>> = benign
            .iter()
            .map(|s| next.features_of(&s.request))
            .collect();
        let (guarded, _clamped) = next.with_benign_weight_guard(&benign_rows);
        let telemetry = psigene_telemetry::global();
        telemetry.counter("learn.retrains").inc();
        telemetry
            .counter("learn.retrain.attacks")
            .add(attacks.len() as u64);
        telemetry
            .counter("learn.retrain.benign")
            .add(benign.len() as u64);
        *lock(&self.last_stats) = Some(stats);
        let meta = ModelMeta {
            model_id: self.next_model_id.fetch_add(1, Ordering::Relaxed),
            trained_at,
            training_samples: attacks.len() + benign.len(),
        };
        // Replay/canary evaluate the uninstrumented twin so shadow
        // traffic never feeds the live drift monitors; the promoted
        // engine keeps the shared insight handle (inherited through
        // the clone chain) so monitoring continues seamlessly.
        let candidate: Arc<dyn DetectionEngine> = Arc::new(guarded.with_insight(false));
        let promoted: Arc<dyn DetectionEngine> = Arc::new(guarded.clone());
        *lock(&self.pending) = Some(guarded);
        Ok(RetrainedModel {
            candidate,
            promoted,
            meta,
        })
    }

    fn replay_baseline(&self) -> Arc<dyn DetectionEngine> {
        Arc::new(lock(&self.current).clone().with_insight(false))
    }

    fn on_promoted(&self) {
        if let Some(next) = lock(&self.pending).take() {
            // Re-anchor drift against the traffic the promoted model
            // was accepted on, slot-aligned to its signature set.
            next.rebaseline_drift();
            *lock(&self.current) = next;
        }
    }

    fn on_rolled_back(&self) {
        *lock(&self.pending) = None;
    }
}

impl std::fmt::Debug for PsigeneRetrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsigeneRetrainer")
            .field("threads", &self.threads)
            .field("next_model_id", &self.next_model_id.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene::PipelineConfig;
    use psigene_corpus::sqlmap::{self, SqlmapConfig};
    use psigene_http::HttpRequest;

    fn trained() -> Psigene {
        Psigene::train(&PipelineConfig {
            crawl_samples: 200,
            benign_train: 800,
            cluster_sample_cap: 200,
            threads: 2,
            ..PipelineConfig::default()
        })
    }

    fn traffic(n: usize) -> (Vec<TrafficSample>, Vec<TrafficSample>) {
        let fresh = sqlmap::generate(&SqlmapConfig {
            samples: n,
            ..SqlmapConfig::default()
        });
        let attacks: Vec<TrafficSample> = fresh
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| TrafficSample {
                id: i as u64,
                request: s.request.clone(),
                attack: true,
                score: 0.9,
            })
            .collect();
        let benign: Vec<TrafficSample> = (0..16)
            .map(|i| TrafficSample {
                id: 1000 + i,
                request: HttpRequest::get("w", "/index.php", &format!("page={i}&sort=asc")),
                attack: false,
                score: 0.05,
            })
            .collect();
        (attacks, benign)
    }

    #[test]
    fn retrain_produces_a_model_and_promotion_commits_it() {
        let live = trained();
        let before: usize = live.signatures().iter().map(|s| s.training_samples).sum();
        let retrainer = PsigeneRetrainer::new(live, 2);
        let (attacks, benign) = traffic(60);
        let model = retrainer
            .retrain(&attacks, &benign, 1234)
            .expect("retrain succeeds");
        assert_eq!(model.meta.model_id, 2);
        assert_eq!(model.meta.trained_at, 1234);
        assert_eq!(model.meta.training_samples, attacks.len() + benign.len());
        let stats = retrainer.last_stats().expect("stats recorded");
        assert!(stats.assigned > 0);
        assert_eq!(stats.retrained_ids.len(), stats.retrained_signatures);
        // Not yet committed.
        let mid: usize = retrainer
            .current()
            .signatures()
            .iter()
            .map(|s| s.training_samples)
            .sum();
        assert_eq!(mid, before);
        retrainer.on_promoted();
        let after: usize = retrainer
            .current()
            .signatures()
            .iter()
            .map(|s| s.training_samples)
            .sum();
        assert!(after > before, "promotion did not commit the retrain");
        // A second retrain mints the next id.
        let again = retrainer.retrain(&attacks, &benign, 2000).unwrap();
        assert_eq!(again.meta.model_id, 3);
    }

    #[test]
    fn rollback_discards_pending_state() {
        let retrainer = PsigeneRetrainer::new(trained(), 2);
        let before: usize = retrainer
            .current()
            .signatures()
            .iter()
            .map(|s| s.training_samples)
            .sum();
        let (attacks, benign) = traffic(40);
        retrainer.retrain(&attacks, &benign, 1).unwrap();
        retrainer.on_rolled_back();
        retrainer.on_promoted(); // nothing pending: must be a no-op
        let after: usize = retrainer
            .current()
            .signatures()
            .iter()
            .map(|s| s.training_samples)
            .sum();
        assert_eq!(after, before);
    }

    #[test]
    fn empty_attack_buffer_is_an_error() {
        let retrainer = PsigeneRetrainer::new(trained(), 2);
        assert!(retrainer.retrain(&[], &[], 0).is_err());
    }
}
