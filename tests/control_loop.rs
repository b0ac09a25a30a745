//! End-to-end control-loop tests: the full closed loop from gateway
//! traffic through drift detection, background retraining,
//! differential replay and promotion — and the rollback path when the
//! shadow is sabotaged.
//!
//! The loop under test is the real production wiring: a trained
//! [`Psigene`] behind a [`SignatureStore`], a [`Gateway`] whose
//! verdict tap feeds a [`SampleBuffer`], an [`InsightDrift`] watching
//! the engine's own PSI monitors, and a [`PsigeneRetrainer`] doing
//! real incremental retrains on the buffered traffic.

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::arachni::{self, ArachniConfig};
use psigene_corpus::benign::{self, BenignConfig};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_http::HttpRequest;
use psigene_rulesets::{Detection, DetectionEngine};
use psigene_serve::control::{
    ControlConfig, ControlPlane, ControlState, DriftWatch, InsightDrift, ModelMeta,
    PsigeneRetrainer, RetrainedModel, Retrainer, SampleBuffer, TrafficSample, VerdictSink,
};
use psigene_serve::{Gateway, GatewayConfig, OverloadPolicy, SignatureStore};
use psigene_telemetry::insight::DriftConfig;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Serializes the tests: both drive background threads against
/// process-global telemetry and neither tolerates an interleaved
/// sibling competing for cores mid-retrain.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked holding the guard fails alone, not its
    // siblings too.
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One small trained system shared by both tests.
fn system() -> &'static Psigene {
    static SYSTEM: OnceLock<Psigene> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        })
    })
}

fn interleave(majority: Vec<HttpRequest>, minority: Vec<HttpRequest>) -> Vec<HttpRequest> {
    if minority.is_empty() {
        return majority;
    }
    let stride = (majority.len() / minority.len()).max(1);
    let mut out = Vec::with_capacity(majority.len() + minority.len());
    let mut rest = minority.into_iter();
    for (i, r) in majority.into_iter().enumerate() {
        out.push(r);
        if (i + 1) % stride == 0 {
            out.extend(rest.next());
        }
    }
    out.extend(rest);
    out
}

/// The benign-dominant mix the signatures were trained against.
fn steady_stream(n: usize) -> Vec<HttpRequest> {
    let benign: Vec<HttpRequest> = benign::generate(&BenignConfig {
        requests: n - n / 10,
        ..Default::default()
    })
    .samples
    .into_iter()
    .map(|s| s.request)
    .collect();
    let attacks: Vec<HttpRequest> = sqlmap::generate(&SqlmapConfig {
        samples: n / 10,
        ..Default::default()
    })
    .samples
    .into_iter()
    .map(|s| s.request)
    .collect();
    interleave(benign, attacks)
}

/// A hard attack-mix shift: a different generator dominates. The
/// benign tail stays on the trained distribution so the drift comes
/// from the attacks, not from benign-side churn.
fn shifted_stream(n: usize, seed: u64) -> Vec<HttpRequest> {
    let attacks: Vec<HttpRequest> = arachni::generate(&ArachniConfig {
        samples: n - n / 4,
        seed: 0x5eed ^ seed,
        ..Default::default()
    })
    .samples
    .into_iter()
    .map(|s| s.request)
    .collect();
    let benign: Vec<HttpRequest> = benign::generate(&BenignConfig {
        requests: n / 4,
        seed: 0xbe9 ^ seed,
        ..Default::default()
    })
    .samples
    .into_iter()
    .map(|s| s.request)
    .collect();
    interleave(attacks, benign)
}

fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
    for _ in 0..deadline_ms {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

// ─── (a) Closed loop: drift → retrain → replay → canary → promote ───

#[test]
fn drift_triggers_background_retrain_and_promotion_without_dropping_requests() {
    let _guard = lock();
    let (monitored, insight) = system().with_control(DriftConfig {
        window: 128,
        ..DriftConfig::default()
    });
    let live_signatures = monitored.signatures().to_vec();

    let buffer = SampleBuffer::new(512, 512, 0x5a17);
    let store = SignatureStore::new(Arc::new(monitored.clone()));
    let gateway = Gateway::start(
        Arc::clone(&store),
        GatewayConfig {
            shards: 2,
            queue_capacity: 128,
            policy: OverloadPolicy::Block,
            tap: Some(Arc::clone(&buffer) as Arc<dyn VerdictSink>),
            ..GatewayConfig::default()
        },
    );
    let retrainer = PsigeneRetrainer::new(monitored.clone(), 2);
    let mut plane = ControlPlane::start(
        Arc::clone(&buffer),
        Arc::clone(&store) as _,
        Arc::new(InsightDrift(insight)) as _,
        Arc::clone(&retrainer) as _,
        ControlConfig {
            debounce: 2,
            poll_interval: Duration::from_millis(2),
            min_attack_samples: 8,
            canary_fraction: 0.5,
            canary_min_requests: 48,
            canary_patience: 30_000,
            // Pseudo-label noise: during an attack-mix shift the
            // benign reservoir contains live *false negatives* (shift
            // attacks the old model missed), and a better shadow
            // rightly flags them. The replay tolerance is therefore a
            // fraction of the buffer, not zero — the zero-tolerance
            // gate is exercised in the sabotage test below, where the
            // flipped traffic really is benign.
            max_benign_flips: 300,
            max_detection_drop: 0.10,
            // Canary serves a *different* attack mix than the live
            // rate baseline averages over, so gate on plumbing (the
            // canary must actually serve) rather than a tight delta.
            max_canary_flag_delta: 1.0,
            cooldown_polls: 50,
            ..ControlConfig::default()
        },
    );

    // Steady phase: trained-distribution traffic. Drift stays calm,
    // the loop must sit in Sampling without firing a retrain.
    for chunk in steady_stream(768).chunks(64) {
        let _ = gateway.check_batch(chunk.to_vec());
    }
    assert!(wait_until(1000, || plane.status().state == ControlState::Sampling));
    let status = plane.status();
    assert_eq!(status.retrains, 0, "steady traffic must not retrain");
    assert_eq!(status.promotions, 0);

    // Shift phase: keep serving the shifted mix until the loop has
    // detected the drift, retrained in the background, replayed and
    // promoted. Traffic keeps flowing the whole time — including
    // through the canary — which is exactly the zero-downtime claim.
    let mut submitted = 768u64;
    let mut rounds = 0u64;
    while plane.status().promotions == 0 && rounds < 200 {
        for chunk in shifted_stream(256, rounds).chunks(64) {
            let _ = gateway.check_batch(chunk.to_vec());
            submitted += chunk.len() as u64;
        }
        rounds += 1;
    }
    let status = plane.status();
    assert!(
        status.promotions >= 1,
        "loop never promoted: {status:?} after {rounds} rounds"
    );
    assert!(status.triggers >= 1);
    assert!(status.retrains >= 1);
    assert!(status.replays >= 1);
    // The cycle timed itself: retrain, replay and trigger→promoted.
    for name in [
        "control.retrain_ns",
        "control.replay_ns",
        "control.promotion_ns",
    ] {
        let recorded = psigene_telemetry::global().histogram(name).count();
        assert!(recorded >= 1, "{name} recorded nothing");
    }

    // Replay gated promotion: no lost detections, benign flips within
    // the configured pseudo-label tolerance.
    let report = status.last_report.clone().expect("replay report recorded");
    assert!(report.replayed > 0);
    assert!(report.benign_to_flagged <= 300);
    assert!(
        report.shadow_attack_detection + 0.10 >= report.live_attack_detection,
        "promoted shadow must not lose detections: {report:?}"
    );

    // The promoted model is live: version bumped, metadata surfaced.
    assert!(store.version() >= 2, "promotion must hot-reload the store");
    let meta = store.model_meta().expect("versioned swap records meta");
    assert!(meta.model_id >= 2);
    assert!(meta.training_samples > 0);
    assert_eq!(Some(meta), status.last_meta);
    assert!(!store.canary_active(), "promotion must clear the canary");

    // Zero dropped requests across the whole cycle, retrain included.
    let stats = gateway.shutdown();
    assert_eq!(stats.shed, 0, "Block policy must never shed");
    assert_eq!(stats.submitted, submitted);
    assert_eq!(stats.served, submitted, "every request must be evaluated");

    // Signatures the retrain did not refit are bit-identical in the
    // promoted model, except where the benign-weight guard clamped a
    // weight (to zero, or to the negated magnitude) — the guard is
    // the only other writer on the promotion path.
    let retrained = retrainer
        .last_stats()
        .expect("stats recorded")
        .retrained_ids;
    let promoted = retrainer.current();
    let mut untouched = 0usize;
    for new in promoted.signatures() {
        if retrained.contains(&new.id) {
            continue;
        }
        let old = live_signatures
            .iter()
            .find(|s| s.id == new.id)
            .expect("untouched signature survives the retrain");
        untouched += 1;
        assert_eq!(new.feature_indices, old.feature_indices);
        assert_eq!(new.threshold.to_bits(), old.threshold.to_bits());
        assert_eq!(new.model.bias.to_bits(), old.model.bias.to_bits());
        for (w_new, w_old) in new.model.weights.iter().zip(&old.model.weights) {
            let identical = w_new.to_bits() == w_old.to_bits();
            let guard_clamped =
                (*w_new == 0.0 && *w_old > 0.0) || w_new.to_bits() == (-w_old.abs()).to_bits();
            assert!(
                identical || guard_clamped,
                "untouched signature {} weight changed {w_old} -> {w_new}",
                new.id
            );
        }
    }
    assert!(
        untouched > 0 || retrained.len() == promoted.signatures().len(),
        "fixture should leave some signatures untouched"
    );
    plane.stop();
}

// ─── (b) Sabotaged shadow: replay gate rolls back, live untouched ───

/// Shadow that flags everything — the canonical bad retrain.
struct FlagAll;
impl DetectionEngine for FlagAll {
    fn name(&self) -> &str {
        "flag-all"
    }
    fn evaluate(&self, _request: &HttpRequest) -> Detection {
        Detection {
            flagged: true,
            matched_rules: vec![1],
            score: 0.99,
        }
    }
    fn rule_count(&self) -> usize {
        1
    }
}

/// Retrainer whose output is sabotaged: retraining "succeeds" but the
/// produced shadow flags every request.
struct SabotagedRetrainer {
    rolled_back: std::sync::atomic::AtomicU64,
}

impl Retrainer for SabotagedRetrainer {
    fn retrain(
        &self,
        attacks: &[TrafficSample],
        benign: &[TrafficSample],
        trained_at: u64,
    ) -> Result<RetrainedModel, String> {
        let shadow: Arc<dyn DetectionEngine> = Arc::new(FlagAll);
        Ok(RetrainedModel {
            candidate: Arc::clone(&shadow),
            promoted: shadow,
            meta: ModelMeta {
                model_id: 99,
                trained_at,
                training_samples: attacks.len() + benign.len(),
            },
        })
    }
    fn replay_baseline(&self) -> Arc<dyn DetectionEngine> {
        Arc::new(system().clone().with_insight(false))
    }
    fn on_promoted(&self) {}
    fn on_rolled_back(&self) {
        self.rolled_back
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Drift source pinned above the threshold so the trigger fires as
/// soon as the debounce allows.
struct AlwaysDrifting;
impl DriftWatch for AlwaysDrifting {
    fn max_psi(&self) -> Option<f64> {
        Some(0.9)
    }
}

#[test]
fn sabotaged_shadow_is_rolled_back_and_live_serving_is_untouched() {
    let _guard = lock();
    let buffer = SampleBuffer::new(256, 256, 0xdead);
    let store = SignatureStore::new(Arc::new(system().clone()));
    let gateway = Gateway::start(
        Arc::clone(&store),
        GatewayConfig {
            shards: 2,
            queue_capacity: 128,
            policy: OverloadPolicy::Block,
            tap: Some(Arc::clone(&buffer) as Arc<dyn VerdictSink>),
            ..GatewayConfig::default()
        },
    );
    let retrainer = Arc::new(SabotagedRetrainer {
        rolled_back: std::sync::atomic::AtomicU64::new(0),
    });
    let mut plane = ControlPlane::start(
        Arc::clone(&buffer),
        Arc::clone(&store) as _,
        Arc::new(AlwaysDrifting) as _,
        Arc::clone(&retrainer) as _,
        ControlConfig {
            debounce: 2,
            poll_interval: Duration::from_millis(2),
            min_attack_samples: 8,
            canary_min_requests: 0,
            // Strict acceptance gate: not a single benign-verdict
            // regression is tolerated.
            max_benign_flips: 0,
            cooldown_polls: 50,
            ..ControlConfig::default()
        },
    );

    // Real mixed traffic: the buffer must hold benign samples for the
    // replay gate to catch the sabotage.
    for chunk in steady_stream(512).chunks(64) {
        let _ = gateway.check_batch(chunk.to_vec());
    }
    assert!(wait_until(5000, || plane.status().rollbacks >= 1));
    let status = plane.status();
    assert_eq!(status.promotions, 0, "sabotaged shadow must never go live");
    assert!(
        retrainer
            .rolled_back
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    let report = status.last_report.clone().expect("replay ran");
    assert!(
        report.benign_to_flagged > 0,
        "replay must expose the benign regressions"
    );

    // The live path never changed: version 1, no metadata, no canary.
    assert_eq!(store.version(), 1);
    assert!(store.model_meta().is_none());
    assert!(!store.canary_active());

    // Live verdicts are still the seed model's, bit-for-bit.
    let probe = steady_stream(64);
    let baseline = system();
    for r in &probe {
        let live = store.current().evaluate(r);
        let expected = baseline.evaluate(r);
        assert_eq!(live.flagged, expected.flagged);
        assert_eq!(live.score.to_bits(), expected.score.to_bits());
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.shed, 0);
    plane.stop();
}
