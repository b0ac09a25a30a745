//! Hot-swappable signature storage with canary routing and model
//! version metadata.

use crate::control::{mix64, EngineHost, ModelMeta};
use crate::handoff::{read, write};
use psigene_rulesets::DetectionEngine;
use psigene_telemetry::{Counter, Gauge};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Canary routing state: a shadow engine serving a deterministic
/// id-sampled fraction of traffic (parts-per-million granularity).
struct Canary {
    engine: Arc<dyn DetectionEngine>,
    /// Requests per million routed to the shadow.
    ppm: u64,
    seed: u64,
}

/// Atomic-swap holder for the live detection engine.
///
/// Workers take a cheap snapshot ([`SignatureStore::current`], an
/// `Arc` clone under a read lock) per request or per batch, so a
/// concurrent [`SignatureStore::swap`] — e.g. installing the output
/// of [`Psigene::retrain_with`](psigene::Psigene::retrain_with) —
/// never tears a half-evaluated request: in-flight work finishes on
/// the snapshot it started with, new work picks up the new engine.
/// Each swap bumps a monotonically increasing version counter
/// (`serve.signature_version` gauge, `serve.reloads` counter).
///
/// Two control-plane extensions ride on the same store:
///
/// - **canary mode** ([`SignatureStore::set_canary`]): a shadow
///   engine receives a deterministic id-hashed fraction of traffic
///   through [`SignatureStore::engine_for`] — `mix64(seed ^ id)`,
///   the same SplitMix64 the sample buffer uses, so the canary subset
///   is reproducible and id-stable. The fast path (no canary) is one
///   relaxed atomic load;
/// - **version metadata** ([`SignatureStore::swap_versioned`]):
///   promoted models carry a [`ModelMeta`] surfaced through
///   [`SignatureStore::model_meta`] and the `serve.model.*` gauges.
pub struct SignatureStore {
    engine: RwLock<Arc<dyn DetectionEngine>>,
    version: AtomicU64,
    reloads: Arc<Counter>,
    version_gauge: Arc<Gauge>,
    canary: RwLock<Option<Canary>>,
    /// Fast-path guard: `engine_for` touches the canary lock only
    /// while a canary is actually installed.
    canary_on: AtomicBool,
    canary_routed: Arc<Counter>,
    meta: RwLock<Option<ModelMeta>>,
    model_id_gauge: Arc<Gauge>,
    trained_at_gauge: Arc<Gauge>,
    training_samples_gauge: Arc<Gauge>,
}

impl SignatureStore {
    /// Wraps the initial engine; version starts at 1. The engine is
    /// [`prepared`](DetectionEngine::prepare) so its lazily-built
    /// state (compiled scan automata, telemetry handles) exists
    /// before the first request.
    pub fn new(engine: Arc<dyn DetectionEngine>) -> Arc<SignatureStore> {
        engine.prepare();
        let telemetry = psigene_telemetry::global();
        let version_gauge = telemetry.gauge("serve.signature_version");
        version_gauge.set(1.0);
        Arc::new(SignatureStore {
            engine: RwLock::new(engine),
            version: AtomicU64::new(1),
            reloads: telemetry.counter("serve.reloads"),
            version_gauge,
            canary: RwLock::new(None),
            canary_on: AtomicBool::new(false),
            canary_routed: telemetry.counter("serve.canary.routed"),
            meta: RwLock::new(None),
            model_id_gauge: telemetry.gauge("serve.model.id"),
            trained_at_gauge: telemetry.gauge("serve.model.trained_at"),
            training_samples_gauge: telemetry.gauge("serve.model.training_samples"),
        })
    }

    /// The live engine (an `Arc` clone — cheap, lock held only for
    /// the clone).
    pub fn current(&self) -> Arc<dyn DetectionEngine> {
        Arc::clone(&read(&self.engine))
    }

    /// The engine that should evaluate the request with this gateway
    /// id: the canary engine for the deterministically sampled
    /// fraction while canary mode is on, the live engine otherwise.
    /// Without a canary this is [`SignatureStore::current`] plus one
    /// relaxed atomic load.
    pub fn engine_for(&self, id: u64) -> Arc<dyn DetectionEngine> {
        if self.canary_on.load(Ordering::Relaxed) {
            if let Some(c) = read(&self.canary).as_ref() {
                if mix64(c.seed ^ id) % 1_000_000 < c.ppm {
                    self.canary_routed.inc();
                    return Arc::clone(&c.engine);
                }
            }
        }
        self.current()
    }

    /// Routes `fraction` of request ids (deterministic in `seed`)
    /// through `engine` until [`SignatureStore::clear_canary`]. The
    /// live engine keeps serving the rest; nothing about the live
    /// path changes.
    pub fn set_canary(&self, engine: Arc<dyn DetectionEngine>, fraction: f64, seed: u64) {
        engine.prepare();
        let ppm = (fraction.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        *write(&self.canary) = Some(Canary { engine, ppm, seed });
        self.canary_on.store(true, Ordering::Release);
        psigene_telemetry::gauge("serve.canary.fraction").set(ppm as f64 / 1_000_000.0);
    }

    /// Restores single-engine serving.
    pub fn clear_canary(&self) {
        self.canary_on.store(false, Ordering::Release);
        *write(&self.canary) = None;
        psigene_telemetry::gauge("serve.canary.fraction").set(0.0);
    }

    /// True while a canary engine is installed.
    pub fn canary_active(&self) -> bool {
        self.canary_on.load(Ordering::Relaxed)
    }

    /// Installs a new engine mid-traffic and returns the new version.
    /// Requests already snapshotted on the old engine finish there;
    /// nothing is dropped. The incoming engine is prepared *before*
    /// it becomes visible, so the swap never exposes traffic to its
    /// one-time construction costs.
    pub fn swap(&self, engine: Arc<dyn DetectionEngine>) -> u64 {
        engine.prepare();
        *write(&self.engine) = engine;
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        self.reloads.inc();
        self.version_gauge.set(version as f64);
        version
    }

    /// [`SignatureStore::swap`] carrying model version metadata: the
    /// promoted model's id, virtual training timestamp and
    /// training-set size become readable through
    /// [`SignatureStore::model_meta`] and the `serve.model.*` gauges.
    pub fn swap_versioned(&self, engine: Arc<dyn DetectionEngine>, meta: ModelMeta) -> u64 {
        let version = self.swap(engine);
        self.model_id_gauge.set(meta.model_id as f64);
        self.trained_at_gauge.set(meta.trained_at as f64);
        self.training_samples_gauge
            .set(meta.training_samples as f64);
        *write(&self.meta) = Some(meta);
        version
    }

    /// Metadata of the most recently installed versioned model
    /// (`None` until the first [`SignatureStore::swap_versioned`]).
    pub fn model_meta(&self) -> Option<ModelMeta> {
        *read(&self.meta)
    }

    /// The current signature-set version (1 = initial, +1 per swap).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

impl EngineHost for SignatureStore {
    fn install(&self, engine: Arc<dyn DetectionEngine>, meta: ModelMeta) -> u64 {
        self.swap_versioned(engine, meta)
    }

    fn set_canary(&self, engine: Arc<dyn DetectionEngine>, fraction: f64, seed: u64) {
        SignatureStore::set_canary(self, engine, fraction, seed);
    }

    fn clear_canary(&self) {
        SignatureStore::clear_canary(self);
    }
}

impl std::fmt::Debug for SignatureStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignatureStore")
            .field("engine", &self.current().name().to_string())
            .field("version", &self.version())
            .field("canary", &self.canary_active())
            .field("meta", &self.model_meta())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_http::HttpRequest;
    use psigene_rulesets::Detection;

    struct Fixed(bool);
    impl DetectionEngine for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn evaluate(&self, _request: &HttpRequest) -> Detection {
            Detection {
                flagged: self.0,
                matched_rules: if self.0 { vec![1] } else { vec![] },
                score: if self.0 { 1.0 } else { 0.0 },
            }
        }
        fn rule_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn swap_bumps_version_and_changes_engine() {
        let store = SignatureStore::new(Arc::new(Fixed(false)));
        let req = HttpRequest::get("h", "/", "a=1");
        assert_eq!(store.version(), 1);
        assert!(!store.current().evaluate(&req).flagged);
        let v = store.swap(Arc::new(Fixed(true)));
        assert_eq!(v, 2);
        assert_eq!(store.version(), 2);
        assert!(store.current().evaluate(&req).flagged);
    }

    #[test]
    fn old_snapshot_survives_swap() {
        let store = SignatureStore::new(Arc::new(Fixed(false)));
        let old = store.current();
        store.swap(Arc::new(Fixed(true)));
        let req = HttpRequest::get("h", "/", "a=1");
        // The pre-swap snapshot still answers as the old engine.
        assert!(!old.evaluate(&req).flagged);
        assert!(store.current().evaluate(&req).flagged);
    }

    #[test]
    fn versioned_swap_records_meta() {
        let store = SignatureStore::new(Arc::new(Fixed(false)));
        assert!(store.model_meta().is_none());
        let meta = ModelMeta {
            model_id: 2,
            trained_at: 4096,
            training_samples: 128,
        };
        let v = store.swap_versioned(Arc::new(Fixed(true)), meta);
        assert_eq!(v, 2);
        assert_eq!(store.model_meta(), Some(meta));
        let telemetry = psigene_telemetry::global();
        assert_eq!(telemetry.gauge("serve.model.id").get(), 2.0);
        assert_eq!(telemetry.gauge("serve.model.training_samples").get(), 128.0);
    }

    #[test]
    fn canary_routes_a_deterministic_fraction() {
        let store = SignatureStore::new(Arc::new(Fixed(false)));
        store.set_canary(Arc::new(Fixed(true)), 0.25, 42);
        assert!(store.canary_active());
        let req = HttpRequest::get("h", "/", "a=1");
        let routed = |store: &SignatureStore| -> Vec<u64> {
            (0..1000u64)
                .filter(|&id| store.engine_for(id).evaluate(&req).flagged)
                .collect()
        };
        let a = routed(&store);
        let b = routed(&store);
        assert_eq!(a, b, "canary routing must be deterministic in id");
        // Roughly a quarter of ids, and strictly a nontrivial subset.
        assert!(a.len() > 150 && a.len() < 350, "routed {} of 1000", a.len());
        store.clear_canary();
        assert!(!store.canary_active());
        assert!((0..1000u64).all(|id| !store.engine_for(id).evaluate(&req).flagged));
    }

    #[test]
    fn zero_and_full_canary_fractions() {
        let store = SignatureStore::new(Arc::new(Fixed(false)));
        let req = HttpRequest::get("h", "/", "a=1");
        store.set_canary(Arc::new(Fixed(true)), 0.0, 1);
        assert!((0..100u64).all(|id| !store.engine_for(id).evaluate(&req).flagged));
        store.set_canary(Arc::new(Fixed(true)), 1.0, 1);
        assert!((0..100u64).all(|id| store.engine_for(id).evaluate(&req).flagged));
        store.clear_canary();
    }
}
