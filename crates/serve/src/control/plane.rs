//! The control plane: a background driver that closes the loop from
//! drift detection to a promoted (or rolled-back) retrained model.
//!
//! The paper's §V sketches the operational story — signatures are
//! retrained as new attack traffic appears and redeployed without
//! downtime. [`ControlPlane`] makes that loop concrete as a small
//! state machine on a dedicated worker thread:
//!
//! ```text
//! Idle ─▶ Sampling ─▶ Retraining ─▶ Replaying ─▶ Canary ─▶ Promoted
//!            ▲            │             │           │          │
//!            │            ▼             ▼           ▼          │
//!            └─────── RolledBack ◀──────┴───────────┘          │
//!            └─────────────────────────────────────────────────┘
//! ```
//!
//! The plane never touches the serving layer directly: it talks to an
//! [`EngineHost`] (implemented by [`SignatureStore`](crate::SignatureStore)),
//! reads drift through a [`DriftWatch`], and produces shadow models
//! through a [`Retrainer`]. The traits are what the unit tests below
//! substitute fakes for.
//!
//! Every transition is observable: `control.state` gauge, per-state
//! `control.enter.*` counters, and `control.retrain_ns` /
//! `control.replay_ns` / `control.promotion_ns` latency histograms.

use crate::buffer::{SampleBuffer, TrafficSample};
use crate::handoff::lock;
use crate::replay::{differential_replay, PromotionReport};
use crate::trigger::RetrainTrigger;
use psigene_rulesets::{Detection, DetectionEngine};
use psigene_telemetry::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version metadata carried by a retrained model through promotion
/// and surfaced by the serving layer (gateway output + Prometheus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelMeta {
    /// Monotonic model identifier (the seed model is 1; each
    /// promotion mints the next id).
    pub model_id: u64,
    /// Virtual timestamp: the buffer's request counter at the moment
    /// retraining started. The loop has no wall clock dependency, so
    /// reproductions stay deterministic.
    pub trained_at: u64,
    /// Samples in the retraining set (buffered attacks + benign).
    pub training_samples: usize,
}

/// A shadow model produced by a [`Retrainer`].
pub struct RetrainedModel {
    /// Engine used for replay and canary serving. Kept free of drift
    /// instrumentation so shadow evaluations never pollute the live
    /// monitors the trigger reads.
    pub candidate: Arc<dyn DetectionEngine>,
    /// Engine installed on promotion — the instrumented twin of
    /// `candidate`, wired to the live insight feed.
    pub promoted: Arc<dyn DetectionEngine>,
    /// Version metadata the host surfaces after installation.
    pub meta: ModelMeta,
}

/// The serving-layer surface the plane drives (implemented by
/// [`SignatureStore`](crate::SignatureStore)).
pub trait EngineHost: Send + Sync {
    /// Atomically installs `engine` as the live model, records its
    /// metadata, and returns the new store version.
    fn install(&self, engine: Arc<dyn DetectionEngine>, meta: ModelMeta) -> u64;
    /// Routes a deterministic `fraction` of request ids through
    /// `engine` (canary mode) until [`EngineHost::clear_canary`].
    fn set_canary(&self, engine: Arc<dyn DetectionEngine>, fraction: f64, seed: u64);
    /// Restores single-engine serving.
    fn clear_canary(&self);
}

/// Source of the drift score the retrain trigger watches.
pub trait DriftWatch: Send + Sync {
    /// The current worst-case PSI across feature and signature
    /// monitors (`None` until two windows have completed).
    fn max_psi(&self) -> Option<f64>;
}

/// [`DriftWatch`] over a [`psigene::EngineInsight`] handle — the
/// standard wiring for a gateway built with `Psigene::with_control`.
pub struct InsightDrift(pub Arc<psigene::EngineInsight>);

impl DriftWatch for InsightDrift {
    fn max_psi(&self) -> Option<f64> {
        self.0.scores().max_psi()
    }
}

/// Produces shadow models from buffered traffic and owns the
/// promote/rollback bookkeeping for the trained state.
pub trait Retrainer: Send + Sync {
    /// Retrains on the buffered samples; `trained_at` is the virtual
    /// timestamp to stamp into the model metadata.
    fn retrain(
        &self,
        attacks: &[TrafficSample],
        benign: &[TrafficSample],
        trained_at: u64,
    ) -> Result<RetrainedModel, String>;
    /// An uninstrumented clone of the *current* live model, used as
    /// the replay baseline (replaying through the serving engine
    /// would double-feed the drift monitors).
    fn replay_baseline(&self) -> Arc<dyn DetectionEngine>;
    /// The shadow just went live: commit it as the new current model.
    fn on_promoted(&self);
    /// The shadow was rejected: discard pending state.
    fn on_rolled_back(&self);
}

/// Control-loop states, exported as the `control.state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ControlState {
    /// No traffic observed yet.
    Idle = 0,
    /// Buffering traffic, watching drift.
    Sampling = 1,
    /// Background retrain in flight.
    Retraining = 2,
    /// Differential replay of the buffer, shadow vs. live.
    Replaying = 3,
    /// Shadow serving a deterministic id-sampled traffic fraction.
    Canary = 4,
    /// Shadow installed as the live model (transient, one poll).
    Promoted = 5,
    /// Shadow rejected; live model untouched (transient, one poll).
    RolledBack = 6,
}

impl ControlState {
    fn from_u8(v: u8) -> ControlState {
        match v {
            1 => ControlState::Sampling,
            2 => ControlState::Retraining,
            3 => ControlState::Replaying,
            4 => ControlState::Canary,
            5 => ControlState::Promoted,
            6 => ControlState::RolledBack,
            _ => ControlState::Idle,
        }
    }

    /// Lower-case state name (telemetry suffix).
    pub fn name(&self) -> &'static str {
        match self {
            ControlState::Idle => "idle",
            ControlState::Sampling => "sampling",
            ControlState::Retraining => "retraining",
            ControlState::Replaying => "replaying",
            ControlState::Canary => "canary",
            ControlState::Promoted => "promoted",
            ControlState::RolledBack => "rolled_back",
        }
    }
}

/// Tuning for the control loop; the defaults mirror the paper-scale
/// deployment described in DESIGN §12.
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// PSI level treated as a population change (industry-standard
    /// 0.25 — matches the drift layer's "significant" band).
    pub psi_threshold: f64,
    /// Consecutive polls at/above the threshold before a retrain
    /// fires.
    pub debounce: u32,
    /// Driver-thread poll cadence.
    pub poll_interval: Duration,
    /// Minimum buffered attack samples before a retrain is worth
    /// running; a trigger firing below this re-arms instead.
    pub min_attack_samples: usize,
    /// Fraction of request ids routed through the shadow during
    /// canary (deterministic id-hash sampling).
    pub canary_fraction: f64,
    /// Canary evaluations required before the promote/rollback
    /// decision; `0` disables canary and promotes straight from a
    /// passing replay.
    pub canary_min_requests: u64,
    /// Polls the canary may wait for `canary_min_requests` before the
    /// loop gives up and rolls back (traffic may simply have stopped).
    pub canary_patience: u32,
    /// Max allowed |canary flag rate − live flag rate| during canary.
    pub max_canary_flag_delta: f64,
    /// Replay gate: benign-verdict regressions (live pass → shadow
    /// flag) tolerated before rollback.
    pub max_benign_flips: usize,
    /// Replay gate: how much attack-detection rate the shadow may
    /// lose relative to live before rollback.
    pub max_detection_drop: f64,
    /// Trigger cooldown (in polls) after a promotion or rollback,
    /// while rebaselined monitors settle.
    pub cooldown_polls: u32,
    /// Seed for deterministic canary id-sampling.
    pub canary_seed: u64,
}

impl Default for ControlConfig {
    fn default() -> ControlConfig {
        ControlConfig {
            psi_threshold: 0.25,
            debounce: 3,
            poll_interval: Duration::from_millis(50),
            min_attack_samples: 16,
            canary_fraction: 0.10,
            canary_min_requests: 256,
            canary_patience: 10_000,
            max_canary_flag_delta: 0.05,
            max_benign_flips: 0,
            max_detection_drop: 0.0,
            cooldown_polls: 8,
            canary_seed: 0xc0ff_ee00,
        }
    }
}

/// Counting pass-through used while the shadow serves canary traffic:
/// delegates every evaluation and tallies served/flagged so the plane
/// can compare canary behaviour against the live flag rate.
pub struct CanaryWatch {
    inner: Arc<dyn DetectionEngine>,
    served: AtomicU64,
    flagged: AtomicU64,
}

impl CanaryWatch {
    /// Wraps `inner` with counters.
    pub fn new(inner: Arc<dyn DetectionEngine>) -> Arc<CanaryWatch> {
        Arc::new(CanaryWatch {
            inner,
            served: AtomicU64::new(0),
            flagged: AtomicU64::new(0),
        })
    }

    /// Requests routed through the canary so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Of those, how many the canary flagged.
    pub fn flagged(&self) -> u64 {
        self.flagged.load(Ordering::Relaxed)
    }
}

impl DetectionEngine for CanaryWatch {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, request: &psigene_http::HttpRequest) -> Detection {
        let d = self.inner.evaluate(request);
        self.served.fetch_add(1, Ordering::Relaxed);
        if d.flagged {
            self.flagged.fetch_add(1, Ordering::Relaxed);
        }
        d
    }

    fn rule_count(&self) -> usize {
        self.inner.rule_count()
    }
}

/// Pre-resolved `control.*` instrument handles.
struct PlaneMetrics {
    state: Arc<Gauge>,
    triggers: Arc<Counter>,
    retrains: Arc<Counter>,
    replays: Arc<Counter>,
    promotions: Arc<Counter>,
    rollbacks: Arc<Counter>,
    skipped: Arc<Counter>,
    retrain_ns: Arc<Histogram>,
    replay_ns: Arc<Histogram>,
    promotion_ns: Arc<Histogram>,
}

impl PlaneMetrics {
    fn new() -> PlaneMetrics {
        let t = psigene_telemetry::global();
        PlaneMetrics {
            state: t.gauge("control.state"),
            triggers: t.counter("control.triggers"),
            retrains: t.counter("control.retrains"),
            replays: t.counter("control.replays"),
            promotions: t.counter("control.promotions"),
            rollbacks: t.counter("control.rollbacks"),
            skipped: t.counter("control.skipped"),
            retrain_ns: t.histogram("control.retrain_ns"),
            replay_ns: t.histogram("control.replay_ns"),
            promotion_ns: t.histogram("control.promotion_ns"),
        }
    }
}

/// State shared between the driver thread and status readers.
struct Shared {
    state: AtomicU8,
    stop: AtomicBool,
    triggers: AtomicU64,
    retrains: AtomicU64,
    replays: AtomicU64,
    promotions: AtomicU64,
    rollbacks: AtomicU64,
    last_report: Mutex<Option<PromotionReport>>,
    last_meta: Mutex<Option<ModelMeta>>,
    metrics: PlaneMetrics,
}

impl Shared {
    fn enter(&self, s: ControlState) {
        self.state.store(s as u8, Ordering::Relaxed);
        self.metrics.state.set(s as u8 as f64);
        psigene_telemetry::counter(&format!("control.enter.{}", s.name())).inc();
    }
}

/// Point-in-time view of the loop for callers and tests.
#[derive(Debug, Clone)]
pub struct ControlStatus {
    /// Current state-machine position.
    pub state: ControlState,
    /// Times the debounced drift trigger fired.
    pub triggers: u64,
    /// Completed background retrains.
    pub retrains: u64,
    /// Completed differential replays.
    pub replays: u64,
    /// Shadow models promoted to live.
    pub promotions: u64,
    /// Shadow models rejected (replay gate, canary gate, or retrain
    /// failure).
    pub rollbacks: u64,
    /// The most recent replay report, if any.
    pub last_report: Option<PromotionReport>,
    /// Metadata of the most recently promoted model, if any.
    pub last_meta: Option<ModelMeta>,
}

/// The background control loop; see the module docs. Dropping the
/// plane stops the driver thread.
pub struct ControlPlane {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Everything the driver thread owns.
struct Driver {
    buffer: Arc<SampleBuffer>,
    host: Arc<dyn EngineHost>,
    drift: Arc<dyn DriftWatch>,
    retrainer: Arc<dyn Retrainer>,
    config: ControlConfig,
    trigger: RetrainTrigger,
    shared: Arc<Shared>,
}

impl ControlPlane {
    /// Spawns the driver thread and returns the handle. The loop
    /// starts in `Idle` and moves to `Sampling` once the buffer has
    /// observed traffic.
    pub fn start(
        buffer: Arc<SampleBuffer>,
        host: Arc<dyn EngineHost>,
        drift: Arc<dyn DriftWatch>,
        retrainer: Arc<dyn Retrainer>,
        config: ControlConfig,
    ) -> ControlPlane {
        let shared = Arc::new(Shared {
            state: AtomicU8::new(ControlState::Idle as u8),
            stop: AtomicBool::new(false),
            triggers: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            last_report: Mutex::new(None),
            last_meta: Mutex::new(None),
            metrics: PlaneMetrics::new(),
        });
        shared.enter(ControlState::Idle);
        let mut driver = Driver {
            buffer,
            host,
            drift,
            retrainer,
            config,
            trigger: RetrainTrigger::new(config.psi_threshold, config.debounce),
            shared: Arc::clone(&shared),
        };
        let handle = std::thread::Builder::new()
            .name("control-plane".into())
            .spawn(move || driver.run())
            .expect("spawn control driver");
        ControlPlane {
            shared,
            handle: Some(handle),
        }
    }

    /// The loop's current position and lifetime counters.
    pub fn status(&self) -> ControlStatus {
        ControlStatus {
            state: ControlState::from_u8(self.shared.state.load(Ordering::Relaxed)),
            triggers: self.shared.triggers.load(Ordering::Relaxed),
            retrains: self.shared.retrains.load(Ordering::Relaxed),
            replays: self.shared.replays.load(Ordering::Relaxed),
            promotions: self.shared.promotions.load(Ordering::Relaxed),
            rollbacks: self.shared.rollbacks.load(Ordering::Relaxed),
            last_report: lock(&self.shared.last_report).clone(),
            last_meta: *lock(&self.shared.last_meta),
        }
    }

    /// Stops the driver thread and waits for it to exit. Idempotent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field(
                "state",
                &ControlState::from_u8(self.shared.state.load(Ordering::Relaxed)),
            )
            .finish_non_exhaustive()
    }
}

impl Driver {
    fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    fn run(&mut self) {
        while !self.stopped() {
            std::thread::sleep(self.config.poll_interval);
            if self.stopped() {
                break;
            }
            self.tick();
        }
    }

    /// One poll: advance Idle→Sampling, feed the trigger, and when it
    /// fires run the full retrain→replay→canary→promote cycle inline
    /// (the cycle spans many poll intervals only while the canary
    /// accumulates traffic).
    fn tick(&mut self) {
        let state = ControlState::from_u8(self.shared.state.load(Ordering::Relaxed));
        match state {
            ControlState::Idle => {
                if self.buffer.seen() > 0 {
                    self.shared.enter(ControlState::Sampling);
                }
            }
            ControlState::Promoted | ControlState::RolledBack => {
                // Transient states: surface for one poll, then resume.
                self.shared.enter(ControlState::Sampling);
            }
            _ => {
                if self.trigger.poll(self.drift.max_psi()) {
                    self.shared.triggers.fetch_add(1, Ordering::Relaxed);
                    self.shared.metrics.triggers.inc();
                    let (attacks, _) = self.buffer.len();
                    if attacks < self.config.min_attack_samples {
                        // Drift is real but there is nothing to learn
                        // from yet; re-arm and keep sampling.
                        self.shared.metrics.skipped.inc();
                        self.trigger.cool_down(1);
                    } else {
                        self.cycle();
                    }
                }
            }
        }
    }

    /// The retrain→replay→canary→promote/rollback cycle.
    fn cycle(&mut self) {
        let cycle_start = Instant::now();

        // -- Retraining ------------------------------------------------
        self.shared.enter(ControlState::Retraining);
        let (attacks, benign) = self.buffer.snapshot();
        let trained_at = self.buffer.seen();
        let retrain_start = Instant::now();
        let model = self.retrainer.retrain(&attacks, &benign, trained_at);
        self.shared
            .metrics
            .retrain_ns
            .record_duration(retrain_start.elapsed());
        let model = match model {
            Ok(m) => {
                self.shared.retrains.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.retrains.inc();
                m
            }
            Err(_) => {
                self.roll_back();
                return;
            }
        };

        // -- Replaying -------------------------------------------------
        self.shared.enter(ControlState::Replaying);
        let baseline = self.retrainer.replay_baseline();
        let replay_start = Instant::now();
        let report = differential_replay(
            baseline.as_ref(),
            model.candidate.as_ref(),
            &attacks,
            &benign,
        );
        self.shared
            .metrics
            .replay_ns
            .record_duration(replay_start.elapsed());
        self.shared.replays.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.replays.inc();
        let gate = report.benign_to_flagged <= self.config.max_benign_flips
            && report.shadow_attack_detection + self.config.max_detection_drop
                >= report.live_attack_detection;
        *lock(&self.shared.last_report) = Some(report);
        if !gate {
            self.roll_back();
            return;
        }

        // -- Canary ----------------------------------------------------
        if self.config.canary_min_requests > 0 && !self.canary_passes(&model) {
            self.roll_back();
            return;
        }

        // -- Promote ---------------------------------------------------
        self.host.install(Arc::clone(&model.promoted), model.meta);
        self.host.clear_canary();
        self.retrainer.on_promoted();
        self.buffer.clear();
        self.trigger.cool_down(self.config.cooldown_polls);
        *lock(&self.shared.last_meta) = Some(model.meta);
        self.shared.promotions.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.promotions.inc();
        self.shared
            .metrics
            .promotion_ns
            .record_duration(cycle_start.elapsed());
        self.shared.enter(ControlState::Promoted);
    }

    /// Serves a deterministic traffic fraction through the shadow and
    /// compares its flag rate against concurrent live traffic.
    fn canary_passes(&mut self, model: &RetrainedModel) -> bool {
        self.shared.enter(ControlState::Canary);
        let watch = CanaryWatch::new(Arc::clone(&model.candidate));
        self.host.set_canary(
            Arc::clone(&watch) as Arc<dyn DetectionEngine>,
            self.config.canary_fraction,
            self.config.canary_seed,
        );
        let seen0 = self.buffer.seen();
        let flagged0 = self.buffer.flagged();
        let mut patience = self.config.canary_patience;
        while watch.served() < self.config.canary_min_requests {
            if self.stopped() || patience == 0 {
                self.host.clear_canary();
                return false;
            }
            patience -= 1;
            std::thread::sleep(self.config.poll_interval);
        }
        let canary_served = watch.served().max(1);
        let canary_rate = watch.flagged() as f64 / canary_served as f64;
        // Live traffic concurrent with the canary: everything the
        // buffer observed minus what the canary itself served.
        let live_served = (self.buffer.seen() - seen0).saturating_sub(watch.served());
        let live_flagged = (self.buffer.flagged() - flagged0).saturating_sub(watch.flagged());
        let live_rate = if live_served == 0 {
            canary_rate
        } else {
            live_flagged as f64 / live_served as f64
        };
        let pass = (canary_rate - live_rate).abs() <= self.config.max_canary_flag_delta;
        if !pass {
            self.host.clear_canary();
        }
        pass
    }

    fn roll_back(&mut self) {
        self.host.clear_canary();
        self.retrainer.on_rolled_back();
        self.trigger.cool_down(self.config.cooldown_polls);
        self.shared.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.rollbacks.inc();
        self.shared.enter(ControlState::RolledBack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VerdictSink;
    use psigene_http::HttpRequest;

    /// Engine flagging queries that contain `union`.
    struct Live;
    impl DetectionEngine for Live {
        fn name(&self) -> &str {
            "live"
        }
        fn evaluate(&self, request: &HttpRequest) -> Detection {
            let hit = request.request_target().contains("union");
            Detection {
                flagged: hit,
                matched_rules: if hit { vec![1] } else { vec![] },
                score: if hit { 0.9 } else { 0.1 },
            }
        }
        fn rule_count(&self) -> usize {
            1
        }
    }

    /// Sabotaged shadow: flags everything.
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

    struct MockHost {
        installs: AtomicU64,
        canary_sets: AtomicU64,
        canary_clears: AtomicU64,
        canary: Mutex<Option<Arc<dyn DetectionEngine>>>,
    }

    impl MockHost {
        fn new() -> Arc<MockHost> {
            Arc::new(MockHost {
                installs: AtomicU64::new(0),
                canary_sets: AtomicU64::new(0),
                canary_clears: AtomicU64::new(0),
                canary: Mutex::new(None),
            })
        }
    }

    impl EngineHost for MockHost {
        fn install(&self, _engine: Arc<dyn DetectionEngine>, _meta: ModelMeta) -> u64 {
            self.installs.fetch_add(1, Ordering::Relaxed) + 2
        }
        fn set_canary(&self, engine: Arc<dyn DetectionEngine>, _fraction: f64, _seed: u64) {
            self.canary_sets.fetch_add(1, Ordering::Relaxed);
            *lock(&self.canary) = Some(engine);
        }
        fn clear_canary(&self) {
            self.canary_clears.fetch_add(1, Ordering::Relaxed);
            *lock(&self.canary) = None;
        }
    }

    struct MockDrift(Mutex<Option<f64>>);
    impl DriftWatch for MockDrift {
        fn max_psi(&self) -> Option<f64> {
            *lock(&self.0)
        }
    }

    /// Retrainer returning a fixed shadow engine.
    struct FixedRetrainer {
        shadow: Arc<dyn DetectionEngine>,
        promoted: AtomicU64,
        rolled_back: AtomicU64,
    }

    impl FixedRetrainer {
        fn new(shadow: Arc<dyn DetectionEngine>) -> Arc<FixedRetrainer> {
            Arc::new(FixedRetrainer {
                shadow,
                promoted: AtomicU64::new(0),
                rolled_back: AtomicU64::new(0),
            })
        }
    }

    impl Retrainer for FixedRetrainer {
        fn retrain(
            &self,
            attacks: &[TrafficSample],
            benign: &[TrafficSample],
            trained_at: u64,
        ) -> Result<RetrainedModel, String> {
            Ok(RetrainedModel {
                candidate: Arc::clone(&self.shadow),
                promoted: Arc::clone(&self.shadow),
                meta: ModelMeta {
                    model_id: 2,
                    trained_at,
                    training_samples: attacks.len() + benign.len(),
                },
            })
        }
        fn replay_baseline(&self) -> Arc<dyn DetectionEngine> {
            Arc::new(Live)
        }
        fn on_promoted(&self) {
            self.promoted.fetch_add(1, Ordering::Relaxed);
        }
        fn on_rolled_back(&self) {
            self.rolled_back.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn fill_buffer(buffer: &SampleBuffer, n: u64) {
        let live = Live;
        for i in 0..n {
            let q = if i % 4 == 0 {
                format!("q=union+select+{i}")
            } else {
                format!("a={i}")
            };
            let req = HttpRequest::get("h", "/p", &q);
            let d = live.evaluate(&req);
            buffer.observe(i, &req, &d);
        }
    }

    fn quick_config() -> ControlConfig {
        ControlConfig {
            debounce: 2,
            poll_interval: Duration::from_millis(1),
            min_attack_samples: 4,
            canary_min_requests: 0, // canary exercised separately
            cooldown_polls: 2,
            ..ControlConfig::default()
        }
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

    #[test]
    fn healthy_shadow_is_promoted() {
        let buffer = SampleBuffer::new(64, 64, 11);
        let host = MockHost::new();
        let drift = Arc::new(MockDrift(Mutex::new(None)));
        let retrainer = FixedRetrainer::new(Arc::new(Live));
        let mut plane = ControlPlane::start(
            Arc::clone(&buffer),
            Arc::clone(&host) as Arc<dyn EngineHost>,
            Arc::clone(&drift) as Arc<dyn DriftWatch>,
            Arc::clone(&retrainer) as Arc<dyn Retrainer>,
            quick_config(),
        );
        fill_buffer(&buffer, 64);
        assert!(wait_until(1000, || plane.status().state == ControlState::Sampling));
        *lock(&drift.0) = Some(0.6);
        assert!(wait_until(2000, || plane.status().promotions >= 1));
        let status = plane.status();
        assert_eq!(host.installs.load(Ordering::Relaxed), 1);
        assert_eq!(retrainer.promoted.load(Ordering::Relaxed), 1);
        assert_eq!(status.rollbacks, 0);
        let report = status.last_report.expect("replay ran");
        assert_eq!(report.verdict_flips(), 0);
        let meta = status.last_meta.expect("meta recorded");
        assert_eq!(meta.model_id, 2);
        assert!(meta.training_samples > 0);
        // Promotion clears the buffer for the next loop.
        assert!(wait_until(1000, || buffer.is_empty()));
        plane.stop();
    }

    #[test]
    fn sabotaged_shadow_is_rolled_back() {
        let buffer = SampleBuffer::new(64, 64, 13);
        let host = MockHost::new();
        let drift = Arc::new(MockDrift(Mutex::new(Some(0.9))));
        let retrainer = FixedRetrainer::new(Arc::new(FlagAll));
        let mut plane = ControlPlane::start(
            Arc::clone(&buffer),
            Arc::clone(&host) as Arc<dyn EngineHost>,
            Arc::clone(&drift) as Arc<dyn DriftWatch>,
            Arc::clone(&retrainer) as Arc<dyn Retrainer>,
            quick_config(),
        );
        fill_buffer(&buffer, 64);
        assert!(wait_until(2000, || plane.status().rollbacks >= 1));
        let status = plane.status();
        assert_eq!(host.installs.load(Ordering::Relaxed), 0);
        assert_eq!(status.promotions, 0);
        assert!(retrainer.rolled_back.load(Ordering::Relaxed) >= 1);
        let report = status.last_report.expect("replay ran");
        assert!(report.benign_to_flagged > 0);
        plane.stop();
    }

    #[test]
    fn trigger_without_samples_re_arms() {
        let buffer = SampleBuffer::new(64, 64, 17);
        let host = MockHost::new();
        let drift = Arc::new(MockDrift(Mutex::new(Some(0.9))));
        let retrainer = FixedRetrainer::new(Arc::new(Live));
        let mut plane = ControlPlane::start(
            Arc::clone(&buffer),
            Arc::clone(&host) as Arc<dyn EngineHost>,
            Arc::clone(&drift) as Arc<dyn DriftWatch>,
            Arc::clone(&retrainer) as Arc<dyn Retrainer>,
            ControlConfig {
                min_attack_samples: 1000, // unreachable
                ..quick_config()
            },
        );
        // Only benign traffic: the trigger fires but has nothing to
        // learn from.
        for i in 0..16 {
            let req = HttpRequest::get("h", "/p", &format!("a={i}"));
            buffer.observe(i, &req, &Live.evaluate(&req));
        }
        assert!(wait_until(1000, || plane.status().triggers >= 2));
        let status = plane.status();
        assert_eq!(status.retrains, 0);
        assert_eq!(status.promotions, 0);
        assert_eq!(status.rollbacks, 0);
        plane.stop();
    }

    #[test]
    fn canary_divergence_rolls_back() {
        let buffer = SampleBuffer::new(64, 64, 19);
        let host = MockHost::new();
        let drift = Arc::new(MockDrift(Mutex::new(Some(0.9))));
        // Shadow passes replay on attacks only (no benign kept), but
        // flags everything once canary traffic arrives.
        let retrainer = FixedRetrainer::new(Arc::new(FlagAll));
        let config = ControlConfig {
            canary_min_requests: 8,
            canary_patience: 5000,
            max_benign_flips: usize::MAX, // let replay pass
            ..quick_config()
        };
        let mut plane = ControlPlane::start(
            Arc::clone(&buffer),
            Arc::clone(&host) as Arc<dyn EngineHost>,
            Arc::clone(&drift) as Arc<dyn DriftWatch>,
            Arc::clone(&retrainer) as Arc<dyn Retrainer>,
            config,
        );
        fill_buffer(&buffer, 32);
        // Wait for the canary engine to appear, then simulate the
        // gateway routing benign traffic through it (and everything
        // through the buffer tap).
        assert!(wait_until(2000, || lock(&host.canary).is_some()));
        let canary = lock(&host.canary).clone().unwrap();
        for i in 0..64u64 {
            let req = HttpRequest::get("h", "/p", &format!("b={i}"));
            let live_d = Live.evaluate(&req);
            if i % 4 == 0 {
                let d = canary.evaluate(&req); // shadow flags benign
                buffer.observe(1000 + i, &req, &d);
            } else {
                buffer.observe(1000 + i, &req, &live_d);
            }
        }
        assert!(wait_until(2000, || plane.status().rollbacks >= 1));
        assert_eq!(host.installs.load(Ordering::Relaxed), 0);
        assert!(host.canary_clears.load(Ordering::Relaxed) >= 1);
        plane.stop();
    }
}
