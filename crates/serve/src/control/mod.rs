//! Continuous-learning control plane for pSigene (paper §V: "the
//! incremental training is also an automatic process").
//!
//! The serving gateway detects; this module closes the loop that keeps
//! the detector current. Four pieces, wired by [`ControlPlane`]:
//!
//! 1. **[`SampleBuffer`]** — a bounded capture of recent traffic fed
//!    from the gateway's verdict tap ([`VerdictSink`]): every
//!    attack-labeled request in a ring, benign traffic
//!    reservoir-sampled with a deterministic seed.
//! 2. **[`RetrainTrigger`]** — a debounced threshold over the drift
//!    layer's PSI scores (`drift.*`): sustained population change
//!    fires a retrain, noise does not.
//! 3. **[`differential_replay`]** — the buffer evaluated pairwise
//!    through the live baseline and the shadow model, producing a
//!    [`PromotionReport`] (verdict flips, per-signature ROC deltas,
//!    score-calibration shift) that gates promotion.
//! 4. **Promote/rollback** — a passing shadow optionally serves a
//!    deterministic canary fraction, then goes live through the
//!    store's atomic hot-reload path with version metadata
//!    ([`ModelMeta`]); a failing one is discarded without ever
//!    touching the live engine.
//!
//! The plane never names the gateway or the store: it drives an
//! [`EngineHost`], reads a [`DriftWatch`] and calls a [`Retrainer`] —
//! implemented by [`SignatureStore`](crate::SignatureStore),
//! [`InsightDrift`] and [`PsigeneRetrainer`], or by test fakes.
//!
//! Every stage is observable: `control.buffer.*` occupancy,
//! `control.state` (the state-machine gauge), `control.enter.*`
//! transition counters, `control.retrain_ns` / `control.replay_ns` /
//! `control.promotion_ns` latency histograms and `learn.*` retrain
//! counters.

pub use crate::buffer::{mix64, SampleBuffer, TrafficSample, VerdictSink};
pub use crate::plane::{
    CanaryWatch, ControlConfig, ControlPlane, ControlState, ControlStatus, DriftWatch, EngineHost,
    InsightDrift, ModelMeta, RetrainedModel, Retrainer,
};
pub use crate::replay::{differential_replay, PromotionReport, SignatureDelta};
pub use crate::retrainer::PsigeneRetrainer;
pub use crate::trigger::RetrainTrigger;
