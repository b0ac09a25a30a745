//! Streaming observability primitives.
//!
//! The rest of this crate measures *rates and latencies*; this module
//! measures *distributions over time* and *individual requests* — the
//! two inputs the paper's §V operational phase (incremental
//! retraining as traffic shifts) needs before a control plane can
//! decide anything:
//!
//! - [`DecayedSketch`] / [`DriftMonitor`] — exponentially-decayed
//!   frequency sketches over feature ids (or score bins), snapshotted
//!   into reference/current windows and compared with [`psi`] and
//!   [`kl_divergence`]. A rising PSI on the feature-frequency sketch
//!   is the "traffic has shifted, consider re-fitting" trigger;
//!   a rising PSI on a signature's score histogram is the "this
//!   model's calibration has drifted" trigger.
//! - [`Tracer`] / [`TraceContext`] — request-scoped tracing with
//!   deterministic sampling by request id. A sampled request carries
//!   a [`TraceContext`] through gateway → detector → scan →
//!   scoring, producing a span tree with per-stage timings;
//!   unsampled requests pay one hash and **zero allocations**.
//!   [`ExemplarBuffer`] retains the K slowest finished traces for
//!   postmortem dumps.
//! - [`BurnRateEvaluator`] — multi-window SLO burn rate over
//!   cumulative good/total counts (fed from a latency histogram
//!   snapshot diff). Its output is what a shadow/canary promoter
//!   gates on.
//!
//! The module is std-only and knows nothing of the registry: callers
//! publish its readings as gauges (`drift.*`, `slo.*`) themselves.

pub use crate::drift::{kl_divergence, psi, psi_and_kl, DriftConfig, DriftMonitor};
pub use crate::sketch::DecayedSketch;
pub use crate::slo::{BurnRate, BurnRateEvaluator, SloConfig};
pub use crate::trace::{
    ExemplarBuffer, FinishedTrace, SpanId, SpanRecord, TraceConfig, TraceContext, Tracer,
};
