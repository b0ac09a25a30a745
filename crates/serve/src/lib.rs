//! # psigene-serve — the inline detection gateway
//!
//! The paper's operational phase (§II-D) scores every incoming HTTP
//! request against the generalized signatures; this crate is the
//! serving subsystem that puts that scoring into a request path:
//!
//! - [`Gateway`] — a pool of worker shards, each fed by its own
//!   bounded queue. Requests are submitted from any number of
//!   threads; each shard drains its queue in order and answers each
//!   submission through a one-shot reply slot, so callers can block ([`Gateway::check`]) or pipeline
//!   ([`Gateway::submit`] → [`Ticket::wait`]). A `check` that finds
//!   its shard idle is evaluated on the calling thread, with no
//!   hand-off at all, and so is a `submit` when no other shard is idle
//!   either; a shard still runs one evaluation at a time. Neither side
//!   issues a wake-up unless the other is parked, and a panic while
//!   serving one request fails that request's ticket only.
//! - [`OverloadPolicy`] — what happens when every queue is at its
//!   bound, and only that: `Block` applies backpressure to the
//!   submitter, `Shed` returns
//!   [`Verdict::Overloaded`](psigene_rulesets::Verdict) immediately
//!   with a configurable fail-open / fail-closed direction. A `Shed`
//!   submitter never waits for queue space or for another request's
//!   evaluation; on an idle shard it evaluates its own.
//! - [`SignatureStore`] — an atomic-swap holder for the live engine.
//!   [`IncrementalTrainer`-style retraining](psigene::Psigene::retrain_with)
//!   produces a new [`Psigene`](psigene::Psigene); swapping it in
//!   bumps a version counter and takes effect mid-traffic without
//!   dropping a single in-flight request.
//! - Batch submission ([`Gateway::submit_batch`]) routes a whole
//!   batch to one shard, where
//!   [`evaluate_batch`](psigene_rulesets::DetectionEngine::evaluate_batch)
//!   amortizes the engine snapshot, the feature-vector allocation and
//!   telemetry across the batch.
//! - Request-scoped tracing: one submission in
//!   [`GatewayConfig::trace`]`.sample_every` (deterministically, by
//!   hash of the request id) carries a span tree through the queue,
//!   the detector and the feature extractor; finished traces compete
//!   for the slowest-exemplar buffer read back through
//!   [`Gateway::trace_exemplars`]. Unsampled requests pay one hash
//!   and no allocation.
//! - [`LatencySlo`] — multi-window burn-rate evaluation of a latency
//!   SLO over the `serve.latency_ns` histogram, exported as `slo.*`
//!   gauges.
//! - [`control`] — the
//!   continuous-learning control plane: a
//!   [`SampleBuffer`](control::SampleBuffer) fed from the gateway's
//!   verdict tap ([`GatewayConfig::tap`]), a drift-debounced retrain
//!   trigger, differential replay of buffered traffic against the
//!   shadow model, and automatic promote/rollback through
//!   [`SignatureStore::swap_versioned`] — with optional canary
//!   routing ([`SignatureStore::set_canary`]) of a deterministic
//!   id-sampled traffic fraction through the shadow first.
//!
//! Everything is instrumented through `psigene-telemetry`: per-shard
//! queue-depth gauges (`serve.shard.<i>.queue_depth`),
//! submitted/served/shed counters (`serve.*`), an end-to-end latency
//! histogram with one observation per request (`serve.latency_ns`),
//! contained worker panics (`serve.worker_panics`), trace counts
//! (`serve.traces`),
//! reload accounting (`serve.reloads`, `serve.signature_version`)
//! and SLO burn gauges (`slo.*`).
//!
//! # Example
//!
//! ```
//! use psigene_serve::{Gateway, GatewayConfig, OverloadPolicy, SignatureStore};
//! use psigene_http::HttpRequest;
//! use psigene_rulesets::{BroEngine, DetectionEngine};
//! use std::sync::Arc;
//!
//! // Any DetectionEngine serves; production wraps a trained Psigene.
//! let store = SignatureStore::new(Arc::new(BroEngine::new()));
//! let gateway = Gateway::start(
//!     Arc::clone(&store),
//!     GatewayConfig {
//!         shards: 2,
//!         queue_capacity: 64,
//!         policy: OverloadPolicy::Shed { fail_open: true },
//!         ..GatewayConfig::default()
//!     },
//! );
//! let verdict = gateway.check(HttpRequest::get("v", "/x.php", "id=-1+union+select+1,2,3"));
//! assert!(verdict.flagged());
//! let stats = gateway.shutdown();
//! assert_eq!(stats.served, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod control;
mod gateway;
mod handoff;
mod slo;
mod store;

// What `control` re-exports lives in `control/`, declared at the crate
// root: its files name each other `crate::buffer`, `crate::plane`, and
// its unit tests run as `plane::tests::*`, `replay::tests::*`, ….
#[path = "control/buffer.rs"]
mod buffer;
#[path = "control/plane.rs"]
mod plane;
#[path = "control/replay.rs"]
mod replay;
#[path = "control/retrainer.rs"]
mod retrainer;
#[path = "control/trigger.rs"]
mod trigger;

pub use config::{GatewayConfig, OverloadPolicy};
pub use gateway::{BatchTicket, Gateway, GatewayStats, Ticket};
pub use slo::LatencySlo;
pub use store::SignatureStore;
