//! Zero-dependency observability for the pSigene pipeline.
//!
//! The paper's evaluation (§IV) reports wall-clock phase costs,
//! per-request detection latency and trainer convergence behaviour;
//! this crate provides the instruments those numbers come from:
//!
//! - [`Counter`] / [`Gauge`] — lock-free named event counts and
//!   last-value measurements (crawler page counts, matrix fill rate,
//!   final gradient norms);
//! - [`Histogram`] — log-bucketed latency/size distributions with
//!   exact count/sum/min/max and approximate p50/p90/p99, mergeable
//!   across shards, with a non-atomic [`LocalHistogram`] a hot thread
//!   fills and publishes in batches;
//! - [`Span`] — RAII wall-clock timers with per-thread nesting that
//!   record into `span.<dotted.path>` histograms;
//! - [`Registry`] — the named-instrument family behind all of the
//!   above, with deterministic text, JSON and Prometheus exporters;
//! - [`insight`] — streaming drift monitors (PSI/KL over decayed
//!   sketches), request-scoped trace trees with deterministic
//!   sampling, and multi-window SLO burn-rate evaluation.
//!
//! Everything is implemented on `std` alone: recording on hot paths is
//! a relaxed atomic update, and the only allocations happen at
//! instrument creation and export time. A process-wide registry is available through
//! [`global`] and the [`counter`]/[`gauge`]/[`histogram`]/[`span`]/
//! [`root_span`] shorthands; code that needs isolation (tests, the
//! bench harness) can construct private [`Registry`] values instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod histogram;
pub mod insight;
mod metrics;
mod registry;
mod span;

// What `insight` re-exports lives in `insight/`, declared at the crate
// root: its files name each other `crate::sketch`, `crate::drift`, and
// its unit tests run as `drift::tests::*`, `trace::tests::*`, ….
#[path = "insight/drift.rs"]
mod drift;
#[cfg(test)]
#[path = "insight/proptests.rs"]
mod proptests;
#[path = "insight/sketch.rs"]
mod sketch;
#[path = "insight/slo.rs"]
mod slo;
#[path = "insight/trace.rs"]
mod trace;

pub use export::{render_json, render_prometheus, render_text};
pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram, N_BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{Registry, Snapshot};
pub use span::Span;

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry the pipeline's built-in instrumentation
/// records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The global counter with this name (see [`Registry::counter`]).
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// The global gauge with this name (see [`Registry::gauge`]).
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// The global histogram with this name (see [`Registry::histogram`]).
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Opens a nested span on the global registry (see [`Registry::span`]).
pub fn span(name: &str) -> Span<'static> {
    global().span(name)
}

/// Opens an absolute-named span on the global registry (see
/// [`Registry::root_span`]).
pub fn root_span(name: &str) -> Span<'static> {
    global().root_span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        counter("lib.test.shared").add(2);
        counter("lib.test.shared").inc();
        assert!(global().counter("lib.test.shared").get() >= 3);
    }

    #[test]
    fn global_span_records() {
        {
            let _s = root_span("lib.test.span");
        }
        assert!(global().histogram("span.lib.test.span").count() >= 1);
    }
}
