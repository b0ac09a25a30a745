//! RAII span timers.
//!
//! A span measures the wall time between its creation and its drop
//! (or explicit [`finish`](Span::finish)) and records it, in
//! nanoseconds, into the histogram `span.<name>` on its registry.
//! Spans are flat: one opened inside another records under its own
//! name, so a metric name never depends on the caller.
//!
//! ```
//! let registry = psigene_telemetry::Registry::new();
//! {
//!     let _outer = registry.span("request");
//!     let _inner = registry.span("parse"); // records span.parse
//! }
//! assert_eq!(registry.histogram("span.parse").count(), 1);
//! assert_eq!(registry.histogram("span.request").count(), 1);
//! ```

use crate::histogram::Histogram;
use crate::registry::Registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open span; see the module docs.
#[derive(Debug)]
pub struct Span {
    histogram: Arc<Histogram>,
    start: Instant,
    recorded: bool,
}

impl Span {
    pub(crate) fn open(registry: &Registry, name: &str) -> Span {
        Span {
            histogram: registry.histogram(&format!("span.{name}")),
            start: Instant::now(),
            recorded: false,
        }
    }

    /// Closes the span now and returns its duration — for callers
    /// that also want the measurement (reports, log lines).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if !self.recorded {
            self.recorded = true;
            self.histogram.record_duration(elapsed);
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_prefixed_histogram() {
        let r = Registry::new();
        {
            let _s = r.span("work");
        }
        let snap = r.snapshot();
        assert_eq!(snap.histograms["span.work"].count(), 1);
    }

    #[test]
    fn spans_ignore_enclosing_spans() {
        let r = Registry::new();
        {
            let _outer = r.span("caller");
            let _inner = r.span("pipeline.crawl");
        }
        let snap = r.snapshot();
        for name in ["span.caller", "span.pipeline.crawl"] {
            assert_eq!(snap.histograms[name].count(), 1, "{name}");
        }
        assert_eq!(snap.histograms.len(), 2);
    }

    #[test]
    fn finish_returns_duration_and_records_once() {
        let r = Registry::new();
        let s = r.span("timed");
        std::thread::sleep(Duration::from_millis(2));
        let d = s.finish();
        assert!(d >= Duration::from_millis(2));
        let snap = r.snapshot();
        assert_eq!(snap.histograms["span.timed"].count(), 1);
        let recorded = snap.histograms["span.timed"].max().unwrap();
        assert!(recorded >= 2_000_000, "recorded {recorded}ns");
    }
}
