//! The detection-engine abstraction every compared system implements.

use psigene_http::HttpRequest;
use psigene_telemetry::insight::TraceContext;

/// Outcome of evaluating one request.
#[derive(Debug, Clone, Default)]
pub struct Detection {
    /// Whether the engine raises an alert.
    pub flagged: bool,
    /// Ids of the rules (or signatures) that matched. Snort and Bro
    /// stop at their first alert, so they record only the first
    /// matching rule in rule order; ModSecurity records every rule that
    /// scored and pSigene every signature at or above its threshold.
    pub matched_rules: Vec<u32>,
    /// Engine-specific score: anomaly points for ModSec-style
    /// engines, max signature probability for pSigene, 0/1 for
    /// deterministic engines.
    pub score: f64,
}

/// Outcome of submitting one request to a serving gateway: either a
/// real engine decision or an overload shed, where the gateway never
/// ran the engine because its queues were at capacity.
///
/// The paper's operational phase (§II-D) assumes the detector keeps
/// up with traffic; an inline deployment has to say what happens when
/// it does not. A shed verdict records the configured failure
/// direction so downstream consumers (block/allow the request, audit
/// logs, dashboards) can treat it uniformly with real detections.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The engine evaluated the request.
    Evaluated(Detection),
    /// The gateway shed the request before evaluation.
    Overloaded {
        /// `true` = fail-open (shed traffic passes unflagged),
        /// `false` = fail-closed (shed traffic is flagged).
        fail_open: bool,
    },
}

impl Verdict {
    /// Whether this verdict raises an alert: the engine's decision,
    /// or the configured failure direction for shed requests.
    pub fn flagged(&self) -> bool {
        match self {
            Verdict::Evaluated(d) => d.flagged,
            Verdict::Overloaded { fail_open } => !fail_open,
        }
    }

    /// The engine decision, when one was made.
    pub fn detection(&self) -> Option<&Detection> {
        match self {
            Verdict::Evaluated(d) => Some(d),
            Verdict::Overloaded { .. } => None,
        }
    }

    /// Whether the request was shed without evaluation.
    pub fn is_shed(&self) -> bool {
        matches!(self, Verdict::Overloaded { .. })
    }
}

impl From<Detection> for Verdict {
    fn from(d: Detection) -> Verdict {
        Verdict::Evaluated(d)
    }
}

/// A misuse detector that judges HTTP requests.
///
/// The paper compares four such systems (Bro, Snort/ET, ModSecurity,
/// pSigene) plus the Perdisci baseline; all of them implement this
/// trait in the reproduction so the evaluation harness can treat
/// them uniformly.
pub trait DetectionEngine: Send + Sync {
    /// Engine display name (Table V row label).
    fn name(&self) -> &str;

    /// Forces any lazily-built shared state (compiled automata,
    /// telemetry handles) to exist *now*, so the first request served
    /// after a deploy does not pay one-time construction costs. The
    /// serving gateway calls this when an engine is installed or
    /// hot-swapped in. Must be idempotent; the default does nothing.
    fn prepare(&self) {}

    /// Evaluates one request.
    fn evaluate(&self, request: &HttpRequest) -> Detection;

    /// Evaluates a batch of requests in submission order.
    ///
    /// The default is a per-request loop; engines with per-call
    /// overhead worth amortizing (snapshot acquisition, scratch
    /// buffers, telemetry) override it — pSigene shares one feature
    /// buffer and one telemetry flush across the whole batch.
    fn evaluate_batch(&self, requests: &[HttpRequest]) -> Vec<Detection> {
        requests.iter().map(|r| self.evaluate(r)).collect()
    }

    /// Evaluates one request while recording stage timings into a
    /// request-scoped trace (the gateway calls this for sampled
    /// requests; see `psigene_telemetry::insight::Tracer`).
    ///
    /// The default wraps [`DetectionEngine::evaluate`] in a single
    /// `engine.evaluate` span; engines with internal stages worth
    /// seeing in an exemplar trace (pSigene: extraction → fused scan →
    /// feature VMs → scoring) override it with a finer span tree. An
    /// override must return the same detection as `evaluate`.
    fn evaluate_traced(&self, request: &HttpRequest, trace: &mut TraceContext) -> Detection {
        let span = trace.begin("engine.evaluate");
        let detection = self.evaluate(request);
        trace.end(span);
        detection
    }

    /// Number of active detection rules/signatures.
    fn rule_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysFlag;
    impl DetectionEngine for AlwaysFlag {
        fn name(&self) -> &str {
            "always"
        }
        fn evaluate(&self, _request: &HttpRequest) -> Detection {
            Detection {
                flagged: true,
                matched_rules: vec![1],
                score: 1.0,
            }
        }
        fn rule_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn trait_objects_work() {
        let engines: Vec<Box<dyn DetectionEngine>> = vec![Box::new(AlwaysFlag)];
        let req = HttpRequest::get("h", "/", "a=1");
        assert!(engines[0].evaluate(&req).flagged);
        assert_eq!(engines[0].name(), "always");
    }

    #[test]
    fn default_batch_matches_single_evaluation() {
        let engine = AlwaysFlag;
        let reqs: Vec<HttpRequest> = (0..3)
            .map(|i| HttpRequest::get("h", "/", &format!("a={i}")))
            .collect();
        let batch = engine.evaluate_batch(&reqs);
        assert_eq!(batch.len(), 3);
        for (d, r) in batch.iter().zip(&reqs) {
            assert_eq!(d.flagged, engine.evaluate(r).flagged);
        }
    }

    #[test]
    fn default_traced_evaluation_matches_and_records_a_span() {
        let engine = AlwaysFlag;
        let req = HttpRequest::get("h", "/", "a=1");
        let mut trace = TraceContext::new(7);
        let traced = engine.evaluate_traced(&req, &mut trace);
        assert_eq!(traced.flagged, engine.evaluate(&req).flagged);
        let t = trace.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "engine.evaluate");
    }

    #[test]
    fn verdict_flagging_follows_failure_direction() {
        let hit = Verdict::Evaluated(Detection {
            flagged: true,
            matched_rules: vec![3],
            score: 0.9,
        });
        assert!(hit.flagged());
        assert!(!hit.is_shed());
        assert_eq!(hit.detection().map(|d| d.matched_rules.len()), Some(1));

        let open = Verdict::Overloaded { fail_open: true };
        let closed = Verdict::Overloaded { fail_open: false };
        assert!(!open.flagged());
        assert!(closed.flagged());
        assert!(open.is_shed() && closed.is_shed());
        assert!(open.detection().is_none());
    }
}
