//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program is probed from outside: the traced pass replays each
//! request through the layers' public functions one after another and
//! wraps every call in a span. A child layer (say `regex.scan` under
//! `features.extract`) is therefore a replayed call of its own, not an
//! interval inside its parent's, and a layer's self time is its
//! duration minus the durations of its children.

use serde_json::Value;
use std::collections::BTreeMap;

/// The probed layers, in the order the spans of one request are
/// stored, each with the index of its parent.
pub const LAYERS: [(&str, Option<usize>); 8] = [
    ("request", None),
    ("http.parse", Some(REQUEST)),
    ("core.evaluate", Some(REQUEST)),
    ("core.evaluate_plain", Some(EVALUATE)),
    ("features.extract", Some(EVALUATE_PLAIN)),
    ("http.normalize", Some(EXTRACT)),
    ("regex.scan", Some(EXTRACT)),
    ("core.score", Some(EVALUATE_PLAIN)),
];
pub const REQUEST: usize = 0;
pub const PARSE: usize = 1;
/// `evaluate` with the drift monitors on, as deployed; its self time
/// is what the monitors cost.
pub const EVALUATE: usize = 2;
/// `evaluate` with the monitors off; its self time is the detector's
/// own telemetry.
pub const EVALUATE_PLAIN: usize = 3;
/// `extract_dense_into`; its self time is the counting VMs.
pub const EXTRACT: usize = 4;
pub const NORMALIZE: usize = 5;
pub const SCAN: usize = 6;
pub const SCORE: usize = 7;

/// Requests whose spans are kept in full; later requests only add to
/// the per-layer aggregates.
pub const FULL_REQUESTS: usize = 2000;

/// One call into a layer, in ns since the traced pass began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every layer from one duration per layer (indexed as
/// [`LAYERS`]): the duration minus the children's, floored at zero.
pub fn self_times(durations: &[f64; LAYERS.len()]) -> [f64; LAYERS.len()] {
    let mut own = *durations;
    for (child, (_, parent)) in LAYERS.iter().enumerate() {
        if let Some(parent) = parent {
            own[*parent] -= durations[child];
        }
    }
    own.map(|v| v.max(0.0))
}

/// The in-memory span store of one traced pass, allocated up front.
pub struct SpanBuffer {
    spans: Vec<Span>,
}

impl SpanBuffer {
    pub fn new() -> SpanBuffer {
        SpanBuffer {
            spans: Vec::with_capacity(FULL_REQUESTS * LAYERS.len()),
        }
    }

    /// Keeps the spans of one request if the buffer still has room.
    pub fn record(&mut self, request: u32, bounds: &[(u64, u64); LAYERS.len()]) {
        if self.spans.len() + LAYERS.len() > self.spans.capacity() {
            return;
        }
        for (layer, &(start_ns, end_ns)) in bounds.iter().enumerate() {
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns,
                request,
            });
        }
    }

    /// The trace as JSON: every kept span with its parent and self
    /// time, and the caller's per-layer aggregates over the whole pass.
    pub fn to_json(&self, header: BTreeMap<String, Value>, aggregates: Value) -> Value {
        let mut spans = Vec::with_capacity(self.spans.len());
        for request in self.spans.chunks(LAYERS.len()) {
            let mut durations = [0.0; LAYERS.len()];
            for s in request {
                durations[s.layer] = s.duration() as f64;
            }
            let own = self_times(&durations);
            for s in request {
                let (name, parent) = LAYERS[s.layer];
                spans.push(Value::Object(BTreeMap::from([
                    ("name".to_string(), Value::String(name.to_string())),
                    ("request".to_string(), Value::Number(s.request as f64)),
                    ("start_ns".to_string(), Value::Number(s.start_ns as f64)),
                    ("end_ns".to_string(), Value::Number(s.end_ns as f64)),
                    ("self_ns".to_string(), Value::Number(own[s.layer])),
                    (
                        "parent".to_string(),
                        parent.map_or(Value::Null, |p| Value::String(LAYERS[p].0.to_string())),
                    ),
                ])));
            }
        }
        let mut doc = header;
        doc.insert("aggregates".to_string(), aggregates);
        doc.insert("spans".to_string(), Value::Array(spans));
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut d = [0.0; LAYERS.len()];
        d[REQUEST] = 5000.0;
        d[PARSE] = 300.0;
        d[EVALUATE] = 1200.0;
        d[EVALUATE_PLAIN] = 1000.0;
        d[EXTRACT] = 700.0;
        d[NORMALIZE] = 50.0;
        d[SCAN] = 350.0;
        d[SCORE] = 200.0;
        let own = self_times(&d);
        assert_eq!(own[REQUEST], 5000.0 - 300.0 - 1200.0);
        assert_eq!(own[EVALUATE], 200.0, "insight = on - off");
        assert_eq!(
            own[EVALUATE_PLAIN], 100.0,
            "overhead = off - extract - score"
        );
        assert_eq!(own[EXTRACT], 300.0, "count = extract - normalize - scan");
        assert_eq!(own[SCAN], 350.0, "a leaf keeps its duration");
        // Parse plus the self times under evaluate add back up to
        // parse + evaluate: nothing is counted twice or lost.
        let sum: f64 = own[PARSE..].iter().sum();
        assert_eq!(sum, d[PARSE] + d[EVALUATE]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut d = [0.0; LAYERS.len()];
        d[EXTRACT] = 100.0;
        d[NORMALIZE] = 80.0;
        d[SCAN] = 70.0;
        assert_eq!(self_times(&d)[EXTRACT], 0.0);
    }

    #[test]
    fn parents_precede_children_and_exist() {
        for (i, (_, parent)) in LAYERS.iter().enumerate() {
            if let Some(p) = parent {
                assert!(*p < i);
            }
        }
    }

    #[test]
    fn buffer_keeps_whole_requests_up_to_capacity() {
        let mut buf = SpanBuffer::new();
        let bounds = [(0, 10); LAYERS.len()];
        for r in 0..(FULL_REQUESTS as u32 + 5) {
            buf.record(r, &bounds);
        }
        assert_eq!(buf.spans.len(), FULL_REQUESTS * LAYERS.len());
        let doc = buf.to_json(BTreeMap::new(), Value::Null);
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), FULL_REQUESTS * LAYERS.len());
        assert_eq!(spans[1].get("parent").unwrap().as_str(), Some("request"));
        assert!(spans[0].get("parent").unwrap().is_null());
    }
}
