//! Request-scoped tracing with deterministic sampling.
//!
//! A [`Tracer`] decides per request id — deterministically, so replays
//! and tests sample the same requests — whether to allocate a
//! [`TraceContext`]. A sampled context travels with the request
//! through the gateway into the detector and records a span tree
//! (stage name, depth, offset, duration); unsampled requests cost one
//! 64-bit hash and **no allocation**. Finished traces compete for a
//! slot in an [`ExemplarBuffer`] that retains the K slowest — the
//! postmortem set ("what did the worst requests spend their time
//! on?") that a latency SLO violation is debugged from.

use std::time::Instant;

/// One timed stage inside a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (static — tracing never formats strings on the
    /// request path).
    pub name: &'static str,
    /// Nesting depth at begin time (0 = top level).
    pub depth: u16,
    /// Offset from trace start, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds (0 until ended).
    pub duration_ns: u64,
}

/// Handle to an open span inside one [`TraceContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Sampling parameters for a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one request in `sample_every` (0 disables tracing,
    /// 1 traces everything). Selection is by hash of the request id,
    /// not `id % sample_every`, so batched and striped submitters
    /// don't alias with the sampling pattern.
    pub sample_every: u64,
    /// Seed mixed into the sampling hash; a fixed seed makes the
    /// sampled id set reproducible across runs.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample_every: 64,
            seed: 0x70_ace5,
        }
    }
}

/// SplitMix64 — cheap, well-mixed, and stable across platforms.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic request sampler; see [`TraceConfig`].
#[derive(Debug, Clone, Copy)]
pub struct Tracer {
    config: TraceConfig,
}

impl Tracer {
    /// A tracer with the given sampling parameters.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer { config }
    }

    /// The sampling parameters.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Whether this request id is sampled. Pure function of
    /// `(id, seed, sample_every)` — no state, no allocation.
    pub fn sampled(&self, id: u64) -> bool {
        match self.config.sample_every {
            0 => false,
            1 => true,
            n => mix64(id ^ self.config.seed).is_multiple_of(n),
        }
    }

    /// Starts a trace for a sampled request id; `None` (and no
    /// allocation at all) for unsampled ids.
    pub fn start(&self, id: u64) -> Option<TraceContext> {
        if self.sampled(id) {
            Some(TraceContext::new(id))
        } else {
            None
        }
    }
}

/// The span tree of one in-flight sampled request.
#[derive(Debug)]
pub struct TraceContext {
    id: u64,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    /// Indices of spans begun but not yet ended, in nesting order.
    open: Vec<usize>,
}

impl TraceContext {
    /// A fresh trace for `id`, clock starting now.
    pub fn new(id: u64) -> TraceContext {
        TraceContext {
            id,
            epoch: Instant::now(),
            spans: Vec::with_capacity(8),
            open: Vec::with_capacity(4),
        }
    }

    /// The request id this trace belongs to.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Opens a stage nested under the currently open spans.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            depth: self.open.len().min(u16::MAX as usize) as u16,
            start_ns: self.now_ns(),
            duration_ns: 0,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes `span` (and any deeper spans still open under it).
    pub fn end(&mut self, span: SpanId) {
        let now = self.now_ns();
        while let Some(idx) = self.open.pop() {
            let rec = &mut self.spans[idx];
            rec.duration_ns = now.saturating_sub(rec.start_ns);
            if idx == span.0 {
                return;
            }
        }
    }

    /// Closes the most recently opened span still open, if any.
    pub fn end_last(&mut self) {
        if let Some(&idx) = self.open.last() {
            self.end(SpanId(idx));
        }
    }

    /// Closes every open span and seals the trace.
    pub fn finish(mut self) -> FinishedTrace {
        let now = self.now_ns();
        while let Some(idx) = self.open.pop() {
            let rec = &mut self.spans[idx];
            rec.duration_ns = now.saturating_sub(rec.start_ns);
        }
        FinishedTrace {
            id: self.id,
            total_ns: now,
            spans: self.spans,
        }
    }
}

/// A sealed trace: the span tree plus the end-to-end duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// Request id.
    pub id: u64,
    /// End-to-end duration in nanoseconds.
    pub total_ns: u64,
    /// Stages in begin order (pre-order of the span tree).
    pub spans: Vec<SpanRecord>,
}

impl FinishedTrace {
    /// Renders the span tree as indented text with per-stage timings
    /// and shares of the end-to-end time.
    pub fn render_tree(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {:>6}  total {:>9.1} µs",
            self.id,
            self.total_ns as f64 / 1_000.0
        );
        for s in &self.spans {
            let share = if self.total_ns > 0 {
                100.0 * s.duration_ns as f64 / self.total_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:indent$}{:<24} {:>9.1} µs  {:>5.1}%",
                "",
                s.name,
                s.duration_ns as f64 / 1_000.0,
                share,
                indent = 2 * s.depth as usize,
            );
        }
        out
    }
}

/// Retains the K slowest finished traces seen so far.
///
/// Offers are O(K) with K small (a handful of exemplars is what a
/// postmortem reads); the buffer itself is not synchronized — wrap it
/// in a mutex where concurrent workers offer.
#[derive(Debug, Clone)]
pub struct ExemplarBuffer {
    capacity: usize,
    traces: Vec<FinishedTrace>,
}

impl ExemplarBuffer {
    /// An empty buffer retaining up to `capacity` traces.
    pub fn new(capacity: usize) -> ExemplarBuffer {
        ExemplarBuffer {
            capacity: capacity.max(1),
            traces: Vec::new(),
        }
    }

    /// Offers a finished trace; it is retained iff the buffer has
    /// room or the trace is slower than the current fastest exemplar.
    pub fn offer(&mut self, trace: FinishedTrace) {
        if self.traces.len() < self.capacity {
            self.traces.push(trace);
            return;
        }
        if let Some((idx, fastest)) = self
            .traces
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.total_ns)
        {
            if trace.total_ns > fastest.total_ns {
                self.traces[idx] = trace;
            }
        }
    }

    /// Retained traces, slowest first.
    pub fn slowest_first(&self) -> Vec<&FinishedTrace> {
        let mut v: Vec<&FinishedTrace> = self.traces.iter().collect();
        v.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        v
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no trace has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_roughly_at_rate() {
        let t = Tracer::new(TraceConfig {
            sample_every: 16,
            seed: 42,
        });
        let picked: Vec<u64> = (0..10_000).filter(|&id| t.sampled(id)).collect();
        let again: Vec<u64> = (0..10_000).filter(|&id| t.sampled(id)).collect();
        assert_eq!(picked, again);
        // ~625 expected at 1/16; allow a wide band.
        assert!(
            (300..=1_000).contains(&picked.len()),
            "sampled {}",
            picked.len()
        );
        // A different seed picks a different set.
        let other = Tracer::new(TraceConfig {
            sample_every: 16,
            seed: 43,
        });
        let other_picked: Vec<u64> = (0..10_000).filter(|&id| other.sampled(id)).collect();
        assert_ne!(picked, other_picked);
    }

    #[test]
    fn edge_rates() {
        let never = Tracer::new(TraceConfig {
            sample_every: 0,
            seed: 1,
        });
        let always = Tracer::new(TraceConfig {
            sample_every: 1,
            seed: 1,
        });
        assert!((0..100).all(|id| !never.sampled(id)));
        assert!((0..100).all(|id| always.sampled(id)));
        assert!(never.start(7).is_none());
        assert!(always.start(7).is_some());
    }

    #[test]
    fn span_tree_nests_and_times() {
        let mut ctx = TraceContext::new(9);
        let outer = ctx.begin("outer");
        let inner = ctx.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(1));
        ctx.end(inner);
        ctx.end(outer);
        let sibling = ctx.begin("sibling");
        ctx.end(sibling);
        let t = ctx.finish();
        assert_eq!(t.id, 9);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(
            t.spans
                .iter()
                .map(|s| (s.name, s.depth))
                .collect::<Vec<_>>(),
            vec![("outer", 0), ("inner", 1), ("sibling", 0)]
        );
        assert!(t.spans[0].duration_ns >= t.spans[1].duration_ns);
        assert!(t.spans[1].duration_ns >= 1_000_000);
        assert!(t.total_ns >= t.spans[0].duration_ns);
        let tree = t.render_tree();
        assert!(tree.contains("outer") && tree.contains("inner"), "{tree}");
    }

    #[test]
    fn ending_an_outer_span_closes_its_children() {
        let mut ctx = TraceContext::new(1);
        let outer = ctx.begin("outer");
        ctx.begin("leaked_child");
        ctx.end(outer);
        let t = ctx.finish();
        assert!(t
            .spans
            .iter()
            .all(|s| s.duration_ns > 0 || s.start_ns == t.total_ns));
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut ctx = TraceContext::new(2);
        ctx.begin("open_at_finish");
        ctx.end_last();
        ctx.begin("still_open");
        let t = ctx.finish();
        assert_eq!(t.spans.len(), 2);
    }

    #[test]
    fn exemplars_keep_the_slowest() {
        let mut buf = ExemplarBuffer::new(2);
        for (id, total) in [(1u64, 100u64), (2, 500), (3, 50), (4, 900)] {
            buf.offer(FinishedTrace {
                id,
                total_ns: total,
                spans: Vec::new(),
            });
        }
        let slow: Vec<u64> = buf.slowest_first().iter().map(|t| t.id).collect();
        assert_eq!(slow, vec![4, 2]);
        assert_eq!(buf.len(), 2);
    }
}
