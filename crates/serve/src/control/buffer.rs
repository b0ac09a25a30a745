//! Bounded streaming sample buffer fed from gateway verdicts.
//!
//! The control loop needs a representative cut of *recent* traffic to
//! retrain on and to replay against a shadow model. The buffer keeps
//! two bounded populations:
//!
//! - **attack-labeled** traffic (the live engine flagged it) in a
//!   ring: every flagged request is kept until the ring evicts the
//!   oldest — attacks are rare and each one carries training signal;
//! - **benign-labeled** traffic in a classic reservoir sample with a
//!   deterministic seed, so the kept subset is uniform over the whole
//!   benign stream and reproducible for a given arrival order.
//!
//! The buffer implements [`VerdictSink`], the gateway's verdict-tap
//! interface: the serving layer calls
//! [`observe`](VerdictSink::observe) for every evaluated request (shed
//! requests never reach the tap). Unkept benign requests cost one hash
//! and no clone.

use crate::handoff::lock;
use psigene_http::HttpRequest;
use psigene_rulesets::Detection;
use psigene_telemetry::{Counter, Gauge};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// SplitMix64 — the deterministic hash behind reservoir admission and
/// canary routing (stable across platforms, one multiply-xor chain).
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Consumer of gateway verdicts (the gateway's tap interface). The
/// gateway calls this on the worker thread right after evaluation, so
/// implementations must be cheap and must never block on the caller.
pub trait VerdictSink: Send + Sync {
    /// One evaluated request: its gateway-assigned id, the request
    /// itself and the engine's decision.
    fn observe(&self, id: u64, request: &HttpRequest, detection: &Detection);
}

/// One captured request with the verdict it received from the live
/// engine at capture time.
#[derive(Debug, Clone)]
pub struct TrafficSample {
    /// Gateway-assigned request id.
    pub id: u64,
    /// The captured request.
    pub request: HttpRequest,
    /// Pseudo-label: the live engine flagged this request. The loop
    /// has no ground truth in production; the live verdict is the
    /// supervision signal (and its weakness is exactly why replay
    /// gates promotion).
    pub attack: bool,
    /// The live engine's max-signature score at capture time.
    pub score: f64,
}

struct BufferState {
    attacks: VecDeque<TrafficSample>,
    benign: Vec<TrafficSample>,
    /// Benign requests seen so far (reservoir admission index).
    benign_seen: u64,
}

/// Pre-resolved `control.buffer.*` telemetry handles.
struct BufferMetrics {
    seen: Arc<Counter>,
    flagged: Arc<Counter>,
    attacks_gauge: Arc<Gauge>,
    benign_gauge: Arc<Gauge>,
}

/// Bounded reservoir-sampled traffic buffer; see the module docs.
pub struct SampleBuffer {
    attack_capacity: usize,
    benign_capacity: usize,
    seed: u64,
    state: Mutex<BufferState>,
    metrics: BufferMetrics,
    /// Total evaluated requests observed (lock-free, read by the
    /// control plane as the loop's virtual clock).
    seen: AtomicU64,
    /// Of those, how many the live engine flagged (canary baseline).
    flagged: AtomicU64,
}

impl SampleBuffer {
    /// A buffer keeping at most `attack_capacity` flagged and
    /// `benign_capacity` reservoir-sampled unflagged requests.
    pub fn new(attack_capacity: usize, benign_capacity: usize, seed: u64) -> Arc<SampleBuffer> {
        let telemetry = psigene_telemetry::global();
        Arc::new(SampleBuffer {
            attack_capacity: attack_capacity.max(1),
            benign_capacity: benign_capacity.max(1),
            seed,
            state: Mutex::new(BufferState {
                attacks: VecDeque::new(),
                benign: Vec::new(),
                benign_seen: 0,
            }),
            metrics: BufferMetrics {
                seen: telemetry.counter("control.buffer.seen"),
                flagged: telemetry.counter("control.buffer.flagged"),
                attacks_gauge: telemetry.gauge("control.buffer.attacks"),
                benign_gauge: telemetry.gauge("control.buffer.benign"),
            },
            seen: AtomicU64::new(0),
            flagged: AtomicU64::new(0),
        })
    }

    /// Evaluated requests observed since creation (or the last
    /// [`SampleBuffer::clear`]) — the loop's virtual clock.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Observed requests the live engine flagged.
    pub fn flagged(&self) -> u64 {
        self.flagged.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of both populations: `(attacks, benign)`.
    pub fn snapshot(&self) -> (Vec<TrafficSample>, Vec<TrafficSample>) {
        let st = lock(&self.state);
        (st.attacks.iter().cloned().collect(), st.benign.clone())
    }

    /// Current `(kept attacks, kept benign)` counts.
    pub fn len(&self) -> (usize, usize) {
        let st = lock(&self.state);
        (st.attacks.len(), st.benign.len())
    }

    /// True when nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }

    /// Drops every kept sample and resets the reservoir stream (the
    /// control plane clears after a promotion so the next loop trains
    /// on traffic the *new* model labeled).
    pub fn clear(&self) {
        let mut st = lock(&self.state);
        st.attacks.clear();
        st.benign.clear();
        st.benign_seen = 0;
        self.metrics.attacks_gauge.set(0.0);
        self.metrics.benign_gauge.set(0.0);
    }
}

impl VerdictSink for SampleBuffer {
    fn observe(&self, id: u64, request: &HttpRequest, detection: &Detection) {
        self.seen.fetch_add(1, Ordering::Relaxed);
        self.metrics.seen.inc();
        if detection.flagged {
            self.flagged.fetch_add(1, Ordering::Relaxed);
            self.metrics.flagged.inc();
            let mut st = lock(&self.state);
            if st.attacks.len() == self.attack_capacity {
                st.attacks.pop_front();
            }
            st.attacks.push_back(TrafficSample {
                id,
                request: request.clone(),
                attack: true,
                score: detection.score,
            });
            self.metrics.attacks_gauge.set(st.attacks.len() as f64);
            return;
        }
        let mut st = lock(&self.state);
        st.benign_seen += 1;
        let n = st.benign_seen;
        // Algorithm R with a seeded hash instead of an RNG stream:
        // the nth benign request is kept with probability capacity/n,
        // replacing a uniformly chosen slot — deterministic in
        // (seed, arrival index).
        if st.benign.len() < self.benign_capacity {
            st.benign.push(TrafficSample {
                id,
                request: request.clone(),
                attack: false,
                score: detection.score,
            });
        } else {
            let j = (mix64(self.seed ^ n) % n) as usize;
            if j < self.benign_capacity {
                st.benign[j] = TrafficSample {
                    id,
                    request: request.clone(),
                    attack: false,
                    score: detection.score,
                };
            }
        }
        self.metrics.benign_gauge.set(st.benign.len() as f64);
    }
}

impl std::fmt::Debug for SampleBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (a, b) = self.len();
        f.debug_struct("SampleBuffer")
            .field("attacks", &a)
            .field("benign", &b)
            .field("seen", &self.seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(flagged: bool, score: f64) -> Detection {
        Detection {
            flagged,
            matched_rules: if flagged { vec![1] } else { vec![] },
            score,
        }
    }

    fn req(i: u64) -> HttpRequest {
        HttpRequest::get("h", "/p", &format!("a={i}"))
    }

    #[test]
    fn attacks_ring_keeps_the_newest() {
        let buf = SampleBuffer::new(4, 4, 7);
        for i in 0..10 {
            buf.observe(i, &req(i), &det(true, 0.9));
        }
        let (attacks, benign) = buf.snapshot();
        assert_eq!(attacks.len(), 4);
        assert!(benign.is_empty());
        let ids: Vec<u64> = attacks.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert!(attacks.iter().all(|s| s.attack));
        assert_eq!(buf.seen(), 10);
        assert_eq!(buf.flagged(), 10);
    }

    #[test]
    fn benign_reservoir_is_bounded_uniformish_and_deterministic() {
        let run = || {
            let buf = SampleBuffer::new(4, 32, 0xabcd);
            for i in 0..1000 {
                buf.observe(i, &req(i), &det(false, 0.01));
            }
            let (_, benign) = buf.snapshot();
            benign.iter().map(|s| s.id).collect::<Vec<u64>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 32);
        assert_eq!(a, b, "same seed + arrival order must keep the same set");
        // Uniform-ish: the kept set is not just the first or last 32.
        assert!(a.iter().any(|&id| id < 500));
        assert!(a.iter().any(|&id| id >= 500));
    }

    #[test]
    fn clear_resets_everything() {
        let buf = SampleBuffer::new(4, 4, 1);
        for i in 0..8 {
            buf.observe(i, &req(i), &det(i % 2 == 0, 0.5));
        }
        assert!(!buf.is_empty());
        buf.clear();
        assert!(buf.is_empty());
        // The reservoir stream restarts: the next benign request is
        // kept unconditionally again.
        buf.observe(99, &req(99), &det(false, 0.0));
        assert_eq!(buf.len(), (0, 1));
    }
}
