//! Gateway sizing, overload behaviour, trace sampling and the
//! verdict tap.

use crate::control::VerdictSink;
use psigene_telemetry::insight::TraceConfig;
use std::sync::Arc;

/// What the gateway does when every shard queue is at its bound.
///
/// An inline IDS must pick a failure direction under overload: the
/// paper's offline evaluation never faces this, but a deployment
/// serving real traffic does. `Block` preserves the exact offline
/// semantics (every request is evaluated, submitters slow down);
/// `Shed` keeps submitter latency bounded and answers with
/// [`Verdict::Overloaded`](psigene_rulesets::Verdict) instead.
///
/// The policy decides only what happens at the bound. Under either, a
/// single request that finds its shard idle (nothing queued, worker
/// holding no job) is evaluated on the submitting thread instead of
/// waking the worker: always under `check`, and under `submit` when no
/// other shard is idle (always so with one shard), which makes that
/// `submit` synchronous. Batches always queue.
///
/// A thread that has evaluated this way keeps what a worker keeps,
/// until it exits: the engine's thread-local scratch (about 1.2 MB on
/// mostly benign traffic, 2.2 MB on attacks, for a pSigene engine), up
/// to 31 requests of unpublished verdict telemetry and an unfinished
/// drift batch. That memory, and the lag of counters and drift
/// windows, grows with the number of distinct submitting threads, not
/// with `shards`; a front end running very many long-lived client
/// threads bounds it with `submit_batch`, the one path that never
/// evaluates on the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Backpressure: `submit` blocks until queue space frees up.
    /// Every accepted request is evaluated.
    Block,
    /// Load shedding: when all queues are full the request is
    /// answered immediately without evaluation. A submitter never
    /// waits for queue space or for another request's evaluation; on
    /// an idle shard it evaluates its own request. A stalled engine
    /// can therefore hold the one submitter that claimed the shard
    /// (where it would otherwise hold the worker), while every other
    /// submitter sees the shard occupied and sheds at the bound.
    Shed {
        /// `true` = shed traffic passes unflagged (availability over
        /// detection); `false` = shed traffic is flagged (detection
        /// over availability).
        fail_open: bool,
    },
}

impl OverloadPolicy {
    /// The failure direction used for shed (or otherwise
    /// unevaluated) requests. `Block` never sheds by policy, but a
    /// dead worker still needs a direction; it fails closed.
    pub fn fail_open(&self) -> bool {
        match self {
            OverloadPolicy::Block => false,
            OverloadPolicy::Shed { fail_open } => *fail_open,
        }
    }
}

/// Gateway sizing: how many worker shards and how deep each shard's
/// queue runs before [`OverloadPolicy`] kicks in.
#[derive(Clone)]
pub struct GatewayConfig {
    /// Number of worker shards (threads), each with its own bounded
    /// queue. Clamped to at least 1.
    pub shards: usize,
    /// Per-shard queue bound. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Behaviour when every queue is full.
    pub policy: OverloadPolicy,
    /// Request-trace sampling: one submission in
    /// [`sample_every`](TraceConfig::sample_every) carries a span
    /// tree through the gateway and detector; the rest pay one hash
    /// and no allocation. `sample_every: 0` disables tracing.
    pub trace: TraceConfig,
    /// Verdict tap: invoked for every *evaluated* request — `(gateway
    /// request id, request, detection)` — right after evaluation, on
    /// the thread that evaluated it: the shard's worker, or a
    /// submitter that found its shard idle. Shed requests never reach
    /// the tap. The control plane's
    /// [`SampleBuffer`](crate::control::SampleBuffer) implements the
    /// sink; `None` costs nothing.
    pub tap: Option<Arc<dyn VerdictSink>>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue_capacity: 1024,
            policy: OverloadPolicy::Block,
            trace: TraceConfig::default(),
            tap: None,
        }
    }
}

impl std::fmt::Debug for GatewayConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayConfig")
            .field("shards", &self.shards)
            .field("queue_capacity", &self.queue_capacity)
            .field("policy", &self.policy)
            .field("trace", &self.trace)
            .field("tap", &self.tap.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GatewayConfig::default();
        assert!(c.shards >= 1);
        assert!(c.queue_capacity >= 1);
        assert_eq!(c.policy, OverloadPolicy::Block);
        assert!(c.trace.sample_every >= 1);
        assert!(c.tap.is_none());
        assert!(format!("{c:?}").contains("tap: false"));
    }

    #[test]
    fn failure_direction() {
        assert!(!OverloadPolicy::Block.fail_open());
        assert!(OverloadPolicy::Shed { fail_open: true }.fail_open());
        assert!(!OverloadPolicy::Shed { fail_open: false }.fail_open());
    }
}
