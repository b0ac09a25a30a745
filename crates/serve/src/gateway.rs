//! The sharded worker-pool gateway.

use crate::config::{GatewayConfig, OverloadPolicy};
use crate::handoff::lock;
use crate::handoff::{self, Pending, Promise, Queue};
use crate::store::SignatureStore;
use psigene_http::HttpRequest;
use psigene_rulesets::Verdict;
use psigene_telemetry::insight::{ExemplarBuffer, FinishedTrace, TraceContext, Tracer};
use psigene_telemetry::{Counter, Gauge, Histogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How many slowest-trace exemplars the gateway retains.
const EXEMPLAR_CAPACITY: usize = 8;

/// One unit of work on a shard queue.
enum Job {
    One {
        /// Gateway-assigned evaluation id: the canary-routing key and
        /// the id handed to the verdict tap.
        id: u64,
        request: HttpRequest,
        submitted: Instant,
        reply: Promise<Verdict>,
        /// Span tree for the sampled minority; `None` costs nothing.
        trace: Option<TraceContext>,
    },
    Batch {
        /// First evaluation id of the batch; request `i` gets
        /// `base_id + i`. The whole batch is engine-routed by
        /// `base_id` (a batch is one queue slot and one engine call —
        /// splitting it across live and canary engines would break
        /// the batch path's amortization).
        base_id: u64,
        requests: Vec<HttpRequest>,
        submitted: Instant,
        reply: Promise<Vec<Verdict>>,
        /// One trace for the whole batch (batches are one queue slot
        /// and one engine call; per-request spans would multiply the
        /// reply allocation, not the insight).
        trace: Option<TraceContext>,
    },
}

impl Job {
    fn size(&self) -> u64 {
        match self {
            Job::One { .. } => 1,
            Job::Batch { requests, .. } => requests.len() as u64,
        }
    }
}

/// Pre-resolved global telemetry handles plus per-gateway exact
/// counts (the global registry is process-wide; a test or bench with
/// several gateways still gets per-instance numbers from
/// [`Gateway::stats`]).
struct Metrics {
    submitted: Arc<Counter>,
    served: Arc<Counter>,
    shed: Arc<Counter>,
    batches: Arc<Counter>,
    traces: Arc<Counter>,
    worker_panics: Arc<Counter>,
    latency: Arc<Histogram>,
    local_submitted: AtomicU64,
    local_served: AtomicU64,
    local_shed: AtomicU64,
}

impl Metrics {
    fn new(telemetry: &psigene_telemetry::Registry) -> Metrics {
        Metrics {
            submitted: telemetry.counter("serve.submitted"),
            served: telemetry.counter("serve.served"),
            shed: telemetry.counter("serve.shed"),
            batches: telemetry.counter("serve.batches"),
            traces: telemetry.counter("serve.traces"),
            worker_panics: telemetry.counter("serve.worker_panics"),
            latency: telemetry.histogram("serve.latency_ns"),
            local_submitted: AtomicU64::new(0),
            local_served: AtomicU64::new(0),
            local_shed: AtomicU64::new(0),
        }
    }

    fn account_submitted(&self, n: u64) {
        self.submitted.add(n);
        self.local_submitted.fetch_add(n, Ordering::Relaxed);
    }

    fn account_served(&self, n: u64, since_submit: std::time::Duration) {
        self.served.add(n);
        self.local_served.fetch_add(n, Ordering::Relaxed);
        // One observation per request, as `serve.served` counts them:
        // the latency SLO divides one by the other.
        let ns = u64::try_from(since_submit.as_nanos()).unwrap_or(u64::MAX);
        self.latency.record_n(ns, n);
    }

    fn account_shed(&self, n: u64) {
        self.shed.add(n);
        self.local_shed.fetch_add(n, Ordering::Relaxed);
    }
}

/// Point-in-time (or final, after [`Gateway::shutdown`]) serving
/// counts for one gateway instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests accepted onto some shard: queued for its worker, or
    /// evaluated inline by the submitter on an idle shard.
    pub submitted: u64,
    /// Requests evaluated, by a worker or inline.
    pub served: u64,
    /// Requests answered [`Verdict::Overloaded`] without evaluation.
    pub shed: u64,
}

struct Shard {
    queue: Arc<Queue<Job>>,
    depth: Arc<Gauge>,
}

/// The concurrent detection gateway: N shards, each a worker thread
/// owning a bounded queue, all evaluating against the engine currently
/// in the shared [`SignatureStore`].
///
/// A shard evaluates one request at a time, whoever evaluates it. A
/// single request that finds its shard idle (queue empty, worker
/// holding no job) is evaluated on the submitting thread, sparing the
/// thread hand-off, where that takes no parallelism away: always for
/// [`check`](Gateway::check), whose caller would only wait, and for
/// [`submit`](Gateway::submit) when no other shard's worker is idle
/// (always so with one shard). Otherwise the job is queued. Batches
/// always go through the queue. The rule is the same under either
/// [`OverloadPolicy`], which decides only what a submitter does at the
/// bound: wait for space, or shed.
///
/// Evaluation scratch of the engine crates (normalization buffer,
/// candidate bitset, lazy-DFA state cache, feature/score vectors) is
/// thread-local, so it lives on each worker and on each submitter
/// thread that has evaluated inline, and stays warm across requests:
/// after a thread's first few requests, evaluating a payload touches
/// the allocator at most a couple of times (see the alloc-budget test
/// and the matching bench's allocs/payload report). The store prepares
/// incoming engines before exposing them, and each worker touches the
/// installed engine once at spawn, so neither a cold worker nor a hot
/// swap pays one-time construction on the request path.
///
/// Request → verdict flow:
///
/// ```text
/// check()/submit()/submit_batch(): one round-robin pick of shard i
///   idle shard (check; submit    the submitter claims it
///   if no other shard is idle):    → store.engine_for(id) → evaluate
///   busy shard, or a batch:      push onto shard i's queue (Block:
///                                  wait at the bound; Shed: try every
///                                  shard, answer Overloaded when all
///                                  are full) → worker i: take
///                                  → store.engine_for(id) → evaluate
///   either way:                  one-shot reply → Ticket::wait
/// ```
///
/// A shard's bound counts every job accepted and not yet finished,
/// the one in the worker's hands or a submitter's claim included, so
/// under `Shed` exactly `queue_capacity` jobs per shard are admitted
/// ahead of a stalled engine, whether the worker or a claiming
/// submitter is the one it holds.
///
/// A panic while serving a job fails that job's ticket
/// ([`Verdict::Overloaded`] in the policy's failure direction), is
/// counted in `serve.worker_panics`, and the worker (or the submitter
/// serving inline, which does not unwind) carries on. Should a worker
/// exit all the same, its shard refuses new jobs and the tickets of
/// the queued ones resolve the same way.
///
/// Dropping or [`Gateway::shutdown`]-ing the gateway closes the
/// queues; workers drain every job already accepted (so every
/// outstanding [`Ticket`] resolves) and exit.
pub struct Gateway {
    server: Arc<Server>,
    config: GatewayConfig,
    shards: Vec<Shard>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
    tracer: Tracer,
    /// Monotonically increasing submission id: the deterministic
    /// trace-sampling key and the id printed on exemplar traces.
    request_ids: AtomicU64,
    /// Monotonically increasing per-request evaluation id (a batch
    /// consumes one per request): the canary-routing key and the id
    /// the verdict tap sees. Separate from `request_ids` so adding a
    /// tap never changes which submissions get traced.
    eval_ids: AtomicU64,
}

/// Pending verdict for one submitted request.
#[must_use = "wait() on the ticket to get the verdict"]
pub struct Ticket {
    reply: Pending<Verdict>,
    fail_open: bool,
}

/// Pending verdicts for one submitted batch.
#[must_use = "wait() on the ticket to get the verdicts"]
pub struct BatchTicket {
    reply: Pending<Vec<Verdict>>,
    fail_open: bool,
    len: usize,
}

impl Ticket {
    /// Blocks until the verdict arrives. If the job was dropped
    /// without a reply (shed at submission, the worker panicked
    /// serving it, or exited with it still queued) the request counts
    /// as unevaluated and resolves in the policy's failure direction.
    pub fn wait(self) -> Verdict {
        self.reply.wait().unwrap_or(Verdict::Overloaded {
            fail_open: self.fail_open,
        })
    }
}

impl BatchTicket {
    /// Blocks until the batch's verdicts arrive (same dropped-job
    /// semantics as [`Ticket::wait`], applied to the whole batch).
    pub fn wait(self) -> Vec<Verdict> {
        let unevaluated = Verdict::Overloaded {
            fail_open: self.fail_open,
        };
        self.reply
            .wait()
            .unwrap_or_else(|| vec![unevaluated; self.len])
    }
}

impl Gateway {
    /// Spawns the worker shards and returns the running gateway.
    pub fn start(store: Arc<SignatureStore>, config: GatewayConfig) -> Gateway {
        let nshards = config.shards.max(1);
        let capacity = config.queue_capacity.max(1);
        let telemetry = psigene_telemetry::global();
        let server = Arc::new(Server {
            store,
            metrics: Metrics::new(telemetry),
            exemplars: Mutex::new(ExemplarBuffer::new(EXEMPLAR_CAPACITY)),
            tap: config.tap.clone(),
        });
        let mut shards = Vec::with_capacity(nshards);
        let mut workers = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let queue = Arc::new(Queue::new(capacity));
            let depth = telemetry.gauge(&format!("serve.shard.{i}.queue_depth"));
            depth.set(0.0);
            let worker = Worker {
                queue: Arc::clone(&queue),
                depth: Arc::clone(&depth),
                server: Arc::clone(&server),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("psigene-serve-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn gateway worker"),
            );
            shards.push(Shard { queue, depth });
        }
        Gateway {
            server,
            tracer: Tracer::new(config.trace),
            config,
            shards,
            workers,
            next: AtomicUsize::new(0),
            request_ids: AtomicU64::new(0),
            eval_ids: AtomicU64::new(0),
        }
    }

    /// The signature store this gateway serves from (swap engines
    /// through it for hot reload).
    pub fn store(&self) -> &Arc<SignatureStore> {
        &self.server.store
    }

    /// Submits one request; returns a [`Ticket`] resolving to its
    /// verdict. Under `Shed` the ticket may already be resolved to
    /// [`Verdict::Overloaded`].
    ///
    /// `submit` is synchronous when its shard is idle and every other
    /// shard is busy (always so with one shard): it evaluates the
    /// request on the calling thread and returns a resolved ticket. A
    /// client pipelining `submit`s therefore keeps the other shards'
    /// workers evaluating alongside it, and gives up only its own
    /// shard's overlap with its work between `submit`s — on a
    /// one-shard gateway, all of it. That thread then keeps the
    /// engine's evaluation scratch and verdict telemetry batch (see
    /// [`OverloadPolicy`]).
    pub fn submit(&self, request: HttpRequest) -> Ticket {
        self.submit_one(request, false)
    }

    /// Submits a batch to a single shard, where the engine's
    /// [`evaluate_batch`](psigene_rulesets::DetectionEngine::evaluate_batch)
    /// amortizes snapshot acquisition, feature-buffer allocation and
    /// telemetry across all its requests; with a pSigene engine each
    /// request's feature extraction is additionally gated by the
    /// fused scan, so benign-heavy batches run only a fraction of the
    /// feature VMs (`features.vm_runs_skipped`).
    /// Verdicts come back in submission order. Under `Shed`, a full
    /// gateway sheds the whole batch.
    pub fn submit_batch(&self, requests: Vec<HttpRequest>) -> BatchTicket {
        let len = requests.len();
        let (promise, reply) = handoff::promise();
        // An empty batch is never queued: its dropped promise resolves
        // the ticket to no verdicts.
        if len > 0 {
            self.dispatch(
                self.pick(),
                Job::Batch {
                    base_id: self.eval_ids.fetch_add(len as u64, Ordering::Relaxed),
                    requests,
                    submitted: Instant::now(),
                    reply: promise,
                    trace: self.start_trace(),
                },
            );
        }
        BatchTicket {
            reply,
            fail_open: self.config.policy.fail_open(),
            len,
        }
    }

    /// Submits one request and blocks for its verdict. A `check` that
    /// finds its shard idle evaluates on the calling thread, which
    /// would otherwise only wait (see [`OverloadPolicy`] for what that
    /// thread then keeps).
    pub fn check(&self, request: HttpRequest) -> Verdict {
        self.submit_one(request, true).wait()
    }

    /// [`submit`](Gateway::submit) and [`check`](Gateway::check):
    /// `waits` says the caller blocks on the ticket at once.
    fn submit_one(&self, request: HttpRequest, waits: bool) -> Ticket {
        let (promise, reply) = handoff::promise();
        let job = Job::One {
            id: self.eval_ids.fetch_add(1, Ordering::Relaxed),
            request,
            submitted: Instant::now(),
            reply: promise,
            trace: self.start_trace(),
        };
        // One pick for the claim and any fallback push: a second
        // round-robin step per submission would keep every queued job
        // on one shard parity.
        let start = self.pick();
        match self.claim(start, waits) {
            Some(_claim) => {
                self.server.metrics.account_submitted(1);
                self.server.serve(job);
            }
            None => self.dispatch(start, job),
        }
        Ticket {
            reply,
            fail_open: self.config.policy.fail_open(),
        }
    }

    /// Claims shard `start` for the submitter to serve its own job,
    /// where that takes no parallelism away: only on an idle shard, and
    /// only if the caller waits for the verdict anyway or no other
    /// shard has an idle worker that could evaluate alongside the
    /// caller. The same under either overload policy, which decides
    /// only what happens at the bound.
    fn claim(&self, start: usize, waits: bool) -> Option<handoff::Claim<'_, Job>> {
        let n = self.shards.len();
        if !waits && (1..n).any(|i| self.shards[(start + i) % n].queue.idle()) {
            return None;
        }
        self.shards[start].queue.claim()
    }

    /// Submits a batch and blocks for its verdicts.
    pub fn check_batch(&self, requests: Vec<HttpRequest>) -> Vec<Verdict> {
        self.submit_batch(requests).wait()
    }

    /// Allocates the next request id and, for the deterministically
    /// sampled minority, a [`TraceContext`] with its queue span open.
    /// Unsampled submissions cost one atomic increment and one hash —
    /// no allocation.
    fn start_trace(&self) -> Option<TraceContext> {
        let id = self.request_ids.fetch_add(1, Ordering::Relaxed);
        let mut trace = self.tracer.start(id);
        if let Some(t) = trace.as_mut() {
            t.begin("gateway.queue");
        }
        trace
    }

    /// The slowest finished traces seen so far, slowest first — the
    /// postmortem set behind a latency-SLO violation.
    pub fn trace_exemplars(&self) -> Vec<FinishedTrace> {
        lock(&self.server.exemplars)
            .slowest_first()
            .into_iter()
            .cloned()
            .collect()
    }

    /// Current per-instance serving counts.
    pub fn stats(&self) -> GatewayStats {
        let metrics = &self.server.metrics;
        GatewayStats {
            submitted: metrics.local_submitted.load(Ordering::Relaxed),
            served: metrics.local_served.load(Ordering::Relaxed),
            shed: metrics.local_shed.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: closes every shard queue, waits for workers
    /// to drain all accepted jobs (every outstanding ticket resolves)
    /// and returns the final counts.
    pub fn shutdown(mut self) -> GatewayStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        for shard in &self.shards {
            shard.queue.close();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// The next shard in round-robin order.
    fn pick(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Queues a job from shard `start` on according to the overload
    /// policy. A job no shard takes (every queue at its bound, or the
    /// gateway no longer serving) is shed: dropping it, promise and
    /// all, resolves its ticket unevaluated.
    fn dispatch(&self, start: usize, mut job: Job) {
        let n = self.shards.len();
        let size = job.size();
        // Block waits on the round-robin pick; Shed tries every shard
        // once from there and sheds only when all are at the bound.
        let block = self.config.policy == OverloadPolicy::Block;
        for i in 0..if block { 1 } else { n } {
            let shard = &self.shards[(start + i) % n];
            let pushed = if block {
                shard.queue.push(job)
            } else {
                shard.queue.try_push(job)
            };
            match pushed {
                Ok(queued) => {
                    shard.depth.set(queued as f64);
                    self.server.metrics.account_submitted(size);
                    return;
                }
                Err(refused) => job = refused,
            }
        }
        self.server.metrics.account_shed(size);
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// What serving a job takes, shared by the shards' workers and the
/// submitters that serve inline on an idle shard.
struct Server {
    store: Arc<SignatureStore>,
    metrics: Metrics,
    exemplars: Mutex<ExemplarBuffer>,
    tap: Option<Arc<dyn crate::control::VerdictSink>>,
}

/// One shard's worker thread.
struct Worker {
    queue: Arc<Queue<Job>>,
    depth: Arc<Gauge>,
    server: Arc<Server>,
}

/// On worker exit, however it comes about: the shard refuses new jobs
/// and drops the queued ones, so their tickets resolve.
impl Drop for Worker {
    fn drop(&mut self) {
        self.queue.abandon();
        self.depth.set(0.0);
    }
}

impl Worker {
    fn run(self) {
        // Warm-up before serving: force the installed engine's shared
        // lazily-built state (idempotent — the store already prepared
        // it) so the worker's first dequeue never races other workers
        // into one-time construction.
        self.server.store.current().prepare();
        while let Some((job, queued)) = self.queue.take() {
            self.depth.set(queued as f64);
            self.server.serve(job);
        }
    }
}

impl Server {
    /// Evaluates `job` and fulfils its reply, on whichever thread
    /// calls it. A panicking engine (or tap) fails this job alone: the
    /// unwind drops the job, its reply resolves unevaluated, and the
    /// caller carries on. The engine is shared and may not be
    /// unwind-safe; a detector that stops on one bad request is worse.
    fn serve(&self, job: Job) {
        if catch_unwind(AssertUnwindSafe(|| self.answer(job))).is_err() {
            self.metrics.worker_panics.inc();
        }
    }

    fn answer(&self, job: Job) {
        match job {
            Job::One {
                id,
                request,
                submitted,
                reply,
                trace,
            } => {
                let engine = self.store.engine_for(id);
                let detection = match trace {
                    None => engine.evaluate(&request),
                    Some(mut t) => {
                        // Dequeued (or claimed, with nothing to wait
                        // for): the queue span ends, evaluation records
                        // its own stage spans.
                        t.end_last();
                        let detection = engine.evaluate_traced(&request, &mut t);
                        self.finish_trace(t);
                        detection
                    }
                };
                if let Some(tap) = &self.tap {
                    tap.observe(id, &request, &detection);
                }
                self.metrics.account_served(1, submitted.elapsed());
                reply.fulfil(Verdict::Evaluated(detection));
            }
            Job::Batch {
                base_id,
                requests,
                submitted,
                reply,
                trace,
            } => {
                // One engine snapshot for the whole batch: a reload
                // landing mid-batch applies from the next batch on.
                let engine = self.store.engine_for(base_id);
                let detections = match trace {
                    None => engine.evaluate_batch(&requests),
                    Some(mut t) => {
                        t.end_last();
                        let span = t.begin("gateway.batch");
                        let detections = engine.evaluate_batch(&requests);
                        t.end(span);
                        self.finish_trace(t);
                        detections
                    }
                };
                if let Some(tap) = &self.tap {
                    for (i, (request, detection)) in requests.iter().zip(&detections).enumerate() {
                        tap.observe(base_id + i as u64, request, detection);
                    }
                }
                self.metrics.batches.inc();
                self.metrics
                    .account_served(detections.len() as u64, submitted.elapsed());
                reply.fulfil(detections.into_iter().map(Verdict::Evaluated).collect());
            }
        }
    }

    fn finish_trace(&self, trace: TraceContext) {
        self.metrics.traces.inc();
        lock(&self.exemplars).offer(trace.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_rulesets::{Detection, DetectionEngine};
    use std::sync::atomic::AtomicBool;

    /// Flags queries containing "attack" and panics on "poison";
    /// optionally parks on a gate to let tests pin a worker.
    struct TestEngine {
        gate: Option<Arc<AtomicBool>>,
    }

    impl DetectionEngine for TestEngine {
        fn name(&self) -> &str {
            "test-engine"
        }
        fn evaluate(&self, request: &HttpRequest) -> Detection {
            if let Some(gate) = &self.gate {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            let target = request.request_target();
            assert!(!target.contains("poison"), "engine bug (a test expects it)");
            let hot = target.contains("attack");
            Detection {
                flagged: hot,
                matched_rules: if hot { vec![1] } else { vec![] },
                score: if hot { 1.0 } else { 0.0 },
            }
        }
        fn rule_count(&self) -> usize {
            1
        }
    }

    fn free_engine() -> Arc<dyn DetectionEngine> {
        Arc::new(TestEngine { gate: None })
    }

    #[test]
    fn check_round_trips_a_verdict() {
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 2,
                queue_capacity: 8,
                policy: OverloadPolicy::Block,
                ..GatewayConfig::default()
            },
        );
        assert!(gateway
            .check(HttpRequest::get("h", "/attack", "x=1"))
            .flagged());
        assert!(!gateway.check(HttpRequest::get("h", "/ok", "x=1")).flagged());
        let stats = gateway.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn batch_preserves_submission_order() {
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 1,
                queue_capacity: 4,
                policy: OverloadPolicy::Block,
                ..GatewayConfig::default()
            },
        );
        let requests: Vec<HttpRequest> = (0..6)
            .map(|i| {
                let path = if i % 2 == 0 { "/attack" } else { "/ok" };
                HttpRequest::get("h", path, &format!("i={i}"))
            })
            .collect();
        let verdicts = gateway.check_batch(requests);
        assert_eq!(verdicts.len(), 6);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.flagged(), i % 2 == 0, "verdict {i} misrouted");
        }
        drop(gateway);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let gateway = Gateway::start(SignatureStore::new(free_engine()), GatewayConfig::default());
        assert!(gateway.check_batch(Vec::new()).is_empty());
        assert_eq!(gateway.shutdown().submitted, 0);
    }

    #[test]
    fn shed_fires_at_exactly_the_bound_in_the_configured_direction() {
        use std::sync::mpsc;
        use std::time::Duration;
        for (capacity, fail_open) in [(2u64, true), (1, false)] {
            let (done, finished) = mpsc::channel();
            // The scenario runs on its own thread, so that a leaked
            // claim, or a submission that claims the gated shard and
            // spins on the gate, fails the test on the timeout below
            // instead of hanging it.
            std::thread::spawn(move || {
                let gate = Arc::new(AtomicBool::new(false));
                let engine: Arc<dyn DetectionEngine> = Arc::new(TestEngine {
                    gate: Some(Arc::clone(&gate)),
                });
                let gateway = Gateway::start(
                    SignatureStore::new(engine),
                    GatewayConfig {
                        shards: 1,
                        queue_capacity: capacity as usize,
                        policy: OverloadPolicy::Shed { fail_open },
                        ..GatewayConfig::default()
                    },
                );
                let returned = AtomicBool::new(false);
                let (helper, ours, stats) = std::thread::scope(|s| {
                    // The helper finds the shard idle, claims it and
                    // evaluates its request itself, held by the gate.
                    let helper = s.spawn(|| {
                        let verdict = gateway.submit(HttpRequest::get("h", "/ok", "i=0")).wait();
                        returned.store(true, Ordering::Release);
                        verdict
                    });
                    while gateway.stats().submitted == 0 {
                        std::thread::yield_now();
                    }
                    // The claim counts against the bound, so this thread
                    // gets exactly `capacity - 1` accepted, the rest shed.
                    let tickets: Vec<Ticket> = (1..4)
                        .map(|i| gateway.submit(HttpRequest::get("h", "/ok", &format!("i={i}"))))
                        .collect();
                    let stats = gateway.stats();
                    let held = !returned.load(Ordering::Acquire);
                    gate.store(true, Ordering::Release);
                    let helper = helper.join().expect("helper");
                    let ours: Vec<Verdict> = tickets.into_iter().map(Ticket::wait).collect();
                    assert!(held, "the helper's submit returned before its evaluation");
                    (helper, ours, stats)
                });
                let last = gateway.shutdown();
                done.send((helper, ours, stats, last)).expect("test alive");
            });
            let (helper, ours, stats, last) = finished
                .recv_timeout(Duration::from_secs(30))
                .expect("the scenario unwound or hung on the gate");
            assert!(helper.detection().is_some(), "{helper:?}");
            assert_eq!((stats.submitted, stats.shed), (capacity, 4 - capacity));
            let shed: Vec<&Verdict> = ours.iter().filter(|v| v.is_shed()).collect();
            assert_eq!(shed.len() as u64, stats.shed);
            // Sheds pass unflagged when failing open, flagged when closed.
            assert!(shed.iter().all(|v| v.flagged() != fail_open));
            assert_eq!((last.served, last.shed), (capacity, 4 - capacity));
        }
    }

    #[test]
    fn a_panicking_engine_fails_one_ticket_and_the_worker_keeps_serving() {
        // `TestEngine` panics on "/poison" (expected output of this test).
        let panics = psigene_telemetry::global().counter("serve.worker_panics");
        let panics_before = panics.get();
        // Two shards, so that a pipelined `submit` that meets the other
        // shard idle queues rather than evaluating inline: the panics
        // land on the workers. (`a_panic_served_inline_…` covers the
        // submitter's side.)
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 2,
                queue_capacity: 16,
                policy: OverloadPolicy::Shed { fail_open: true },
                ..GatewayConfig::default()
            },
        );
        // Pipelined, so some requests queue up behind a poisoned one.
        let marked = [3, 4, 9];
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                let path = if marked.contains(&i) {
                    "/poison"
                } else {
                    "/ok"
                };
                gateway.submit(HttpRequest::get("h", path, &format!("i={i}")))
            })
            .collect();
        for (i, verdict) in tickets.into_iter().map(Ticket::wait).enumerate() {
            assert_eq!(verdict.is_shed(), marked.contains(&i), "{i}: {verdict:?}");
            assert!(!verdict.flagged(), "fails open");
        }
        // A batch fails as a whole, and the workers still serve after:
        // batches always queue.
        let batch = gateway.check_batch(vec![
            HttpRequest::get("h", "/ok", "a=1"),
            HttpRequest::get("h", "/poison", "b=2"),
        ]);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(Verdict::is_shed), "{batch:?}");
        for i in 0..2 {
            let after = gateway.check_batch(vec![HttpRequest::get("h", "/ok", &format!("c={i}"))]);
            assert!(after[0].detection().is_some(), "{after:?}");
        }
        let stats = gateway.shutdown();
        assert_eq!((stats.submitted, stats.shed), (12 + 2 + 2, 0));
        assert_eq!(stats.served + 3 + 2, stats.submitted);
        assert!(panics.get() - panics_before >= 4, "3 singles + 1 batch");
    }

    #[test]
    fn a_panic_served_inline_fails_one_ticket_and_the_submitter_keeps_going() {
        // `TestEngine` panics on "/poison" (expected output of this test).
        use std::sync::mpsc;
        use std::time::Duration;
        let panics = psigene_telemetry::global().counter("serve.worker_panics");
        for policy in [
            OverloadPolicy::Block,
            OverloadPolicy::Shed { fail_open: true },
        ] {
            let panics = Arc::clone(&panics);
            let (done, finished) = mpsc::channel();
            // The submitter runs on its own thread, so that a leaked
            // claim (a shard that never serves again) fails the test on
            // the timeout below instead of hanging it, and an unwinding
            // submitter fails it by dropping `done` unsent.
            let submitter = std::thread::spawn(move || {
                let gateway = Gateway::start(
                    SignatureStore::new(free_engine()),
                    GatewayConfig {
                        shards: 1,
                        queue_capacity: 16,
                        policy,
                        ..GatewayConfig::default()
                    },
                );
                // The counter is process-wide and another test's worker
                // may panic meanwhile: each poisoned submission raises
                // it by at least one, and an undisturbed one by exactly
                // one.
                let mut rises = Vec::new();
                let mut verdicts = Vec::new();
                for i in 0..8 {
                    let before = panics.get();
                    let ticket =
                        gateway.submit(HttpRequest::get("h", "/poison", &format!("i={i}")));
                    rises.push(panics.get() - before);
                    verdicts.push(ticket.wait());
                    if rises.last() == Some(&1) {
                        break;
                    }
                }
                let after = gateway.check(HttpRequest::get("h", "/attack", "c=3"));
                let stats = gateway.shutdown();
                done.send((rises, verdicts, after, stats))
                    .expect("test alive");
            });
            let (rises, verdicts, after, stats) = finished
                .recv_timeout(Duration::from_secs(30))
                .expect("the submitter unwound or the shard stopped serving");
            submitter.join().expect("submitter");
            // Unevaluated, in the policy's failure direction.
            assert!(
                verdicts.iter().all(|v| matches!(v,
                    Verdict::Overloaded { fail_open } if *fail_open == policy.fail_open())),
                "{policy:?}: {verdicts:?}"
            );
            assert!(rises.iter().all(|&rise| rise >= 1), "{rises:?}");
            assert_eq!(rises.last(), Some(&1), "{rises:?}");
            assert!(
                after.flagged() && after.detection().is_some(),
                "{policy:?}: the shard serves after the panic: {after:?}"
            );
            let poisoned = rises.len() as u64;
            assert_eq!(
                (stats.submitted, stats.served, stats.shed),
                (poisoned + 1, 1, 0)
            );
        }
    }

    #[test]
    fn a_pipelining_submit_leaves_idle_workers_to_evaluate() {
        /// Records the thread of every evaluation.
        struct Threads(Mutex<Vec<std::thread::ThreadId>>);
        impl DetectionEngine for Threads {
            fn name(&self) -> &str {
                "threads"
            }
            fn evaluate(&self, _r: &HttpRequest) -> Detection {
                lock(&self.0).push(std::thread::current().id());
                Detection {
                    flagged: false,
                    matched_rules: vec![],
                    score: 0.0,
                }
            }
            fn rule_count(&self) -> usize {
                1
            }
        }
        let me = std::thread::current().id();
        let policies = [
            OverloadPolicy::Block,
            OverloadPolicy::Shed { fail_open: true },
        ];
        for (shards, policy) in [1, 2].into_iter().flat_map(|n| policies.map(|p| (n, p))) {
            let engine = Arc::new(Threads(Mutex::new(Vec::new())));
            let gateway = Gateway::start(
                SignatureStore::new(Arc::clone(&engine) as Arc<dyn DetectionEngine>),
                GatewayConfig {
                    shards,
                    // Above the 32 submissions: the policy never acts.
                    queue_capacity: 64,
                    policy,
                    ..GatewayConfig::default()
                },
            );
            let tickets: Vec<Ticket> = (0..32)
                .map(|i| gateway.submit(HttpRequest::get("h", "/ok", &format!("i={i}"))))
                .collect();
            assert!(tickets.into_iter().all(|t| t.wait().detection().is_some()));
            let inline = lock(&engine.0).iter().filter(|&&t| t == me).count();
            if shards == 1 {
                // No other worker to overlap with: every submit finds
                // the one shard idle and evaluates inline.
                assert_eq!(inline, 32, "{policy:?}");
            } else {
                // The first submit meets another idle shard and queues,
                // so the workers evaluate alongside the submitter.
                assert!(
                    inline < 32,
                    "{policy:?}: {inline} of 32 inline on {shards} shards"
                );
            }
            assert_eq!(gateway.shutdown().served, 32);
        }
    }

    #[test]
    fn latency_is_recorded_per_request_not_per_job() {
        use crate::LatencySlo;
        use psigene_telemetry::insight::SloConfig;
        use std::time::Duration;
        let registry = psigene_telemetry::Registry::new();
        let metrics = Metrics::new(&registry);
        let latency = registry.histogram("serve.latency_ns");
        // A fast batch of 32 and one slow single request.
        metrics.account_served(32, Duration::from_micros(10));
        assert_eq!(latency.count(), 32);
        metrics.account_served(1, Duration::from_millis(50));
        assert_eq!(latency.count(), 33);
        assert_eq!(metrics.local_served.load(Ordering::Relaxed), 33);
        let snapshot = latency.snapshot();
        assert_eq!(
            snapshot.count_le(1_000_000),
            32,
            "32 of 33 requests are good"
        );
        // 1 bad in 33 against a 10 % budget burns 0.30 of it; counted
        // per job (1 bad in 2) the same traffic would read 5.0.
        let slo = LatencySlo::new(
            1_000_000,
            SloConfig {
                target: 0.9,
                fast_window: 2,
                slow_window: 4,
                alert_factor: 2.0,
            },
        );
        slo.record_snapshot(&psigene_telemetry::HistogramSnapshot::empty());
        let burn = slo.record_snapshot(&snapshot).fast.expect("two ticks");
        assert!((burn - (1.0 / 33.0) / 0.1).abs() < 1e-9, "{burn}");
    }

    #[test]
    fn shutdown_drains_outstanding_tickets() {
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 2,
                queue_capacity: 64,
                policy: OverloadPolicy::Block,
                ..GatewayConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..50)
            .map(|i| gateway.submit(HttpRequest::get("h", "/attack", &format!("i={i}"))))
            .collect();
        let stats = gateway.shutdown();
        assert_eq!(stats.served, 50);
        // Every ticket resolves even though the gateway is gone.
        for t in tickets {
            assert!(t.wait().flagged());
        }
    }

    #[test]
    fn traced_requests_land_in_the_exemplar_buffer() {
        use psigene_telemetry::insight::TraceConfig;
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 1,
                queue_capacity: 16,
                policy: OverloadPolicy::Block,
                trace: TraceConfig {
                    sample_every: 1,
                    seed: 7,
                },
                ..GatewayConfig::default()
            },
        );
        for i in 0..5 {
            let _ = gateway.check(HttpRequest::get("h", "/attack", &format!("i={i}")));
        }
        let _ = gateway.check_batch(vec![
            HttpRequest::get("h", "/ok", "a=1"),
            HttpRequest::get("h", "/attack", "b=2"),
        ]);
        let exemplars = gateway.trace_exemplars();
        assert_eq!(exemplars.len(), 6, "5 singles + 1 batch trace");
        // Every trace starts with the queue span; the batch trace
        // additionally records the batch-evaluation stage.
        assert!(exemplars
            .iter()
            .all(|t| t.spans.first().map(|s| s.name) == Some("gateway.queue")));
        assert!(exemplars
            .iter()
            .any(|t| t.spans.iter().any(|s| s.name == "gateway.batch")));
        // Slowest-first ordering.
        assert!(exemplars.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        drop(gateway);
    }

    #[test]
    fn sampling_off_means_no_traces() {
        use psigene_telemetry::insight::TraceConfig;
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 1,
                queue_capacity: 16,
                policy: OverloadPolicy::Block,
                trace: TraceConfig {
                    sample_every: 0,
                    seed: 7,
                },
                ..GatewayConfig::default()
            },
        );
        for i in 0..20 {
            let _ = gateway.check(HttpRequest::get("h", "/ok", &format!("i={i}")));
        }
        assert!(gateway.trace_exemplars().is_empty());
        drop(gateway);
    }

    #[test]
    fn tap_sees_every_evaluated_request_and_no_shed_ones() {
        use crate::control::VerdictSink;
        struct CountingTap {
            observed: AtomicU64,
            flagged: AtomicU64,
            ids: Mutex<Vec<u64>>,
        }
        impl VerdictSink for CountingTap {
            fn observe(&self, id: u64, _request: &HttpRequest, detection: &Detection) {
                self.observed.fetch_add(1, Ordering::Relaxed);
                if detection.flagged {
                    self.flagged.fetch_add(1, Ordering::Relaxed);
                }
                lock(&self.ids).push(id);
            }
        }
        let tap = Arc::new(CountingTap {
            observed: AtomicU64::new(0),
            flagged: AtomicU64::new(0),
            ids: Mutex::new(Vec::new()),
        });
        let gateway = Gateway::start(
            SignatureStore::new(free_engine()),
            GatewayConfig {
                shards: 2,
                queue_capacity: 64,
                policy: OverloadPolicy::Block,
                tap: Some(Arc::clone(&tap) as Arc<dyn VerdictSink>),
                ..GatewayConfig::default()
            },
        );
        for i in 0..5 {
            let path = if i % 2 == 0 { "/attack" } else { "/ok" };
            let _ = gateway.check(HttpRequest::get("h", path, &format!("i={i}")));
        }
        let _ = gateway.check_batch(vec![
            HttpRequest::get("h", "/ok", "a=1"),
            HttpRequest::get("h", "/attack", "b=2"),
            HttpRequest::get("h", "/ok", "c=3"),
        ]);
        let stats = gateway.shutdown();
        assert_eq!(stats.served, 8);
        assert_eq!(tap.observed.load(Ordering::Relaxed), 8);
        assert_eq!(tap.flagged.load(Ordering::Relaxed), 4);
        // Ids are unique: singles get one each, the batch a
        // contiguous base+i range.
        let mut ids = lock(&tap.ids).clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        assert_eq!(*ids.last().unwrap(), 7);
    }

    #[test]
    fn hot_swap_mid_stream_switches_verdicts() {
        struct Always(bool);
        impl DetectionEngine for Always {
            fn name(&self) -> &str {
                "always"
            }
            fn evaluate(&self, _r: &HttpRequest) -> Detection {
                Detection {
                    flagged: self.0,
                    matched_rules: if self.0 { vec![1] } else { vec![] },
                    score: 0.0,
                }
            }
            fn rule_count(&self) -> usize {
                1
            }
        }
        let store = SignatureStore::new(Arc::new(Always(false)));
        let gateway = Gateway::start(Arc::clone(&store), GatewayConfig::default());
        let req = HttpRequest::get("h", "/", "a=1");
        assert!(!gateway.check(req.clone()).flagged());
        assert_eq!(store.swap(Arc::new(Always(true))), 2);
        assert!(gateway.check(req).flagged());
        drop(gateway);
    }
}
