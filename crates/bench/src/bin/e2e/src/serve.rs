//! The gateway paths: one generator thread (the caller) parses wire
//! bytes and submits to a one-shard [`Gateway`], closed loop with a
//! fixed number of requests in flight or open loop on a fixed
//! schedule. Verdict-ready times are stamped on the worker thread by
//! a benchmark-owned [`VerdictSink`].

use crate::calib::{Floors, Kernel, Slices, Timed};
use crate::check::{Reference, Tally};
use crate::direct::Latency;
use crate::pool::{Path, Pool};
use crate::stats::tail_index;
use psigene::psigene_http::parse_request;
use psigene::psigene_rulesets::{Detection, DetectionEngine, Verdict};
use psigene::Psigene;
use psigene_serve::control::VerdictSink;
use psigene_serve::{
    BatchTicket, Gateway, GatewayConfig, GatewayStats, OverloadPolicy, SignatureStore, Ticket,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per closed-loop slice: one burst, drained before the next
/// calibration so the worker is idle while the kernel runs.
pub const BURST: usize = 4000;
/// Requests per open-loop slice.
pub const OPEN_CHUNK: usize = 2000;
/// Tickets in flight on the `submit` path.
pub const SUBMIT_WINDOW: usize = 64;
/// Requests per `submit_batch` call, and batches in flight.
pub const BATCH: usize = 32;
pub const BATCH_WINDOW: usize = 4;
/// Queue bound of the open-loop gateway, which sheds when full.
pub const OPEN_QUEUE: usize = 4096;
/// A request meets the service-level objective if its verdict is ready
/// within this long of the time it was due, in raw ns.
pub const SLO_NS: u64 = 1_000_000;

/// Slots in the per-request timestamp rings, indexed by the gateway's
/// evaluation id. More than can be outstanding on any path.
const RING: usize = 1 << 14;

// The rings cover everything that can be outstanding on any path, and
// chunks tile the pool, so a chunk never wraps around it.
const _: () = {
    assert!(RING > OPEN_QUEUE + OPEN_CHUNK);
    assert!(RING > BATCH * BATCH_WINDOW + BURST);
    assert!(BURST.is_multiple_of(BATCH));
    assert!(crate::pool::POOL_SIZE.is_multiple_of(BATCH));
    assert!(crate::pool::POOL_SIZE.is_multiple_of(BURST));
    assert!(crate::pool::POOL_SIZE.is_multiple_of(OPEN_CHUNK));
    assert!(crate::pool::POOL_SIZE.is_multiple_of(crate::direct::CHUNK));
};

/// Stamps the time each verdict became ready, on the worker thread.
struct Tap {
    epoch: Instant,
    ready: Vec<AtomicU64>,
}

impl VerdictSink for Tap {
    fn observe(&self, id: u64, _request: &psigene::psigene_http::HttpRequest, _d: &Detection) {
        let ns = self.epoch.elapsed().as_nanos() as u64;
        // Release pairs with the Acquire load in `Client::collect`, which
        // runs after the ticket's reply has been received.
        self.ready[id as usize % RING].store(ns, Ordering::Release);
    }
}

enum Ticketed {
    One(Ticket),
    Many(BatchTicket),
}

/// A submission whose verdicts have not been collected yet.
struct Pending {
    ticket: Ticketed,
    /// Pool index and gateway evaluation id of its first request.
    at: usize,
    id: u64,
}

/// What one chunk of a tapped client measured: `(pool index, raw ns)`
/// per request served, and the time inside `submit`/`submit_batch`.
#[derive(Default)]
struct ChunkTimings {
    latencies: Vec<(usize, u64)>,
    sojourns: Vec<(usize, u64)>,
    in_submit_ns: u64,
}

/// What a closed-loop pass measured.
pub struct Closed {
    /// Processor time per request over the pass: see [`cpu_ns`].
    pub cpu_ns_per_request: f64,
    /// Wall-clock ns per request, bytes in to verdicts collected.
    pub cost: Timed,
    /// Bytes in → verdict ready, per request (tapped passes only).
    pub latency: Latency,
    /// Handed to `submit` → verdict ready (tapped passes only).
    pub sojourn: Latency,
    /// Calibrated ns per request spent inside `submit`/`submit_batch`,
    /// by pool segment (tapped passes only).
    pub submit_ns: Floors,
}

/// What one open-loop step measured.
pub struct OpenStep {
    pub rate: f64,
    /// Processor time per request over the step, the generator's
    /// waiting for due times left out: see [`cpu_ns`].
    pub cpu_ns_per_request: f64,
    /// Due time → verdict ready, over served requests.
    pub latency: Latency,
    /// Handed to `submit` → verdict ready.
    pub sojourn: Latency,
    pub sent: u64,
    pub within_slo: u64,
    /// How late the generator sent, 99th percentile, raw ns.
    pub late_p99_ns: f64,
    /// Requests accepted and not yet served when each chunk's last
    /// request was sent.
    pub backlog: Vec<f64>,
}

impl OpenStep {
    pub fn slo_met_ratio(&self) -> f64 {
        self.within_slo as f64 / self.sent.max(1) as f64
    }

    /// The backlog does not grow if, at the median chunk end, less
    /// than a twentieth of the chunk was still waiting.
    pub fn backlog_steady(&self) -> bool {
        crate::stats::median(&mut self.backlog.clone()) < OPEN_CHUNK as f64 / 20.0
    }
}

/// Time all threads of this process have spent on a processor so far,
/// in ns, from the scheduler's accounts. Through the gateway this, not
/// wall-clock time, is what repeats: how the two threads happen to
/// interleave decides how long a burst takes (±15 % from run to run),
/// far less how much work it is. The accounts advance at scheduler
/// ticks, so only differences over a whole pass mean anything.
///
/// # Panics
/// Panics where `/proc/self/task/*/schedstat` cannot be read: the
/// benchmark has no other source for this.
pub fn cpu_ns() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists the threads");
    tasks
        .map(|task| {
            let path = task.expect("thread entry").path().join("schedstat");
            // A thread that exited between the listing and the read
            // has stopped counting; its time stays out of both ends.
            let text = std::fs::read_to_string(path).unwrap_or_default();
            parse_schedstat(&text)
        })
        .sum()
}

/// Time on a processor from one `schedstat` line: its first field.
fn parse_schedstat(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// Processor time per request of a pass that began when [`cpu_ns`]
/// read `cpu_start` and the kernel had made `runs_start` runs: what
/// the process used since, less the kernel runs and `idle_ns` of
/// deliberate spinning, over `requests`.
fn cpu_per_request(
    kernel: &Kernel,
    cpu_start: u64,
    runs_start: usize,
    idle_ns: u64,
    requests: u64,
) -> f64 {
    let used = (cpu_ns() - cpu_start) as f64 - kernel.spent_since(runs_start) - idle_ns as f64;
    used.max(0.0) / requests.max(1) as f64
}

/// Due time of request `k` of a chunk that starts at `start_ns`, at
/// `rate` requests per second.
pub fn due_ns(start_ns: u64, k: usize, rate: f64) -> u64 {
    start_ns + (k as f64 * 1e9 / rate) as u64
}

/// Per-request timestamps of a tapped client, in rings indexed by the
/// gateway's evaluation id like [`Tap::ready`].
struct Timeline {
    /// When the request's bytes arrived: the time it was due on a
    /// schedule, the time the generator picked it up otherwise.
    arrived: Vec<u64>,
    /// When it was handed to `submit`/`submit_batch`.
    handed: Vec<u64>,
}

impl Timeline {
    fn new() -> Timeline {
        Timeline {
            arrived: vec![0; RING],
            handed: vec![0; RING],
        }
    }

    fn arrive(&mut self, id: u64, ns: u64) {
        self.arrived[id as usize % RING] = ns;
    }

    fn hand(&mut self, first_id: u64, n: u64, ns: u64) {
        for id in first_id..first_id + n {
            self.handed[id as usize % RING] = ns;
        }
    }

    /// `(latency, sojourn)` of a request whose verdict was ready at
    /// `ready_ns`: latency runs from arrival, so on a schedule it
    /// includes however late the generator sent the request; sojourn
    /// runs from the hand-off to the gateway.
    fn ready(&self, id: u64, ready_ns: u64) -> (u64, u64) {
        let slot = id as usize % RING;
        (
            ready_ns.saturating_sub(self.arrived[slot]),
            ready_ns.saturating_sub(self.handed[slot]),
        )
    }
}

/// The single client of a running gateway.
pub struct Client<'a> {
    gateway: Gateway,
    pool: &'a Pool,
    reference: &'a Reference,
    path: Path,
    tap: Option<Arc<Tap>>,
    epoch: Instant,
    /// Pool index and gateway evaluation id of the next request. The
    /// gateway numbers evaluations from 0 in submission order and this
    /// is its only submitter, so the client can count along.
    at: usize,
    id: u64,
    timeline: Timeline,
    inflight: VecDeque<Pending>,
    /// What the current chunk has measured so far.
    chunk: ChunkTimings,
    attempted: u64,
    failed: u64,
}

impl<'a> Client<'a> {
    /// Starts a one-shard gateway over `system` for `path`. A tapped
    /// client times every request; an untapped one reads no clock
    /// between chunk boundaries.
    pub fn start(
        system: &Arc<Psigene>,
        pool: &'a Pool,
        reference: &'a Reference,
        path: Path,
        tapped: bool,
    ) -> Client<'a> {
        let epoch = Instant::now();
        let tap = tapped.then(|| {
            Arc::new(Tap {
                epoch,
                ready: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            })
        });
        let engine: Arc<dyn DetectionEngine> = Arc::clone(system) as _;
        let (policy, queue_capacity) = match path {
            Path::Open => (OverloadPolicy::Shed { fail_open: true }, OPEN_QUEUE),
            _ => (
                OverloadPolicy::Block,
                GatewayConfig::default().queue_capacity,
            ),
        };
        let gateway = Gateway::start(
            SignatureStore::new(engine),
            GatewayConfig {
                shards: 1,
                queue_capacity,
                policy,
                tap: tap.clone().map(|t| t as Arc<dyn VerdictSink>),
                ..GatewayConfig::default()
            },
        );
        Client {
            gateway,
            pool,
            reference,
            path,
            tap,
            epoch,
            at: 0,
            id: 0,
            timeline: Timeline::new(),
            inflight: VecDeque::with_capacity(OPEN_CHUNK),
            chunk: ChunkTimings::default(),
            attempted: 0,
            failed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Parses the next pool request, noting when its bytes arrived
    /// (`due_ns` on a schedule, now otherwise) if this client is tapped.
    fn parse_next(
        &mut self,
        offset: u64,
        due_ns: Option<u64>,
    ) -> Option<psigene::psigene_http::HttpRequest> {
        if self.tap.is_some() {
            let ns = due_ns.unwrap_or_else(|| self.now_ns());
            self.timeline.arrive(self.id + offset, ns);
        }
        let parsed = parse_request(black_box(&self.pool.wire[self.at]));
        self.at = self.pool.next(self.at);
        self.attempted += 1;
        parsed.ok()
    }

    /// Submits `n` requests in one call (`submit` for 1, `submit_batch`
    /// otherwise).
    fn send(&mut self, n: usize, due_ns: Option<u64>) {
        let (at, id) = (self.at, self.id);
        let ticket = if n == 1 {
            let Some(request) = self.parse_next(0, due_ns) else {
                self.failed += 1;
                return;
            };
            let before = self.tap.is_some().then(|| self.now_ns());
            let ticket = Ticketed::One(self.gateway.submit(request));
            self.note_submit(before, 1);
            ticket
        } else {
            let mut batch = Vec::with_capacity(n);
            for offset in 0..n as u64 {
                match self.parse_next(offset, due_ns) {
                    Some(request) => batch.push(request),
                    None => self.failed += 1,
                }
            }
            let sent = batch.len() as u64;
            let before = self.tap.is_some().then(|| self.now_ns());
            let ticket = Ticketed::Many(self.gateway.submit_batch(batch));
            self.note_submit(before, sent);
            ticket
        };
        self.inflight.push_back(Pending { ticket, at, id });
    }

    fn note_submit(&mut self, before: Option<u64>, sent: u64) {
        if let Some(before) = before {
            self.chunk.in_submit_ns += self.now_ns() - before;
            self.timeline.hand(self.id, sent, before);
        }
        self.id += sent;
    }

    /// Waits for the oldest submission and checks its verdicts.
    fn reap(&mut self) {
        let Some(Pending { ticket, at, id }) = self.inflight.pop_front() else {
            return;
        };
        match ticket {
            Ticketed::One(ticket) => self.collect(at, id, &ticket.wait()),
            Ticketed::Many(ticket) => {
                let mut at = at;
                for (offset, verdict) in ticket.wait().iter().enumerate() {
                    self.collect(at, id + offset as u64, verdict);
                    at = self.pool.next(at);
                }
            }
        }
    }

    /// Checks the verdict of pool request `at`, evaluation `id`, and
    /// notes its timings if this client is tapped.
    fn collect(&mut self, at: usize, id: u64, verdict: &Verdict) {
        self.failed += self.reference.mismatch_verdict(at, verdict);
        if let (Some(tap), false) = (&self.tap, verdict.is_shed()) {
            let ready = tap.ready[id as usize % RING].load(Ordering::Acquire);
            let (latency, sojourn) = self.timeline.ready(id, ready);
            self.chunk.latencies.push((at, latency));
            self.chunk.sojourns.push((at, sojourn));
        }
    }

    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.reap();
        }
    }

    /// Sends `n` requests closed loop with the path's window of
    /// submissions in flight, then collects every outstanding verdict.
    fn burst(&mut self, n: usize) {
        let (per_call, window) = match self.path {
            Path::Batch => (BATCH, BATCH_WINDOW),
            _ => (1, SUBMIT_WINDOW),
        };
        for _ in 0..n / per_call {
            self.send(per_call, None);
            if self.inflight.len() == window {
                self.reap();
            }
        }
        self.drain();
    }

    /// Hands back what the chunk just run measured.
    fn take_chunk(&mut self) -> ChunkTimings {
        std::mem::take(&mut self.chunk)
    }

    /// One untimed cycle through the pool: warms the worker thread's
    /// scratch and checks every verdict of this path against the
    /// direct path's.
    pub fn replay_pool(&mut self) {
        self.burst(self.pool.len());
        self.take_chunk();
    }

    /// Closed-loop pass of at least one slice and about `seconds`.
    pub fn closed(&mut self, kernel: &Kernel, seconds: f64) -> Closed {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let segments = self.pool.len() / BURST;
        let (cpu_start, runs_start) = (cpu_ns(), kernel.mark());
        let mut out = Closed {
            cpu_ns_per_request: 0.0,
            cost: Timed::new(segments),
            latency: Latency::new(self.pool, BURST),
            sojourn: Latency::new(self.pool, BURST),
            submit_ns: Floors::new(segments),
        };
        let mut slices = Slices::new(kernel);
        loop {
            if let Some(((segment, ns, chunk), scale)) = slices.calibrate() {
                let chunk: ChunkTimings = chunk;
                out.cost.push(segment, ns, BURST as u64, scale);
                if self.tap.is_some() {
                    out.submit_ns
                        .push(segment, chunk.in_submit_ns as f64 / BURST as f64 * scale);
                }
                out.latency.push_chunk(&chunk.latencies, scale);
                out.sojourn.push_chunk(&chunk.sojourns, scale);
                if Instant::now() >= deadline {
                    out.cpu_ns_per_request =
                        cpu_per_request(kernel, cpu_start, runs_start, 0, out.cost.items);
                    return out;
                }
            }
            let segment = self.at / BURST;
            let start = Instant::now();
            self.burst(BURST);
            let ns = start.elapsed().as_nanos() as f64;
            slices.hold((segment, ns, self.take_chunk()));
        }
    }

    /// Open-loop step of at least one slice and about `seconds`:
    /// request `k` of a chunk is due `k / rate` after the chunk began
    /// and is sent then, or as soon after as the generator gets to it.
    pub fn open(&mut self, kernel: &Kernel, seconds: f64, rate: f64) -> OpenStep {
        assert!(self.tap.is_some(), "open-loop latency needs the tap");
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (cpu_start, runs_start) = (cpu_ns(), kernel.mark());
        let mut spun_ns = 0;
        let mut out = OpenStep {
            rate,
            cpu_ns_per_request: 0.0,
            latency: Latency::new(self.pool, OPEN_CHUNK),
            sojourn: Latency::new(self.pool, OPEN_CHUNK),
            sent: 0,
            within_slo: 0,
            late_p99_ns: 0.0,
            backlog: Vec::new(),
        };
        let mut late = Vec::new();
        let mut slices = Slices::new(kernel);
        loop {
            if let Some((chunk, scale)) = slices.calibrate() {
                let chunk: ChunkTimings = chunk;
                // The objective is in wall-clock time.
                let within = chunk.latencies.iter().filter(|&&(_, ns)| ns <= SLO_NS);
                out.within_slo += within.count() as u64;
                out.latency.push_chunk(&chunk.latencies, scale);
                out.sojourn.push_chunk(&chunk.sojourns, scale);
                if Instant::now() >= deadline {
                    break;
                }
            }
            let start_ns = self.now_ns();
            for k in 0..OPEN_CHUNK {
                let due = due_ns(start_ns, k, rate);
                let waiting_from = self.now_ns();
                let mut now = waiting_from;
                while now < due {
                    std::hint::spin_loop();
                    now = self.now_ns();
                }
                spun_ns += now - waiting_from;
                late.push(now - due);
                self.send(1, Some(due));
            }
            let stats = self.gateway.stats();
            out.backlog.push((stats.submitted - stats.served) as f64);
            self.drain();
            out.sent += OPEN_CHUNK as u64;
            slices.hold(self.take_chunk());
        }
        out.cpu_ns_per_request = cpu_per_request(kernel, cpu_start, runs_start, spun_ns, out.sent);
        late.sort_unstable();
        out.late_p99_ns = late[tail_index(late.len(), 0.99)] as f64;
        out
    }

    /// Stops the gateway, waits for its worker, and adds this client's
    /// requests to `tally`. A request the gateway accepted and never
    /// served is a failure.
    pub fn finish(mut self, tally: &mut Tally) -> GatewayStats {
        self.drain();
        let stats = self.gateway.shutdown();
        let lost = stats.submitted - stats.served;
        tally.add(self.attempted, self.failed + lost);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_from_the_chunk_start() {
        assert_eq!(due_ns(1_000, 0, 40_000.0), 1_000);
        assert_eq!(due_ns(1_000, 1, 40_000.0), 26_000);
        assert_eq!(due_ns(0, 2000, 20_000.0), 100_000_000);
        // 80 k/s: 12.5 µs apart, no drift from rounding each step.
        assert_eq!(due_ns(0, 3, 80_000.0), 37_500);
    }

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        // Due at 100; the generator was stalled and handed the request
        // over at 160; the verdict was ready at 190. The request waited
        // 90 from its due time, 60 of it for the generator.
        let mut timeline = Timeline::new();
        let id = RING as u64 + 5;
        timeline.arrive(id, 100);
        timeline.hand(id, 1, 160);
        assert_eq!(timeline.ready(id, 190), (90, 30));
        // A batch is handed over at one instant; arrivals stay apart.
        timeline.arrive(id + 1, 120);
        timeline.hand(id, 2, 170);
        assert_eq!(timeline.ready(id + 1, 200), (80, 30));
    }

    #[test]
    fn processor_time_is_the_first_schedstat_field_and_only_grows() {
        assert_eq!(parse_schedstat("452736 2267011 2\n"), 452_736);
        assert_eq!(parse_schedstat(""), 0);
        let before = cpu_ns();
        assert!(before > 0, "this thread has run");
        assert!(cpu_ns() >= before);
    }

    #[test]
    fn backlog_is_steady_below_a_twentieth_of_a_chunk() {
        let empty = Pool {
            wire: Vec::new(),
            attack: Vec::new(),
        };
        let step = |backlog: Vec<f64>| OpenStep {
            rate: 1.0,
            cpu_ns_per_request: 0.0,
            latency: Latency::new(&empty, OPEN_CHUNK),
            sojourn: Latency::new(&empty, OPEN_CHUNK),
            sent: 10,
            within_slo: 9,
            late_p99_ns: 0.0,
            backlog,
        };
        assert!(step(vec![0.0, 3.0, 99.0]).backlog_steady());
        assert!(!step(vec![100.0, 400.0, 900.0]).backlog_steady());
        assert_eq!(step(vec![]).slo_met_ratio(), 0.9);
    }
}
