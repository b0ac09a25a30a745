//! Steady-state allocation budget on the detection hot path.
//!
//! The §II-A normalization pipeline, feature extraction and signature
//! scoring all run on caller-owned or thread-local scratch, so a warm
//! worker evaluating one request should touch the allocator at most
//! [`ALLOC_BUDGET`] times (the flagged-signature id list of a hit is
//! the only per-request allocation left; benign requests allocate
//! nothing). These tests pin that budget through the public engine
//! API and through the full gateway path (submit → shard queue →
//! worker → evaluate → reply), and pin that the zero-alloc rewiring
//! changed no observable result: sparse rows and verdicts are bitwise
//! identical to the per-feature oracle, across repeated extractions
//! over dirty scratch.
//!
//! The allocator keeps two counts. Tests whose whole measured window
//! runs on the test's own thread read the *per-thread* count, which no
//! other thread can inflate. The gateway tests measure work done on a
//! worker thread too, so they read the process-wide count, which only
//! the threads of the test holding the internal lock add to: the test's
//! own, and the workers of a gateway serving [`Served`], from their
//! first [`DetectionEngine::prepare`] on. Every test in this binary
//! takes that lock. The threads left out are the ones no lock can
//! order: the harness spawning the next test, a finished test's thread
//! winding down, and a worker's start-up inside the standard library,
//! which lands inside a window whenever the worker is first scheduled
//! late.

mod common;

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::benign::{self, BenignConfig};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_corpus::ObfuscationProfile;
use psigene_features::{extract, FeatureSet};
use psigene_http::HttpRequest;
use psigene_rulesets::{Detection, DetectionEngine};
use psigene_serve::{Gateway, GatewayConfig, OverloadPolicy, SignatureStore};
use psigene_telemetry::insight::{DriftConfig, TraceConfig, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Allocations allowed per steady-state request: one for the matched
/// signature ids of a flagged verdict plus one of slack for rare
/// scratch growth (amortized to ~0 in a long-running worker).
const ALLOC_BUDGET: f64 = 2.0;

// ─── Counting allocator ───
// The library crates forbid unsafe; this test binary is a separate
// crate and may count allocations the only way Rust allows (the same
// idiom as tests/observability.rs and the matching bench).

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Const-initialized and without a destructor, so the allocator
    /// can touch it at any point of a thread's life without allocating.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread adds to [`ALLOCATIONS`] (see the module
    /// docs); const-initialized for the same reason.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations by the threads of the test holding the lock (the
/// gateway tests).
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations by the calling thread alone.
fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

// ─── Shared fixtures ───

/// Serializes every test of this binary, measuring or not (the
/// gateway tests read the process-wide allocation count), and counts
/// the calling thread's allocations in it until the guard drops.
fn lock() -> Serial {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked holding the guard fails alone, not its
    // siblings too.
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    COUNTED.with(|counted| counted.set(true));
    Serial { _guard: guard }
}

/// The test lock; the thread stops counting before it lets go.
struct Serial {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        COUNTED.with(|counted| counted.set(false));
    }
}

/// The shared system as the gateway tests serve it. Every worker runs
/// [`DetectionEngine::prepare`] first thing, which makes its
/// allocations count from there on; the engine also counts the
/// evaluations that ran off the test's thread.
struct Served {
    system: Psigene,
    client: std::thread::ThreadId,
    on_workers: AtomicU64,
}

impl Served {
    fn new() -> Arc<Served> {
        Arc::new(Served {
            system: system().clone(),
            client: std::thread::current().id(),
            on_workers: AtomicU64::new(0),
        })
    }
}

impl DetectionEngine for Served {
    fn name(&self) -> &str {
        self.system.name()
    }
    fn prepare(&self) {
        COUNTED.with(|counted| counted.set(true));
        self.system.prepare();
    }
    fn evaluate(&self, request: &HttpRequest) -> Detection {
        if std::thread::current().id() != self.client {
            self.on_workers.fetch_add(1, Ordering::Relaxed);
        }
        self.system.evaluate(request)
    }
    fn evaluate_batch(&self, requests: &[HttpRequest]) -> Vec<Detection> {
        self.system.evaluate_batch(requests)
    }
    fn rule_count(&self) -> usize {
        self.system.rule_count()
    }
}

/// The full feature library, built once per test binary.
fn full_set() -> &'static FeatureSet {
    static SET: OnceLock<FeatureSet> = OnceLock::new();
    SET.get_or_init(FeatureSet::full)
}

/// One small trained system shared by every test in this binary.
fn system() -> &'static Psigene {
    static SYSTEM: OnceLock<Psigene> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        })
    })
}

/// A mixed steady-state workload: mostly benign with attacks salted
/// in (1 in 4), all built *before* any measured window.
fn workload(n: usize) -> Vec<HttpRequest> {
    let attacks = sqlmap::generate(&SqlmapConfig {
        samples: n.div_ceil(4),
        ..Default::default()
    });
    let benign = benign::generate(&BenignConfig {
        requests: n,
        ..Default::default()
    });
    let mut out: Vec<HttpRequest> = Vec::with_capacity(n);
    let mut a = attacks.samples.iter().cycle();
    let mut b = benign.samples.iter().cycle();
    for i in 0..n {
        let s = if i % 4 == 0 {
            a.next().unwrap()
        } else {
            b.next().unwrap()
        };
        out.push(s.request.clone());
    }
    out
}

/// What building a verdict's id list of `n` ids costs, measured on
/// the same counter and growth policy.
fn id_list_allocations(n: usize) -> u64 {
    let before = thread_allocations();
    let mut ids = Vec::new();
    for id in 0..n as u32 {
        ids.push(std::hint::black_box(id));
    }
    std::hint::black_box(&ids);
    thread_allocations() - before
}

#[test]
fn direct_engine_path_stays_within_the_alloc_budget() {
    let _guard = lock();
    let engine = system();
    engine.prepare();
    let requests = workload(64);
    // Warm-up: fill this thread's normalization/bitset/DFA/feature
    // scratch, the lazy-DFA cache for these payload bytes, and the
    // per-signature telemetry counters the flagged requests touch.
    for _ in 0..2 {
        for r in &requests {
            std::hint::black_box(engine.evaluate(r).flagged);
        }
    }
    let before = thread_allocations();
    let mut flagged = 0usize;
    for r in &requests {
        if engine.evaluate(r).flagged {
            flagged += 1;
        }
    }
    let per_request = (thread_allocations() - before) as f64 / requests.len() as f64;
    assert!(flagged > 0, "workload produced no detections");
    assert!(
        per_request <= ALLOC_BUDGET,
        "steady-state evaluate allocates {per_request:.2}/request (> {ALLOC_BUDGET})"
    );
}

/// A sampled request pays for its trace (the span buffer), not for the
/// evaluation: `evaluate_traced` runs on the same row scratch as
/// `evaluate`, so with the trace context built outside the window it
/// is held to the same budget.
#[test]
fn traced_engine_path_stays_within_the_alloc_budget() {
    let _guard = lock();
    let engine = system();
    engine.prepare();
    let requests = workload(64);
    let traces = |requests: &[HttpRequest]| -> Vec<TraceContext> {
        (0..requests.len() as u64).map(TraceContext::new).collect()
    };
    for _ in 0..2 {
        for (r, trace) in requests.iter().zip(traces(&requests).iter_mut()) {
            std::hint::black_box(engine.evaluate_traced(r, trace).flagged);
        }
    }
    let before = thread_allocations();
    for r in &requests {
        std::hint::black_box(engine.evaluate(r).flagged);
    }
    let untraced = thread_allocations() - before;
    let mut measured = traces(&requests);
    let before = thread_allocations();
    let mut flagged = 0usize;
    for (r, trace) in requests.iter().zip(measured.iter_mut()) {
        if engine.evaluate_traced(r, trace).flagged {
            flagged += 1;
        }
    }
    let traced = thread_allocations() - before;
    let per_request = traced as f64 / requests.len() as f64;
    assert!(flagged > 0, "workload produced no detections");
    assert!(
        per_request <= ALLOC_BUDGET,
        "steady-state evaluate_traced allocates {per_request:.2}/request (> {ALLOC_BUDGET})"
    );
    assert_eq!(
        traced, untraced,
        "tracing a request must not add allocations to its evaluation"
    );
}

/// Attack requests are where counting runs — about ten features per
/// request, each by the fused scan's own tally or its counting
/// automaton. None of that may allocate: a warm
/// `evaluate` allocates the flagged verdict's id list and nothing else.
#[test]
fn counting_runs_on_attack_requests_allocate_nothing() {
    let _guard = lock();
    let engine = system();
    engine.prepare();
    let attacks = sqlmap::generate(&SqlmapConfig {
        samples: 48,
        ..Default::default()
    });
    let requests: Vec<&HttpRequest> = attacks.samples.iter().map(|s| &s.request).collect();
    let mut counted = 0usize;
    for _ in 0..2 {
        for r in &requests {
            std::hint::black_box(engine.evaluate(r).flagged);
            counted += extract::extract_row(engine.feature_set(), r.detection_payload()).len();
        }
    }
    assert!(
        counted >= 2 * 5 * requests.len(),
        "attack workload counts only {counted} features over {} evaluations",
        2 * requests.len()
    );
    for r in &requests {
        let before = thread_allocations();
        let verdict = engine.evaluate(r);
        let spent = thread_allocations() - before;
        assert!(
            spent <= id_list_allocations(verdict.matched_rules.len()),
            "evaluate allocated {spent} times for {} matched ids on {r}",
            verdict.matched_rules.len()
        );
    }
}

/// Double-encoded attacks take the normalizer to its pass cap: one
/// copy into the scratch's single buffer, every pass swept in place.
/// Warm, `normalize_into` never reaches the allocator, and `evaluate`
/// of such a request allocates its verdict's id list and nothing else.
#[test]
fn normalization_uses_one_buffer_and_no_allocator() {
    let _guard = lock();
    let engine = system();
    engine.prepare();
    let attacks = sqlmap::generate(&SqlmapConfig {
        samples: 48,
        profile: ObfuscationProfile {
            url_encode: 1.0,
            double_encode: 1.0,
            ..ObfuscationProfile::sqlmap()
        },
        ..Default::default()
    });
    let requests: Vec<&HttpRequest> = attacks.samples.iter().map(|s| &s.request).collect();
    let mut scratch = psigene_http::NormScratch::new();
    let mut passes = 0;
    for _ in 0..2 {
        for r in &requests {
            std::hint::black_box(engine.evaluate(r).flagged);
            let normalized = psigene_http::normalize_into(r.detection_payload(), &mut scratch);
            std::hint::black_box(normalized);
            passes += scratch.last_passes();
        }
    }
    assert_eq!(
        passes as usize,
        2 * 3 * requests.len(),
        "the workload is not double-encoded"
    );
    let before = thread_allocations();
    for r in &requests {
        let normalized = psigene_http::normalize_into(r.detection_payload(), &mut scratch);
        std::hint::black_box(normalized);
    }
    assert_eq!(thread_allocations() - before, 0, "warm normalize_into");
    for r in &requests {
        let before = thread_allocations();
        let verdict = engine.evaluate(r);
        let spent = thread_allocations() - before;
        assert!(
            spent <= id_list_allocations(verdict.matched_rules.len()),
            "evaluate allocated {spent} times for {} matched ids on {r}",
            verdict.matched_rules.len()
        );
    }
}

/// With the drift monitors on, as deployed, a verdict writes its
/// observations into the thread's batch and a window roll folds them
/// into buffers the monitors already own: a warm benign loop crossing
/// several rolls allocates the flagged verdicts' id lists and nothing
/// else.
#[test]
fn monitored_evaluate_allocates_nothing_across_window_rolls() {
    let _guard = lock();
    const WINDOW: u64 = 48;
    let engine = system().with_drift_config(DriftConfig {
        window: WINDOW,
        ..DriftConfig::default()
    });
    engine.prepare();
    let benign: Vec<HttpRequest> = benign::generate(&BenignConfig {
        requests: 64,
        ..Default::default()
    })
    .samples
    .into_iter()
    .map(|s| s.request)
    .collect();
    // Warm-up: the monitors' first rolls allocate their reference and
    // current buffers, and the batch grows to a window's worth of rows.
    for _ in 0..4 {
        for r in &benign {
            std::hint::black_box(engine.evaluate(r).flagged);
        }
    }
    let windows = engine.drift_scores().expect("insight on").windows;
    let (mut spent, mut allowed) = (0, 0);
    for _ in 0..3 {
        for r in &benign {
            let before = thread_allocations();
            let verdict = engine.evaluate(r);
            spent += thread_allocations() - before;
            allowed += id_list_allocations(verdict.matched_rules.len());
        }
    }
    let rolled = engine.drift_scores().expect("insight on").windows - windows;
    assert!(
        rolled >= 2,
        "the measured loop crossed {rolled} window rolls"
    );
    assert!(
        spent <= allowed,
        "monitored evaluate allocated {spent} times; flagged id lists account for {allowed}"
    );
}

/// A request is one allocation, made by the parser: the packed buffer
/// (`Method::Other` owns its name, a second one). Nothing downstream
/// copies it, so a warm benign request costs that one allocation from
/// wire bytes to verdict.
#[test]
fn parse_allocates_exactly_one_buffer() {
    let _guard = lock();
    let parse_allocs = |wire: &[u8]| {
        let before = thread_allocations();
        let parsed = std::hint::black_box(psigene_http::parse_request(wire));
        let spent = thread_allocations() - before;
        assert!(parsed.is_ok(), "{wire:?}");
        spent
    };
    let get = HttpRequest::get("shop.example", "/item.php", "id=42&ref=home").to_wire();
    let post = HttpRequest::post("shop.example", "/login", "user=a&pass=b").to_wire();
    assert_eq!(parse_allocs(&get), 1);
    assert_eq!(parse_allocs(&post), 1);
    assert_eq!(
        parse_allocs(b"POST /login?next=%2F HTTP/1.1\r\n\r\nuser=a"),
        1
    );
    assert_eq!(parse_allocs(b"PUT /item/42 HTTP/1.1\r\nHost: h\r\n\r\n"), 2);

    let engine = system();
    engine.prepare();
    let benign = benign::generate(&BenignConfig {
        requests: 64,
        ..Default::default()
    });
    let wires: Vec<Vec<u8>> = benign.samples.iter().map(|s| s.request.to_wire()).collect();
    let serve = |wire: &[u8]| engine.evaluate(&psigene_http::parse_request(wire).unwrap());
    for _ in 0..2 {
        for wire in &wires {
            std::hint::black_box(serve(wire).flagged);
        }
    }
    let mut clean = 0usize;
    for wire in &wires {
        let before = thread_allocations();
        let verdict = serve(wire);
        let spent = thread_allocations() - before;
        if !verdict.flagged {
            clean += 1;
            assert_eq!(spent, 1, "wire to verdict allocated {spent} times");
        }
    }
    assert!(clean * 2 > wires.len(), "only {clean} unflagged requests");
}

/// A gateway serving [`Served`] under `policy`, without trace
/// sampling (the unsampled trace path is proven allocation-free in
/// tests/observability.rs; the budgets here measure pure serving).
fn gateway(engine: &Arc<Served>, shards: usize, policy: OverloadPolicy) -> Gateway {
    Gateway::start(
        SignatureStore::new(Arc::clone(engine) as Arc<dyn DetectionEngine>),
        GatewayConfig {
            shards,
            queue_capacity: 16,
            policy,
            trace: TraceConfig {
                sample_every: 0,
                seed: 0,
            },
            tap: None,
        },
    )
}

/// Hands every worker all of `requests`, twice, as one batch per
/// shard (batches always queue, and one submitter's round-robin picks
/// cover every shard): every worker has then started, counts its
/// allocations, and has warmed its scratch on each request, whichever
/// of them its shard's `submit`s will evaluate.
fn warm_every_worker(gateway: &Gateway, shards: usize, requests: &[HttpRequest]) {
    for _ in 0..2 * shards {
        assert_eq!(gateway.check_batch(requests.to_vec()).len(), requests.len());
    }
}

#[test]
fn gateway_batch_path_stays_within_the_alloc_budget() {
    let _guard = lock();
    let gateway = gateway(&Served::new(), 1, OverloadPolicy::Block);
    // Every batch is built before the measured window: batch
    // construction is the *caller's* cost, the budget polices the
    // gateway (queueing, evaluation, verdict delivery).
    let n = 64;
    let warm1 = workload(n);
    let warm2 = workload(n);
    let measured = workload(n);
    for batch in [warm1, warm2] {
        let verdicts = gateway.submit_batch(batch).wait();
        assert_eq!(verdicts.len(), n);
    }
    let before = allocations();
    let verdicts = gateway.submit_batch(measured).wait();
    let per_request = (allocations() - before) as f64 / n as f64;
    assert_eq!(verdicts.len(), n);
    assert!(verdicts.iter().any(|v| v.flagged()), "no detections");
    assert!(
        per_request <= ALLOC_BUDGET,
        "steady-state gateway serving allocates {per_request:.2}/request (> {ALLOC_BUDGET})"
    );
    drop(gateway);
}

/// What the gateway adds on the `submit` path, wherever the request is
/// evaluated, over the engine alone on the same requests: the
/// allocations in both windows, and the evaluations that ran on a
/// worker during the gateway's.
fn submit_path_allocations(
    engine: &Served,
    gateway: &Gateway,
    requests: &[HttpRequest],
) -> (u64, u64, u64) {
    let system = &engine.system;
    // Warm this thread's scratch and the workers', and grow the
    // shards' queues and run buffers, over the very same requests.
    for _ in 0..2 {
        for r in requests {
            std::hint::black_box(system.evaluate(r).flagged);
            std::hint::black_box(gateway.submit(r.clone()).wait().flagged());
        }
    }
    let before = allocations();
    let direct_flagged = requests
        .iter()
        .filter(|r| system.evaluate(r).flagged)
        .count();
    let engine_allocs = allocations() - before;
    let owned = requests.to_vec();
    let on_workers = engine.on_workers.load(Ordering::Relaxed);
    let before = allocations();
    let mut flagged = 0usize;
    for r in owned {
        if gateway.submit(r).wait().flagged() {
            flagged += 1;
        }
    }
    let gateway_allocs = allocations() - before;
    let on_workers = engine.on_workers.load(Ordering::Relaxed) - on_workers;
    assert!(flagged > 0, "workload produced no detections");
    assert_eq!(flagged, direct_flagged);
    (gateway_allocs, engine_allocs, on_workers)
}

/// The gateway's own cost on the `submit` path is the reply slot: one
/// allocation per request on top of whatever the engine allocates for
/// the same requests, exactly, once queue and scratch are warm. With
/// one shard every `submit` finds it idle and evaluates inline.
#[test]
fn gateway_submit_path_allocates_exactly_the_reply_slot() {
    let _guard = lock();
    let engine = Served::new();
    let gateway = gateway(&engine, 1, OverloadPolicy::Block);
    let n = 64;
    let requests = workload(n);
    warm_every_worker(&gateway, 1, &requests);
    let (gateway_allocs, engine_allocs, on_workers) =
        submit_path_allocations(&engine, &gateway, &requests);
    assert_eq!(
        on_workers, 0,
        "a lone submitter on one shard evaluates inline"
    );
    assert_eq!(
        gateway_allocs - engine_allocs,
        n as u64,
        "submit path: {gateway_allocs} allocations for {n} requests, engine alone {engine_allocs}"
    );
    drop(gateway);
}

/// The queued sibling of the test above: on two shards a lone `submit`
/// meets the other shard idle and queues (push, the worker's `take`,
/// the reply across threads), and that path, too, allocates nothing but
/// the reply slot. `Shed` here, the policy the open-loop benchmark
/// serves under; nothing reaches its bound.
#[test]
fn gateway_queue_path_allocates_exactly_the_reply_slot() {
    let _guard = lock();
    let engine = Served::new();
    let gateway = gateway(&engine, 2, OverloadPolicy::Shed { fail_open: false });
    let n = 64;
    let requests = workload(n);
    warm_every_worker(&gateway, 2, &requests);
    let (gateway_allocs, engine_allocs, on_workers) =
        submit_path_allocations(&engine, &gateway, &requests);
    assert_eq!(gateway.stats().shed, 0, "one request at a time never sheds");
    // A submit evaluates inline only when the worker that answered the
    // previous one has not yet come back for work, and then releases
    // its shard before the next round-robin pick lands on the other:
    // no two in a row, so at least half were queued.
    assert!(
        on_workers >= n as u64 / 2,
        "{on_workers} of {n} submits evaluated on a worker: the queue was bypassed"
    );
    assert_eq!(
        gateway_allocs - engine_allocs,
        n as u64,
        "queued submit path: {gateway_allocs} allocations for {n} requests ({on_workers} on workers), engine alone {engine_allocs}"
    );
    drop(gateway);
}

#[test]
fn extracted_rows_are_bitwise_the_oracle_on_dirty_scratch() {
    let _guard = lock();
    let set = full_set();
    for r in &workload(32) {
        let p = r.detection_payload();
        // f64 counts compared through to_bits, not ==.
        let want: Vec<(usize, u64)> = common::oracle_dense(set, p)
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(c, &v)| (c, v.to_bits()))
            .collect();
        // Extract twice: the second run reuses dirty thread-local
        // scratch and must be bit-identical to the first.
        for _ in 0..2 {
            let got: Vec<(usize, u64)> = extract::extract_row(set, p)
                .iter()
                .map(|&(c, v)| (c, v.to_bits()))
                .collect();
            assert_eq!(got, want, "{p:?}");
        }
    }
}

#[test]
fn evaluate_scores_are_bitwise_the_oracle() {
    let _guard = lock();
    let p = system();
    for r in &workload(24) {
        let (a, b) = (p.evaluate(r), common::oracle_detection(p, r));
        assert!(common::same_bits(&a, &b), "{a:?} vs oracle {b:?}");
    }
}

/// Layer-by-layer allocation attribution — not a gate, a debugging
/// aid for when the budget tests above start failing. Run with
/// `cargo test -p psigene-serve --test alloc_budget -- --ignored
/// --nocapture --test-threads=1`.
#[test]
#[ignore]
fn diag_layer_allocs() {
    let _guard = lock();
    let requests = workload(64);
    let payloads: Vec<&[u8]> = requests.iter().map(|r| r.detection_payload()).collect();

    let mut scratch = psigene_http::NormScratch::new();
    for p in &payloads {
        std::hint::black_box(psigene_http::normalize_into(p, &mut scratch).len());
    }
    let before = thread_allocations();
    for p in &payloads {
        std::hint::black_box(psigene_http::normalize_into(p, &mut scratch).len());
    }
    eprintln!(
        "normalize_into: {:.2}/payload",
        (thread_allocations() - before) as f64 / payloads.len() as f64
    );

    let set = full_set();
    set.compiled();
    for p in &payloads {
        std::hint::black_box(extract::extract_row(set, p).len());
    }
    let before = thread_allocations();
    for p in &payloads {
        std::hint::black_box(extract::extract_row(set, p).len());
    }
    eprintln!(
        "extract_row(full): {:.2}/payload",
        (thread_allocations() - before) as f64 / payloads.len() as f64
    );

    let engine = system();
    engine.prepare();
    let mut dense = Vec::new();
    for r in &requests {
        engine.features_into(r, &mut dense);
    }
    let before = thread_allocations();
    for r in &requests {
        engine.features_into(r, &mut dense);
    }
    eprintln!(
        "features_into(trained): {:.2}/payload",
        (thread_allocations() - before) as f64 / payloads.len() as f64
    );

    let before = thread_allocations();
    for r in &requests {
        std::hint::black_box(engine.score_features(&dense).flagged);
        let _ = r;
    }
    eprintln!(
        "score_features: {:.2}/payload",
        (thread_allocations() - before) as f64 / payloads.len() as f64
    );

    for r in &requests {
        std::hint::black_box(engine.evaluate(r).flagged);
    }
    let before = thread_allocations();
    for r in &requests {
        std::hint::black_box(engine.evaluate(r).flagged);
    }
    eprintln!(
        "evaluate: {:.2}/payload",
        (thread_allocations() - before) as f64 / payloads.len() as f64
    );
}
