//! Thread-local verdict telemetry: what a thread that evaluates
//! requests buffers, when it publishes, and what the drift windows look
//! like when several threads feed one monitor (DESIGN §11, "Overhead
//! discipline").
//!
//! The tests read process-wide counters as exact deltas, so they
//! serialize on a lock and every thread that evaluates inside one has
//! published (exited, or taken a snapshot) before the lock is released.

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::benign::{self, BenignConfig};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_http::HttpRequest;
use psigene_rulesets::DetectionEngine;
use psigene_serve::{Gateway, GatewayConfig, OverloadPolicy, SignatureStore};
use psigene_telemetry::insight::DriftConfig;
use psigene_telemetry::Snapshot;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked holding the guard fails alone, not its
    // siblings too.
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One small trained system shared by every test in this binary.
fn system() -> &'static Psigene {
    static SYSTEM: OnceLock<Psigene> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let system = Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        });
        // Whatever training evaluated on this thread is published now,
        // not when this test thread exits mid-way through another test.
        system.telemetry_snapshot();
        system
    })
}

/// `n` requests, one attack in four.
fn mixed(n: usize) -> Vec<HttpRequest> {
    let attacks = sqlmap::generate(&SqlmapConfig {
        samples: n.div_ceil(4),
        ..Default::default()
    });
    let benign = benign::generate(&BenignConfig {
        requests: n,
        ..Default::default()
    });
    let (mut a, mut b) = (attacks.samples.iter(), benign.samples.iter());
    (0..n)
        .map(|i| {
            let sample = if i % 4 == 0 { a.next() } else { b.next() };
            sample
                .expect("generator made enough samples")
                .request
                .clone()
        })
        .collect()
}

/// `(detector.requests, detector.flagged, detector.latency_ns count)`.
fn detector_counts(snapshot: &Snapshot) -> (u64, u64, u64) {
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let latency = snapshot
        .histograms
        .get("detector.latency_ns")
        .map_or(0, |h| h.count());
    (
        counter("detector.requests"),
        counter("detector.flagged"),
        latency,
    )
}

/// A thread that evaluates fewer requests than one publishing round
/// (32) and exits has published all of them: counters, latency samples
/// and its drift batch.
#[test]
fn a_thread_that_exits_publishes_every_request_it_evaluated() {
    let _guard = lock();
    const K: usize = 7;
    const WINDOW: u64 = 64;
    let monitored = Arc::new(system().with_drift_config(DriftConfig {
        window: WINDOW,
        ..DriftConfig::default()
    }));
    let requests = Arc::new(mixed(K));
    let before = detector_counts(&monitored.telemetry_snapshot());
    let flagged = {
        let (engine, requests) = (Arc::clone(&monitored), Arc::clone(&requests));
        std::thread::spawn(move || {
            requests
                .iter()
                .filter(|r| engine.evaluate(r).flagged)
                .count()
        })
        .join()
        .expect("evaluating thread")
    };
    assert!(flagged > 0, "the sample holds an attack");
    let after = detector_counts(&monitored.telemetry_snapshot());
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (K as u64, flagged as u64, K as u64),
        "requests, flagged, latency samples"
    );

    // The K requests reached the monitor: this thread's batch finds
    // WINDOW − K left in the window and closes it after exactly that
    // many requests. Had they been lost, the window would need WINDOW.
    assert_eq!(monitored.drift_scores().expect("insight on").windows, 0);
    for r in requests.iter().cycle().take(WINDOW as usize - K) {
        monitored.evaluate(r);
    }
    assert_eq!(monitored.drift_scores().expect("insight on").windows, 1);
    monitored.telemetry_snapshot();
}

/// Through a gateway every worker feeds the same monitor. One worker
/// rolls the windows exactly where one request at a time would; with
/// two, a window closes at the first publish that fills it, so each
/// closed window holds between `WINDOW` and `2·WINDOW − 1` requests and
/// fewer than `WINDOW` stay in the open one once the workers exit.
#[test]
fn gateway_workers_fill_drift_windows_within_the_overfill_bound() {
    let _guard = lock();
    const WINDOW: u64 = 32;
    let requests = mixed(1_600);
    let n = requests.len() as u64;
    for shards in [1, 2] {
        let monitored = system().with_drift_config(DriftConfig {
            window: WINDOW,
            ..DriftConfig::default()
        });
        let gateway = Gateway::start(
            SignatureStore::new(Arc::new(monitored.clone())),
            GatewayConfig {
                shards,
                queue_capacity: 64,
                policy: OverloadPolicy::Block,
                ..GatewayConfig::default()
            },
        );
        // Batches in flight on every shard at once.
        let tickets: Vec<_> = requests
            .chunks(40)
            .map(|chunk| gateway.submit_batch(chunk.to_vec()))
            .collect();
        for ticket in tickets {
            ticket.wait();
        }
        let stats = gateway.shutdown();
        assert_eq!(stats.served, n);
        let windows = monitored.drift_scores().expect("insight on").windows;
        if shards == 1 {
            assert_eq!(windows, n / WINDOW, "one feeding thread");
        } else {
            let fewest = (n - (WINDOW - 1)).div_ceil(2 * WINDOW - 1);
            assert!(
                (fewest..=n / WINDOW).contains(&windows),
                "{windows} windows over {n} requests from {shards} workers"
            );
        }
    }
}
