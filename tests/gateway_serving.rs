//! Concurrency integration tests for the serving gateway: verdict
//! equivalence under parallel submission, one evaluation per shard
//! whether a worker or a submitter runs it, hot signature reload under
//! traffic, and the shed policy at the queue bound.
//!
//! Run with `RUST_TEST_THREADS` unset so the submitter fan-out gets
//! real parallelism (scripts/ci.sh does).

mod common;

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::benign::{self, BenignConfig};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_corpus::Dataset;
use psigene_http::HttpRequest;
use psigene_rulesets::{Detection, DetectionEngine, Verdict};
use psigene_serve::control::VerdictSink;
use psigene_serve::{
    BatchTicket, Gateway, GatewayConfig, GatewayStats, OverloadPolicy, SignatureStore, Ticket,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::ThreadId;

fn train() -> Psigene {
    Psigene::train(&PipelineConfig {
        crawl_samples: 300,
        benign_train: 1200,
        cluster_sample_cap: 300,
        threads: 2,
        ..PipelineConfig::default()
    })
}

/// One small trained system shared by every test in this binary
/// (training is the expensive part; the gateway under test is cheap).
fn system() -> &'static Psigene {
    static SYSTEM: OnceLock<Psigene> = OnceLock::new();
    SYSTEM.get_or_init(train)
}

/// [`system`] built a second time: training is deterministic, so the
/// signatures are the same, but the fused automaton is a separate
/// build — a worker that meets both engines must rebind its lazy-DFA
/// cache. (A clone, or a `retrain_with` successor, shares the
/// original's automaton and crosses no rebind.)
fn rebuilt_system() -> &'static Psigene {
    static REBUILT: OnceLock<Psigene> = OnceLock::new();
    REBUILT.get_or_init(|| {
        let rebuilt = train();
        assert!(!std::ptr::eq(
            rebuilt.feature_set().compiled(),
            system().feature_set().compiled()
        ));
        rebuilt
    })
}

/// A mixed attack+benign request stream.
fn stream(attacks: usize, benign_n: usize) -> Vec<HttpRequest> {
    let mut ds = Dataset::new();
    ds.extend(sqlmap::generate(&SqlmapConfig {
        samples: attacks,
        ..Default::default()
    }));
    ds.extend(benign::generate(&BenignConfig {
        requests: benign_n,
        ..Default::default()
    }));
    ds.samples.into_iter().map(|s| s.request).collect()
}

fn same_detection(a: &Detection, b: &Detection) -> bool {
    a.flagged == b.flagged
        && a.matched_rules == b.matched_rules
        && (a.score - b.score).abs() < 1e-12
}

#[test]
fn concurrent_verdicts_match_sequential_evaluation() {
    let p = system();
    let requests = stream(120, 360);
    let sequential: Vec<Detection> = requests.iter().map(|r| p.evaluate(r)).collect();

    let engine: Arc<dyn DetectionEngine> = Arc::new(p.clone());
    let gateway = Gateway::start(
        SignatureStore::new(engine),
        GatewayConfig {
            shards: 4,
            queue_capacity: 64,
            policy: OverloadPolicy::Block,
            ..GatewayConfig::default()
        },
    );

    // 8 submitters, each owning a disjoint stripe of the stream; half
    // submit one-by-one, half in batches.
    let n_submitters = 8;
    let results: Vec<(usize, Vec<Verdict>)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_submitters {
            let gateway = &gateway;
            let requests = &requests;
            handles.push(s.spawn(move || {
                let mine: Vec<HttpRequest> = requests
                    .iter()
                    .skip(t)
                    .step_by(n_submitters)
                    .cloned()
                    .collect();
                let verdicts = if t % 2 == 0 {
                    mine.into_iter().map(|r| gateway.check(r)).collect()
                } else {
                    gateway.check_batch(mine)
                };
                (t, verdicts)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect()
    });

    for (t, verdicts) in results {
        for (i, v) in verdicts.iter().enumerate() {
            let global_idx = t + i * n_submitters;
            let d = v.detection().expect("Block policy never sheds");
            assert!(
                same_detection(d, &sequential[global_idx]),
                "submitter {t}, request {global_idx}: gateway {d:?} vs sequential {:?}",
                sequential[global_idx]
            );
        }
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, requests.len() as u64);
    assert_eq!(stats.served, requests.len() as u64);
    assert_eq!(stats.shed, 0);
}

#[test]
fn hot_reload_mid_traffic_drops_and_misroutes_nothing() {
    let p = system();
    // The reload target: the incremental trainer's output, exactly
    // what a live signature correction would install.
    let fresh = sqlmap::generate(&SqlmapConfig {
        samples: 80,
        seed: 0xfeed,
        ..Default::default()
    });
    let (retrained, _) = p.retrain_with(&fresh, 2);

    let requests = stream(100, 300);
    // Expected verdicts under both engines; a request whose verdict
    // is invariant across the swap must come back with exactly that
    // verdict no matter when the reload lands.
    let before: Vec<Detection> = requests.iter().map(|r| p.evaluate(r)).collect();
    let after: Vec<Detection> = requests.iter().map(|r| retrained.evaluate(r)).collect();

    let store = SignatureStore::new(Arc::new(p.clone()) as Arc<dyn DetectionEngine>);
    let gateway = Gateway::start(
        Arc::clone(&store),
        GatewayConfig {
            shards: 4,
            queue_capacity: 32,
            policy: OverloadPolicy::Block,
            ..GatewayConfig::default()
        },
    );

    let n_submitters = 4;
    let rounds = 3usize; // every submitter pushes its stripe 3 times
    let done = AtomicBool::new(false);
    let verdict_count = AtomicU64::new(0);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_submitters {
            let gateway = &gateway;
            let requests = &requests;
            let before = &before;
            let after = &after;
            let verdict_count = &verdict_count;
            handles.push(s.spawn(move || {
                for _ in 0..rounds {
                    for (i, r) in requests.iter().enumerate().skip(t).step_by(n_submitters) {
                        let v = gateway.check(r.clone());
                        verdict_count.fetch_add(1, Ordering::Relaxed);
                        let d = v.detection().expect("Block policy never sheds");
                        assert!(
                            same_detection(d, &before[i]) || same_detection(d, &after[i]),
                            "request {i} misrouted: got {d:?}, expected {:?} or {:?}",
                            before[i],
                            after[i]
                        );
                    }
                }
            }));
        }
        // Reload mid-traffic, twice, while submitters are pushing.
        let store = &store;
        let retrained = retrained.clone();
        let done = &done;
        handles.push(s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(store.swap(Arc::new(retrained.clone())), 2);
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(store.swap(Arc::new(retrained)), 3);
            done.store(true, Ordering::Release);
        }));
        for h in handles {
            h.join().expect("thread");
        }
    });
    assert!(done.load(Ordering::Acquire), "reloader never ran");
    assert_eq!(store.version(), 3);

    // Every stripe covers the stream exactly once per round.
    let expected = (requests.len() * rounds) as u64;
    assert_eq!(verdict_count.load(Ordering::Relaxed), expected);
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, expected, "requests dropped at submission");
    assert_eq!(stats.served, expected, "requests dropped in flight");
    assert_eq!(stats.shed, 0);
}

#[test]
fn gateway_verdicts_match_the_oracle_under_load_and_reload() {
    let p = system();
    // The oracle: every feature counted by its own regex, scored
    // through the dense reference, sequentially. The engine swapped in
    // mid-traffic carries the same signatures in a separately built
    // automaton, so every verdict must be byte-identical (score
    // compared by bit pattern) no matter which engine a hot reload
    // lands a given request on.
    let rebuilt = rebuilt_system();
    let requests = stream(80, 240);
    let expected: Vec<Detection> = requests
        .iter()
        .map(|r| common::oracle_detection(p, r))
        .collect();
    for (r, e) in requests.iter().zip(&expected) {
        assert!(common::same_bits(&common::oracle_detection(rebuilt, r), e));
    }

    let store = SignatureStore::new(Arc::new(p.clone()) as Arc<dyn DetectionEngine>);
    let gateway = Gateway::start(
        Arc::clone(&store),
        GatewayConfig {
            shards: 4,
            queue_capacity: 32,
            policy: OverloadPolicy::Block,
            ..GatewayConfig::default()
        },
    );

    let n_submitters = 4;
    let rounds = 3usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_submitters {
            let gateway = &gateway;
            let requests = &requests;
            let expected = &expected;
            handles.push(s.spawn(move || {
                for round in 0..rounds {
                    // Alternate single and batch submission so both
                    // hot paths cross the reload.
                    let idx: Vec<usize> = (t..requests.len()).step_by(n_submitters).collect();
                    let verdicts: Vec<(usize, Verdict)> = if (t + round) % 2 == 0 {
                        idx.iter()
                            .map(|&i| (i, gateway.check(requests[i].clone())))
                            .collect()
                    } else {
                        let batch: Vec<HttpRequest> =
                            idx.iter().map(|&i| requests[i].clone()).collect();
                        idx.iter()
                            .copied()
                            .zip(gateway.check_batch(batch))
                            .collect()
                    };
                    for (i, v) in verdicts {
                        let d = v.detection().expect("Block policy never sheds");
                        assert!(
                            common::same_bits(d, &expected[i]),
                            "request {i}: gateway {d:?} differs from oracle {:?}",
                            expected[i]
                        );
                    }
                }
            }));
        }
        // Hot reloads mid-traffic: original → rebuilt → original, a
        // DFA-cache rebind per worker each way. Equivalence means no
        // submitter can tell which engine served it.
        let store = &store;
        let rebuilt = rebuilt.clone();
        let p = p.clone();
        handles.push(s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(store.swap(Arc::new(rebuilt)), 2);
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(store.swap(Arc::new(p)), 3);
        }));
        for h in handles {
            h.join().expect("thread");
        }
    });
    assert_eq!(store.version(), 3);

    let expected_total = (requests.len() * rounds) as u64;
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, expected_total);
    assert_eq!(stats.served, expected_total);
    assert_eq!(stats.shed, 0);
}

#[test]
fn fused_hot_reload_rebuilds_automaton_losslessly() {
    let p = system();
    // A reload installs a retrained engine whose feature set carries
    // a *different* fused automaton (new build token; retraining the
    // rebuilt twin rather than `p`, whose successor would share `p`'s
    // automaton). Worker threads keep their lazy-DFA caches across
    // the swap, so this test pins the rebind contract: a cache handed
    // a reloaded automaton must reset and re-determinize, never serve
    // states of the old owner.
    let fresh = sqlmap::generate(&SqlmapConfig {
        samples: 80,
        seed: 0xabad,
        ..Default::default()
    });
    let (retrained, _) = rebuilt_system().retrain_with(&fresh, 2);

    let requests = stream(90, 270);
    // Oracles: each engine evaluated sequentially, and — losslessness
    // proper — the reloaded engine's verdicts must be bit-identical to
    // the per-feature oracle before the gateway even starts.
    let before: Vec<Detection> = requests.iter().map(|r| p.evaluate(r)).collect();
    let after: Vec<Detection> = requests.iter().map(|r| retrained.evaluate(r)).collect();
    for (r, d) in requests.iter().zip(&after) {
        assert!(common::same_bits(
            d,
            &common::oracle_detection(&retrained, r)
        ));
    }

    let store = SignatureStore::new(Arc::new(p.clone()) as Arc<dyn DetectionEngine>);
    let gateway = Gateway::start(
        Arc::clone(&store),
        GatewayConfig {
            shards: 4,
            queue_capacity: 32,
            policy: OverloadPolicy::Block,
            ..GatewayConfig::default()
        },
    );

    let n_submitters = 4;
    let rounds = 4usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_submitters {
            let gateway = &gateway;
            let requests = &requests;
            let before = &before;
            let after = &after;
            handles.push(s.spawn(move || {
                for _ in 0..rounds {
                    for (i, r) in requests.iter().enumerate().skip(t).step_by(n_submitters) {
                        let v = gateway.check(r.clone());
                        let d = v.detection().expect("Block policy never sheds");
                        let matches = |e: &Detection| common::same_bits(d, e);
                        assert!(
                            matches(&before[i]) || matches(&after[i]),
                            "request {i}: stale DFA state? got {d:?}, \
                             expected {:?} or {:?}",
                            before[i],
                            after[i]
                        );
                    }
                }
            }));
        }
        // Alternate the two automata under live traffic so every
        // worker's cache rebinds repeatedly in both directions.
        let store = &store;
        let p = p.clone();
        let retrained = retrained.clone();
        handles.push(s.spawn(move || {
            for (n, engine) in [retrained.clone(), p.clone(), retrained, p]
                .into_iter()
                .enumerate()
            {
                std::thread::sleep(std::time::Duration::from_millis(15));
                assert_eq!(store.swap(Arc::new(engine)), n as u64 + 2);
            }
        }));
        for h in handles {
            h.join().expect("thread");
        }
    });
    assert_eq!(store.version(), 5);

    let expected_total = (requests.len() * rounds) as u64;
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, expected_total);
    assert_eq!(stats.served, expected_total, "requests dropped in flight");
    assert_eq!(stats.shed, 0);
}

#[test]
fn shed_policy_fires_at_the_configured_bound() {
    use std::sync::mpsc;
    use std::time::Duration;
    // A gated engine stalls whoever evaluates, so the shard fills
    // deterministically.
    struct Gated(Arc<AtomicBool>);
    impl DetectionEngine for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn evaluate(&self, _r: &HttpRequest) -> Detection {
            while !self.0.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            Detection::default()
        }
        fn rule_count(&self) -> usize {
            0
        }
    }

    let capacity = 3usize;
    let total = capacity + 5;
    for fail_open in [true, false] {
        let (done, finished) = mpsc::channel();
        // The scenario runs on its own thread, so that a leaked claim,
        // or a submission that claims the stalled shard and spins on
        // the gate, fails the test on the timeout below instead of
        // hanging it.
        std::thread::spawn(move || {
            let gate = Arc::new(AtomicBool::new(false));
            let gateway = Gateway::start(
                SignatureStore::new(Arc::new(Gated(Arc::clone(&gate)))),
                GatewayConfig {
                    shards: 1,
                    queue_capacity: capacity,
                    policy: OverloadPolicy::Shed { fail_open },
                    ..GatewayConfig::default()
                },
            );
            let (first, verdicts, stats) = std::thread::scope(|s| {
                // A helper finds the shard idle and evaluates its own
                // request, stalled on the gate: it holds the claim.
                let helper = s.spawn(|| gateway.submit(HttpRequest::get("h", "/x", "i=0")).wait());
                while gateway.stats().submitted == 0 {
                    std::thread::yield_now();
                }
                // The claim counts against the bound: this thread gets
                // exactly `capacity - 1` accepted, and everything past
                // that sheds at once instead of waiting.
                let tickets: Vec<Ticket> = (1..total)
                    .map(|i| gateway.submit(HttpRequest::get("h", "/x", &format!("i={i}"))))
                    .collect();
                let stats = gateway.stats();
                gate.store(true, Ordering::Release);
                let first = helper.join().expect("helper");
                let verdicts: Vec<Verdict> = tickets.into_iter().map(Ticket::wait).collect();
                (first, verdicts, stats)
            });
            let last = gateway.shutdown();
            done.send((first, verdicts, stats, last))
                .expect("test alive");
        });
        let (first, verdicts, stats, last) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the scenario unwound or hung on the gate");
        assert!(
            first.detection().is_some(),
            "the claimer evaluates: {first:?}"
        );
        assert_eq!(
            (stats.submitted, stats.shed),
            (capacity as u64, (total - capacity) as u64),
            "fail_open {fail_open}: {stats:?}"
        );
        let shed: Vec<&Verdict> = verdicts.iter().filter(|v| v.is_shed()).collect();
        assert_eq!(
            shed.len() as u64,
            stats.shed,
            "shed counter disagrees with verdicts"
        );
        assert_eq!(verdicts.len() - shed.len(), capacity - 1);
        // Shed traffic passes unflagged when failing open, is flagged
        // when failing closed.
        assert!(shed.iter().all(|v| v.flagged() != fail_open));
        assert_eq!(
            (last.served, last.shed),
            (capacity as u64, (total - capacity) as u64)
        );
    }
}

/// A submitter on an idle shard evaluates on its own thread, under
/// either overload policy, and a worker evaluates what was queued: a
/// shard must still run one evaluation at a time, and no request may
/// be lost, doubled or evaluated twice by the two paths.
#[test]
fn one_evaluation_per_shard_whoever_runs_it() {
    /// The trained system, counting how many evaluations run at once
    /// and on which threads.
    struct Occupancy {
        inner: Psigene,
        running: AtomicUsize,
        most: AtomicUsize,
        threads: Mutex<HashSet<ThreadId>>,
    }

    impl DetectionEngine for Occupancy {
        fn name(&self) -> &str {
            "occupancy"
        }
        fn evaluate(&self, request: &HttpRequest) -> Detection {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.most.fetch_max(now, Ordering::SeqCst);
            let detection = self.inner.evaluate(request);
            self.running.fetch_sub(1, Ordering::SeqCst);
            self.threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(std::thread::current().id());
            detection
        }
        fn rule_count(&self) -> usize {
            self.inner.rule_count()
        }
    }

    struct Tap(Vec<AtomicU64>);
    impl VerdictSink for Tap {
        fn observe(&self, id: u64, _request: &HttpRequest, _d: &Detection) {
            self.0[id as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
    const SUBMITTERS: usize = 8;
    const ROUNDS: usize = 4;
    let requests = stream(16, 48);
    let sequential: Vec<Detection> = requests.iter().map(|r| system().evaluate(r)).collect();
    let total = requests.len() * (1 + SUBMITTERS * ROUNDS);
    let policies = [
        OverloadPolicy::Block,
        OverloadPolicy::Shed { fail_open: true },
    ];
    for (shards, policy) in [1, 2].into_iter().flat_map(|n| policies.map(|p| (n, p))) {
        let engine = Arc::new(Occupancy {
            inner: system().clone(),
            running: AtomicUsize::new(0),
            most: AtomicUsize::new(0),
            threads: Mutex::new(HashSet::new()),
        });
        let tap = Arc::new(Tap((0..total).map(|_| AtomicU64::new(0)).collect()));
        let gateway = Gateway::start(
            SignatureStore::new(Arc::clone(&engine) as Arc<dyn DetectionEngine>),
            GatewayConfig {
                shards,
                // Above the 8 checks in flight: neither policy acts.
                queue_capacity: 64,
                policy,
                tap: Some(Arc::clone(&tap) as Arc<dyn VerdictSink>),
                ..GatewayConfig::default()
            },
        );

        // One sequential submitter: every shard it meets is idle, so
        // each request runs on its own thread and no worker wakes.
        for r in &requests {
            let _ = gateway.check(r.clone());
        }
        let threads = engine
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        assert_eq!(
            threads,
            HashSet::from([std::thread::current().id()]),
            "{policy:?}, {shards} shard(s): a sequential submitter's requests left its thread"
        );

        std::thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let (gateway, requests, sequential) = (&gateway, &requests, &sequential);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        for (i, r) in requests.iter().enumerate() {
                            let v = gateway.check(r.clone());
                            let d = v.detection().expect("8 checks never reach the bound");
                            assert!(
                                same_detection(d, &sequential[i]),
                                "{policy:?}, submitter {t}, round {round}, request {i}: {d:?}"
                            );
                        }
                    }
                });
            }
        });
        let most = engine.most.load(Ordering::SeqCst);
        assert!(
            most <= shards,
            "{policy:?}: {most} evaluations at once on {shards} shard(s)"
        );
        let stats = gateway.shutdown();
        assert_eq!(
            (stats.submitted, stats.served, stats.shed),
            (total as u64, total as u64, 0)
        );
        for (id, seen) in tap.0.iter().enumerate() {
            assert_eq!(
                seen.load(Ordering::Relaxed),
                1,
                "{policy:?}, {shards} shard(s), id {id}"
            );
        }
    }
}

/// The calls `crates/bench/src/bin/e2e/src/serve.rs` makes, through
/// the paths it names — `tests/bench_surface.rs` pins the matcher and
/// parser half of the benchmark's compile surface and cannot see this
/// crate. The request type is spelled the way the benchmark spells it
/// and crosses `submit`/`submit_batch` by value, parsed from the wire.
#[test]
fn bench_client_surface_taps_every_id_once() {
    use psigene::psigene_http::{parse_request, HttpRequest as BenchRequest};
    struct Tap(Vec<AtomicU64>);
    impl VerdictSink for Tap {
        fn observe(&self, id: u64, _request: &BenchRequest, _d: &Detection) {
            self.0[id as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
    let _: fn(&Gateway, BenchRequest) -> Ticket = Gateway::submit;
    let _: fn(&Gateway, Vec<BenchRequest>) -> BatchTicket = Gateway::submit_batch;

    let requests: Vec<BenchRequest> = stream(8, 56)
        .iter()
        .map(|r| parse_request(&r.to_wire()).expect("generated request"))
        .collect();
    let tap = Arc::new(Tap((0..requests.len())
        .map(|_| AtomicU64::new(0))
        .collect()));
    let engine: Arc<dyn DetectionEngine> = Arc::new(system().clone());
    let gateway = Gateway::start(
        SignatureStore::new(engine),
        GatewayConfig {
            shards: 1,
            queue_capacity: GatewayConfig::default().queue_capacity,
            policy: OverloadPolicy::Block,
            tap: Some(Arc::clone(&tap) as Arc<dyn VerdictSink>),
            ..GatewayConfig::default()
        },
    );

    // First half one ticket each, second half as one batch.
    let (singles, batch) = requests.split_at(requests.len() / 2);
    let tickets: Vec<Ticket> = singles.iter().map(|r| gateway.submit(r.clone())).collect();
    let batch_ticket: BatchTicket = gateway.submit_batch(batch.to_vec());
    let mut verdicts: Vec<Verdict> = tickets.into_iter().map(Ticket::wait).collect();
    verdicts.extend(batch_ticket.wait());
    assert_eq!(verdicts.len(), requests.len());
    assert!(verdicts.iter().all(|v| v.detection().is_some()));

    let stats: GatewayStats = gateway.stats();
    assert_eq!(stats.submitted, requests.len() as u64);
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, stats.served);
    for (id, seen) in tap.0.iter().enumerate() {
        assert_eq!(seen.load(Ordering::Relaxed), 1, "evaluation id {id}");
    }
}
