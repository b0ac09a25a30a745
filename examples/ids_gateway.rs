//! An inline IDS gateway serving mixed traffic: a trained pSigene
//! system behind the sharded `psigene-serve` gateway, with concurrent
//! submitters, a mid-stream hot signature reload (the output of
//! incremental retraining swapped in under load) and the serving
//! telemetry the paper's operational phase (§II-D) implies.
//!
//! ```text
//! cargo run --release -p psigene-serve --example ids_gateway
//! cargo run --release -p psigene-serve --example ids_gateway -- --quick
//! ```

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::{
    arachni::{self, ArachniConfig},
    benign::{self, BenignConfig},
    sqlmap::{self, SqlmapConfig},
    Dataset,
};
use psigene_learn::ConfusionMatrix;
use psigene_rulesets::DetectionEngine;
use psigene_serve::{Gateway, GatewayConfig, LatencySlo, OverloadPolicy, SignatureStore};
use psigene_telemetry::insight::SloConfig;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (crawl, benign_train, cap, stream_benign, stream_attacks) = if quick {
        (300, 1200, 300, 400, 60)
    } else {
        (1500, 10_000, 900, 2000, 150)
    };

    println!("training pSigene...");
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: crawl,
        benign_train,
        cluster_sample_cap: cap,
        ..PipelineConfig::default()
    });
    println!("trained {} signatures", system.signatures().len());

    // The gateway: sharded workers over the hot-swappable store,
    // shedding fail-open if the queues ever hit their bound.
    let shards = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(4);
    // Serve the drift-monitored engine: every evaluated request also
    // feeds the feature/score drift monitors behind the `drift.*` gauges.
    let serving = system.with_insight(true);
    let store = SignatureStore::new(Arc::new(serving.clone()) as Arc<dyn DetectionEngine>);
    let gateway = Gateway::start(
        Arc::clone(&store),
        GatewayConfig {
            shards,
            queue_capacity: 256,
            policy: OverloadPolicy::Shed { fail_open: true },
            ..GatewayConfig::default()
        },
    );
    // Latency SLO over the serving histogram: 99 % within 5 ms.
    let slo = LatencySlo::new(5_000_000, SloConfig::default());
    slo.tick();

    // A mixed stream: mostly benign with scanner traffic woven in.
    let mut stream = Dataset::new();
    stream.extend(benign::generate(&BenignConfig {
        requests: stream_benign,
        include_novel_tail: true,
        ..Default::default()
    }));
    stream.extend(arachni::generate(&ArachniConfig {
        samples: stream_attacks,
        ..Default::default()
    }));
    stream.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(0xf00d));

    println!(
        "serving {} requests ({} attacks hidden in the stream) on {} shards\n",
        stream.len(),
        stream.attack_count(),
        shards
    );

    // Concurrent submitters: each owns a stripe of the stream; one
    // extra thread performs a hot signature reload mid-traffic with
    // the incremental trainer's output.
    let n_submitters = 4usize;
    let tp = AtomicU64::new(0);
    let fp = AtomicU64::new(0);
    let fnn = AtomicU64::new(0);
    let tn = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..n_submitters {
            let gateway = &gateway;
            let stream = &stream;
            let (tp, fp, fnn, tn, shed) = (&tp, &fp, &fnn, &tn, &shed);
            s.spawn(move || {
                for sample in stream.samples.iter().skip(t).step_by(n_submitters) {
                    let verdict = gateway.check(sample.request.clone());
                    if verdict.is_shed() {
                        shed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let counter = match (sample.label.is_attack(), verdict.flagged()) {
                        (true, true) => tp,
                        (true, false) => fnn,
                        (false, true) => fp,
                        (false, false) => tn,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Hot reload under load: fold fresh attack samples in via the
        // incremental trainer, then atomically swap the result live —
        // versioned, so the new model's metadata lands on the
        // `serve.model.*` gauges the moment it starts serving.
        let store = &store;
        let system = &system;
        let gateway_ref = &gateway;
        s.spawn(move || {
            let fresh = sqlmap::generate(&SqlmapConfig {
                samples: if quick { 40 } else { 200 },
                seed: 0x1e10ad,
                ..Default::default()
            });
            let (retrained, stats) = system.retrain_with(&fresh, 2);
            let meta = psigene_serve::control::ModelMeta {
                model_id: 2,
                trained_at: gateway_ref.stats().served,
                training_samples: fresh.len(),
            };
            let version =
                store.swap_versioned(Arc::new(retrained) as Arc<dyn DetectionEngine>, meta);
            println!(
                "hot reload: {} samples assigned, {} signatures refitted → live version {}",
                stats.assigned, stats.retrained_signatures, version
            );
        });
    });

    let mut cm = ConfusionMatrix::default();
    for _ in 0..tp.load(Ordering::Relaxed) {
        cm.record(true, true);
    }
    for _ in 0..fnn.load(Ordering::Relaxed) {
        cm.record(true, false);
    }
    for _ in 0..fp.load(Ordering::Relaxed) {
        cm.record(false, true);
    }
    for _ in 0..tn.load(Ordering::Relaxed) {
        cm.record(false, false);
    }

    println!(
        "\n{:<26} {:>8} {:>8} {:>10} {:>8}",
        "ENGINE", "TPR", "FPR", "PRECISION", "F1"
    );
    println!(
        "{:<26} {:>7.1}% {:>7.2}% {:>9.1}% {:>8.3}",
        store.current().name(),
        cm.tpr() * 100.0,
        cm.fpr() * 100.0,
        cm.precision() * 100.0,
        cm.f1()
    );

    // What the gateway observed about itself while serving. Exemplar
    // traces are read before shutdown consumes the gateway.
    slo.tick();
    let exemplars = gateway.trace_exemplars();
    let stats = gateway.shutdown();
    println!(
        "\ngateway: {} submitted / {} served / {} shed (signature version {})",
        stats.submitted,
        stats.served,
        stats.shed,
        store.version()
    );
    if let Some(meta) = store.model_meta() {
        println!(
            "live model: id {} / trained at request {} / {} training samples",
            meta.model_id, meta.trained_at, meta.training_samples
        );
    }
    // Hot-path telemetry is buffered per thread; the workers published
    // theirs when `shutdown()` joined them, and the snapshot publishes
    // the main thread's first, so it is complete.
    let snap = serving.telemetry_snapshot();
    if let Some(h) = snap.histograms.get("serve.latency_ns") {
        if let (Some(p50), Some(p99)) = (h.p50(), h.p99()) {
            println!(
                "end-to-end serve latency: p50 {:.1} µs / p99 {:.1} µs over {} requests",
                p50 as f64 / 1000.0,
                p99 as f64 / 1000.0,
                h.count()
            );
        }
    }
    if let Some(h) = snap.histograms.get("detector.latency_ns") {
        if let (Some(p50), Some(p99)) = (h.p50(), h.p99()) {
            println!(
                "detector-only latency:    p50 {:.1} µs / p99 {:.1} µs",
                p50 as f64 / 1000.0,
                p99 as f64 / 1000.0
            );
        }
    }
    // The fused matcher's internals: lazy-DFA cache occupancy.
    if let Some(&states) = snap.gauges.get("regex.fused.cache_states") {
        let hit = snap
            .gauges
            .get("regex.fused.cache_hit_ratio")
            .copied()
            .unwrap_or(0.0);
        println!(
            "fused DFA: {:.0} cached states ({:.1}% cache hits)",
            states,
            hit * 100.0
        );
    }
    let mut hits: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter_map(|(k, &v)| k.strip_prefix("detector.sig_match.").map(|id| (id, v)))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    if !hits.is_empty() {
        println!("per-signature hit counts:");
        for (id, n) in &hits {
            println!("  signature {id:>3}: {n:>6} hits");
        }
    }

    // Drift, SLO burn and the slowest sampled request — the
    // observability readout a control plane would alert on.
    if let Some(drift) = serving.drift_scores() {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        println!(
            "\ndrift: features PSI {} / KL {} over {} windows, max PSI {}",
            fmt(drift.features_psi),
            fmt(drift.features_kl),
            drift.windows,
            fmt(drift.max_psi())
        );
    }
    let burn = slo.burn();
    let fmt_burn = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
    println!(
        "SLO (99% < 5 ms): fast burn {} / slow burn {} / alerting: {}",
        fmt_burn(burn.fast),
        fmt_burn(burn.slow),
        slo.alerting()
    );
    if let Some(slowest) = exemplars.first() {
        println!(
            "\nslowest sampled request (1 of {} exemplars, 1-in-{} sampling):",
            exemplars.len(),
            gateway_trace_rate()
        );
        print!("{}", slowest.render_tree());
    }

    // The same registry, rendered for a Prometheus scrape (histogram
    // bucket series elided for readability).
    let exposition = psigene_telemetry::global().export_prometheus();
    let mut elided = 0usize;
    println!("\nPrometheus exposition:");
    for line in exposition.lines() {
        if line.contains("_bucket{") {
            elided += 1;
            continue;
        }
        println!("  {line}");
    }
    println!("  ... ({elided} histogram bucket series elided)");
}

fn gateway_trace_rate() -> u64 {
    GatewayConfig::default().trace.sample_every
}
