//! End-to-end check that a full training run populates the telemetry
//! registry: phase timings in the report, `span.pipeline.*`
//! histograms, trainer counters, and a detection-latency histogram
//! once requests flow through the detector.

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_http::HttpRequest;
use psigene_rulesets::DetectionEngine;

fn small_config() -> PipelineConfig {
    PipelineConfig {
        crawl_samples: 1000,
        benign_train: 6000,
        cluster_sample_cap: 700,
        threads: 2,
        ..PipelineConfig::default()
    }
}

#[test]
fn training_populates_phase_timings_and_registry() {
    let system = Psigene::train(&small_config());

    // All four phases ran, so every wall-time is nonzero.
    let t = system.report().phase_seconds;
    assert!(t.crawl > 0.0, "crawl phase time not recorded");
    assert!(t.extract > 0.0, "extract phase time not recorded");
    assert!(t.bicluster > 0.0, "bicluster phase time not recorded");
    assert!(t.train > 0.0, "train phase time not recorded");
    assert!(t.total() >= t.crawl + t.train);

    // The same spans landed in the global registry.
    let snap = system.telemetry_snapshot();
    for phase in ["crawl", "extract", "bicluster", "train"] {
        let name = format!("span.pipeline.{phase}");
        let h = snap
            .histograms
            .get(&name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(h.count() >= 1, "{name} recorded no samples");
        assert!(h.p50().is_some(), "{name} has no percentiles");
    }
    // Every production span records under its own name, wherever it
    // is opened from: the training sub-phases run inside the
    // `pipeline.*` spans and still record as `span.train.*`.
    let recorded = |snap: &psigene_telemetry::Snapshot, name: &str| {
        let count = snap.histograms.get(name).map_or(0, |h| h.count());
        assert!(count >= 1, "{name} recorded no samples");
    };
    for phase in ["pairwise", "cophenetic", "assign", "fit"] {
        recorded(&snap, &format!("span.train.{phase}"));
    }
    let fresh = sqlmap::generate(&SqlmapConfig {
        samples: 20,
        ..SqlmapConfig::default()
    });
    let _ = system.retrain_with(&fresh, 2);
    recorded(&system.telemetry_snapshot(), "span.incremental.retrain");

    // Trainer and feature-extraction instrumentation fired too.
    assert!(*snap.counters.get("learn.newton_iterations").unwrap_or(&0) > 0);
    assert!(*snap.counters.get("learn.pcg_iterations").unwrap_or(&0) > 0);
    assert!(*snap.counters.get("features.regex_evals").unwrap_or(&0) > 0);
    assert!(
        snap.histograms
            .contains_key("learn.pcg_iterations_per_solve"),
        "missing per-solve PCG histogram"
    );

    // Serving traffic populates the detection-latency histogram and
    // per-signature match counters.
    let attack = HttpRequest::get("v", "/x.php", "id=-1+union+select+1,version(),3--+-");
    let benign = HttpRequest::get("w", "/index.php", "page=2&sort=asc");
    for _ in 0..16 {
        let _ = system.evaluate(&attack);
        let _ = system.evaluate(&benign);
    }
    let snap = system.telemetry_snapshot();
    let lat = snap
        .histograms
        .get("detector.latency_ns")
        .expect("missing detector.latency_ns");
    assert!(lat.count() >= 32, "latency histogram undercounted");
    assert!(lat.p99().unwrap() >= lat.p50().unwrap());
    assert!(*snap.counters.get("detector.requests").unwrap_or(&0) >= 32);

    // The JSON exporter round-trips through a parser and carries the
    // phase spans.
    let json = psigene_telemetry::global().export_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("exporter emits valid JSON");
    let hists = v
        .get("histograms")
        .expect("histograms section")
        .as_object()
        .expect("histograms is an object");
    assert!(hists.contains_key("span.pipeline.train"));
    assert!(hists.contains_key("detector.latency_ns"));
}
