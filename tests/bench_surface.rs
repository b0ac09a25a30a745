//! The matcher and request surface the end-to-end benchmark compiles
//! against (the gateway half, which this crate cannot see, is
//! `bench_client_surface_taps_every_id_once` in `gateway_serving.rs`).
//!
//! `crates/bench/src/bin/e2e` (see `BENCHMARK.json`) is a package of
//! its own that the root `cargo test` does not build, and a PR that
//! changes the program may not edit it. This test makes the same
//! calls its traced pass and counting pass make — through the same
//! `psigene::psigene_*` re-exports — so tier-1 fails when a change
//! breaks the benchmark's compile surface or the meaning of what it
//! reads.

use psigene::psigene_features::extract::{extract_dense_into, flush_extract_metrics};
use psigene::psigene_features::{Feature, FeatureSet, FeatureSource};
use psigene::psigene_http::{normalize_into, parse_request, HttpRequest, NormScratch, ParseError};
use psigene::psigene_regex::{CandidateSet, DfaCache};
use psigene::psigene_rulesets::DetectionEngine;
use psigene::{PipelineConfig, Psigene};

/// The counters the benchmark's counting pass takes deltas of.
const COUNTERS: [&str; 4] = [
    "features.regex_evals",
    "features.vm_runs_skipped",
    "regex.fused.fallback_vm_runs",
    "http.normalize_passes",
];

/// Per-counter movement across `work`, flushing this thread's
/// buffered extraction telemetry on both sides as the benchmark does.
fn counter_deltas(work: impl FnOnce()) -> [u64; 4] {
    let telemetry = psigene_telemetry::global();
    flush_extract_metrics();
    let before = telemetry.snapshot();
    work();
    flush_extract_metrics();
    let delta = telemetry.snapshot().delta_since(&before);
    COUNTERS.map(|name| delta.counters.get(name).copied().unwrap_or(0))
}

#[test]
fn benchmark_probes_compile_and_read_what_they_expect() {
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: 300,
        benign_train: 1200,
        cluster_sample_cap: 300,
        threads: 2,
        ..PipelineConfig::default()
    });
    system.prepare();
    let set = system.feature_set();
    let compiled = set.compiled();
    let mut norm = NormScratch::new();
    let mut bits = CandidateSet::default();
    let mut dfa = DfaCache::new();
    let mut features = Vec::new();

    let wires = [
        HttpRequest::get("v", "/x.php", "id=-1%27+UNION+SELECT+1,version(),3--+-").to_wire(),
        HttpRequest::get("w", "/index.php", "page=2&sort=asc&term=winter+jackets").to_wire(),
    ];
    // The request surface, by signature: the owned type under the
    // path the benchmark names, out of the byte parser, lending the
    // detector its payload.
    let parse: fn(&[u8]) -> Result<HttpRequest, ParseError> = parse_request;
    let payload_of: for<'a> fn(&'a HttpRequest) -> &'a [u8] = HttpRequest::detection_payload;
    for wire in &wires {
        let request = parse(wire).expect("well-formed request");
        let payload = payload_of(&request);

        // The traced pass: the scan probe on caller-owned scratch.
        let normalized = normalize_into(payload, &mut norm);
        let cold = compiled
            .fused_candidates_into(normalized, &mut bits, &mut dfa)
            .expect("a trained system has a fused automaton");
        assert_eq!(cold.stats.bytes, normalized.len() as u64);
        assert_eq!(cold.stats.skipped, 0);
        let warm = compiled
            .fused_candidates_into(normalized, &mut bits, &mut dfa)
            .expect("a trained system has a fused automaton");
        assert_eq!(warm.stats.misses, 0, "second scan of the same bytes");
        assert_eq!(warm.stats.flushes, 0);
        assert!(warm.stats.states > 0);

        // The scan's bits are the dense reference's nonzero columns.
        extract_dense_into(set, payload, &mut features);
        let nonzero: Vec<usize> = (0..features.len())
            .filter(|&c| features[c] != 0.0)
            .collect();
        assert_eq!(bits.iter().collect::<Vec<_>>(), nonzero);

        // The counting pass: one `evaluate` accounts for every feature
        // exactly once, none of them on the fallback list, and for its
        // own normalization alone — the probes above normalized on a
        // scratch of their own and moved no counter. Both payloads
        // decode in one sweep that leaves no `%` or `+`, so the second,
        // confirming pass is counted without being run.
        let [evals, skipped, fallback, passes] = counter_deltas(|| {
            std::hint::black_box(system.evaluate(&request));
        });
        assert_eq!(evals, nonzero.len() as u64);
        assert_eq!(evals + skipped, set.len() as u64);
        assert_eq!(fallback, 0);
        assert_eq!(passes, 2);
    }

    // `regex.fused.fallback_vm_runs` counts the counting runs of the
    // patterns the fuser refused: one per row for a library with one
    // such pattern.
    let custom = FeatureSet::from_features(
        ["union", "x{40}"]
            .iter()
            .map(|p| Feature::new(0, *p, *p, FeatureSource::NidsSignatures).unwrap())
            .collect(),
    );
    let [evals, skipped, fallback, _] = counter_deltas(|| {
        extract_dense_into(&custom, b"id=1 union select 2", &mut features);
    });
    assert_eq!(features, [1.0, 0.0]);
    assert_eq!((evals, skipped, fallback), (2, 0, 1));
}
