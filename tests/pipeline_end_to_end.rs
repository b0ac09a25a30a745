//! End-to-end pipeline integration: crawl → features → biclustering →
//! signatures → detection, across all workspace crates.

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::{
    arachni::{self, ArachniConfig},
    benign::{self, BenignConfig},
};
use psigene_http::{parse_request, HttpRequest};
use psigene_rulesets::{BroEngine, DetectionEngine, ModsecEngine, SnortEngine};

fn small_config() -> PipelineConfig {
    PipelineConfig {
        crawl_samples: 1000,
        benign_train: 6_000,
        cluster_sample_cap: 700,
        threads: 2,
        ..PipelineConfig::default()
    }
}

#[test]
fn full_pipeline_produces_working_detector() {
    let system = Psigene::train(&small_config());
    let report = system.report();

    // Phase 2 invariants (§II-B analogs).
    assert!(report.initial_features > report.pruned_features);
    assert!(
        report.matrix_sparsity > 0.7,
        "matrix sparsity {} too low",
        report.matrix_sparsity
    );
    assert!(report.binary_features > 0);

    // Phase 3 invariants (§II-C analogs).
    assert!(
        report.cophenetic_correlation > 0.6,
        "cophenetic {} too low",
        report.cophenetic_correlation
    );
    assert!(!report.clusters.is_empty());

    // Phase 4: signatures exist and index valid features.
    assert!(!system.signatures().is_empty());
    for sig in system.signatures() {
        assert!(sig.training_samples > 0);
        assert!(sig
            .feature_indices
            .iter()
            .all(|&i| i < system.feature_set().len()));
    }

    // Detection sanity on both classes.
    let attack = HttpRequest::get(
        "v.example",
        "/x.php",
        "id=-1+union+select+1,concat(version(),0x3a,user()),3--+-",
    );
    assert!(system.evaluate(&attack).flagged, "missed a classic attack");
    let benign_req = HttpRequest::get("w.example", "/index.php", "page=3&lang=en");
    assert!(
        !system.evaluate(&benign_req).flagged,
        "flagged plain browsing"
    );
}

#[test]
fn detection_rates_are_in_sane_bands() {
    let system = Psigene::train(&small_config());
    let attacks = arachni::generate(&ArachniConfig {
        samples: 300,
        ..Default::default()
    });
    let caught = attacks
        .samples
        .iter()
        .filter(|s| system.evaluate(&s.request).flagged)
        .count();
    let tpr = caught as f64 / attacks.len() as f64;
    assert!(tpr > 0.6, "TPR {tpr} implausibly low");

    let benign = benign::generate(&BenignConfig {
        requests: 3_000,
        include_novel_tail: true,
        seed: 0xd15_7e57,
        ..Default::default()
    });
    let fps = benign
        .samples
        .iter()
        .filter(|s| system.evaluate(&s.request).flagged)
        .count();
    let fpr = fps as f64 / benign.len() as f64;
    assert!(fpr < 0.01, "FPR {fpr} implausibly high ({fps} alarms)");
}

#[test]
fn training_is_deterministic_per_seed() {
    let a = Psigene::train(&small_config());
    let b = Psigene::train(&small_config());
    assert_eq!(a.signatures().len(), b.signatures().len());
    for (sa, sb) in a.signatures().iter().zip(b.signatures()) {
        assert_eq!(sa.feature_indices, sb.feature_indices);
        assert_eq!(sa.training_samples, sb.training_samples);
        assert!((sa.model.bias - sb.model.bias).abs() < 1e-12);
    }
}

#[test]
fn threshold_monotonicity() {
    let system = Psigene::train(&small_config());
    let attacks = arachni::generate(&ArachniConfig {
        samples: 120,
        ..Default::default()
    });
    let count_at = |t: f64| -> usize {
        let sys = system.with_threshold(t);
        attacks
            .samples
            .iter()
            .filter(|s| sys.evaluate(&s.request).flagged)
            .count()
    };
    let strict = count_at(0.9);
    let default = count_at(0.5);
    let lax = count_at(0.1);
    assert!(
        lax >= default && default >= strict,
        "{lax} >= {default} >= {strict}"
    );
}

/// A request that carries a query *and* a body is scanned on both: an
/// injection in the body cannot hide behind an innocuous query.
#[test]
fn a_query_does_not_hide_the_body_from_any_engine() {
    let body = "pass=' or 1=1--";
    let wire = format!("POST /login?x=1 HTTP/1.1\r\nHost: h\r\n\r\n{body}");
    let both = parse_request(wire.as_bytes()).unwrap();
    let body_only = HttpRequest::post("h", "/login", body);
    assert_eq!(both.detection_payload(), format!("x=1&{body}").as_bytes());

    let system = Psigene::train(&small_config());
    let engines: [&dyn DetectionEngine; 4] = [
        &system,
        &BroEngine::new(),
        &SnortEngine::new(),
        &ModsecEngine::new(),
    ];
    for engine in engines {
        assert!(engine.evaluate(&body_only).flagged, "{}", engine.name());
        assert!(engine.evaluate(&both).flagged, "{}", engine.name());
    }
}
