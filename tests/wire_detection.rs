//! Detection from the wire: a request serialised with `to_wire()` and
//! read back by `parse_request` is judged as the request itself is.
//!
//! `to_wire` percent-encodes the query bytes a request target cannot
//! carry — spaces, controls, non-ASCII and `#` — and the first
//! percent-decoding sweep of normalization maps them back, so the
//! features, the scores and the verdicts do not change. Without the
//! escapes the parser ends the target at the first space and the
//! detector sees a truncated attack: on the end-to-end benchmark's
//! sqlmap pool that cut 28.6 % of the payloads and every one of them
//! went undetected.

use psigene::psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene::psigene_http::parse_request;
use psigene::psigene_rulesets::DetectionEngine;
use psigene::{PipelineConfig, Psigene};

/// The flags of `system` on `n` sqlmap attacks of `seed`, in memory
/// and through the wire, and how many payloads the wire escaped.
fn flags_both_ways(system: &Psigene, n: usize, seed: u64) -> (Vec<bool>, Vec<bool>, usize) {
    let attacks = sqlmap::generate(&SqlmapConfig {
        samples: n,
        seed,
        ..SqlmapConfig::default()
    });
    let (mut memory, mut wire, mut escaped) = (Vec::new(), Vec::new(), 0);
    for sample in &attacks.samples {
        let request = &sample.request;
        let parsed = parse_request(&request.to_wire()).expect("generated requests parse");
        escaped += usize::from(parsed.detection_payload() != request.detection_payload());
        memory.push(system.evaluate(request).flagged);
        wire.push(system.evaluate(&parsed).flagged);
    }
    (memory, wire, escaped)
}

/// The true-positive rate of `flags` (every request is an attack).
fn tpr(flags: &[bool]) -> f64 {
    flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64
}

/// Asserts that the wire path flags exactly what the in-memory path
/// does on `n` sqlmap attacks of `seed`, and that the wire escaped a
/// good share of them, so the comparison is not vacuous.
fn assert_wire_tpr_is_memory_tpr(system: &Psigene, n: usize, seed: u64) {
    let (memory, wire, escaped) = flags_both_ways(system, n, seed);
    assert!(
        escaped * 5 > n,
        "seed {seed}: only {escaped} of {n} payloads carry bytes the wire escapes"
    );
    assert_eq!(
        tpr(&wire),
        tpr(&memory),
        "seed {seed}: wire TPR vs in-memory TPR ({escaped} of {n} escaped)"
    );
    assert_eq!(wire, memory, "seed {seed}: per-request verdicts");
}

#[test]
fn wire_tpr_is_the_in_memory_tpr_on_sqlmap() {
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: 300,
        benign_train: 1200,
        cluster_sample_cap: 300,
        threads: 2,
        ..PipelineConfig::default()
    });
    assert_wire_tpr_is_memory_tpr(&system, 2_000, 0x5eed_0038);
}

/// The benchmark's pool size and seeds on a default-config system, as
/// the benchmark trains it. Release-only in practice: `scripts/ci.sh`
/// runs it with `cargo test --release … -- --ignored`.
#[test]
#[ignore]
fn wire_tpr_is_the_in_memory_tpr_on_benchmark_sized_pools() {
    let system = Psigene::train(&PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    });
    std::thread::scope(|scope| {
        for seed in [1, 7] {
            let system = &system;
            scope.spawn(move || assert_wire_tpr_is_memory_tpr(system, 20_000, seed));
        }
    });
}
