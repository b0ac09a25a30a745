//! Whole-path exactness of feature extraction on attack-shaped
//! traffic: for every payload, `extract_row` — fused scan, the counts
//! the scan makes itself and the counting automata — equals the nonzero
//! entries of the per-feature oracle (`common::oracle_dense`, the
//! backtracker behind `Feature::count`), for the whole shipped library
//! and for the features a default-config training run keeps; and that
//! system's `evaluate` is the oracle's verdict, bit for bit.
//!
//! The payloads are what the end-to-end benchmark replays: generator
//! requests serialised with `to_wire()` and parsed back, sqlmap and
//! arachni attacks, sqlmap attacks percent-encoded twice and benign
//! traffic. Arbitrary bytes rarely spell a keyword; these reach the
//! scan-counted keywords, quotes and comments on nearly every request.

mod common;
mod pools;

use pools::pools;
use psigene::psigene_features::extract::extract_row;
use psigene::psigene_features::FeatureSet;
use psigene::psigene_http::HttpRequest;
use psigene::psigene_rulesets::DetectionEngine;
use psigene::{PipelineConfig, Psigene};

/// A default-config training run, as the benchmark trains it.
fn default_system() -> Psigene {
    Psigene::train(&PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    })
}

/// Asserts, on every request of `pools`, that `extract_row` equals the
/// oracle's nonzero counts over the full library and over `system`'s
/// features, and that `system.evaluate` is the oracle's verdict.
fn assert_extraction_is_the_oracle(system: &Psigene, pools: &[(&str, Vec<HttpRequest>)]) {
    let full = FeatureSet::full();
    for (name, requests) in pools {
        assert!(!requests.is_empty(), "{name}: empty pool");
        for r in requests {
            let p = r.detection_payload();
            for set in [&full, system.feature_set()] {
                let want: Vec<(usize, f64)> = common::oracle_dense(set, p)
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, v)| v != 0.0)
                    .collect();
                assert_eq!(
                    extract_row(set, p),
                    want,
                    "{name} payload {:?} over {} features",
                    String::from_utf8_lossy(p),
                    set.len()
                );
            }
            let (got, want) = (system.evaluate(r), common::oracle_detection(system, r));
            assert!(
                common::same_bits(&got, &want),
                "{name} payload {:?}: {got:?} vs oracle {want:?}",
                String::from_utf8_lossy(p)
            );
        }
    }
}

#[test]
fn extraction_is_the_oracle_on_generator_traffic() {
    assert_extraction_is_the_oracle(&default_system(), &pools(1_000, 0x5eed_0031));
}

/// The benchmark's pool size and seeds, one thread per seed.
/// Release-only in practice: `scripts/ci.sh` runs it with
/// `cargo test --release … -- --ignored`.
#[test]
#[ignore]
fn extraction_is_the_oracle_on_benchmark_sized_pools() {
    let system = default_system();
    std::thread::scope(|scope| {
        for seed in [1, 7] {
            let system = &system;
            scope.spawn(move || assert_extraction_is_the_oracle(system, &pools(20_000, seed)));
        }
    });
}
