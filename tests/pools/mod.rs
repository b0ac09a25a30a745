//! The end-to-end benchmark's request pools, shared by the integration
//! tests that hold a fast path to its oracle on benchmark traffic:
//! generator requests serialised with `to_wire()` and parsed back.

use psigene::psigene_corpus::arachni::{self, ArachniConfig};
use psigene::psigene_corpus::benign::{self, BenignConfig};
use psigene::psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene::psigene_corpus::{Dataset, ObfuscationProfile};
use psigene::psigene_http::{parse_request, HttpRequest};

/// The generator pools of one seed, `n` requests each, as
/// `parse_request` reads their wire bytes.
pub fn pools(n: usize, seed: u64) -> Vec<(&'static str, Vec<HttpRequest>)> {
    let twice = ObfuscationProfile {
        url_encode: 1.0,
        double_encode: 1.0,
        ..ObfuscationProfile::sqlmap()
    };
    let datasets = [
        (
            "sqlmap",
            sqlmap::generate(&SqlmapConfig {
                samples: n,
                seed,
                ..Default::default()
            }),
        ),
        (
            "arachni",
            arachni::generate(&ArachniConfig {
                samples: n,
                seed,
                ..Default::default()
            }),
        ),
        (
            "sqlmap encoded twice",
            sqlmap::generate(&SqlmapConfig {
                samples: n,
                seed,
                profile: twice,
            }),
        ),
        (
            "benign",
            benign::generate(&BenignConfig {
                requests: n,
                sqlish_fraction: 0.03,
                include_novel_tail: true,
                // The benchmark derives its benign seed the same way.
                seed: seed ^ 0xbe91_6e00,
            }),
        ),
    ];
    datasets
        .into_iter()
        .map(|(name, data): (&str, Dataset)| {
            let requests = data
                .samples
                .iter()
                .map(|s| parse_request(&s.request.to_wire()).expect("generated requests parse"))
                .collect();
            (name, requests)
        })
        .collect()
}
