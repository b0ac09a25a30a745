//! SQLmap-style attack traffic generator.
//!
//! The paper's second test set comes from running SQLmap against a
//! deliberately vulnerable web application with 136 vulnerabilities,
//! producing over 7 200 attack samples (§III-B). SQLmap enumerates a
//! fixed set of techniques (boolean-blind, error-based, union,
//! stacked, time-blind — "BEUST") systematically per parameter; this
//! generator reproduces that systematic structure against the
//! vulnerability catalog.

use crate::dataset::{Dataset, Label, Sample, Source};
use crate::families::{obfuscate, raw_payload_styled, AttackFamily, ObfuscationProfile};
use crate::sqli::PayloadStyle;
use crate::vulndb::{catalog, Vulnerability};
use psigene_http::HttpRequest;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for the SQLmap-style scan.
#[derive(Debug, Clone)]
pub struct SqlmapConfig {
    /// Number of attack requests to generate.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Obfuscation profile (defaults to [`ObfuscationProfile::sqlmap`]).
    pub profile: ObfuscationProfile,
}

impl Default for SqlmapConfig {
    fn default() -> SqlmapConfig {
        SqlmapConfig {
            samples: 7200,
            seed: 0x0051_0ab5,
            profile: ObfuscationProfile::sqlmap(),
        }
    }
}

/// SQLmap's technique mix: systematic per-technique enumeration.
/// Boolean-blind dominates (it is SQLmap's default first probe),
/// followed by error/union/time/stacked, with a tail of
/// order-by/char/info-schema probes used during fingerprinting and
/// exploitation.
const TECHNIQUES: &[(AttackFamily, u32)] = &[
    (AttackFamily::BooleanBlind, 30),
    (AttackFamily::ErrorBased, 15),
    (AttackFamily::UnionBased, 20),
    (AttackFamily::TimeBlind, 12),
    (AttackFamily::Stacked, 5),
    (AttackFamily::OrderByProbe, 8),
    (AttackFamily::Tautology, 4),
    (AttackFamily::CharFunction, 3),
    (AttackFamily::InfoSchema, 2),
    (AttackFamily::EncodedObfuscated, 1),
];

fn weighted_family<R: Rng>(rng: &mut R, mix: &[(AttackFamily, u32)]) -> AttackFamily {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut t = rng.gen_range(0..total);
    for (f, w) in mix {
        if t < *w {
            return *f;
        }
        t -= w;
    }
    mix[0].0
}

/// Runs the simulated scan and returns the attack dataset.
pub fn generate(config: &SqlmapConfig) -> Dataset {
    let vulns = catalog();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut ds = Dataset::new();
    for i in 0..config.samples {
        let vuln = &vulns[i % vulns.len()];
        let family = weighted_family(&mut rng, TECHNIQUES);
        ds.samples.push(attack_request(
            vuln,
            family,
            &config.profile,
            &mut rng,
            Source::Sqlmap,
        ));
    }
    ds
}

/// Builds one attack request against a vulnerability.
pub fn attack_request<R: Rng>(
    vuln: &Vulnerability,
    family: AttackFamily,
    profile: &ObfuscationProfile,
    rng: &mut R,
    source: Source,
) -> Sample {
    let style = match source {
        Source::Sqlmap => PayloadStyle::Sqlmap,
        Source::Arachni => PayloadStyle::Arachni,
        _ => PayloadStyle::Portal,
    };
    let raw = raw_payload_styled(family, rng, style);
    let wire = obfuscate(&raw, family, profile, rng);
    // The payload rides in the vulnerable parameter; scanners keep
    // other parameters at innocuous defaults.
    let query = format!("{}={}", vuln.parameter, wire);
    Sample {
        request: HttpRequest::get("victim.example", &vuln.path, &query),
        label: Label::Attack(family),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_and_labels() {
        let ds = generate(&SqlmapConfig {
            samples: 720,
            ..SqlmapConfig::default()
        });
        assert_eq!(ds.len(), 720);
        assert_eq!(ds.attack_count(), 720);
    }

    #[test]
    fn covers_all_catalog_paths() {
        let ds = generate(&SqlmapConfig {
            samples: 300,
            ..SqlmapConfig::default()
        });
        let paths: std::collections::HashSet<_> = ds
            .samples
            .iter()
            .map(|s| s.request.path().into_owned())
            .collect();
        // The catalog reuses /index.php across several apps, so distinct
        // paths are fewer than catalog entries.
        assert!(paths.len() >= 20, "only {} distinct paths", paths.len());
    }

    #[test]
    fn boolean_blind_dominates_mix() {
        let ds = generate(&SqlmapConfig {
            samples: 3000,
            ..SqlmapConfig::default()
        });
        let hist = ds.family_histogram();
        let get = |f: AttackFamily| hist.iter().find(|(g, _)| *g == f).unwrap().1;
        assert!(get(AttackFamily::BooleanBlind) > get(AttackFamily::Stacked));
        assert!(get(AttackFamily::UnionBased) > get(AttackFamily::InfoSchema));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&SqlmapConfig {
            samples: 40,
            ..Default::default()
        });
        let b = generate(&SqlmapConfig {
            samples: 40,
            ..Default::default()
        });
        let qa: Vec<_> = a
            .samples
            .iter()
            .map(|s| s.request.raw_query().into_owned())
            .collect();
        let qb: Vec<_> = b
            .samples
            .iter()
            .map(|s| s.request.raw_query().into_owned())
            .collect();
        assert_eq!(qa, qb);
    }
}
