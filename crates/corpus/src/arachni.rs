//! Arachni/Vega-style attack traffic generator.
//!
//! The paper's third test set combines Arachni and Vega scans (8 578
//! samples, §III-B), reported jointly "as they provide similar
//! insights". Compared to SQLmap these scanners fuzz harder: more
//! encodings, more quote variants, a flatter technique mix.

use crate::dataset::{Dataset, Source};
use crate::families::{AttackFamily, ObfuscationProfile};
use crate::sqlmap::attack_request;
use crate::vulndb::catalog;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for the Arachni/Vega-style scan.
#[derive(Debug, Clone)]
pub struct ArachniConfig {
    /// Number of attack requests to generate.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Obfuscation profile (defaults to [`ObfuscationProfile::arachni`]).
    pub profile: ObfuscationProfile,
}

impl Default for ArachniConfig {
    fn default() -> ArachniConfig {
        ArachniConfig {
            samples: 8578,
            seed: 0xa2ac_0b11,
            profile: ObfuscationProfile::arachni(),
        }
    }
}

/// Flatter family mix than SQLmap, with a heavier obfuscated tail.
const MIX: &[(AttackFamily, u32)] = &[
    (AttackFamily::Tautology, 18),
    (AttackFamily::UnionBased, 16),
    (AttackFamily::BooleanBlind, 14),
    (AttackFamily::TimeBlind, 10),
    (AttackFamily::ErrorBased, 8),
    (AttackFamily::CommentObfuscated, 8),
    (AttackFamily::EncodedObfuscated, 10),
    (AttackFamily::CharFunction, 6),
    (AttackFamily::InfoSchema, 4),
    (AttackFamily::OrderByProbe, 3),
    (AttackFamily::Stacked, 2),
    (AttackFamily::OutOfBand, 1),
];

/// Runs the simulated scan and returns the attack dataset.
pub fn generate(config: &ArachniConfig) -> Dataset {
    let vulns = catalog();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let total: u32 = MIX.iter().map(|(_, w)| w).sum();
    let mut ds = Dataset::new();
    for i in 0..config.samples {
        let vuln = &vulns[i % vulns.len()];
        let mut t = rng.gen_range(0..total);
        let mut family = MIX[0].0;
        for (f, w) in MIX {
            if t < *w {
                family = *f;
                break;
            }
            t -= w;
        }
        ds.samples.push(attack_request(
            vuln,
            family,
            &config.profile,
            &mut rng,
            Source::Arachni,
        ));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Label;

    #[test]
    fn generates_all_attacks() {
        let ds = generate(&ArachniConfig {
            samples: 858,
            ..ArachniConfig::default()
        });
        assert_eq!(ds.len(), 858);
        assert_eq!(ds.attack_count(), 858);
        assert!(ds.samples.iter().all(|s| s.source == Source::Arachni));
    }

    #[test]
    fn encoded_share_is_heavier_than_sqlmap() {
        let a = generate(&ArachniConfig {
            samples: 4000,
            ..Default::default()
        });
        let s = crate::sqlmap::generate(&crate::sqlmap::SqlmapConfig {
            samples: 4000,
            ..Default::default()
        });
        let count_enc = |ds: &Dataset| {
            ds.samples
                .iter()
                .filter(|x| {
                    matches!(
                        x.label,
                        Label::Attack(AttackFamily::EncodedObfuscated)
                            | Label::Attack(AttackFamily::CommentObfuscated)
                    )
                })
                .count()
        };
        assert!(count_enc(&a) > count_enc(&s));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&ArachniConfig {
            samples: 30,
            ..Default::default()
        });
        let b = generate(&ArachniConfig {
            samples: 30,
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
