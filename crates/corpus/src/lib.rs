//! Simulated cybersecurity portals, webcrawler, and all traffic
//! generators for the pSigene reproduction.
//!
//! The paper's data dependencies are live internet sources; this
//! crate substitutes deterministic synthetic equivalents that
//! exercise the same code paths (see DESIGN.md §1):
//!
//! * [`portal`] + [`web`] + [`crawler`] — phase 1 of the pipeline:
//!   crawl public portals for attack samples;
//! * [`sqlmap`] / [`arachni`] — the tool-generated TPR test sets;
//! * [`benign`] — the university HTTP trace used for FPR;
//! * [`vulndb`] — the vulnerability catalog (Table I);
//! * [`families`] + [`sqli`] — the shared SQLi payload grammar.
//!
//! # Example: crawl a training corpus
//!
//! ```
//! use psigene_corpus::{crawl_training_set, CrawlCorpusConfig};
//!
//! let ds = crawl_training_set(&CrawlCorpusConfig {
//!     samples: 100,
//!     ..CrawlCorpusConfig::default()
//! });
//! assert_eq!(ds.len(), 100);
//! assert_eq!(ds.attack_count(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arachni;
pub mod benign;
pub mod crawler;
pub mod dataset;
pub mod families;
pub mod portal;
pub mod sqli;
pub mod sqlmap;
pub mod vulndb;
pub mod web;

pub use dataset::{Dataset, Label, Sample, Source};
pub use families::{AttackFamily, ObfuscationProfile};

use psigene_http::HttpRequest;
use std::collections::HashMap;

/// Configuration for [`crawl_training_set`].
#[derive(Debug, Clone)]
pub struct CrawlCorpusConfig {
    /// Number of attack samples to plant (and expect to crawl).
    pub samples: usize,
    /// RNG seed for portal content.
    pub seed: u64,
    /// Obfuscation profile of published samples.
    pub profile: ObfuscationProfile,
}

impl Default for CrawlCorpusConfig {
    fn default() -> CrawlCorpusConfig {
        CrawlCorpusConfig {
            samples: 3000,
            seed: 0xc0a1_e5ce,
            profile: ObfuscationProfile::portal(),
        }
    }
}

/// Runs the full phase-1 path — build portals, crawl them, and wrap
/// every recovered payload into a labeled attack request.
///
/// Ground-truth family labels come from matching crawled payloads
/// back to the planted corpus (exact string match; the crawler is
/// lossless by construction and tested to be).
pub fn crawl_training_set(config: &CrawlCorpusConfig) -> Dataset {
    let corpus = portal::build_portals(&portal::PortalConfig {
        samples: config.samples,
        seed: config.seed,
        profile: config.profile,
    });
    let truth: HashMap<&str, families::AttackFamily> = corpus
        .planted
        .iter()
        .map(|p| (p.payload.as_str(), p.family))
        .collect();
    let result = crawler::crawl(&corpus.web, &corpus.seeds);
    let mut ds = Dataset::new();
    for s in &result.samples {
        let family = match truth.get(s.payload.as_str()) {
            Some(f) => *f,
            // Not taken: the crawl returns exactly the planted payloads
            // (`crawler::tests::crawl_recovers_all_planted_samples`).
            // A payload with no planted twin would have no family, so
            // it is dropped rather than poison the training labels.
            None => continue,
        };
        ds.samples.push(Sample {
            request: HttpRequest::get("victim.example", "/vulnerable.php", &s.payload),
            label: Label::Attack(family),
            source: Source::Crawled {
                portal: s.portal.clone(),
            },
        });
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_training_set_is_complete_and_labeled() {
        let ds = crawl_training_set(&CrawlCorpusConfig {
            samples: 500,
            ..CrawlCorpusConfig::default()
        });
        assert_eq!(ds.len(), 500, "crawler should recover every planted sample");
        assert_eq!(ds.attack_count(), 500);
        // Every sample carries a portal provenance.
        assert!(ds
            .samples
            .iter()
            .all(|s| matches!(&s.source, Source::Crawled { portal } if !portal.is_empty())));
    }

    #[test]
    fn training_set_covers_many_families() {
        let ds = crawl_training_set(&CrawlCorpusConfig {
            samples: 1000,
            ..CrawlCorpusConfig::default()
        });
        let hist = ds.family_histogram();
        let nonzero = hist.iter().filter(|(_, n)| *n > 0).count();
        assert!(nonzero >= 10, "only {nonzero} families represented");
    }

    #[test]
    fn table1_coverage_check() {
        // The paper's heuristic check (§II-A): for every published
        // vulnerability, the crawled dataset contains a sample that
        // could be launched against it — here: a payload injected via
        // a parameter that the catalog lists as injectable.
        let ds = crawl_training_set(&CrawlCorpusConfig {
            samples: 2000,
            ..CrawlCorpusConfig::default()
        });
        let params: std::collections::HashSet<String> = ds
            .samples
            .iter()
            .filter_map(|s| {
                s.request
                    .raw_query()
                    .split('=')
                    .next()
                    .map(|p| p.to_string())
            })
            .collect();
        let mut covered = 0;
        let cat = vulndb::catalog();
        for v in &cat {
            if params.contains(&v.parameter) {
                covered += 1;
            }
        }
        assert!(
            covered as f64 >= 0.9 * cat.len() as f64,
            "only {covered}/{} catalog entries covered",
            cat.len()
        );
    }
}

#[cfg(test)]
mod wire {
    //! The honest wire: a generator request serialised with `to_wire`
    //! and parsed back normalizes to what the request itself does.

    use crate::arachni::{self, ArachniConfig};
    use crate::benign::{self, BenignConfig};
    use crate::portal::{self, PortalConfig};
    use crate::sqlmap::{self, SqlmapConfig};
    use proptest::prelude::*;
    use psigene_http::{normalize_into, parse_request, HttpRequest, NormScratch};

    /// Requests per generator and case.
    const SAMPLES: usize = 200;

    /// The requests of generator `which` (sqlmap, arachni, benign with
    /// both SQL-ish tails, portal plants as the crawler turns them into
    /// requests) for `seed`.
    fn requests(which: usize, seed: u64) -> Vec<HttpRequest> {
        let samples = |ds: crate::Dataset| ds.samples.into_iter().map(|s| s.request).collect();
        match which {
            0 => samples(sqlmap::generate(&SqlmapConfig {
                samples: SAMPLES,
                seed,
                ..SqlmapConfig::default()
            })),
            1 => samples(arachni::generate(&ArachniConfig {
                samples: SAMPLES,
                seed,
                ..ArachniConfig::default()
            })),
            2 => samples(benign::generate(&BenignConfig {
                requests: SAMPLES,
                sqlish_fraction: 0.2,
                include_novel_tail: true,
                seed,
            })),
            _ => portal::build_portals(&PortalConfig {
                samples: SAMPLES,
                seed,
                ..PortalConfig::default()
            })
            .planted
            .iter()
            .map(|s| HttpRequest::get("victim.example", "/vulnerable.php", &s.payload))
            .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The bytes are equal; so are the pass counts, except that a
        /// wire query that carries escapes takes at least two passes
        /// (a sweep that decodes them, then the confirming one) where
        /// the request's first sweep may change nothing and end at one.
        #[test]
        fn the_wire_form_normalizes_like_the_request(which in 0usize..4, seed in any::<u64>()) {
            let (mut memory, mut wire) = (NormScratch::new(), NormScratch::new());
            for request in requests(which, seed) {
                let parsed = parse_request(&request.to_wire()).expect("generated requests parse");
                let want = normalize_into(request.detection_payload(), &mut memory).to_vec();
                let got = normalize_into(parsed.detection_payload(), &mut wire);
                prop_assert_eq!(got, want.as_slice(), "{:?}", request);
                let escaped = parsed.detection_payload() != request.detection_payload();
                let passes = memory.last_passes();
                let want_passes = if escaped { passes.max(2) } else { passes };
                prop_assert_eq!(wire.last_passes(), want_passes, "{:?}", request);
            }
        }
    }
}
