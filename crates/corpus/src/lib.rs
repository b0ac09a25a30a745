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
    let result = crawler::crawl(
        &corpus.web,
        &corpus.seeds,
        &crawler::CrawlerConfig::default(),
    );
    let mut ds = Dataset::new();
    for s in &result.samples {
        let family = match truth.get(s.payload.as_str()) {
            Some(f) => *f,
            // A payload that was mangled en route would be unlabeled;
            // drop it rather than poison the training labels.
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
