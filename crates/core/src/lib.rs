//! # pSigene — webcrawling to generalize SQL injection signatures
//!
//! A from-scratch reproduction of *pSigene: Webcrawling to Generalize
//! SQL Injection Signatures* (Modelo-Howard, Gutierrez, Arshad,
//! Bagchi, Qi — DSN 2014).
//!
//! pSigene generates *generalized* probabilistic signatures in four
//! phases (Figure 1 of the paper):
//!
//! 1. **Webcrawling** — collect SQLi attack samples from public
//!    cybersecurity portals ([`psigene_corpus`]);
//! 2. **Feature extraction** — count-valued regex features from MySQL
//!    reserved words, deconstructed IDS signatures and SQLi reference
//!    documents ([`psigene_features`]);
//! 3. **Biclustering** — two-way UPGMA hierarchical clustering of the
//!    sample×feature matrix, with the 5 %-of-samples selection rule
//!    and black-hole filtering ([`psigene_cluster`]);
//! 4. **Signature generation** — one logistic-regression model per
//!    bicluster, trained on the cluster's attack samples plus benign
//!    traffic, with Θ found by Newton-CG over a preconditioned
//!    conjugate-gradient inner solver ([`psigene_learn`]).
//!
//! The resulting [`Psigene`] implements the same
//! [`DetectionEngine`](psigene_rulesets::DetectionEngine) trait as
//! the comparison systems (Bro-, Snort/ET- and ModSecurity-style
//! engines from [`psigene_rulesets`]), so the paper's Table V
//! evaluation is a uniform loop over engines.
//!
//! # Quickstart
//!
//! ```
//! use psigene::{PipelineConfig, Psigene};
//! use psigene_http::HttpRequest;
//! use psigene_rulesets::DetectionEngine;
//!
//! // Train at toy scale (fast); see PipelineConfig::paper_scale for
//! // the real thing.
//! let mut config = PipelineConfig::small();
//! config.crawl_samples = 200;
//! config.benign_train = 800;
//! let system = Psigene::train(&config);
//!
//! let attack = HttpRequest::get(
//!     "victim.example", "/item.php",
//!     "id=-1+union+select+1,concat(user(),0x3a,version()),3--+-",
//! );
//! let verdict = system.evaluate(&attack);
//! println!("flagged: {} (p = {:.3})", verdict.flagged, verdict.score);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detector;
pub mod incremental;
pub mod insight;
pub mod pipeline;
mod plan;
pub mod report;
pub mod signature;

pub use config::PipelineConfig;
pub use incremental::UpdateStats;
pub use insight::{DriftScores, EngineInsight};
pub use pipeline::Psigene;
pub use report::{ClusterInfo, PipelineReport};
pub use signature::GeneralizedSignature;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use psigene_cluster;
pub use psigene_corpus;
pub use psigene_features;
pub use psigene_http;
pub use psigene_learn;
pub use psigene_linalg;
pub use psigene_regex;
pub use psigene_rulesets;
