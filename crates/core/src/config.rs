//! Pipeline configuration.

use psigene_cluster::BiclusterConfig;
use psigene_corpus::ObfuscationProfile;
use psigene_learn::TrainOptions;

/// Everything that parameterizes a pSigene training run.
///
/// The defaults are a 1/10-scale version of the paper's experiment
/// (30 000 crawled samples, 240 000 benign training requests); rates
/// rather than absolute counts are the reproduction targets, so the
/// scale knob trades fidelity for wall-clock.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Master seed; every internal generator derives from it.
    pub seed: u64,
    /// Number of attack samples to crawl from the simulated portals.
    pub crawl_samples: usize,
    /// Obfuscation profile of the portal-published samples.
    pub portal_profile: ObfuscationProfile,
    /// Number of benign requests in the training trace.
    pub benign_train: usize,
    /// Fraction of benign training requests that legitimately carry
    /// SQL keywords.
    pub benign_sqlish_fraction: f64,
    /// Maximum rows fed to the O(n²) HAC; when the corpus is larger,
    /// a seeded sample is clustered and the remaining rows are
    /// assigned to the nearest bicluster centroid (documented
    /// deviation — the paper clustered all 30 000 rows offline in
    /// MATLAB).
    pub cluster_sample_cap: usize,
    /// Biclustering parameters (5 % rule, target 11 clusters, ...).
    pub bicluster: BiclusterConfig,
    /// Logistic-regression training options.
    pub train: TrainOptions,
    /// Probability threshold above which a signature flags a request.
    pub threshold: f64,
    /// Keep only the largest `max_signatures` non-black-hole
    /// signatures (the paper evaluates 7- and 9-signature sets);
    /// `None` keeps all.
    pub max_signatures: Option<usize>,
    /// Worker threads for the parallel training stages: feature
    /// extraction, pairwise distances, nearest-centroid assignment
    /// and per-bicluster signature fitting. Results are bit-identical
    /// for every value.
    pub threads: usize,
    /// Use binary (presence/absence) features instead of counts —
    /// the variant the paper evaluated and rejected ("this did not
    /// produce good results", §II-B). Kept for the ablation bench.
    pub binary_features: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            seed: 0x0051_6e61,
            crawl_samples: 3000,
            portal_profile: ObfuscationProfile::portal(),
            benign_train: 24_000,
            benign_sqlish_fraction: 0.01,
            cluster_sample_cap: 1500,
            bicluster: BiclusterConfig {
                // The paper's "rule of 5 %" is a cluster-size bar on a
                // 30 000-sample heat map; at 1/10 scale the same
                // visual granularity corresponds to a lower fraction.
                min_row_fraction: 0.02,
                // Selecting for ~10 qualifying clusters lands the cut
                // where the dominant union cluster still holds ~45 %
                // of samples (the paper's largest bicluster is 44 %).
                target_biclusters: 10,
                // Our feature library is wider than the paper's 159,
                // so the ">99 % zeros" black-hole bar lands slightly
                // lower on the wider matrix.
                black_hole_threshold: 0.965,
                ..BiclusterConfig::default()
            },
            train: TrainOptions::default(),
            threshold: 0.5,
            max_signatures: None,
            threads: 4,
            binary_features: false,
        }
    }
}

impl PipelineConfig {
    /// A small configuration for tests and examples (fast, still
    /// exercises every phase).
    pub fn small() -> PipelineConfig {
        PipelineConfig {
            crawl_samples: 400,
            benign_train: 2_000,
            cluster_sample_cap: 400,
            ..PipelineConfig::default()
        }
    }

    /// Scales the corpus sizes by `factor` relative to the paper's
    /// experiment (factor 1.0 = 30 000 attacks / 240 000 benign).
    pub fn paper_scale(factor: f64) -> PipelineConfig {
        let f = factor.max(0.001);
        PipelineConfig {
            crawl_samples: (30_000.0 * f) as usize,
            benign_train: (240_000.0 * f) as usize,
            ..PipelineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_tenth_scale() {
        let c = PipelineConfig::default();
        assert_eq!(c.crawl_samples, 3000);
        assert_eq!(c.benign_train, 24_000);
        assert_eq!(c.threshold, 0.5);
        assert!(c.max_signatures.is_none());
    }

    #[test]
    fn paper_scale_factors() {
        let c = PipelineConfig::paper_scale(1.0);
        assert_eq!(c.crawl_samples, 30_000);
        assert_eq!(c.benign_train, 240_000);
        let s = PipelineConfig::paper_scale(0.01);
        assert_eq!(s.crawl_samples, 300);
    }

    #[test]
    fn small_is_smaller() {
        let s = PipelineConfig::small();
        let d = PipelineConfig::default();
        assert!(s.crawl_samples < d.crawl_samples);
        assert!(s.benign_train < d.benign_train);
    }
}
