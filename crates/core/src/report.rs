//! Diagnostics recorded during a pipeline run.

/// Per-bicluster diagnostics (one row of Table VI, plus bookkeeping).
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// 1-based bicluster id (largest first).
    pub id: usize,
    /// Number of attack samples assigned to the cluster.
    pub samples: usize,
    /// Features selected by biclustering.
    pub features_biclustering: usize,
    /// Features surviving logistic-regression pruning.
    pub features_signature: usize,
    /// Whether the cluster was a black hole (no signature generated).
    pub black_hole: bool,
    /// Zero fraction of the cluster's rows × all-features submatrix.
    pub zero_fraction: f64,
}

/// Wall-clock cost of each pipeline phase, in seconds. Zero means the
/// phase did not run in this invocation (e.g.
/// [`Psigene::train_from_datasets`](crate::Psigene::train_from_datasets)
/// skips the crawl). The same durations are recorded as
/// `span.pipeline.*` histograms in the global telemetry registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: webcrawling + benign-corpus generation.
    pub crawl: f64,
    /// Phase 2: feature extraction over both corpora.
    pub extract: f64,
    /// Phase 3: biclustering and membership assignment.
    pub bicluster: f64,
    /// Phase 4: per-cluster logistic-regression training.
    pub train: f64,
}

impl PhaseTimings {
    /// Total wall-clock across the recorded phases.
    pub fn total(&self) -> f64 {
        self.crawl + self.extract + self.bicluster + self.train
    }
}

/// Everything the pipeline learned about its own run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Raw feature-library size (the paper's 477 analog).
    pub initial_features: usize,
    /// Features surviving the §II-B pruning (the paper's 159 analog).
    pub pruned_features: usize,
    /// How many pruned features behaved as binary on the training
    /// matrix (the paper: 70 of 159).
    pub binary_features: usize,
    /// Zero fraction of the training matrix (the paper: ~85 %).
    pub matrix_sparsity: f64,
    /// Fraction of cells equal to one (the paper: ~6 %).
    pub matrix_ones_fraction: f64,
    /// Cophenetic correlation coefficient of the row dendrogram (the
    /// paper: 0.92).
    pub cophenetic_correlation: f64,
    /// The row-cut k chosen by the bicluster selection.
    pub chosen_k: usize,
    /// Rows the clustering left uncovered (training noise).
    pub unclustered_samples: usize,
    /// How many rows were clustered directly vs assigned to the
    /// nearest centroid (scale deviation bookkeeping).
    pub clustered_directly: usize,
    /// Per-cluster details (Table VI).
    pub clusters: Vec<ClusterInfo>,
    /// Wall-clock spent in each phase.
    pub phase_seconds: PhaseTimings,
}

impl PipelineReport {
    /// Renders Table VI as aligned text.
    pub fn render_table_vi(&self) -> String {
        let mut out =
            String::from("BICLUSTER  SAMPLES  FEATURES(BICLUSTERING)  FEATURES(SIGNATURE)\n");
        for c in &self.clusters {
            if c.black_hole {
                out.push_str(&format!(
                    "{:>9}  {:>7}  {:>22}  {:>19}\n",
                    c.id, c.samples, c.features_biclustering, "(black hole)"
                ));
            } else {
                out.push_str(&format!(
                    "{:>9}  {:>7}  {:>22}  {:>19}\n",
                    c.id, c.samples, c.features_biclustering, c.features_signature
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_black_holes() {
        let r = PipelineReport {
            clusters: vec![
                ClusterInfo {
                    id: 1,
                    samples: 100,
                    features_biclustering: 90,
                    features_signature: 33,
                    black_hole: false,
                    zero_fraction: 0.8,
                },
                ClusterInfo {
                    id: 9,
                    samples: 20,
                    features_biclustering: 2,
                    features_signature: 0,
                    black_hole: true,
                    zero_fraction: 0.995,
                },
            ],
            ..PipelineReport::default()
        };
        let text = r.render_table_vi();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("(black hole)"));
    }
}
