//! Two-way biclustering (§II-C of the paper).
//!
//! "The way biclustering worked is first it did a clustering of the
//! samples and then within each cluster, it clustered by the
//! features. Thus, it identified what were the discriminating
//! features for each cluster."
//!
//! Accordingly: rows are clustered once by HAC/UPGMA; each selected
//! row cluster (the 5 %-of-samples rule) then gets its *own* column
//! clustering over its submatrix, and the active column groups become
//! that bicluster's feature set. Black holes — biclusters whose
//! submatrix is >99 % zeros — are flagged and later skipped for
//! signature generation (biclusters 9 and 10 in the paper's Figure 2).

use crate::dendrogram::Dendrogram;
use crate::hac::{cluster_condensed, cluster_sparse_rows};
use crate::linkage::Linkage;
use psigene_linalg::distance::condensed_len;
use psigene_linalg::CsrMatrix;

/// One bicluster: a set of sample rows and the feature columns that
/// characterize them.
#[derive(Debug, Clone)]
pub struct Bicluster {
    /// 1-based display id (stable across a run, ordered by size).
    pub id: usize,
    /// Row (sample) indices, ascending.
    pub rows: Vec<usize>,
    /// Column (feature) indices selected by the column clustering,
    /// ascending.
    pub cols: Vec<usize>,
    /// Fraction of zero cells in the rows × *all features* submatrix.
    pub zero_fraction: f64,
    /// True when the bicluster is a black hole (>99 % zeros) and
    /// should not produce a signature.
    pub black_hole: bool,
}

/// How row clusters are selected from the dendrogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionStrategy {
    /// One global flat cut; the `k` whose qualifying-cluster count is
    /// closest to the target wins.
    GlobalCut,
    /// Inconsistency-guided top-down splitting (MATLAB-style): a node
    /// splits when its merge distance exceeds the factor times the
    /// larger child's internal scale; sub-minimum children become
    /// noise.
    Inconsistency {
        /// The split factor γ (≈1.05–1.5; lower splits more).
        gamma: f64,
    },
}

/// Parameters of the biclustering step.
#[derive(Debug, Clone)]
pub struct BiclusterConfig {
    /// Linkage for both row and column clustering (the paper uses
    /// UPGMA).
    pub linkage: Linkage,
    /// Minimum fraction of all samples a row cluster must hold to
    /// become a bicluster (the paper's "rule of 5 %").
    pub min_row_fraction: f64,
    /// Desired number of biclusters (the paper selected 11 from the
    /// heat map); the row-cut `k` is searched to get as close as
    /// possible.
    pub target_biclusters: usize,
    /// Zero fraction above which a bicluster is a black hole.
    pub black_hole_threshold: f64,
    /// A column group is kept if its mean activity within the cluster
    /// is at least this multiple of the feature's global mean.
    pub column_activity_ratio: f64,
    /// Row-cluster selection strategy.
    pub selection: SelectionStrategy,
}

impl Default for BiclusterConfig {
    fn default() -> BiclusterConfig {
        BiclusterConfig {
            linkage: Linkage::Average,
            min_row_fraction: 0.05,
            target_biclusters: 11,
            black_hole_threshold: 0.99,
            column_activity_ratio: 1.5,
            selection: SelectionStrategy::GlobalCut,
        }
    }
}

/// Result of the biclustering step.
#[derive(Debug, Clone)]
pub struct BiclusterResult {
    /// Selected biclusters, largest first (ids are 1-based in this
    /// order, mirroring the paper's cluster numbering).
    pub biclusters: Vec<Bicluster>,
    /// The row dendrogram (for the heat map).
    pub row_dendrogram: Dendrogram,
    /// The row-cut `k` that was chosen.
    pub chosen_k: usize,
    /// Rows not covered by any selected bicluster (training noise).
    pub unclustered_rows: Vec<usize>,
}

/// Runs two-way biclustering on a sparse sample×feature matrix.
///
/// # Panics
/// Panics when the matrix has no rows.
pub fn bicluster(m: &CsrMatrix, config: &BiclusterConfig) -> BiclusterResult {
    assert!(m.rows() > 0, "cannot bicluster an empty matrix");
    let row_dend = cluster_sparse_rows(m, config.linkage);
    bicluster_with_dendrogram(m, row_dend, config)
}

/// Like [`bicluster`] but reusing a row dendrogram the caller already
/// computed (e.g. to also report cophenetic correlation without
/// clustering twice).
///
/// # Panics
/// Panics when the dendrogram size does not match the matrix.
pub fn bicluster_with_dendrogram(
    m: &CsrMatrix,
    row_dend: Dendrogram,
    config: &BiclusterConfig,
) -> BiclusterResult {
    assert_eq!(row_dend.n, m.rows(), "dendrogram/matrix size mismatch");
    let min_rows = ((m.rows() as f64) * config.min_row_fraction)
        .ceil()
        .max(1.0) as usize;

    let (chosen_k, groups): (usize, Vec<Vec<usize>>) = match config.selection {
        SelectionStrategy::Inconsistency { gamma } => {
            let (clusters, _noise) = row_dend.inconsistent_clusters(min_rows, gamma);
            (clusters.len(), clusters)
        }
        SelectionStrategy::GlobalCut => {
            // Score every cut by (qualifying count capped at the
            // target, total samples covered by qualifying clusters)
            // and take the lexicographic best, smallest k on ties.
            // Capping the count keeps coverage decisive once the
            // target is reachable: a coarse cut with ten big clusters
            // beats a shattered cut with twelve small ones — matching
            // the paper, whose largest bicluster still holds 44 % of
            // all samples.
            let max_k = (m.rows() / 4).max(3 * config.target_biclusters + 4);
            let mut best: Option<(usize, usize, usize)> = None; // (count, coverage, k)
            for k in 1..=max_k.min(m.rows()) {
                let labels = row_dend.cut_k(k);
                let mut counts = vec![0usize; k];
                for &l in &labels {
                    counts[l] += 1;
                }
                let qualifying = counts.iter().filter(|&&c| c >= min_rows).count();
                let coverage: usize = counts.iter().filter(|&&c| c >= min_rows).sum();
                let capped = qualifying.min(config.target_biclusters);
                let better = match best {
                    None => true,
                    Some((bc, bcov, _)) => (capped, coverage) > (bc, bcov),
                };
                if better {
                    best = Some((capped, coverage, k));
                }
            }
            let chosen_k = best.map(|(_, _, k)| k).unwrap_or(1);
            let labels = row_dend.cut_k(chosen_k);
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); chosen_k];
            for (row, &label) in labels.iter().enumerate() {
                groups[label].push(row);
            }
            (chosen_k, groups)
        }
    };

    // Keep qualifying row clusters, largest first.
    let mut kept: Vec<Vec<usize>> = groups.into_iter().filter(|g| g.len() >= min_rows).collect();
    kept.sort_by_key(|g| std::cmp::Reverse(g.len()));

    let global_means = m.col_means();
    let mut biclusters = Vec::with_capacity(kept.len());
    let mut covered = vec![false; m.rows()];
    for (i, rows) in kept.into_iter().enumerate() {
        for &r in &rows {
            covered[r] = true;
        }
        let (cols, zero_fraction) = select_columns(m, &rows, &global_means, config);
        let black_hole = zero_fraction > config.black_hole_threshold;
        biclusters.push(Bicluster {
            id: i + 1,
            rows,
            cols,
            zero_fraction,
            black_hole,
        });
    }
    let unclustered_rows = (0..m.rows()).filter(|&r| !covered[r]).collect();
    BiclusterResult {
        biclusters,
        row_dendrogram: row_dend,
        chosen_k,
        unclustered_rows,
    }
}

/// Clusters the columns of the submatrix `rows × all-cols` and keeps
/// the column groups whose within-cluster activity stands out.
/// Returns the selected columns and the submatrix zero fraction.
fn select_columns(
    m: &CsrMatrix,
    rows: &[usize],
    global_means: &[f64],
    config: &BiclusterConfig,
) -> (Vec<usize>, f64) {
    let ncols = m.cols();
    // Column means within the cluster + zero counting.
    let mut col_sums = vec![0.0; ncols];
    let mut nonzero_cells = 0usize;
    for &r in rows {
        for (c, v) in m.row(r) {
            col_sums[c] += v;
            if v != 0.0 {
                nonzero_cells += 1;
            }
        }
    }
    let nrows = rows.len().max(1) as f64;
    let local_means: Vec<f64> = col_sums.iter().map(|s| s / nrows).collect();
    let total_cells = rows.len() * ncols;
    let zero_fraction = if total_cells == 0 {
        1.0
    } else {
        1.0 - nonzero_cells as f64 / total_cells as f64
    };

    // Columns with any activity inside the cluster participate in
    // the column clustering; fully-silent columns cannot
    // discriminate.
    let active: Vec<usize> = (0..ncols).filter(|&c| local_means[c] > 0.0).collect();
    if active.is_empty() {
        return (Vec::new(), zero_fraction);
    }
    if active.len() == 1 {
        return (active, zero_fraction);
    }

    // Column clustering over the activity profile (local mean,
    // local/global ratio): groups columns with similar behavior in
    // this row cluster.
    let profiles: Vec<(f64, f64)> = active
        .iter()
        .map(|&c| {
            let ratio = if global_means[c] > 0.0 {
                local_means[c] / global_means[c]
            } else {
                0.0
            };
            (local_means[c], ratio)
        })
        .collect();
    let na = active.len();
    let mut cond = Vec::with_capacity(condensed_len(na));
    for i in 0..na {
        for j in (i + 1)..na {
            let (a1, b1) = profiles[i];
            let (a2, b2) = profiles[j];
            cond.push(((a1 - a2).powi(2) + (b1 - b2).powi(2)).sqrt());
        }
    }
    let col_dend = cluster_condensed(na, &mut cond, config.linkage);
    // Cut into a handful of column groups and keep the distinctive
    // ones: groups whose mean local/global ratio clears the bar.
    let kcols = na.clamp(2, 4);
    let col_labels = col_dend.cut_k(kcols);
    let mut selected = Vec::new();
    for g in 0..kcols {
        let members: Vec<usize> = (0..na).filter(|&i| col_labels[i] == g).collect();
        if members.is_empty() {
            continue;
        }
        let mean_ratio: f64 =
            members.iter().map(|&i| profiles[i].1).sum::<f64>() / members.len() as f64;
        if mean_ratio >= config.column_activity_ratio {
            selected.extend(members.iter().map(|&i| active[i]));
        }
    }
    // A cluster whose columns are all near global baseline still
    // needs features; fall back to the strongest column group.
    if selected.is_empty() {
        let best_group = (0..kcols)
            .max_by(|&g1, &g2| {
                let mr = |g: usize| {
                    let ms: Vec<usize> = (0..na).filter(|&i| col_labels[i] == g).collect();
                    if ms.is_empty() {
                        f64::NEG_INFINITY
                    } else {
                        ms.iter().map(|&i| profiles[i].1).sum::<f64>() / ms.len() as f64
                    }
                };
                mr(g1)
                    .partial_cmp(&mr(g2))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        selected = (0..na)
            .filter(|&i| col_labels[i] == best_group)
            .map(|i| active[i])
            .collect();
    }
    selected.sort_unstable();
    (selected, zero_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_linalg::CsrBuilder;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds a matrix with `k` planted row blocks, each active on its
    /// own column band.
    fn planted(k: usize, rows_per: usize, cols_per: usize, noise: f64) -> CsrMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let ncols = k * cols_per + 4;
        let mut b = CsrBuilder::new(ncols);
        for block in 0..k {
            for _ in 0..rows_per {
                let mut row = vec![0.0; ncols];
                for c in 0..cols_per {
                    row[block * cols_per + c] = 1.0 + rng.gen_range(0.0..1.0);
                }
                if rng.gen_bool(noise) {
                    row[k * cols_per + rng.gen_range(0..4)] = 1.0;
                }
                b.push_dense_row(&row);
            }
        }
        b.build()
    }

    #[test]
    fn recovers_planted_blocks() {
        let k = 4;
        let m = planted(k, 30, 3, 0.05);
        let result = bicluster(
            &m,
            &BiclusterConfig {
                target_biclusters: k,
                ..BiclusterConfig::default()
            },
        );
        assert_eq!(result.biclusters.len(), k, "chose k={}", result.chosen_k);
        // Each bicluster's rows should be homogeneous: all from one
        // planted block (blocks are contiguous ranges of 30).
        for bc in &result.biclusters {
            let block_of = |r: usize| r / 30;
            let b0 = block_of(bc.rows[0]);
            assert!(
                bc.rows.iter().all(|&r| block_of(r) == b0),
                "bicluster {} mixes blocks: {:?}",
                bc.id,
                &bc.rows[..bc.rows.len().min(8)]
            );
            // The selected columns should be the block's band.
            assert!(
                bc.cols.iter().all(|&c| c / 3 == b0 || c >= 12),
                "bicluster {} picked foreign columns {:?}",
                bc.id,
                bc.cols
            );
            assert!(!bc.cols.is_empty());
        }
    }

    #[test]
    fn black_hole_detection() {
        // One active block and one all-zero block.
        let mut b = CsrBuilder::new(6);
        for _ in 0..20 {
            b.push_dense_row(&[2.0, 2.0, 2.0, 0.0, 0.0, 0.0]);
        }
        for _ in 0..20 {
            b.push_dense_row(&[0.0; 6]);
        }
        let m = b.build();
        let result = bicluster(
            &m,
            &BiclusterConfig {
                target_biclusters: 2,
                ..BiclusterConfig::default()
            },
        );
        assert!(result.biclusters.iter().any(|bc| bc.black_hole));
        assert!(result.biclusters.iter().any(|bc| !bc.black_hole));
    }

    #[test]
    fn min_fraction_excludes_tiny_clusters() {
        // 95 rows in one block, 5 outlier rows far away: with a 10%
        // rule the outliers cannot form a bicluster.
        let mut b = CsrBuilder::new(4);
        for _ in 0..95 {
            b.push_dense_row(&[1.0, 1.0, 0.0, 0.0]);
        }
        for i in 0..5 {
            b.push_dense_row(&[0.0, 0.0, 50.0 + i as f64 * 17.0, 5.0]);
        }
        let m = b.build();
        let result = bicluster(
            &m,
            &BiclusterConfig {
                min_row_fraction: 0.10,
                target_biclusters: 2,
                ..BiclusterConfig::default()
            },
        );
        let covered: usize = result.biclusters.iter().map(|bc| bc.rows.len()).sum();
        assert!(covered >= 95);
        assert!(!result.unclustered_rows.is_empty() || covered == 100);
    }

    #[test]
    fn ids_are_ordered_by_size() {
        let m = planted(3, 25, 3, 0.0);
        let result = bicluster(
            &m,
            &BiclusterConfig {
                target_biclusters: 3,
                ..BiclusterConfig::default()
            },
        );
        for w in result.biclusters.windows(2) {
            assert!(w[0].rows.len() >= w[1].rows.len());
        }
        assert_eq!(result.biclusters[0].id, 1);
    }
}
