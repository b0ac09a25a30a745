//! Heat-map export (Figure 2 of the paper).
//!
//! The paper's Figure 2 is a column-standardized heat map of the
//! sample×feature matrix, reordered by the row and column
//! dendrograms, with the selected biclusters drawn on top. This
//! module produces the same artifact as data: a reordered
//! standardized matrix with cluster annotations, exportable as a PGM
//! image or as coarse ASCII art for terminals.

use crate::bicluster::BiclusterResult;
use crate::dendrogram::Dendrogram;
use crate::hac::cluster_condensed;
use crate::linkage::Linkage;
use psigene_linalg::distance::condensed_len;
use psigene_linalg::stats::standardize_columns;
use psigene_linalg::{CsrMatrix, Matrix};

/// The assembled heat map.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Standardized values, rows/cols already permuted to dendrogram
    /// order.
    pub values: Matrix,
    /// Row permutation applied (original index per display position).
    pub row_order: Vec<usize>,
    /// Column permutation applied.
    pub col_order: Vec<usize>,
    /// For each display row, the 1-based bicluster id (0 = none).
    pub row_cluster: Vec<usize>,
}

/// Builds the heat map for a biclustering result.
pub fn build(m: &CsrMatrix, result: &BiclusterResult) -> Heatmap {
    let dense = m.to_dense();
    let standardized = standardize_columns(&dense);

    let row_order = result.row_dendrogram.leaf_order();
    let col_order = column_order(&dense);

    let mut values = Matrix::zeros(dense.rows(), dense.cols());
    for (ri, &r) in row_order.iter().enumerate() {
        for (ci, &c) in col_order.iter().enumerate() {
            values.set(ri, ci, standardized.get(r, c));
        }
    }
    let mut cluster_of_row = vec![0usize; dense.rows()];
    for bc in &result.biclusters {
        for &r in &bc.rows {
            cluster_of_row[r] = bc.id;
        }
    }
    let row_cluster = row_order.iter().map(|&r| cluster_of_row[r]).collect();
    Heatmap {
        values,
        row_order,
        col_order,
        row_cluster,
    }
}

/// Orders columns by their own UPGMA dendrogram (the heat map's
/// second dendrogram).
fn column_order(dense: &Matrix) -> Vec<usize> {
    let ncols = dense.cols();
    if ncols <= 2 {
        return (0..ncols).collect();
    }
    let mut cond = Vec::with_capacity(condensed_len(ncols));
    for i in 0..ncols {
        let ci = dense.col(i);
        for j in (i + 1)..ncols {
            let cj = dense.col(j);
            cond.push(psigene_linalg::vector::distance(&ci, &cj));
        }
    }
    let dend: Dendrogram = cluster_condensed(ncols, &mut cond, Linkage::Average);
    dend.leaf_order()
}

impl Heatmap {
    /// Binary PGM (P5) export; values clamped to ±2σ and mapped to
    /// 0..=255 (black = mean, as in the paper's black/red/green map
    /// collapsed to gray).
    pub fn to_pgm(&self) -> Vec<u8> {
        let (h, w) = (self.values.rows(), self.values.cols());
        let mut out = format!("P5\n{w} {h}\n255\n").into_bytes();
        for r in 0..h {
            for &v in self.values.row(r) {
                let clamped = v.clamp(-2.0, 2.0);
                out.push(((clamped + 2.0) / 4.0 * 255.0) as u8);
            }
        }
        out
    }

    /// Coarse ASCII rendering (`rows × cols` capped) for terminals.
    pub fn to_ascii(&self, max_rows: usize, max_cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let (h, w) = (self.values.rows(), self.values.cols());
        let rstep = (h / max_rows.max(1)).max(1);
        let cstep = (w / max_cols.max(1)).max(1);
        let mut out = String::new();
        let mut r = 0;
        while r < h {
            let mut line = String::new();
            let mut c = 0;
            while c < w {
                // Average the block.
                let mut s = 0.0;
                let mut n = 0;
                for rr in r..(r + rstep).min(h) {
                    for cc in c..(c + cstep).min(w) {
                        s += self.values.get(rr, cc).abs();
                        n += 1;
                    }
                }
                let v = (s / n.max(1) as f64).clamp(0.0, 2.0) / 2.0;
                let idx = ((RAMP.len() - 1) as f64 * v) as usize;
                line.push(RAMP[idx] as char);
                c += cstep;
            }
            let cluster = self.row_cluster[r];
            out.push_str(&format!(
                "{line} |{}\n",
                if cluster == 0 {
                    "-".into()
                } else {
                    cluster.to_string()
                }
            ));
            r += rstep;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicluster::{bicluster, BiclusterConfig};
    use psigene_linalg::CsrBuilder;

    fn blocked_matrix() -> CsrMatrix {
        let mut b = CsrBuilder::new(6);
        for _ in 0..20 {
            b.push_dense_row(&[3.0, 3.0, 3.0, 0.0, 0.0, 0.0]);
        }
        for _ in 0..20 {
            b.push_dense_row(&[0.0, 0.0, 0.0, 2.0, 2.0, 2.0]);
        }
        b.build()
    }

    fn result() -> (CsrMatrix, BiclusterResult) {
        let m = blocked_matrix();
        let r = bicluster(
            &m,
            &BiclusterConfig {
                target_biclusters: 2,
                ..BiclusterConfig::default()
            },
        );
        (m, r)
    }

    #[test]
    fn heatmap_rows_are_grouped_by_cluster() {
        let (m, r) = result();
        let hm = build(&m, &r);
        // Cluster labels along display order change at most twice
        // (0-labels aside): contiguous blocks.
        let mut changes = 0;
        for w in hm.row_cluster.windows(2) {
            if w[0] != w[1] {
                changes += 1;
            }
        }
        assert!(
            changes <= 2,
            "row clusters not contiguous: {changes} changes"
        );
    }

    #[test]
    fn pgm_is_well_formed() {
        let (m, r) = result();
        let hm = build(&m, &r);
        let pgm = hm.to_pgm();
        assert!(pgm.starts_with(b"P5\n6 40\n255\n"));
        assert_eq!(pgm.len(), b"P5\n6 40\n255\n".len() + 240);
    }

    #[test]
    fn ascii_render_is_bounded() {
        let (m, r) = result();
        let hm = build(&m, &r);
        let art = hm.to_ascii(10, 10);
        assert!(art.lines().count() <= 12);
        assert!(!art.is_empty());
    }

    #[test]
    fn permutations_are_bijections() {
        let (m, r) = result();
        let hm = build(&m, &r);
        let mut rows = hm.row_order.clone();
        rows.sort_unstable();
        assert_eq!(rows, (0..40).collect::<Vec<_>>());
        let mut cols = hm.col_order.clone();
        cols.sort_unstable();
        assert_eq!(cols, (0..6).collect::<Vec<_>>());
    }
}
