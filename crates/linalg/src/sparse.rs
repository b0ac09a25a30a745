//! Compressed sparse row (CSR) matrices.
//!
//! The sample×feature matrix is ~85 % zeros at paper scale, so the
//! clustering path stores it sparsely; rows are immutable once built.

use crate::dense::Matrix;

/// A CSR matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values`; length `rows + 1`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Incrementally builds a [`CsrMatrix`] row by row.
#[derive(Debug, Default)]
pub struct CsrBuilder {
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Starts a builder for matrices with `cols` columns.
    pub fn new(cols: usize) -> CsrBuilder {
        CsrBuilder {
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a row given `(column, value)` pairs; zero values are
    /// dropped, duplicate columns are summed.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) {
        let mut sorted: Vec<(usize, f64)> = entries.to_vec();
        sorted.sort_by_key(|e| e.0);
        let mut last_col = usize::MAX;
        for (c, v) in sorted {
            assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
            if v == 0.0 {
                continue;
            }
            if c == last_col {
                let lv = self.values.last_mut().expect("previous value");
                *lv += v;
            } else {
                self.col_idx.push(c as u32);
                self.values.push(v);
                last_col = c;
            }
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Appends a row from a dense slice.
    pub fn push_dense_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "dense row width mismatch");
        for (c, &v) in row.iter().enumerate() {
            if v != 0.0 {
                self.col_idx.push(c as u32);
                self.values.push(v);
            }
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Finalizes into an immutable matrix.
    pub fn build(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.row_ptr.len() - 1,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` pairs of row `r`, sorted by column.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(r, c)` (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&(c as u32)) {
            Ok(i) => self.values[lo + i],
            Err(_) => 0.0,
        }
    }

    /// Squared Euclidean distance between two rows; runs in the size
    /// of the two rows' non-zeros.
    pub fn row_distance_sq(&self, a: usize, b: usize) -> f64 {
        let (mut ia, ha) = (self.row_ptr[a], self.row_ptr[a + 1]);
        let (mut ib, hb) = (self.row_ptr[b], self.row_ptr[b + 1]);
        let mut acc = 0.0;
        while ia < ha && ib < hb {
            let ca = self.col_idx[ia];
            let cb = self.col_idx[ib];
            match ca.cmp(&cb) {
                std::cmp::Ordering::Equal => {
                    let d = self.values[ia] - self.values[ib];
                    acc += d * d;
                    ia += 1;
                    ib += 1;
                }
                std::cmp::Ordering::Less => {
                    acc += self.values[ia] * self.values[ia];
                    ia += 1;
                }
                std::cmp::Ordering::Greater => {
                    acc += self.values[ib] * self.values[ib];
                    ib += 1;
                }
            }
        }
        while ia < ha {
            acc += self.values[ia] * self.values[ia];
            ia += 1;
        }
        while ib < hb {
            acc += self.values[ib] * self.values[ib];
            ib += 1;
        }
        acc
    }

    /// Dot product of rows `a` and `b` (sorted-merge over the two
    /// rows' non-zeros; runs in O(nnz_a + nnz_b)).
    pub fn row_dot(&self, a: usize, b: usize) -> f64 {
        let (mut ia, ha) = (self.row_ptr[a], self.row_ptr[a + 1]);
        let (mut ib, hb) = (self.row_ptr[b], self.row_ptr[b + 1]);
        let mut acc = 0.0;
        while ia < ha && ib < hb {
            let ca = self.col_idx[ia];
            let cb = self.col_idx[ib];
            match ca.cmp(&cb) {
                std::cmp::Ordering::Equal => {
                    acc += self.values[ia] * self.values[ib];
                    ia += 1;
                    ib += 1;
                }
                std::cmp::Ordering::Less => ia += 1,
                std::cmp::Ordering::Greater => ib += 1,
            }
        }
        acc
    }

    /// Per-row squared Euclidean norms `‖row‖²`, accumulated in
    /// storage (column) order.
    pub fn row_norms_sq(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| {
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[r + 1];
                // Explicit +0.0 identity: `Iterator::sum` folds floats
                // from −0.0, which an all-zero row would surface.
                self.values[lo..hi].iter().fold(0.0, |acc, v| acc + v * v)
            })
            .collect()
    }

    /// Matrix–vector product `self · x`. Each row folds its non-zeros
    /// in column order, exactly as the dense product folds the full
    /// row — the skipped terms are all `0·xᵢ`, so the result matches
    /// [`Matrix::matvec`] on the densified matrix bit for bit.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            // Fold from +0.0, not `sum()`'s −0.0 identity: the dense
            // product's skipped `0·xᵢ` terms pull an empty row's
            // accumulator up to +0.0, and we must land on the same bits.
            .map(|r| self.row(r).fold(0.0, |acc, (c, v)| acc + v * x[c]))
            .collect()
    }

    /// Transposed matrix–vector product `selfᵀ · y`; rows are
    /// consumed in order so each output column accumulates in the
    /// same order as [`Matrix::matvec_t`].
    ///
    /// # Panics
    /// Panics when `y.len() != self.rows()`.
    pub fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            for (c, v) in self.row(r) {
                out[c] += v * yi;
            }
        }
        out
    }

    /// Builds a new matrix keeping only the given columns, in order.
    ///
    /// # Panics
    /// Panics when any column index is out of bounds.
    pub fn select_cols(&self, cols: &[usize]) -> CsrMatrix {
        let mut remap = vec![usize::MAX; self.cols];
        for (new, &old) in cols.iter().enumerate() {
            assert!(old < self.cols, "column {old} out of bounds");
            remap[old] = new;
        }
        let mut b = CsrBuilder::new(cols.len());
        let mut row_buf: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.rows {
            row_buf.clear();
            for (c, v) in self.row(r) {
                if remap[c] != usize::MAX {
                    row_buf.push((remap[c], v));
                }
            }
            b.push_row(&row_buf);
        }
        b.build()
    }

    /// Builds a new matrix keeping only the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut b = CsrBuilder::new(self.cols);
        let mut row_buf: Vec<(usize, f64)> = Vec::new();
        for &r in rows {
            row_buf.clear();
            row_buf.extend(self.row(r));
            b.push_row(&row_buf);
        }
        b.build()
    }

    /// Appends the rows of `other` (same width) after this matrix's.
    ///
    /// # Panics
    /// Panics when widths differ.
    pub fn vstack(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, other.cols, "width mismatch in vstack");
        let mut b = CsrBuilder::new(self.cols);
        let mut row_buf: Vec<(usize, f64)> = Vec::new();
        for m in [self, other] {
            for r in 0..m.rows {
                row_buf.clear();
                row_buf.extend(m.row(r));
                b.push_row(&row_buf);
            }
        }
        b.build()
    }

    /// A copy with every stored value clamped to 1.0 — the "binary
    /// features" variant the paper tried and rejected (§II-B).
    pub fn binarize(&self) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = 1.0;
        }
        out
    }

    /// Materializes a dense copy (use only for small slices).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Fraction of exactly-zero entries.
    pub fn sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total as f64
    }

    /// Per-column mean (over all rows, counting zeros).
    pub fn col_means(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                sums[c] += v;
            }
        }
        if self.rows > 0 {
            for s in &mut sums {
                *s /= self.rows as f64;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut b = CsrBuilder::new(4);
        b.push_dense_row(&[1.0, 0.0, 2.0, 0.0]);
        b.push_dense_row(&[0.0, 0.0, 0.0, 0.0]);
        b.push_dense_row(&[0.0, 3.0, 2.0, 1.0]);
        b.build()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 4, 5));
        assert!((m.sparsity() - (1.0 - 5.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn get_and_row_iteration() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 2), 0.0);
        let row2: Vec<_> = m.row(2).collect();
        assert_eq!(row2, vec![(1, 3.0), (2, 2.0), (3, 1.0)]);
    }

    #[test]
    fn sparse_row_distance_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        for a in 0..3 {
            for b in 0..3 {
                let dense: f64 = (0..4).map(|c| (d.get(a, c) - d.get(b, c)).powi(2)).sum();
                assert!((m.row_distance_sq(a, b) - dense).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn duplicate_columns_sum() {
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(1, 2.0), (1, 3.0), (0, 1.0)]);
        let m = b.build();
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn col_means() {
        let m = sample();
        let means = m.col_means();
        assert!((means[2] - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(means[0], 1.0 / 3.0);
    }

    #[test]
    fn row_dot_and_norms_match_dense() {
        let m = sample();
        let d = m.to_dense();
        for a in 0..3 {
            for b in 0..3 {
                let dense: f64 = (0..4).map(|c| d.get(a, c) * d.get(b, c)).sum();
                assert_eq!(m.row_dot(a, b), dense);
            }
        }
        let norms = m.row_norms_sq();
        assert_eq!(norms, vec![5.0, 0.0, 14.0]);
    }

    #[test]
    fn matvec_products_match_dense_bitwise() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.5, -2.0, 0.25, 3.0];
        let y = [0.5, -1.0, 2.0];
        let (sx, dx) = (m.matvec(&x), d.matvec(&x));
        let (sy, dy) = (m.matvec_t(&y), d.matvec_t(&y));
        for (a, b) in sx.iter().zip(&dx) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in sy.iter().zip(&dy) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn binarize_clamps_values() {
        let m = sample().binarize();
        assert_eq!(m.get(2, 1), 1.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.nnz(), sample().nnz());
    }

    #[test]
    fn select_and_stack() {
        let m = sample();
        let s = m.select_cols(&[2, 0]);
        assert_eq!((s.rows(), s.cols()), (3, 2));
        assert_eq!(s.get(0, 0), 2.0); // old col 2
        assert_eq!(s.get(0, 1), 1.0); // old col 0
        let r = m.select_rows(&[2]);
        assert_eq!(r.rows(), 1);
        assert_eq!(r.get(0, 1), 3.0);
        let v = m.vstack(&r);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.get(3, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn vstack_checks_width() {
        let m = sample();
        let n = CsrBuilder::new(2).build();
        let _ = m.vstack(&n);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_bounds_checked() {
        let mut b = CsrBuilder::new(2);
        b.push_row(&[(2, 1.0)]);
    }
}
