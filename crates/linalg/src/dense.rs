//! Row-major dense `f64` matrices.

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies a column out (columns are strided in row-major layout).
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Builds a new matrix keeping only the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Builds a new matrix keeping only the given columns, in order.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Transposed matrix–vector product `selfᵀ * y`.
    ///
    /// # Panics
    /// Panics when `y.len() != self.rows()`.
    pub fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (row, &yi) in self.data.chunks_exact(self.cols).zip(y) {
            if yi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * yi;
            }
        }
        out
    }

    /// Fraction of exactly-zero entries — the paper reports its
    /// 30 000 × 159 matrix to be ~85 % zeros.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.col(2), vec![0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_rows_checks_len() {
        let _ = Matrix::from_rows(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn selection() {
        let m = Matrix::from_rows(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.as_slice(), &[5., 6., 1., 2.]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn matvec_products() {
        let m = Matrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.matvec(&[1., 0., -1.]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1., 1.]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn sparsity_measure() {
        let m = Matrix::from_rows(1, 4, vec![0., 1., 0., 0.]);
        assert!((m.sparsity() - 0.75).abs() < 1e-12);
        assert_eq!(Matrix::zeros(0, 0).sparsity(), 0.0);
    }
}
