//! Pairwise distances in condensed form.
//!
//! Hierarchical clustering consumes a condensed upper-triangular
//! distance matrix: for `n` points, entry `(i, j)` with `i < j` lives
//! at index `condensed_index(n, i, j)` of a `n·(n−1)/2` vector.
//!
//! Both pairwise functions use the Gram trick — per-row squared norms
//! are computed once and every entry is `d²(i,j) = ‖i‖² + ‖j‖² −
//! 2⟨i,j⟩` — and fan contiguous row blocks out over `threads` scoped
//! workers writing disjoint slices of the condensed vector. Every
//! entry is computed independently from the same inputs, so the
//! output is bit-identical for every thread count.

use crate::dense::Matrix;
use crate::sparse::CsrMatrix;

/// Index of pair `(i, j)` (`i < j`) in a condensed distance vector of
/// `n` points.
///
/// # Panics
/// Panics when `i >= j` or `j >= n`.
pub fn condensed_index(n: usize, i: usize, j: usize) -> usize {
    assert!(i < j && j < n, "invalid condensed pair ({i}, {j}) of {n}");
    // Offset of row i: sum_{k<i} (n-1-k) = i*n - i*(i+1)/2 - i ... derived:
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Number of entries in a condensed matrix of `n` points.
pub fn condensed_len(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Base offset of condensed row `i`, defined so that
/// `condensed_index(n, i, j) == condensed_row_base(n, i).wrapping_add(j)`
/// for every valid `i < j < n`. Hoisting the base out of a loop over
/// `j` (or a table of bases out of a loop over pairs) replaces the
/// multiply/divide of [`condensed_index`] with one add per lookup.
///
/// The base sits one slot *before* the row start, so `i = 0` wraps
/// around `usize`; adding any valid `j ≥ 1` wraps back into range.
pub fn condensed_row_base(n: usize, i: usize) -> usize {
    (i * n - i * (i + 1) / 2).wrapping_sub(i + 1)
}

/// Euclidean distance from the Gram identity
/// `d² = ‖a‖² + ‖b‖² − 2⟨a,b⟩`, clamped at zero against floating
/// cancellation for near-identical rows.
///
/// Every path that produces or re-derives a pairwise distance (the
/// condensed builders here, the streaming cophenetic pass in the
/// pipeline) must go through this one function so the values stay
/// bit-identical to each other.
#[inline]
pub fn euclidean_from_gram(norm_a_sq: f64, norm_b_sq: f64, dot: f64) -> f64 {
    (norm_a_sq + norm_b_sq - 2.0 * dot).max(0.0).sqrt()
}

/// Condensed Euclidean pairwise distances of dense rows, fanned out
/// over `threads` workers (1 = sequential; same bits either way).
pub fn pairwise_euclidean(m: &Matrix, threads: usize) -> Vec<f64> {
    let n = m.rows();
    let norms: Vec<f64> = (0..n)
        .map(|r| m.row(r).iter().map(|v| v * v).sum())
        .collect();
    fill_condensed(n, threads, |i, j| {
        let dot = m.row(i).iter().zip(m.row(j)).map(|(a, b)| a * b).sum();
        euclidean_from_gram(norms[i], norms[j], dot)
    })
}

/// Condensed Euclidean pairwise distances of sparse rows; each entry
/// runs in O(nnz of the two rows) via a sorted-merge dot product.
pub fn pairwise_euclidean_sparse(m: &CsrMatrix, threads: usize) -> Vec<f64> {
    let n = m.rows();
    let norms = m.row_norms_sq();
    fill_condensed(n, threads, |i, j| {
        euclidean_from_gram(norms[i], norms[j], m.row_dot(i, j))
    })
}

/// Fills a condensed vector by evaluating `entry(i, j)` for every
/// pair. Rows are split into contiguous blocks of roughly equal entry
/// counts (row `i` owns `n−1−i` entries, so early rows are longer)
/// and each worker writes its own disjoint slice — the reduction
/// order per entry never depends on the thread count.
fn fill_condensed<F>(n: usize, threads: usize, entry: F) -> Vec<f64>
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    let len = condensed_len(n);
    let mut out = vec![0.0; len];
    let threads = threads.max(1);
    if threads == 1 || len < 2048 {
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                out[k] = entry(i, j);
                k += 1;
            }
        }
        return out;
    }
    let target = len.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let entry = &entry;
        let mut rest: &mut [f64] = &mut out;
        let mut row = 0usize;
        while row < n && !rest.is_empty() {
            // Grow the block row by row until it reaches the target
            // entry count (the final block takes the remainder).
            let mut end = row;
            let mut size = 0usize;
            while end < n && size < target {
                size += n - 1 - end;
                end += 1;
            }
            let size = size.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(size);
            rest = tail;
            let start_row = row;
            row = end;
            scope.spawn(move || {
                let mut k = 0;
                for i in start_row..end {
                    for j in (i + 1)..n {
                        chunk[k] = entry(i, j);
                        k += 1;
                    }
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrBuilder;
    use crate::vector::distance;

    #[test]
    fn condensed_indexing_covers_all_pairs() {
        let n = 6;
        let mut seen = vec![false; condensed_len(n)];
        for i in 0..n {
            for j in (i + 1)..n {
                let k = condensed_index(n, i, j);
                assert!(!seen[k], "index {k} hit twice");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn row_base_matches_condensed_index() {
        for n in [2usize, 3, 7, 12] {
            for i in 0..n {
                let base = condensed_row_base(n, i);
                for j in (i + 1)..n {
                    assert_eq!(base.wrapping_add(j), condensed_index(n, i, j));
                }
            }
        }
    }

    #[test]
    fn dense_and_sparse_agree() {
        let d = Matrix::from_rows(3, 3, vec![1., 0., 0., 0., 2., 0., 0., 0., 2.]);
        let mut b = CsrBuilder::new(3);
        for r in 0..3 {
            b.push_dense_row(d.row(r));
        }
        let s = b.build();
        let dd = pairwise_euclidean(&d, 1);
        let ds = pairwise_euclidean_sparse(&s, 1);
        for (a, b) in dd.iter().zip(&ds) {
            assert!((a - b).abs() < 1e-12);
        }
        // d(0,1) = sqrt(1+4) = sqrt(5)
        assert!((dd[condensed_index(3, 0, 1)] - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn gram_trick_matches_subtract_and_square() {
        // On integer-valued rows (the feature counts the pipeline
        // clusters) both formulations are exact integer arithmetic,
        // so the Gram rewrite is bit-identical, not merely close.
        let m = Matrix::from_rows(4, 3, vec![1., 0., 3., 0., 2., 0., 5., 5., 5., 1., 1., 4.]);
        let gram = pairwise_euclidean(&m, 1);
        let mut k = 0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                let naive = distance(m.row(i), m.row(j));
                assert_eq!(gram[k].to_bits(), naive.to_bits());
                k += 1;
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // Large enough to cross the parallel threshold.
        let n = 80;
        let mut b = CsrBuilder::new(16);
        let mut v = 1u64;
        for _ in 0..n {
            let mut row = Vec::new();
            for c in 0..16 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                if v.is_multiple_of(3) {
                    row.push((c, (v % 7) as f64));
                }
            }
            b.push_row(&row);
        }
        let m = b.build();
        let seq = pairwise_euclidean_sparse(&m, 1);
        for t in 2..=8 {
            let par = pairwise_euclidean_sparse(&m, t);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={t}");
            }
        }
        let dm = m.to_dense();
        let dseq = pairwise_euclidean(&dm, 1);
        let dpar = pairwise_euclidean(&dm, 4);
        for (a, b) in dseq.iter().zip(&dpar) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid condensed pair")]
    fn diagonal_is_invalid() {
        let _ = condensed_index(4, 2, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::sparse::{CsrBuilder, CsrMatrix};
    use proptest::prelude::*;

    fn sparse_matrix() -> impl Strategy<Value = CsrMatrix> {
        (2usize..40, 1usize..12).prop_flat_map(|(rows, cols)| {
            proptest::collection::vec(0.0f64..4.0, rows * cols).prop_map(move |data| {
                let mut b = CsrBuilder::new(cols);
                for r in 0..rows {
                    // Threshold to ~50 % sparsity.
                    let row: Vec<(usize, f64)> = data[r * cols..(r + 1) * cols]
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| **v >= 2.0)
                        .map(|(c, v)| (c, *v))
                        .collect();
                    b.push_row(&row);
                }
                b.build()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole invariant: the parallel fan-out produces the
        /// same bits as the sequential pass for every thread count.
        #[test]
        fn parallel_pairwise_is_bit_identical(m in sparse_matrix()) {
            let seq = pairwise_euclidean_sparse(&m, 1);
            for t in 1..=8usize {
                let par = pairwise_euclidean_sparse(&m, t);
                prop_assert_eq!(seq.len(), par.len());
                for (a, b) in seq.iter().zip(&par) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Gram-trick distances agree with the merge-based
        /// subtract-and-square form within floating tolerance.
        #[test]
        fn gram_matches_row_distance(m in sparse_matrix()) {
            let cond = pairwise_euclidean_sparse(&m, 1);
            let n = m.rows();
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = m.row_distance_sq(i, j).sqrt();
                    let g = cond[condensed_index(n, i, j)];
                    prop_assert!((d - g).abs() <= 1e-9 * (1.0 + d.abs()));
                }
            }
        }
    }
}
