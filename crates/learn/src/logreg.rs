//! L2-regularized logistic regression trained with Newton-CG.
//!
//! The hypothesis is the paper's (§II-D): `h_θ(x) = g(θᵀx)` with the
//! sigmoid `g(z) = 1/(1+e^{−z})`, interpreted as the probability that
//! a sample belongs to the signature's attack class. Training
//! minimizes the regularized negative log-likelihood; each Newton
//! step solves `(H + λI)·d = −g` with [`crate::pcg`].
//!
//! The trainer is generic over the [`DesignMatrix`] storage: the
//! dense entry point [`train`] and the sparse one [`train_sparse`]
//! share one Newton/PCG loop whose inner products are the storage's
//! `matvec`/`matvec_t` plus the fused Hessian-vector product
//! `H·v = Xᵀ(s ∘ (Xv)) + λv`. The sparse path never densifies a
//! bicluster; it folds exactly the same terms in the same order as
//! the dense path (zeros contribute nothing), so both produce
//! bit-identical weights, biases and iteration counts.

use crate::pcg;
use psigene_linalg::{CsrMatrix, Matrix};

/// The numerically-stable sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// A trained logistic model: `p(attack | x) = g(bias + w·x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Intercept term (θ₀).
    pub bias: f64,
    /// Feature weights (θ₁..θₙ).
    pub weights: Vec<f64>,
}

impl LogisticModel {
    /// Probability that `x` belongs to the positive class.
    ///
    /// # Panics
    /// Panics when `x.len() != self.weights.len()`.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        let z = self.bias + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
        sigmoid(z)
    }

    /// Hard decision at a probability threshold.
    pub fn predict(&self, x: &[f64], threshold: f64) -> bool {
        self.predict_proba(x) >= threshold
    }

    /// Indices of weights whose magnitude is at or below `eps` —
    /// features logistic regression effectively pruned (the paper
    /// observes heavy pruning, e.g. 88 % of cluster 3's features).
    pub fn pruned_features(&self, eps: f64) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.abs() <= eps)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of effectively-active features.
    pub fn active_feature_count(&self, eps: f64) -> usize {
        self.weights.len() - self.pruned_features(eps).len()
    }
}

/// Training options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// L2 penalty λ (the bias is not regularized).
    pub l2: f64,
    /// Gradient-norm convergence tolerance.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_newton_iters: usize,
    /// Maximum PCG iterations per Newton step.
    pub max_cg_iters: usize,
}

impl Default for TrainOptions {
    fn default() -> TrainOptions {
        TrainOptions {
            l2: 1e-3,
            tol: 1e-6,
            max_newton_iters: 50,
            max_cg_iters: 200,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The fitted model.
    pub model: LogisticModel,
    /// Newton iterations performed.
    pub newton_iterations: usize,
    /// Total PCG iterations across Newton steps.
    pub cg_iterations: usize,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
    /// Final regularized negative log-likelihood (mean per sample).
    pub final_loss: f64,
}

/// Row-major sample storage the Newton-CG trainer can consume.
///
/// Implementations must fold each row's terms in ascending column
/// order so dense and sparse storages of the same data produce
/// bit-identical products (a sparse storage only skips terms that are
/// exactly `0·x`).
pub trait DesignMatrix {
    /// Number of samples.
    fn rows(&self) -> usize;
    /// Number of features.
    fn cols(&self) -> usize;
    /// `X · v` (one entry per sample).
    fn matvec(&self, v: &[f64]) -> Vec<f64>;
    /// `Xᵀ · y` (one entry per feature).
    fn matvec_t(&self, y: &[f64]) -> Vec<f64>;
    /// Adds `Σ_r s_r · x_{r,c}²` into `out[c]` for every feature `c`
    /// (the data part of the Jacobi preconditioner diagonal).
    fn add_weighted_col_sq(&self, s: &[f64], out: &mut [f64]);
}

impl DesignMatrix for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn matvec(&self, v: &[f64]) -> Vec<f64> {
        Matrix::matvec(self, v)
    }
    fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        Matrix::matvec_t(self, y)
    }
    fn add_weighted_col_sq(&self, s: &[f64], out: &mut [f64]) {
        for (r, &sr) in s.iter().enumerate() {
            for (o, &xr) in out.iter_mut().zip(self.row(r)) {
                *o += sr * xr * xr;
            }
        }
    }
}

impl DesignMatrix for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }
    fn matvec(&self, v: &[f64]) -> Vec<f64> {
        CsrMatrix::matvec(self, v)
    }
    fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        CsrMatrix::matvec_t(self, y)
    }
    fn add_weighted_col_sq(&self, s: &[f64], out: &mut [f64]) {
        for (r, &sr) in s.iter().enumerate() {
            for (c, v) in self.row(r) {
                out[c] += sr * v * v;
            }
        }
    }
}

/// Fits a logistic model on dense rows `x` with ±labels `y`
/// (`true` = positive class).
///
/// # Panics
/// Panics when `x.rows() != y.len()` or `x` has no rows.
pub fn train(x: &Matrix, y: &[bool], opts: &TrainOptions) -> TrainResult {
    train_design(x, y, opts)
}

/// Fits a logistic model on CSR rows without densifying them; the
/// result (weights, bias, iteration counts) is bit-identical to
/// [`train`] on the same data stored densely.
///
/// # Panics
/// Panics when `x.rows() != y.len()` or `x` has no rows.
pub fn train_sparse(x: &CsrMatrix, y: &[bool], opts: &TrainOptions) -> TrainResult {
    train_design(x, y, opts)
}

/// The shared Newton-CG loop behind [`train`] and [`train_sparse`].
pub fn train_design<X: DesignMatrix + ?Sized>(
    x: &X,
    y: &[bool],
    opts: &TrainOptions,
) -> TrainResult {
    assert_eq!(x.rows(), y.len(), "rows/labels mismatch");
    assert!(x.rows() > 0, "empty training set");
    let n = x.rows();
    let d = x.cols();
    // θ = [bias, weights...]; gradient & Hessian include the intercept
    // column implicitly.
    let mut bias = 0.0;
    let mut w = vec![0.0; d];
    let mut newton_iterations = 0;
    let mut cg_iterations = 0;
    let mut converged = false;
    let mut final_gnorm = f64::INFINITY;
    let pcg_per_solve = psigene_telemetry::histogram("learn.pcg_iterations_per_solve");

    for _ in 0..opts.max_newton_iters {
        // Forward pass.
        let mut z = x.matvec(&w);
        for zi in &mut z {
            *zi += bias;
        }
        let p: Vec<f64> = z.iter().map(|&zi| sigmoid(zi)).collect();
        // Gradient of NLL: Xᵀ(p − y) + λw (bias unregularized).
        let resid: Vec<f64> = p
            .iter()
            .zip(y)
            .map(|(&pi, &yi)| pi - if yi { 1.0 } else { 0.0 })
            .collect();
        let mut grad_w = x.matvec_t(&resid);
        for (gw, wi) in grad_w.iter_mut().zip(&w) {
            *gw += opts.l2 * wi;
        }
        let grad_b: f64 = resid.iter().sum();
        let gnorm = (grad_w.iter().map(|g| g * g).sum::<f64>() + grad_b * grad_b).sqrt() / n as f64;
        final_gnorm = gnorm;
        if gnorm <= opts.tol {
            converged = true;
            break;
        }
        // Fused Hessian-vector product for v = [vb, vw]:
        //   H v = [ Σ sᵢ (vb + xᵢ·vw),
        //           Xᵀ(s ⊙ (vb + X vw)) + λ vw ]
        // with s = p(1−p).
        let s: Vec<f64> = p.iter().map(|&pi| (pi * (1.0 - pi)).max(1e-10)).collect();
        let apply_h = |v: &[f64]| -> Vec<f64> {
            let vb = v[0];
            let vw = &v[1..];
            let mut xv = x.matvec(vw);
            for xvi in &mut xv {
                *xvi += vb;
            }
            let sxv: Vec<f64> = s.iter().zip(&xv).map(|(si, xi)| si * xi).collect();
            let mut out = vec![0.0; d + 1];
            out[0] = sxv.iter().sum();
            let hw = x.matvec_t(&sxv);
            for i in 0..d {
                out[i + 1] = hw[i] + opts.l2 * vw[i];
            }
            out
        };
        // Jacobi preconditioner: diag(H).
        let mut diag = vec![0.0; d + 1];
        diag[0] = s.iter().sum::<f64>().max(1e-10);
        x.add_weighted_col_sq(&s, &mut diag[1..]);
        for dj in diag.iter_mut().skip(1) {
            *dj += opts.l2;
            if *dj <= 0.0 {
                *dj = 1.0;
            }
        }
        let mut rhs = vec![0.0; d + 1];
        rhs[0] = -grad_b;
        for i in 0..d {
            rhs[i + 1] = -grad_w[i];
        }
        let sol = pcg::solve(apply_h, &rhs, &diag, 1e-8, opts.max_cg_iters);
        cg_iterations += sol.iterations;
        pcg_per_solve.record(sol.iterations as u64);

        // Backtracking line search on the NLL.
        let loss0 = loss(x, y, bias, &w, opts.l2);
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..30 {
            let nb = bias + step * sol.x[0];
            let nw: Vec<f64> = w
                .iter()
                .zip(&sol.x[1..])
                .map(|(wi, di)| wi + step * di)
                .collect();
            if loss(x, y, nb, &nw, opts.l2) <= loss0 {
                bias = nb;
                w = nw;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        newton_iterations += 1;
        if !accepted {
            break;
        }
    }
    let final_loss = loss(x, y, bias, &w, opts.l2) / n as f64;
    let telemetry = psigene_telemetry::global();
    telemetry.counter("learn.solves").inc();
    telemetry
        .counter("learn.newton_iterations")
        .add(newton_iterations as u64);
    telemetry
        .counter("learn.pcg_iterations")
        .add(cg_iterations as u64);
    telemetry
        .histogram("learn.newton_iterations_per_solve")
        .record(newton_iterations as u64);
    if converged {
        telemetry.counter("learn.converged_solves").inc();
    }
    if final_gnorm.is_finite() {
        telemetry
            .gauge("learn.final_gradient_norm")
            .set(final_gnorm);
    }
    TrainResult {
        model: LogisticModel { bias, weights: w },
        newton_iterations,
        cg_iterations,
        converged,
        final_loss,
    }
}

/// Regularized negative log-likelihood (total, not mean).
fn loss<X: DesignMatrix + ?Sized>(x: &X, y: &[bool], bias: f64, w: &[f64], l2: f64) -> f64 {
    let mut z = x.matvec(w);
    for zi in &mut z {
        *zi += bias;
    }
    let mut nll = 0.0;
    for (&zi, &yi) in z.iter().zip(y) {
        // log(1 + e^z) computed stably.
        let log1pexp = if zi > 30.0 {
            zi
        } else if zi < -30.0 {
            0.0
        } else {
            (1.0 + zi.exp()).ln()
        };
        nll += if yi { log1pexp - zi } else { log1pexp };
    }
    nll + 0.5 * l2 * w.iter().map(|wi| wi * wi).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_linalg::CsrBuilder;

    #[test]
    fn sigmoid_properties() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        // Symmetry: g(−z) = 1 − g(z).
        for z in [-5.0, -1.0, 0.3, 2.0] {
            assert!((sigmoid(-z) - (1.0 - sigmoid(z))).abs() < 1e-12);
        }
    }

    #[test]
    fn learns_linearly_separable_data() {
        // y = 1 iff x > 0.
        let xs: Vec<f64> = (-20..=20)
            .filter(|&v| v != 0)
            .map(|v| v as f64 / 2.0)
            .collect();
        let n = xs.len();
        let x = Matrix::from_rows(n, 1, xs.clone());
        let y: Vec<bool> = xs.iter().map(|&v| v > 0.0).collect();
        let res = train(&x, &y, &TrainOptions::default());
        assert!(res.model.weights[0] > 0.5);
        assert!(res.model.predict_proba(&[5.0]) > 0.95);
        assert!(res.model.predict_proba(&[-5.0]) < 0.05);
    }

    #[test]
    fn recovers_known_decision_boundary() {
        // 2-D: positive iff x0 + x1 > 3.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut v = 0.0;
        for i in 0..200 {
            let a = (i % 20) as f64 / 2.0;
            v = (v * 1.7 + 0.37) % 7.0; // deterministic pseudo-noise
            let b = v;
            rows.extend_from_slice(&[a, b]);
            labels.push(a + b > 3.0);
        }
        let x = Matrix::from_rows(200, 2, rows);
        let res = train(&x, &labels, &TrainOptions::default());
        let mut correct = 0;
        for (i, &label) in labels.iter().enumerate() {
            if res.model.predict(x.row(i), 0.5) == label {
                correct += 1;
            }
        }
        assert!(correct >= 195, "only {correct}/200 correct");
    }

    #[test]
    fn sparse_training_is_bit_identical_to_dense() {
        // A sparse-ish integer design matrix like the pipeline's
        // bicluster slices: counts, many zeros.
        let data = vec![
            2.0, 0.0, 0.0, 1.0, //
            0.0, 3.0, 0.0, 0.0, //
            1.0, 0.0, 4.0, 0.0, //
            0.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 2.0, 3.0, //
            5.0, 0.0, 0.0, 1.0, //
        ];
        let dense = Matrix::from_rows(6, 4, data);
        let mut b = CsrBuilder::new(4);
        for r in 0..6 {
            b.push_dense_row(dense.row(r));
        }
        let sparse = b.build();
        let y = [true, true, false, false, true, false];
        let opts = TrainOptions::default();
        let fd = train(&dense, &y, &opts);
        let fs = train_sparse(&sparse, &y, &opts);
        assert_eq!(fd.model.bias.to_bits(), fs.model.bias.to_bits());
        assert_eq!(fd.model.weights.len(), fs.model.weights.len());
        for (a, b) in fd.model.weights.iter().zip(&fs.model.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fd.newton_iterations, fs.newton_iterations);
        assert_eq!(fd.cg_iterations, fs.cg_iterations);
        assert_eq!(fd.converged, fs.converged);
        assert_eq!(fd.final_loss.to_bits(), fs.final_loss.to_bits());
    }

    #[test]
    fn regularization_shrinks_weights() {
        let xs: Vec<f64> = (-10..=10).filter(|&v| v != 0).map(|v| v as f64).collect();
        let n = xs.len();
        let x = Matrix::from_rows(n, 1, xs.clone());
        let y: Vec<bool> = xs.iter().map(|&v| v > 0.0).collect();
        let small = train(
            &x,
            &y,
            &TrainOptions {
                l2: 1e-4,
                ..Default::default()
            },
        );
        let large = train(
            &x,
            &y,
            &TrainOptions {
                l2: 10.0,
                ..Default::default()
            },
        );
        assert!(large.model.weights[0].abs() < small.model.weights[0].abs());
    }

    #[test]
    fn irrelevant_features_get_small_weights() {
        // Feature 0 decides the label; feature 1 alternates
        // independently of it.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in -20i32..=20 {
            if i == 0 {
                continue;
            }
            rows.extend_from_slice(&[i as f64, (i & 1) as f64]);
            labels.push(i > 0);
        }
        let x = Matrix::from_rows(labels.len(), 2, rows);
        let res = train(
            &x,
            &labels,
            &TrainOptions {
                l2: 0.1,
                ..Default::default()
            },
        );
        assert!(res.model.weights[0].abs() > 5.0 * res.model.weights[1].abs());
        // The irrelevant feature is pruned to (numerically) zero —
        // the same pruning the paper observes LR doing per cluster.
        assert_eq!(res.model.active_feature_count(1e-6), 1);
        assert_eq!(res.model.pruned_features(1e-6), vec![1]);
    }

    #[test]
    fn all_one_class_is_handled() {
        let x = Matrix::from_rows(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let res = train(&x, &[true; 4], &TrainOptions::default());
        // Predicts positive everywhere; no NaNs.
        assert!(res.model.predict_proba(&[2.0]) > 0.5);
        assert!(res.final_loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "rows/labels mismatch")]
    fn mismatched_inputs_panic() {
        let x = Matrix::zeros(3, 1);
        let _ = train(&x, &[true], &TrainOptions::default());
    }

    #[test]
    #[should_panic(expected = "rows/labels mismatch")]
    fn sparse_mismatched_inputs_panic() {
        let x = CsrBuilder::new(2).build();
        let _ = train_sparse(&x, &[true], &TrainOptions::default());
    }
}
