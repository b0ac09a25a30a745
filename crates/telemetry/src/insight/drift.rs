//! Drift scoring: PSI and KL divergence between weight vectors, and
//! the windowed [`DriftMonitor`] that feeds them.
//!
//! Both scores compare a *reference* distribution (the traffic the
//! signatures were trained/baselined on) against the *current* one
//! (what the gateway is seeing now). Empty-bucket smoothing keeps
//! every score finite: each bin gets a small additive pseudo-count
//! before normalization, so a bin that is empty on one side
//! contributes a large-but-finite term instead of ±∞, and no NaN can
//! leak into an exported gauge (pinned by proptest).

/// Smallest smoothing pseudo-count; anything at or below zero is
/// clamped here so the scores stay finite by construction.
const MIN_SMOOTHING: f64 = 1e-12;

/// The pseudo-count actually applied for a requested `smoothing`.
fn pseudo_count(smoothing: f64) -> f64 {
    if smoothing > 0.0 {
        smoothing
    } else {
        MIN_SMOOTHING
    }
}

/// A weight as the scores see it: non-finite or negative counts as
/// zero.
fn clean(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

/// The normalizer of [`smoothed`]: cleaned weights plus one
/// pseudo-count per bin.
fn smoothed_total(weights: &[f64], eps: f64) -> f64 {
    weights.iter().map(|&w| clean(w)).sum::<f64>() + eps * weights.len() as f64
}

/// Normalizes a weight vector with additive smoothing. Non-finite or
/// negative weights count as zero.
fn smoothed(weights: &[f64], smoothing: f64) -> Vec<f64> {
    let eps = pseudo_count(smoothing);
    let total = smoothed_total(weights, eps);
    weights.iter().map(|&w| (clean(w) + eps) / total).collect()
}

/// Population Stability Index between two weight vectors of the same
/// length: `Σ (pᵢ − qᵢ) · ln(pᵢ / qᵢ)` after smoothing+normalization.
///
/// PSI is symmetric, zero iff the distributions agree, and by the
/// usual credit-scoring rule of thumb `< 0.1` is stable, `0.1–0.25`
/// is shifting, `> 0.25` is a population change worth acting on.
/// Returns 0 for empty or mismatched inputs (nothing to compare).
pub fn psi(reference: &[f64], current: &[f64], smoothing: f64) -> f64 {
    if reference.len() != current.len() || reference.is_empty() {
        return 0.0;
    }
    let p = smoothed(reference, smoothing);
    let q = smoothed(current, smoothing);
    p.iter()
        .zip(&q)
        .map(|(&pi, &qi)| (pi - qi) * (pi / qi).ln())
        .sum()
}

/// Kullback–Leibler divergence `D(P ‖ Q) = Σ pᵢ · ln(pᵢ / qᵢ)` after
/// smoothing+normalization; `reference` plays P, `current` plays Q.
/// Returns 0 for empty or mismatched inputs.
pub fn kl_divergence(reference: &[f64], current: &[f64], smoothing: f64) -> f64 {
    if reference.len() != current.len() || reference.is_empty() {
        return 0.0;
    }
    let p = smoothed(reference, smoothing);
    let q = smoothed(current, smoothing);
    p.iter().zip(&q).map(|(&pi, &qi)| pi * (pi / qi).ln()).sum()
}

/// `(psi(r, c, s), kl_divergence(r, c, s))` in one pass with one `ln`
/// per bin and no allocation — what a window roll exports. Every
/// smoothed probability, log ratio and term is the expression the two
/// scores evaluate, summed in the same order from the same neutral
/// element, so both results equal theirs to the bit (pinned by
/// proptest, NaN, infinite and negative weights included).
pub fn psi_and_kl(reference: &[f64], current: &[f64], smoothing: f64) -> (f64, f64) {
    if reference.len() != current.len() || reference.is_empty() {
        return (0.0, 0.0);
    }
    let eps = pseudo_count(smoothing);
    let (p_total, q_total) = (smoothed_total(reference, eps), smoothed_total(current, eps));
    // `Sum for f64` starts from its own zero (−0.0 in current std);
    // starting the fold there keeps a sum of ±0 terms bit-equal too.
    let zero: f64 = std::iter::empty::<f64>().sum();
    reference
        .iter()
        .zip(current)
        .fold((zero, zero), |(psi, kl), (&r, &c)| {
            let pi = (clean(r) + eps) / p_total;
            let qi = (clean(c) + eps) / q_total;
            let ln = (pi / qi).ln();
            (psi + (pi - qi) * ln, kl + pi * ln)
        })
}

/// Windowing and decay parameters for a [`DriftMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Observations per window; a window roll snapshots the current
    /// distribution and applies the decay once.
    pub window: u64,
    /// Per-window decay factor for the running weights (`1.0` = no
    /// decay, smaller = faster forgetting); clamped into `(0, 1]`.
    pub decay: f64,
    /// Additive smoothing pseudo-count per bin for PSI/KL. This is an
    /// *absolute* pseudo-count relative to the raw bin weights: with
    /// count-valued observations, values around `1e-2` damp the
    /// sampling noise of features that fire in one window but not the
    /// next, while values near `1.0` flatten real shifts away.
    pub smoothing: f64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            window: 256,
            decay: 0.5,
            smoothing: 1e-2,
        }
    }
}

/// A streaming drift detector over one binned quantity.
///
/// A window's observations are summed per bin in a buffer of their
/// own and folded into exponentially-decayed per-bin weights when the
/// window completes. Every `window` ticks the weights' normalized
/// distribution is snapshotted as the *current* window; the first
/// snapshot (or the one taken at the last [`DriftMonitor::rebaseline`])
/// is frozen as the *reference*. [`DriftMonitor::psi`] /
/// [`DriftMonitor::kl`] compare the two.
///
/// **Batches are exact.** Because nothing reaches the weights before
/// the roll, the monitor's state depends only on each window's per-bin
/// sums. For integer-valued weights (counts, binary `1.0`, bin
/// increments — every feed the engine makes) those sums are exact in
/// any order and grouping, so `k` observations of `w` equal one of
/// `k·w`, and a feeder may hand over a window in any number of batches
/// ([`DriftMonitor::tick_n`]) with every score bit-equal to one
/// observation and one tick at a time — as long as no batch spans the
/// end of a window ([`DriftMonitor::remaining`]). Pinned by proptest.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    /// Decayed per-bin weights of every closed window.
    bins: Vec<f64>,
    /// `bins`' total, kept running so a roll never rescans it.
    total: f64,
    /// The open window's observations, summed per bin.
    window: Vec<f64>,
    reference: Option<Vec<f64>>,
    current: Option<Vec<f64>>,
    in_window: u64,
    windows: u64,
}

impl DriftMonitor {
    /// A monitor over `bins` slots with the given windowing.
    pub fn new(bins: usize, config: DriftConfig) -> DriftMonitor {
        DriftMonitor {
            bins: vec![0.0; bins],
            total: 0.0,
            window: vec![0.0; bins],
            config: DriftConfig {
                window: config.window.max(1),
                decay: if config.decay > 0.0 {
                    config.decay.min(1.0)
                } else {
                    1.0
                },
                ..config
            },
            reference: None,
            current: None,
            in_window: 0,
            windows: 0,
        }
    }

    /// Adds `weight` to `bin` in the open window (does not tick it).
    /// Out-of-range bins and non-finite or non-positive weights are
    /// ignored, so no score goes NaN because one caller fed it garbage.
    pub fn observe(&mut self, bin: usize, weight: f64) {
        if let Some(sum) = self.window.get_mut(bin) {
            if weight.is_finite() && weight > 0.0 {
                *sum += weight;
            }
        }
    }

    /// Counts one observation unit (a request, a batch element).
    /// Returns `true` when this tick completed a window — the moment
    /// fresh [`DriftMonitor::psi`] / [`DriftMonitor::kl`] values are
    /// available for export.
    pub fn tick(&mut self) -> bool {
        self.tick_n(1)
    }

    /// Counts `n` units at once, in O(1) unless they complete the
    /// window. A call completes at most one window: units past its end
    /// are counted into it, so the closing window holds more than
    /// `window` units. A feeder that wants exact windows ends each
    /// batch no later than [`DriftMonitor::remaining`].
    pub fn tick_n(&mut self, n: u64) -> bool {
        self.in_window = self.in_window.saturating_add(n);
        if self.in_window < self.config.window {
            return false;
        }
        self.roll();
        true
    }

    /// Units left before the open window completes (at least 1).
    pub fn remaining(&self) -> u64 {
        self.config.window - self.in_window
    }

    /// Closes the window: folds its sums into the decayed weights,
    /// snapshots their distribution into the existing `current` buffer
    /// and decays. Allocates only on the first roll (and after a roll
    /// that found no weight).
    fn roll(&mut self) {
        self.in_window = 0;
        self.windows += 1;
        for (w, sum) in self.bins.iter_mut().zip(&mut self.window) {
            let sum = std::mem::take(sum);
            if sum.is_finite() && sum > 0.0 {
                *w += sum;
                self.total += sum;
            }
        }
        let mut current = self.current.take().unwrap_or_default();
        if self.total > 0.0 {
            current.clear();
            current.extend(self.bins.iter().map(|&w| w / self.total));
            self.current = Some(current);
        }
        if self.reference.is_none() {
            self.reference.clone_from(&self.current);
        }
        for w in &mut self.bins {
            *w *= self.config.decay;
        }
        self.total *= self.config.decay;
    }

    /// PSI and KL divergence between the reference and the latest
    /// current window, in one pass ([`psi_and_kl`]), when both exist.
    pub fn psi_and_kl(&self) -> Option<(f64, f64)> {
        match (&self.reference, &self.current) {
            (Some(r), Some(c)) => Some(psi_and_kl(r, c, self.config.smoothing)),
            _ => None,
        }
    }

    /// PSI between the reference and the latest current window, when
    /// both exist.
    pub fn psi(&self) -> Option<f64> {
        self.psi_and_kl().map(|(psi, _)| psi)
    }

    /// KL divergence `D(reference ‖ current)`, when both exist.
    pub fn kl(&self) -> Option<f64> {
        self.psi_and_kl().map(|(_, kl)| kl)
    }

    /// Freezes the latest current window as the new reference — what
    /// a control plane calls right after promoting a retrained model,
    /// so drift is measured against the traffic the new model was
    /// accepted on.
    pub fn rebaseline(&mut self) {
        if self.current.is_some() {
            self.reference.clone_from(&self.current);
        } else {
            self.reference = None;
        }
    }

    /// Completed windows so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The frozen reference distribution, if a window has completed.
    pub fn reference(&self) -> Option<&[f64]> {
        self.reference.as_deref()
    }

    /// The latest current-window distribution.
    pub fn current(&self) -> Option<&[f64]> {
        self.current.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_score_zero() {
        let p = [5.0, 3.0, 0.0, 2.0];
        assert_eq!(psi(&p, &p, 1e-6), 0.0);
        assert_eq!(kl_divergence(&p, &p, 1e-6), 0.0);
    }

    #[test]
    fn disjoint_distributions_score_large_but_finite() {
        let p = [10.0, 0.0];
        let q = [0.0, 10.0];
        let s = psi(&p, &q, 1e-6);
        assert!(s.is_finite() && s > 1.0, "psi = {s}");
        let k = kl_divergence(&p, &q, 1e-6);
        assert!(k.is_finite() && k > 1.0, "kl = {k}");
        // Zero smoothing is clamped, not honoured literally.
        assert!(psi(&p, &q, 0.0).is_finite());
        assert!(kl_divergence(&p, &q, 0.0).is_finite());
    }

    #[test]
    fn psi_is_symmetric_kl_is_not() {
        let p = [10.0, 1.0];
        let q = [5.0, 6.0];
        assert!((psi(&p, &q, 1e-6) - psi(&q, &p, 1e-6)).abs() < 1e-12);
        assert!((kl_divergence(&p, &q, 1e-6) - kl_divergence(&q, &p, 1e-6)).abs() > 1e-3);
    }

    #[test]
    fn mismatched_or_empty_inputs_score_zero() {
        assert_eq!(psi(&[1.0], &[1.0, 2.0], 1e-6), 0.0);
        assert_eq!(psi(&[], &[], 1e-6), 0.0);
        assert_eq!(kl_divergence(&[], &[], 1e-6), 0.0);
    }

    #[test]
    fn monitor_needs_two_windows_before_scoring() {
        let mut m = DriftMonitor::new(
            4,
            DriftConfig {
                window: 3,
                ..DriftConfig::default()
            },
        );
        for _ in 0..2 {
            m.observe(0, 1.0);
            assert!(!m.tick());
        }
        assert_eq!(m.psi(), None);
        m.observe(0, 1.0);
        assert!(m.tick()); // first window → reference == current
        assert_eq!(m.psi(), Some(0.0));
        assert_eq!(m.windows(), 1);
    }

    #[test]
    fn tick_n_completes_at_most_one_window_and_overfills_it() {
        let mut m = DriftMonitor::new(
            2,
            DriftConfig {
                window: 4,
                ..DriftConfig::default()
            },
        );
        assert_eq!(m.remaining(), 4);
        assert!(!m.tick_n(0));
        m.observe(0, 1.0);
        m.observe(5, 1.0); // out of range
        m.observe(1, f64::NAN);
        assert!(!m.tick_n(3));
        assert_eq!(m.remaining(), 1);
        m.observe(1, 3.0);
        // Twelve units: one window closes, over-filled by eight.
        assert!(m.tick_n(9));
        assert_eq!((m.windows(), m.remaining()), (1, 4));
        assert_eq!(m.current(), Some(&[0.25, 0.75][..]));
        assert_eq!(m.reference(), m.current());
    }

    #[test]
    fn a_roll_adds_the_window_then_snapshots_then_decays() {
        // 0.9 is not a power of two, so every multiply rounds and only
        // this order reproduces the bits: add each bin's window sum in
        // bin order (the total kept running), snapshot bins / total,
        // then scale bins and total by the decay.
        let decay = 0.9;
        let mut m = DriftMonitor::new(
            3,
            DriftConfig {
                window: 2,
                decay,
                smoothing: 1e-2,
            },
        );
        let (mut bins, mut total) = ([0.0f64; 3], 0.0f64);
        for sums in [[2u32, 1, 5], [1, 11, 11], [11, 9, 3], [1, 11, 0]] {
            // Two requests per window, each sum split unevenly.
            for (bin, &s) in sums.iter().enumerate() {
                m.observe(bin, f64::from(s / 3));
            }
            assert!(!m.tick());
            for (bin, &s) in sums.iter().enumerate() {
                m.observe(bin, f64::from(s - s / 3));
            }
            assert!(m.tick());
            for (bin, &s) in sums.iter().enumerate() {
                if s > 0 {
                    bins[bin] += f64::from(s);
                    total += f64::from(s);
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let expected: Vec<f64> = bins.iter().map(|&b| b / total).collect();
            assert_eq!(bits(m.current().unwrap()), bits(&expected));
            for b in &mut bins {
                *b *= decay;
            }
            total *= decay;
        }
        assert_eq!(m.windows(), 4);
    }

    #[test]
    fn decay_halves_weight_per_roll() {
        let mut m = DriftMonitor::new(
            2,
            DriftConfig {
                window: 1,
                decay: 0.5,
                smoothing: 1e-2,
            },
        );
        m.observe(0, 8.0);
        for _ in 0..3 {
            assert!(m.tick());
        }
        // Bin 0 has decayed 8 → 1; new weight lands at full strength.
        m.observe(1, 1.0);
        assert!(m.tick());
        assert_eq!(m.current(), Some(&[0.5, 0.5][..]));
        assert_eq!(m.reference(), Some(&[1.0, 0.0][..]));
    }

    #[test]
    fn garbage_weights_are_ignored() {
        let mut m = DriftMonitor::new(2, DriftConfig::default());
        m.observe(7, 1.0); // out of range
        m.observe(0, f64::NAN);
        m.observe(0, f64::INFINITY);
        m.observe(0, -3.0);
        m.observe(0, 0.0);
        // Finite weights whose window sum overflows are dropped whole.
        m.observe(1, f64::MAX);
        m.observe(1, f64::MAX);
        assert!(m.tick_n(m.remaining()));
        assert_eq!((m.current(), m.psi()), (None, None));
        m.observe(0, 2.0);
        assert!(m.tick_n(m.remaining()));
        assert_eq!(m.current(), Some(&[1.0, 0.0][..]));
    }

    #[test]
    fn monitor_sees_a_shift() {
        let mut m = DriftMonitor::new(
            2,
            DriftConfig {
                window: 10,
                decay: 0.25,
                smoothing: 1e-6,
            },
        );
        // Reference window: all weight in bin 0.
        for _ in 0..10 {
            m.observe(0, 1.0);
            m.tick();
        }
        assert_eq!(m.psi(), Some(0.0));
        // Shifted traffic: all weight in bin 1 for several windows so
        // the decayed weights converge to the new distribution.
        for _ in 0..30 {
            m.observe(1, 1.0);
            m.tick();
        }
        let score = m.psi().unwrap();
        assert!(score > 0.25, "psi after shift = {score}");
        // Re-baselining on the shifted traffic calms the score again.
        m.rebaseline();
        for _ in 0..10 {
            m.observe(1, 1.0);
            m.tick();
        }
        let calmed = m.psi().unwrap();
        assert!(calmed < 0.05, "psi after rebaseline = {calmed}");
    }

    #[test]
    fn steady_traffic_stays_calm() {
        let mut m = DriftMonitor::new(8, DriftConfig::default());
        for i in 0..2048u64 {
            m.observe((i % 8) as usize, 1.0 + (i % 3) as f64);
            m.tick();
        }
        let score = m.psi().unwrap();
        assert!(score < 0.01, "steady psi = {score}");
    }
}
