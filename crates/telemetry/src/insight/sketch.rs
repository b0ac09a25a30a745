//! Exponentially-decayed frequency sketches.
//!
//! A [`DecayedSketch`] is a fixed-width vector of non-negative
//! weights, one per bin (feature id, score bucket, …), with an
//! explicit *generation* counter. Advancing the generation multiplies
//! every weight by a decay factor, so recent observations dominate
//! and the sketch tracks the *current* traffic distribution instead
//! of an all-time average. Two sketches with the same shape merge
//! bin-wise after aligning generations; merging is commutative down
//! to the bit (scaling factors are computed identically on either
//! side, and IEEE-754 addition is commutative), which the proptests
//! in this crate pin.

/// A fixed-width, exponentially-decayed weight vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DecayedSketch {
    bins: Vec<f64>,
    /// Total weight (kept in sync with `bins` so normalization never
    /// rescans on the hot path).
    total: f64,
    /// Multiplier applied to every weight per generation advance;
    /// clamped into `(0, 1]` at construction.
    decay: f64,
    generation: u64,
}

impl DecayedSketch {
    /// An empty sketch with `bins` slots and the given per-generation
    /// decay factor (clamped into `(0, 1]`; `1.0` disables decay).
    pub fn new(bins: usize, decay: f64) -> DecayedSketch {
        DecayedSketch {
            bins: vec![0.0; bins],
            total: 0.0,
            decay: if decay > 0.0 { decay.min(1.0) } else { 1.0 },
            generation: 0,
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the sketch has zero bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total decayed weight across all bins.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Current generation (number of decay steps applied).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The decay factor this sketch was built with.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Adds `weight` to `bin`. Out-of-range bins and non-finite or
    /// negative weights are ignored (a sketch never goes NaN because
    /// one caller fed it garbage).
    pub fn observe(&mut self, bin: usize, weight: f64) {
        if bin < self.bins.len() && weight.is_finite() && weight > 0.0 {
            self.bins[bin] += weight;
            self.total += weight;
        }
    }

    /// Applies `steps` decay generations (every weight × decay^steps).
    pub fn advance(&mut self, steps: u64) {
        if steps == 0 || self.decay >= 1.0 {
            self.generation += steps;
            return;
        }
        let factor = self.decay.powi(steps.min(i32::MAX as u64) as i32);
        for w in &mut self.bins {
            *w *= factor;
        }
        self.total *= factor;
        self.generation += steps;
    }

    /// Folds `other` into `self`, aligning generations first (the
    /// sketch that is behind is decayed forward; neither stream is
    /// privileged). Panics if the shapes differ.
    ///
    /// Merging is order-insensitive: for sketches `a`, `b` with the
    /// same shape and decay, `a.merge(&b)` and `b.merge(&a)` produce
    /// bit-identical bins (pinned by proptest).
    pub fn merge(&mut self, other: &DecayedSketch) {
        assert_eq!(self.bins.len(), other.bins.len(), "sketch width mismatch");
        assert_eq!(
            self.decay.to_bits(),
            other.decay.to_bits(),
            "sketch decay mismatch"
        );
        if self.generation < other.generation {
            self.advance(other.generation - self.generation);
        }
        let behind = self.generation - other.generation;
        let factor = if behind == 0 || self.decay >= 1.0 {
            1.0
        } else {
            self.decay.powi(behind.min(i32::MAX as u64) as i32)
        };
        for (a, &b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b * factor;
        }
        self.total += other.total * factor;
    }

    /// The normalized distribution over bins, or `None` when the
    /// sketch holds no weight.
    pub fn distribution(&self) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        self.distribution_into(&mut out).then_some(out)
    }

    /// [`distribution`](Self::distribution) written into `out`, reusing
    /// its allocation; `false` (and `out` empty) when the sketch holds
    /// no weight.
    pub fn distribution_into(&self, out: &mut Vec<f64>) -> bool {
        out.clear();
        if self.total <= 0.0 {
            return false;
        }
        out.extend(self.bins.iter().map(|&w| w / self.total));
        true
    }

    /// Raw per-bin weights.
    pub fn weights(&self) -> &[f64] {
        &self.bins
    }

    /// Drops all weight, keeping shape, decay and generation.
    pub fn clear(&mut self) {
        self.bins.iter_mut().for_each(|w| *w = 0.0);
        self.total = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_normalize() {
        let mut s = DecayedSketch::new(4, 0.5);
        s.observe(0, 3.0);
        s.observe(2, 1.0);
        assert_eq!(s.total(), 4.0);
        let d = s.distribution().unwrap();
        assert_eq!(d, vec![0.75, 0.0, 0.25, 0.0]);
    }

    #[test]
    fn decay_halves_weight_per_generation() {
        let mut s = DecayedSketch::new(2, 0.5);
        s.observe(0, 8.0);
        s.advance(3);
        assert!((s.total() - 1.0).abs() < 1e-12);
        assert_eq!(s.generation(), 3);
        // New weight lands at full strength next to the decayed old.
        s.observe(1, 1.0);
        let d = s.distribution().unwrap();
        assert!((d[0] - 0.5).abs() < 1e-12 && (d[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn garbage_observations_are_ignored() {
        let mut s = DecayedSketch::new(2, 0.9);
        s.observe(7, 1.0); // out of range
        s.observe(0, f64::NAN);
        s.observe(0, f64::INFINITY);
        s.observe(0, -3.0);
        assert_eq!(s.total(), 0.0);
        assert!(s.distribution().is_none());
    }

    #[test]
    fn merge_aligns_generations() {
        let mut a = DecayedSketch::new(2, 0.5);
        a.observe(0, 4.0);
        a.advance(2); // weight now 1.0
        let mut b = DecayedSketch::new(2, 0.5);
        b.observe(1, 1.0); // generation 0
        a.merge(&b); // b decays 2 generations → 0.25
        assert!((a.weights()[0] - 1.0).abs() < 1e-12);
        assert!((a.weights()[1] - 0.25).abs() < 1e-12);
        assert_eq!(a.generation(), 2);

        // Merging the other way matches after aligning to the same
        // final generation.
        let mut a2 = DecayedSketch::new(2, 0.5);
        a2.observe(0, 4.0);
        a2.advance(2);
        let mut b2 = DecayedSketch::new(2, 0.5);
        b2.observe(1, 1.0);
        b2.merge(&a2);
        assert_eq!(b2.weights(), a.weights());
    }

    #[test]
    fn clear_keeps_shape() {
        let mut s = DecayedSketch::new(3, 0.5);
        s.observe(1, 2.0);
        s.advance(1);
        s.clear();
        assert_eq!(s.total(), 0.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.generation(), 1);
    }
}
