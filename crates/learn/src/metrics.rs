//! Detection metrics: confusion matrices, TPR/FPR, and friends.

/// Counts of a binary detector's outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Attacks flagged as attacks.
    pub true_positives: usize,
    /// Benign flagged as attacks.
    pub false_positives: usize,
    /// Benign passed as benign.
    pub true_negatives: usize,
    /// Attacks passed as benign.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Accumulates one observation.
    pub fn record(&mut self, is_attack: bool, flagged: bool) {
        match (is_attack, flagged) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }

    /// True-positive rate (recall); 0 when no attacks were seen.
    pub fn tpr(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// False-positive rate; 0 when no benign traffic was seen.
    pub fn fpr(&self) -> f64 {
        ratio(
            self.false_positives,
            self.false_positives + self.true_negatives,
        )
    }

    /// Precision; 0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// F1 score; 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total())
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        ConfusionMatrix {
            true_positives: 80,
            false_negatives: 20,
            false_positives: 5,
            true_negatives: 995,
        }
    }

    #[test]
    fn rates() {
        let m = sample();
        assert!((m.tpr() - 0.8).abs() < 1e-12);
        assert!((m.fpr() - 0.005).abs() < 1e-12);
        assert!((m.precision() - 80.0 / 85.0).abs() < 1e-12);
        assert!((m.accuracy() - 1075.0 / 1100.0).abs() < 1e-12);
        assert!(m.f1() > 0.0);
    }

    #[test]
    fn empty_matrix_has_zero_rates() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.tpr(), 0.0);
        assert_eq!(m.fpr(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn record_and_merge() {
        let mut m = ConfusionMatrix::default();
        m.record(true, true);
        m.record(true, false);
        m.record(false, true);
        m.record(false, false);
        assert_eq!(m.total(), 4);
        let mut n = m;
        n.merge(&m);
        assert_eq!(n.total(), 8);
        assert_eq!(n.true_positives, 2);
    }
}
