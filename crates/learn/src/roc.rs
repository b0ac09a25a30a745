//! ROC curves (Figure 3 of the paper).

/// One operating point of a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False-positive rate at the threshold.
    pub fpr: f64,
    /// True-positive rate at the threshold.
    pub tpr: f64,
}

/// A full ROC curve, ordered by increasing FPR.
#[derive(Debug, Clone, Default)]
pub struct RocCurve {
    /// The operating points, (0,0) to (1,1).
    pub points: Vec<RocPoint>,
}

impl RocCurve {
    /// Builds the curve from classifier scores and ground truth
    /// (`true` = attack). Score ties collapse into a single point.
    pub fn from_scores(scores: &[f64], labels: &[bool]) -> RocCurve {
        assert_eq!(scores.len(), labels.len(), "scores/labels mismatch");
        let pos = labels.iter().filter(|&&l| l).count();
        let neg = labels.len() - pos;
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut points = vec![RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0,
        }];
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut i = 0;
        while i < order.len() {
            let t = scores[order[i]];
            // Consume the whole tie group.
            while i < order.len() && scores[order[i]] == t {
                if labels[order[i]] {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            points.push(RocPoint {
                threshold: t,
                fpr: if neg == 0 {
                    0.0
                } else {
                    fp as f64 / neg as f64
                },
                tpr: if pos == 0 {
                    0.0
                } else {
                    tp as f64 / pos as f64
                },
            });
        }
        RocCurve { points }
    }

    /// Area under the curve by trapezoidal rule.
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let dx = w[1].fpr - w[0].fpr;
            area += dx * (w[0].tpr + w[1].tpr) / 2.0;
        }
        area
    }

    /// The highest TPR achievable with FPR at or below `max_fpr`.
    pub fn tpr_at_fpr(&self, max_fpr: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.fpr <= max_fpr)
            .map(|p| p.tpr)
            .fold(0.0, f64::max)
    }

    /// CSV export: `threshold,fpr,tpr` per line.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("threshold,fpr,tpr\n");
        for p in &self.points {
            out.push_str(&format!("{},{:.6},{:.6}\n", p.threshold, p.fpr, p.tpr));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier_has_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!((roc.auc() - 1.0).abs() < 1e-12);
        assert_eq!(roc.tpr_at_fpr(0.0), 1.0);
    }

    #[test]
    fn random_classifier_has_auc_half() {
        // Every score tie-group holds 5 positives and 5 negatives, so
        // the curve is exactly the diagonal.
        let scores: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let labels: Vec<bool> = (0..100).map(|i| i < 50).collect();
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!((roc.auc() - 0.5).abs() < 1e-9, "auc = {}", roc.auc());
    }

    #[test]
    fn inverted_classifier_has_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!(roc.auc() < 1e-12);
    }

    #[test]
    fn curve_is_monotone() {
        let scores = [0.9, 0.7, 0.7, 0.5, 0.3, 0.2];
        let labels = [true, false, true, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        for w in roc.points.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
        // Ends at (1,1).
        let last = roc.points.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn ties_collapse() {
        let scores = [0.5, 0.5, 0.5];
        let labels = [true, false, true];
        let roc = RocCurve::from_scores(&scores, &labels);
        // Start point plus one tie-group point.
        assert_eq!(roc.points.len(), 2);
    }

    #[test]
    fn csv_shape() {
        let roc = RocCurve::from_scores(&[0.6, 0.4], &[true, false]);
        let csv = roc.to_csv();
        assert!(csv.starts_with("threshold,fpr,tpr\n"));
        assert_eq!(csv.lines().count(), 1 + roc.points.len());
    }
}
