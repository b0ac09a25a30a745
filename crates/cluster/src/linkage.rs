//! Linkage criteria and their Lance–Williams update coefficients.

/// How the distance between merged clusters is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average of pairwise distances — **UPGMA**, the
    /// criterion the paper uses (§II-C).
    Average,
    /// Weighted average (WPGMA): each cluster contributes equally.
    Weighted,
}

impl Linkage {
    /// Lance–Williams update: distance from the merge of `a` (size
    /// `na`) and `b` (size `nb`) to another cluster `k`, given
    /// `d(a,k)`, `d(b,k)` and `d(a,b)`.
    pub fn update(&self, dak: f64, dbk: f64, dab: f64, na: usize, nb: usize) -> f64 {
        // `dab` is unused by these four (reducible) criteria but kept
        // in the signature for centroid/median variants.
        let _ = dab;
        match self {
            Linkage::Single => dak.min(dbk),
            Linkage::Complete => dak.max(dbk),
            Linkage::Average => {
                let (na, nb) = (na as f64, nb as f64);
                (na * dak + nb * dbk) / (na + nb)
            }
            Linkage::Weighted => 0.5 * dak + 0.5 * dbk,
        }
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Linkage::Single => "single",
            Linkage::Complete => "complete",
            Linkage::Average => "average (UPGMA)",
            Linkage::Weighted => "weighted (WPGMA)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_takes_min_complete_takes_max() {
        assert_eq!(Linkage::Single.update(1.0, 3.0, 0.5, 4, 2), 1.0);
        assert_eq!(Linkage::Complete.update(1.0, 3.0, 0.5, 4, 2), 3.0);
    }

    #[test]
    fn average_is_size_weighted() {
        // na=3 at distance 1, nb=1 at distance 5 → (3*1 + 1*5)/4 = 2.
        assert_eq!(Linkage::Average.update(1.0, 5.0, 0.0, 3, 1), 2.0);
    }

    #[test]
    fn weighted_ignores_sizes() {
        assert_eq!(Linkage::Weighted.update(1.0, 5.0, 0.0, 100, 1), 3.0);
    }

    #[test]
    fn update_lies_between_inputs() {
        for link in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Weighted,
        ] {
            let d = link.update(2.0, 4.0, 1.0, 5, 7);
            assert!((2.0..=4.0).contains(&d), "{link:?} gave {d}");
        }
    }
}
