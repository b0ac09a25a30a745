//! Multi-window SLO burn-rate evaluation.
//!
//! An SLO of the form "`target` of requests are good" (good = under
//! the latency bound, evaluated, not shed, …) leaves an error budget
//! of `1 − target`. The *burn rate* is how fast current traffic is
//! spending that budget: observed error rate ÷ budget, so 1.0 spends
//! exactly the budget over the SLO period, 10× spends it ten times
//! too fast. Following the classic multi-window alerting rule, the
//! evaluator computes the burn over a *fast* window (catches sudden
//! regressions) and a *slow* window (suppresses blips): both must
//! exceed the alert factor before [`BurnRateEvaluator::alerting`]
//! fires. That joint signal is what a shadow/canary promoter gates
//! on — never promote (or always roll back) while the SLO is burning.
//!
//! The evaluator is fed *cumulative* good/total counts (a counter or
//! histogram snapshot per evaluation interval); windows are measured
//! in recorded snapshots, so the caller controls the wall-clock
//! meaning of "fast" and "slow" by its snapshot cadence.

use std::collections::VecDeque;

/// SLO target and window sizing for a [`BurnRateEvaluator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Fraction of requests that must be good (e.g. `0.99`); clamped
    /// to `[0, 1)` so the error budget never reaches zero.
    pub target: f64,
    /// Fast window length, in recorded snapshots.
    pub fast_window: usize,
    /// Slow window length, in recorded snapshots (≥ fast).
    pub slow_window: usize,
    /// Burn rate at or above which a window is considered burning.
    pub alert_factor: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            target: 0.99,
            fast_window: 6,
            slow_window: 36,
            alert_factor: 2.0,
        }
    }
}

/// Burn rates over the two windows; `None` while a window has seen no
/// traffic (or not enough snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BurnRate {
    /// Burn over the fast window.
    pub fast: Option<f64>,
    /// Burn over the slow window.
    pub slow: Option<f64>,
}

/// Streaming burn-rate evaluation over cumulative good/total counts.
#[derive(Debug, Clone)]
pub struct BurnRateEvaluator {
    config: SloConfig,
    /// Cumulative `(good, total)` snapshots, oldest first; bounded at
    /// `slow_window + 1` entries.
    snapshots: VecDeque<(u64, u64)>,
}

impl BurnRateEvaluator {
    /// An evaluator with the given SLO; windows are clamped to ≥ 1
    /// and `slow ≥ fast`.
    pub fn new(config: SloConfig) -> BurnRateEvaluator {
        let fast = config.fast_window.max(1);
        BurnRateEvaluator {
            config: SloConfig {
                target: config.target.clamp(0.0, 1.0 - 1e-9),
                fast_window: fast,
                slow_window: config.slow_window.max(fast),
                ..config
            },
            snapshots: VecDeque::new(),
        }
    }

    /// The (clamped) configuration in force.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records one cumulative snapshot: `good` requests out of
    /// `total` so far. Counts are cumulative, so a snapshot that went
    /// backwards (a registry reset) clears the history instead of
    /// producing negative deltas.
    pub fn record(&mut self, good: u64, total: u64) {
        if let Some(&(last_good, last_total)) = self.snapshots.back() {
            if good < last_good || total < last_total {
                self.snapshots.clear();
            }
        }
        self.snapshots.push_back((good, total));
        while self.snapshots.len() > self.config.slow_window + 1 {
            self.snapshots.pop_front();
        }
    }

    /// Error rate over the trailing `window` snapshots, `None` when
    /// no traffic landed in the window.
    fn error_rate(&self, window: usize) -> Option<f64> {
        let newest = *self.snapshots.back()?;
        // With fewer snapshots than the window asks for, use the
        // oldest available — a short history reads as "window so far".
        let base_idx = self.snapshots.len().saturating_sub(window + 1);
        let oldest = *self.snapshots.get(base_idx)?;
        if self.snapshots.len() < 2 {
            return None;
        }
        let total = newest.1.saturating_sub(oldest.1);
        if total == 0 {
            return None;
        }
        let good = newest.0.saturating_sub(oldest.0);
        let bad = total.saturating_sub(good);
        Some(bad as f64 / total as f64)
    }

    /// Current burn over both windows.
    pub fn burn(&self) -> BurnRate {
        let budget = (1.0 - self.config.target).max(1e-9);
        BurnRate {
            fast: self.error_rate(self.config.fast_window).map(|e| e / budget),
            slow: self.error_rate(self.config.slow_window).map(|e| e / budget),
        }
    }

    /// Whether both windows are burning at or above the alert factor.
    pub fn alerting(&self) -> bool {
        let b = self.burn();
        matches!(
            (b.fast, b.slow),
            (Some(f), Some(s)) if f >= self.config.alert_factor && s >= self.config.alert_factor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            target: 0.9,
            fast_window: 2,
            slow_window: 4,
            alert_factor: 2.0,
        }
    }

    #[test]
    fn healthy_traffic_burns_nothing() {
        let mut e = BurnRateEvaluator::new(cfg());
        for i in 1..=6u64 {
            e.record(i * 100, i * 100); // all good
        }
        let b = e.burn();
        assert_eq!(b.fast, Some(0.0));
        assert_eq!(b.slow, Some(0.0));
        assert!(!e.alerting());
    }

    #[test]
    fn budget_exactly_spent_is_burn_one() {
        let mut e = BurnRateEvaluator::new(cfg()); // budget 10%
        for i in 1..=6u64 {
            e.record(i * 90, i * 100); // 10% bad, continuously
        }
        let b = e.burn();
        assert!((b.fast.unwrap() - 1.0).abs() < 1e-9, "{b:?}");
        assert!((b.slow.unwrap() - 1.0).abs() < 1e-9, "{b:?}");
        assert!(!e.alerting());
    }

    #[test]
    fn sudden_regression_trips_fast_then_alerts_when_slow_catches_up() {
        let mut e = BurnRateEvaluator::new(cfg());
        for i in 1..=4u64 {
            e.record(i * 100, i * 100);
        }
        // Regression: half the new traffic goes bad.
        let good = 450u64;
        let mut total = 500u64;
        e.record(good, total);
        let b = e.burn();
        assert!(b.fast.unwrap() >= 2.0, "{b:?}");
        // Slow window still mostly healthy → not alerting yet.
        assert!(b.slow.unwrap() < 2.0, "{b:?}");
        assert!(!e.alerting());
        for _ in 0..4 {
            total += 100;
            e.record(good, total);
        }
        assert!(e.alerting(), "{:?}", e.burn());
    }

    #[test]
    fn no_traffic_means_no_burn() {
        let mut e = BurnRateEvaluator::new(cfg());
        assert_eq!(e.burn(), BurnRate::default());
        e.record(0, 0);
        e.record(0, 0);
        assert_eq!(e.burn(), BurnRate::default());
        assert!(!e.alerting());
    }

    #[test]
    fn counter_reset_clears_history() {
        let mut e = BurnRateEvaluator::new(cfg());
        e.record(100, 100);
        e.record(200, 200);
        e.record(10, 10); // registry reset
        assert_eq!(e.burn(), BurnRate::default());
        e.record(20, 30);
        assert!(e.burn().fast.is_some());
    }

    #[test]
    fn degenerate_targets_are_clamped() {
        let e = BurnRateEvaluator::new(SloConfig {
            target: 1.5,
            fast_window: 0,
            slow_window: 0,
            alert_factor: 1.0,
        });
        assert!(e.config().target < 1.0);
        assert_eq!(e.config().fast_window, 1);
        assert_eq!(e.config().slow_window, 1);
    }
}
