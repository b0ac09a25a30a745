//! Latency-SLO burn-rate evaluation over the gateway's latency
//! histogram.
//!
//! A [`LatencySlo`] turns the cumulative `serve.latency_ns` histogram
//! into the classic multi-window burn-rate signal: each evaluation
//! tick snapshots the histogram, counts requests at or under the
//! latency threshold as *good* (using the histogram's cumulative
//! bucket counts — no per-request bookkeeping), and feeds the
//! cumulative `(good, total)` pair to a
//! [`BurnRateEvaluator`](psigene_telemetry::insight::BurnRateEvaluator).
//! The resulting fast/slow burns and the joint alert are exported as
//! `slo.*` gauges with handles resolved once per process.
//!
//! Windows are measured in ticks, so the caller's tick cadence
//! defines the wall-clock meaning of "fast" and "slow" (e.g. a tick
//! every 10 s with the default 6/36 windows gives 1 min / 6 min).

use crate::handoff::lock;
use psigene_telemetry::insight::{BurnRate, BurnRateEvaluator, SloConfig};
use psigene_telemetry::{Gauge, HistogramSnapshot};
use std::sync::{Arc, Mutex, OnceLock};

/// Pre-resolved `slo.*` gauge handles (one registry lookup per
/// process).
struct SloMetrics {
    fast: Arc<Gauge>,
    slow: Arc<Gauge>,
    alerting: Arc<Gauge>,
}

fn slo_metrics() -> &'static SloMetrics {
    static METRICS: OnceLock<SloMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let telemetry = psigene_telemetry::global();
        SloMetrics {
            fast: telemetry.gauge("slo.burn.fast"),
            slow: telemetry.gauge("slo.burn.slow"),
            alerting: telemetry.gauge("slo.alerting"),
        }
    })
}

/// "`target` of requests complete within `threshold_ns`" — evaluated
/// as a multi-window burn rate over the serving latency histogram.
pub struct LatencySlo {
    threshold_ns: u64,
    evaluator: Mutex<BurnRateEvaluator>,
}

impl std::fmt::Debug for LatencySlo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencySlo")
            .field("threshold_ns", &self.threshold_ns)
            .finish_non_exhaustive()
    }
}

impl LatencySlo {
    /// An SLO of `config.target` of requests at or under
    /// `threshold_ns` end-to-end.
    pub fn new(threshold_ns: u64, config: SloConfig) -> LatencySlo {
        LatencySlo {
            threshold_ns,
            evaluator: Mutex::new(BurnRateEvaluator::new(config)),
        }
    }

    /// The latency threshold separating good from bad requests.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// The (clamped) SLO configuration in force.
    pub fn config(&self) -> SloConfig {
        *lock(&self.evaluator).config()
    }

    /// One evaluation tick against the process-global
    /// `serve.latency_ns` histogram; returns the updated burn.
    pub fn tick(&self) -> BurnRate {
        let snap = psigene_telemetry::global()
            .histogram("serve.latency_ns")
            .snapshot();
        self.record_snapshot(&snap)
    }

    /// One evaluation tick from an explicit cumulative latency
    /// snapshot (tests, or an aggregate over several gateways).
    /// Updates the `slo.burn.fast` / `slo.burn.slow` /
    /// `slo.alerting` gauges.
    pub fn record_snapshot(&self, snapshot: &HistogramSnapshot) -> BurnRate {
        let good = snapshot.count_le(self.threshold_ns);
        let total = snapshot.count();
        let mut evaluator = lock(&self.evaluator);
        evaluator.record(good, total);
        let burn = evaluator.burn();
        let alerting = evaluator.alerting();
        drop(evaluator);
        let m = slo_metrics();
        if let Some(f) = burn.fast {
            m.fast.set(f);
        }
        if let Some(s) = burn.slow {
            m.slow.set(s);
        }
        m.alerting.set(if alerting { 1.0 } else { 0.0 });
        burn
    }

    /// Current burn over both windows (no new snapshot is taken).
    pub fn burn(&self) -> BurnRate {
        lock(&self.evaluator).burn()
    }

    /// Whether both windows are burning at or above the alert factor.
    pub fn alerting(&self) -> bool {
        lock(&self.evaluator).alerting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_telemetry::Histogram;

    fn cfg() -> SloConfig {
        SloConfig {
            target: 0.9,
            fast_window: 2,
            slow_window: 4,
            alert_factor: 2.0,
        }
    }

    #[test]
    fn fast_traffic_keeps_the_budget() {
        let slo = LatencySlo::new(1_000_000, cfg());
        let h = Histogram::new();
        for _ in 0..4 {
            for _ in 0..100 {
                h.record(10_000); // 10 µs, well under 1 ms
            }
            slo.record_snapshot(&h.snapshot());
        }
        let b = slo.burn();
        assert_eq!(b.fast, Some(0.0), "{b:?}");
        assert!(!slo.alerting());
    }

    #[test]
    fn slow_traffic_burns_and_alerts() {
        let slo = LatencySlo::new(1_000_000, cfg());
        let h = Histogram::new();
        for _ in 0..6 {
            for _ in 0..50 {
                h.record(10_000);
                h.record(50_000_000); // 50 ms: over threshold
            }
            slo.record_snapshot(&h.snapshot());
        }
        let b = slo.burn();
        // Half the traffic is bad against a 10% budget: burn ≈ 5.
        assert!(b.fast.unwrap() > 2.0, "{b:?}");
        assert!(b.slow.unwrap() > 2.0, "{b:?}");
        assert!(slo.alerting());
        // The joint alert is exported as a gauge.
        assert_eq!(psigene_telemetry::global().gauge("slo.alerting").get(), 1.0);
    }

    #[test]
    fn recovery_clears_the_fast_window_first() {
        let slo = LatencySlo::new(1_000_000, cfg());
        let h = Histogram::new();
        // Burn for a while…
        for _ in 0..5 {
            for _ in 0..100 {
                h.record(50_000_000);
            }
            slo.record_snapshot(&h.snapshot());
        }
        assert!(slo.alerting());
        // …then recover: new traffic is all good.
        for _ in 0..2 {
            for _ in 0..100 {
                h.record(10_000);
            }
            slo.record_snapshot(&h.snapshot());
        }
        let b = slo.burn();
        assert_eq!(b.fast, Some(0.0), "{b:?}");
        assert!(b.slow.unwrap() > 0.0, "{b:?}");
        assert!(!slo.alerting(), "fast window recovered");
    }
}
