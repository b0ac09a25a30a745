//! The metric registry: named counters, gauges and histograms with
//! get-or-create semantics and point-in-time snapshots.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};
use crate::span::Span;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A family of named metrics.
///
/// Metric handles are `Arc`s: resolve once on a hot path and keep the
/// handle, or resolve per use on cold paths — both observe the same
/// instrument. Names are flat strings; the convention throughout the
/// workspace is dotted `component.metric` paths (span histograms get
/// a `span.` prefix automatically).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The maps only ever gain or lose whole entries, so a holder that
/// panicked left them valid: a poisoned lock is recovered, not passed
/// on (DESIGN §11).
fn read<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// See [`read`].
fn write<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = read(map).get(name) {
        return Arc::clone(m);
    }
    Arc::clone(
        write(map)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default())),
    )
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter with this name, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge with this name, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram with this name, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Starts a timed span that records into `span.<name>`; see
    /// [`Span`].
    pub fn span(&self, name: &str) -> Span {
        Span::open(self, name)
    }

    /// A consistent point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: read(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Renders the current state as a JSON document.
    pub fn export_json(&self) -> String {
        crate::export::render_json(&self.snapshot())
    }

    /// Renders the current state in the Prometheus text exposition
    /// format.
    pub fn export_prometheus(&self) -> String {
        crate::export::render_prometheus(&self.snapshot())
    }
}

/// A point-in-time copy of a [`Registry`]'s instruments.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The change since an `earlier` snapshot of the same registry:
    /// counters and histograms subtract saturating (instruments
    /// missing from `earlier` pass through whole), gauges keep their
    /// current value (a gauge is a level, not a flow). Dividing the
    /// resulting counts by the wall-clock gap between the two
    /// snapshots yields rates.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let d = match earlier.histograms.get(k) {
                        Some(e) => v.saturating_sub(e),
                        None => v.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.counter("a").get(), 7);
        r.gauge("g").set(1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
        r.histogram("h").record(9);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn concurrent_get_or_create_is_exact() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1_000 {
                        r.counter(&format!("c{}", i % 5)).inc();
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 5);
        assert_eq!(snap.counters.values().sum::<u64>(), 8_000);
    }

    #[test]
    fn delta_since_isolates_recent_activity() {
        let r = Registry::new();
        r.counter("req").add(10);
        r.gauge("level").set(1.0);
        r.histogram("lat").record(100);
        let before = r.snapshot();
        r.counter("req").add(5);
        r.counter("fresh").add(2);
        r.gauge("level").set(3.0);
        r.histogram("lat").record(900);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counters["req"], 5);
        assert_eq!(delta.counters["fresh"], 2);
        assert_eq!(delta.gauges["level"], 3.0);
        assert_eq!(delta.histograms["lat"].count(), 1);
        assert!(delta.histograms["lat"].sum() >= 900);
    }
}
