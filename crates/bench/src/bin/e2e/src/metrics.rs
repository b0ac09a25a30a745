//! The benchmark's metric names, and the record one run of one
//! workload produces. `BENCHMARK.json` declares the same names, units,
//! directions and bounds; a test keeps the two in step.

use crate::calib::Timed;
use crate::check::Tally;
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    gated(name, unit, better, 0.0)
}

/// What a user of the system sees; measured with tracing off and
/// reported by every workload. The timings are of the direct path;
/// `gateway_throughput_rps` is requests per second of processor time
/// through the workload's gateway call, the one figure of that path
/// that repeats (README.md has the others and how they spread).
pub const END_TO_END: [Metric; 7] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("throughput_rps", "1/s", "higher", 0.12),
    gated("latency_p50_us", "us", "lower", 0.15),
    gated("latency_p99_us", "us", "lower", 0.25),
    gated("gateway_throughput_rps", "1/s", "higher", 0.25),
    gated("detect_accuracy", "ratio", "higher", 0.03),
    gated("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single layers and the harness itself; measured by the traced run.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 52] = [
    layer("http.parse_ns", "ns", "lower"),
    layer("http.parse_fail_ratio", "ratio", "lower"),
    layer("http.normalize_ns", "ns", "lower"),
    layer("http.normalize_passes", "count", "lower"),
    layer("regex.scan_ns", "ns", "lower"),
    layer("regex.scan_ns_per_byte", "ns", "lower"),
    layer("regex.dfa_miss_ratio", "ratio", "lower"),
    layer("regex.dfa_flushes", "count", "lower"),
    layer("regex.dfa_skipped_ratio", "ratio", "higher"),
    layer("regex.dfa_states", "count", "lower"),
    layer("features.extract_ns", "ns", "lower"),
    layer("features.count_ns", "ns", "lower"),
    layer("features.vm_runs_per_request", "count", "lower"),
    layer("features.vm_skip_ratio", "ratio", "higher"),
    layer("features.fallback_vm_runs_per_request", "count", "lower"),
    layer("features.nonzero_per_request", "count", "lower"),
    layer("core.score_ns", "ns", "lower"),
    layer("core.evaluate_ns", "ns", "lower"),
    layer("core.overhead_ns", "ns", "lower"),
    layer("core.insight_ns", "ns", "lower"),
    layer("core.insight_share", "ratio", "lower"),
    layer("core.flagged_ratio", "ratio", "higher"),
    layer("serve.cpu_ns", "ns", "lower"),
    layer("serve.wall_ns", "ns", "lower"),
    layer("serve.submit_ns", "ns", "lower"),
    layer("serve.overhead_ns", "ns", "lower"),
    layer("serve.latency_p50_us", "us", "lower"),
    layer("serve.latency_p99_us", "us", "lower"),
    layer("serve.sojourn_p50_us", "us", "lower"),
    layer("serve.sojourn_p99_us", "us", "lower"),
    layer("serve.shed_ratio", "ratio", "lower"),
    layer("serve.allocs_per_request", "count", "lower"),
    layer("serve.open_p50_us_at_20k", "us", "lower"),
    layer("serve.open_p50_us_at_80k", "us", "lower"),
    layer("serve.max_rate_within_slo_rps", "1/s", "higher"),
    layer("serve.generator_late_p99_us", "us", "lower"),
    layer("corpus.crawl_s", "s", "lower"),
    layer("features.extract_matrix_s", "s", "lower"),
    layer("cluster.bicluster_s", "s", "lower"),
    layer("learn.fit_s", "s", "lower"),
    layer("core.prepare_s", "s", "lower"),
    layer("raw.throughput_rps", "1/s", "higher"),
    layer("raw.calib_ms", "ms", "lower"),
    layer("raw.calib_spread", "ratio", "lower"),
    layer("bench.layer_sum_ratio", "ratio", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.timer_ns", "ns", "lower"),
    layer("failed_ratio", "ratio", "lower"),
    layer("detect_tpr", "ratio", "higher"),
    layer("detect_fpr", "ratio", "lower"),
    layer("allocs_per_request", "count", "lower"),
    layer("slo_met_ratio", "ratio", "higher"),
];

fn number(v: f64) -> Value {
    Value::Number(if v.is_finite() { v } else { 0.0 })
}

pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Everything one run of one workload measured.
pub struct Record {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    /// The reference verdict digest of the pool.
    pub digest: u64,
    values: BTreeMap<&'static str, f64>,
    /// Per metric estimated over slices: the slice and segment counts,
    /// the scale, and the quartiles of the raw per-slice values.
    spreads: BTreeMap<&'static str, Value>,
    /// Values kept in the detailed record only.
    notes: BTreeMap<&'static str, f64>,
}

impl Record {
    pub fn new(workload: &'static str, traced: bool) -> Record {
        Record {
            workload,
            traced,
            tally: Tally::default(),
            digest: 0,
            values: BTreeMap::new(),
            spreads: BTreeMap::new(),
            notes: BTreeMap::new(),
        }
    }

    /// Keeps an undeclared value for the detailed record.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    /// The metrics this record reports: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn metrics(&self) -> &'static [Metric] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            self.metrics().iter().any(|m| m.name == name),
            "{name} is not a declared metric of this run"
        );
        self.values.insert(name, value);
    }

    /// Sets `name` to `convert` of the pass's calibrated cost, and
    /// keeps the slice count and the quartiles of the raw per-slice
    /// values.
    pub fn put_timed(&mut self, name: &'static str, timed: &Timed, convert: impl Fn(f64) -> f64) {
        self.put(name, convert(timed.calibrated()));
        let [q1, q2, q3] = quartiles(&mut timed.slices.clone());
        self.spreads.insert(
            name,
            object([
                ("slices", number(timed.slices.len() as f64)),
                ("raw_q1", number(q1)),
                ("raw_median", number(q2)),
                ("raw_q3", number(q3)),
            ]),
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics()
            .iter()
            .map(|m| {
                let entry = object([
                    ("value", number(self.get(m.name))),
                    ("unit", Value::String(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", number(self.tally.attempted.max(1) as f64)),
            ("failed", number(self.tally.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// The result line plus what identifies and qualifies the run.
    pub fn detailed(&self, seed: u64, fingerprint: &Value) -> Value {
        let spreads = self
            .spreads
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        object([
            ("workload", Value::String(self.workload.to_string())),
            ("traced", Value::Bool(self.traced)),
            ("seed", number(seed as f64)),
            (
                "verdict_digest",
                Value::String(format!("{:016x}", self.digest)),
            ),
            ("machine", fingerprint.clone()),
            ("slices", Value::Object(spreads)),
            (
                "notes",
                Value::Object(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), number(*v)))
                        .collect(),
                ),
            ),
            ("result", self.result_line()),
        ])
    }

    /// One line per metric, for people.
    pub fn print(&self) {
        println!(
            "== {} ({}): attempted {} failed {} digest {:016x}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.tally.attempted,
            self.tally.failed,
            self.digest
        );
        for m in self.metrics() {
            println!(
                "{:<40} {:>16.4} {:<6} ({} is better)",
                m.name,
                self.get(m.name),
                m.unit,
                m.better
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name, 64, "_.-"), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(m.unit, 16, "_/%.-"), "unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let mut record = Record::new("benign_direct", traced);
            record.tally.add(10, 0);
            let line = record.result_line();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), record.metrics().len());
            for m in record.metrics() {
                let entry = metrics[m.name].as_object().unwrap();
                assert_eq!(entry.len(), 2);
                assert_eq!(entry["unit"].as_str(), Some(m.unit));
                assert!(entry["value"].as_f64().is_some());
            }
            // The line parses back as JSON.
            assert_eq!(serde_json::from_str(&line.to_string()).unwrap(), line);
        }
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut record = Record::new("attack_direct", false);
        record.tally.add(100, 1);
        assert_eq!(
            record.result_line().get("correct"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn timed_metric_is_calibrated_and_keeps_the_raw_quartiles() {
        let mut record = Record::new("benign_direct", false);
        let mut timed = Timed::new(1);
        for i in 1..=9 {
            timed.push(0, f64::from(i) * 1000.0, 1, 2.0);
        }
        record.put_timed("latency_p50_us", &timed, |ns| ns / 1000.0);
        assert_eq!(record.get("latency_p50_us"), 2.0);
        let detail = record.detailed(1, &Value::Null);
        let spread = detail.get("slices").unwrap().get("latency_p50_us").unwrap();
        assert_eq!(spread.get("slices").unwrap().as_u64(), Some(9));
        assert_eq!(spread.get("raw_q1").unwrap().as_f64(), Some(2500.0));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(d.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(d.get("unit").unwrap().as_str(), Some(m.unit));
                assert_eq!(d.get("better").unwrap().as_str(), Some(m.better));
                match d.get("bound") {
                    Some(bound) => assert_eq!(bound.as_f64(), Some(m.bound), "{}", m.name),
                    None => assert_eq!(key, "per_layer"),
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::pool::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
