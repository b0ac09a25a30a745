//! Snapshot exporters: JSON for tooling, the Prometheus text format
//! for scrapers.
//!
//! The JSON writer is hand-rolled (this crate takes no serialization
//! dependency): names are escaped per RFC 8259, non-finite floats
//! render as `null`, and map ordering follows the snapshot's
//! `BTreeMap`s, so output is deterministic.

use crate::registry::Snapshot;
use std::fmt::Write;

/// Renders a snapshot as a JSON document.
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    write_entries(&mut out, snap.counters.iter(), |out, v| {
        let _ = write!(out, "{v}");
    });
    out.push_str("},\n  \"gauges\": {");
    write_entries(&mut out, snap.gauges.iter(), |out, v| write_f64(out, *v));
    out.push_str("},\n  \"histograms\": {");
    write_entries(&mut out, snap.histograms.iter(), |out, h| {
        let _ = write!(out, "{{\"count\": {}", h.count());
        write_opt_field(out, "min", h.min());
        write_opt_field(out, "p50", h.p50());
        write_opt_field(out, "p90", h.p90());
        write_opt_field(out, "p99", h.p99());
        write_opt_field(out, "max", h.max());
        let _ = write!(out, ", \"sum\": {}", h.sum());
        out.push_str(", \"mean\": ");
        match h.mean() {
            Some(m) => write_f64(out, m),
            None => out.push_str("null"),
        }
        out.push_str(", \"buckets\": [");
        for (i, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{lo}, {c}]");
        }
        out.push_str("]}");
    });
    out.push_str("}\n}\n");
    out
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms
/// as cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
/// Dotted metric names are mangled to `snake_case` identifiers
/// (`serve.latency_ns` → `serve_latency_ns`); ordering follows the
/// snapshot's `BTreeMap`s, so output is deterministic.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        out.push_str(&n);
        out.push(' ');
        write_prometheus_f64(&mut out, *v);
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (le, cum) in h.cumulative_buckets() {
            if le == u64::MAX {
                continue; // folded into +Inf below
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// Mangles a dotted metric name into a valid Prometheus identifier:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit gets a `_` prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Prometheus renders non-finite samples as `NaN` / `+Inf` / `-Inf`.
fn write_prometheus_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, v) in entries {
        out.push_str(if first { "\n    " } else { ",\n    " });
        first = false;
        out.push('"');
        escape_into(out, name);
        out.push_str("\": ");
        write_value(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn write_opt_field(out: &mut String, name: &str, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, ", \"{name}\": {v}");
        }
        None => {
            let _ = write!(out, ", \"{name}\": null");
        }
    }
}

/// Writes a float as valid JSON (`null` for NaN/infinities; a `.0`
/// suffix keeps integral values typed as numbers with a fraction,
/// matching what lenient parsers expect for f64 round-trips).
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("crawler.pages").add(12);
        r.gauge("fill.rate").set(0.25);
        let h = r.histogram("span.pipeline.crawl");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        r.histogram("empty.hist");
        r.snapshot()
    }

    #[test]
    fn json_is_parseable_and_faithful() {
        let json = render_json(&sample());
        let v = serde_json::from_str(&json).expect("exporter emits valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("crawler.pages"))
                .and_then(|n| n.as_u64()),
            Some(12)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("fill.rate"))
                .and_then(|n| n.as_f64()),
            Some(0.25)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("span.pipeline.crawl"))
            .expect("histogram present");
        assert_eq!(h.get("count").and_then(|n| n.as_u64()), Some(3));
        assert_eq!(h.get("min").and_then(|n| n.as_u64()), Some(100));
        assert_eq!(h.get("max").and_then(|n| n.as_u64()), Some(300));
        assert!(h.get("p50").and_then(|n| n.as_u64()).is_some());
        let empty = v
            .get("histograms")
            .and_then(|h| h.get("empty.hist"))
            .expect("empty histogram present");
        assert_eq!(empty.get("count").and_then(|n| n.as_u64()), Some(0));
        assert!(empty.get("p50").map(|p| p.is_null()).unwrap_or(false));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = render_prometheus(&sample());
        // Dotted names are mangled, one TYPE line per metric.
        assert!(text.contains("# TYPE crawler_pages counter"));
        assert!(text.contains("crawler_pages 12"));
        assert!(text.contains("# TYPE fill_rate gauge"));
        assert!(text.contains("fill_rate 0.25"));
        assert!(text.contains("# TYPE span_pipeline_crawl histogram"));
        assert!(text.contains("span_pipeline_crawl_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("span_pipeline_crawl_sum 600"));
        assert!(text.contains("span_pipeline_crawl_count 3"));
        // Bucket series are cumulative and end at the total count.
        let cum: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("span_pipeline_crawl_bucket{le=\"") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!cum.is_empty());
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
        assert_eq!(*cum.last().unwrap(), 3);
        // Empty histograms still expose sum/count.
        assert!(text.contains("empty_hist_count 0"));
        // Every line is `name{labels} value`, `name value`, or a
        // comment — no spaces in names, no empty lines mid-document.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "bad exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_name_mangling() {
        let r = Registry::new();
        r.counter("drift.features.psi").inc();
        r.gauge("9starts.with-digit").set(f64::NAN);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("drift_features_psi 1"));
        assert!(text.contains("_9starts_with_digit NaN"));
    }

    #[test]
    fn names_are_escaped() {
        let r = Registry::new();
        r.counter("weird\"name\\with\ncontrol").inc();
        let json = render_json(&r.snapshot());
        assert!(serde_json::from_str(&json).is_ok(), "{json}");
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let json = render_json(&Snapshot::default());
        assert!(serde_json::from_str(&json).is_ok(), "{json}");
    }
}
