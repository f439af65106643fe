//! Exporters: JSONL dumps and a plain-text "top"-style table.
//!
//! Both renderers iterate `BTreeMap`s and format floats with Rust's
//! shortest-roundtrip `{:?}`, so output is a pure function of the snapshot
//! and trace contents — a deterministic DES run exports byte-identical
//! text for the same seed (asserted in `gm-core`'s scenario tests).
//!
//! JSONL format: one JSON object per line. Metric lines carry a `"kind"`
//! of `"counter"`, `"gauge"` or `"histogram"`; trace lines use
//! `"event"`/`"span"` plus a final `"trace_dropped"` record. No external
//! JSON dependency — strings are escaped by hand and non-finite floats
//! serialise as `null`.

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::trace::{TraceEvent, Tracer};

/// Escape `s` as the contents of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Serialise an `f64` as a JSON value: shortest-roundtrip decimal for
/// finite values, `null` for NaN and infinities (which JSON cannot carry).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Render a snapshot as JSONL: one line per counter, gauge and histogram,
/// in name order.
pub fn metrics_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        );
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            json_f64(*v)
        );
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"invalid\":{},\
             \"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            json_escape(name),
            h.count,
            h.invalid,
            json_f64(h.sum),
            json_f64(h.min),
            json_f64(h.max),
            json_f64(h.p50),
            json_f64(h.p90),
            json_f64(h.p99),
        );
    }
    out
}

fn event_json(ev: &TraceEvent) -> String {
    let mut line = format!(
        "{{\"kind\":\"event\",\"at_us\":{},\"name\":\"{}\"",
        ev.at_micros,
        json_escape(&ev.name)
    );
    if !ev.fields.is_empty() {
        line.push_str(",\"fields\":{");
        let mut first = true;
        for (k, v) in &ev.fields {
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(line, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        line.push('}');
    }
    line.push('}');
    line
}

/// Render the tracer's retained events as JSONL (oldest first), closing
/// with a `trace_dropped` record carrying the overflow count.
pub fn trace_jsonl(tracer: &Tracer) -> String {
    let mut out = String::new();
    for ev in tracer.events() {
        let _ = writeln!(out, "{}", event_json(&ev));
    }
    let _ = writeln!(
        out,
        "{{\"kind\":\"trace_dropped\",\"count\":{}}}",
        tracer.dropped()
    );
    out
}

/// Render a snapshot as a fixed-width "top"-style table in the
/// `gm_core::report` style: counters, gauges, then histogram quantiles.
pub fn render_top(title: &str, snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counter                                   value");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name:<40} {v:>7}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauge                                     value");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name:<40} {v:>7.3}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "histogram                        count      mean       p50       p90       p99       max"
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{:<30} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                name,
                h.count,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::metrics::Registry;
    use std::sync::Arc;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("grid.dispatches").add(12);
        r.gauge("market.spot.host000").set(0.125);
        let h = r.histogram("market.tick_us");
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        r
    }

    #[test]
    fn metrics_jsonl_is_one_object_per_line_in_name_order() {
        let text = metrics_jsonl(&sample_registry().snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"counter\"") && lines[0].contains("12"));
        assert!(lines[1].contains("\"kind\":\"gauge\"") && lines[1].contains("0.125"));
        assert!(lines[2].contains("\"kind\":\"histogram\"") && lines[2].contains("\"count\":3"));
    }

    #[test]
    fn jsonl_export_is_reproducible() {
        let r = sample_registry();
        assert_eq!(metrics_jsonl(&r.snapshot()), metrics_jsonl(&r.snapshot()));
    }

    #[test]
    fn trace_jsonl_includes_fields_and_drop_count() {
        let clock = ManualClock::new();
        let t = Tracer::new(4, Arc::new(clock.clone()));
        t.event_with("fault.host_crash", &[("host", "h\"3".to_owned())]);
        let text = trace_jsonl(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\\\"3"), "escaped quote: {}", lines[0]);
        assert_eq!(lines[1], "{\"kind\":\"trace_dropped\",\"count\":0}");
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let r = Registry::new();
        r.gauge("g").set(f64::NAN);
        let text = metrics_jsonl(&r.snapshot());
        assert!(text.contains("\"value\":null"), "{text}");
    }

    #[test]
    fn top_table_has_sections() {
        let text = render_top("telemetry", &sample_registry().snapshot());
        assert!(text.starts_with("telemetry\n"));
        assert!(text.contains("counter"));
        assert!(text.contains("market.spot.host000"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
