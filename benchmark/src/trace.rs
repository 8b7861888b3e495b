//! The traced rep: per-layer virtual self-times out of the `shrimp-obs`
//! recorder, and the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use shrimp_obs::{breakdown, Layer, SpanRec};

use crate::host::HostSpan;

/// Virtual time of every traced message, split by the layer that was
/// working on it.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Spans recorded.
    pub spans: usize,
    /// Messages traced.
    pub messages: u64,
    /// Messages whose segments sum exactly to their end-to-end time.
    pub conserved: u64,
    /// Picoseconds from each message's first span to its last, summed.
    pub total_ps: u64,
    /// Picoseconds no layer covered: on the wire, queued, or blocked.
    pub wait_ps: u64,
    /// Self time per layer: a span's time minus what deeper spans of
    /// the same message cover.
    pub self_ps: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    /// Group the spans by message and run `shrimp_obs::breakdown` on
    /// each group. `breakdown` attributes every elementary interval to
    /// the innermost covering span, which is exactly self time.
    pub fn of(mut spans: Vec<SpanRec>) -> LayerTimes {
        let mut out = LayerTimes {
            spans: spans.len(),
            ..LayerTimes::default()
        };
        spans.retain(|s| s.msg.is_some());
        spans.sort_by_key(|s| s.msg);
        for group in spans.chunk_by(|a, b| a.msg == b.msg) {
            let Some(b) = breakdown(group, group[0].msg) else {
                continue;
            };
            out.messages += 1;
            out.conserved += u64::from(b.is_conserved());
            out.total_ps += b.total().as_ps();
            for seg in &b.segments {
                match seg.layer {
                    Some(layer) => {
                        *out.self_ps.entry(layer.as_str()).or_default() += seg.dur.as_ps()
                    }
                    None => out.wait_ps += seg.dur.as_ps(),
                }
            }
        }
        out
    }

    /// `layer`'s share of all traced message time.
    pub fn share(&self, layer: Layer) -> f64 {
        let ps = self.self_ps.get(layer.as_str()).copied().unwrap_or(0);
        ps as f64 / self.total_ps.max(1) as f64
    }

    /// Share of traced message time no layer covered.
    pub fn wait_share(&self) -> f64 {
        self.wait_ps as f64 / self.total_ps.max(1) as f64
    }

    /// Share of messages that conserved; 1 when nothing was traced.
    pub fn conserved_share(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.conserved as f64 / self.messages as f64
        }
    }
}

/// A JSON number: every digit of a finite value, `null` otherwise.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}` in the given order.
pub fn metrics_object<'a>(rows: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = rows
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(value),
                string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The trace file's text.
pub fn render(
    workload: &str,
    seed: u64,
    host_spans: &[HostSpan],
    layers: &LayerTimes,
    per_layer: &str,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", string(workload));
    let _ = writeln!(out, "  \"seed\": {seed},");
    out.push_str("  \"host_spans\": [\n");
    for (i, s) in host_spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "    {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}{}",
            string(&s.name),
            num(s.start_s),
            num(s.end_s),
            if i + 1 == host_spans.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"virtual_layers\": {\n");
    let _ = writeln!(out, "    \"spans\": {},", layers.spans);
    let _ = writeln!(out, "    \"messages\": {},", layers.messages);
    let _ = writeln!(out, "    \"conserved\": {},", layers.conserved);
    let _ = writeln!(out, "    \"total_ps\": {},", layers.total_ps);
    let _ = writeln!(out, "    \"wait_ps\": {},", layers.wait_ps);
    let selfs: Vec<String> = layers
        .self_ps
        .iter()
        .map(|(l, ps)| format!("{}: {ps}", string(l)))
        .collect();
    let _ = writeln!(out, "    \"self_ps\": {{{}}}", selfs.join(", "));
    let _ = writeln!(out, "  }},\n  \"per_layer\": {per_layer}\n}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_obs::MsgId;
    use shrimp_sim::{SimDur, SimTime};

    fn span(msg: u64, layer: Layer, a: f64, b: f64) -> SpanRec {
        SpanRec {
            msg: MsgId(msg),
            node: 0,
            layer,
            name: "x",
            start: SimTime::ZERO + SimDur::from_us(a),
            end: SimTime::ZERO + SimDur::from_us(b),
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_gaps_are_wait() {
        let t = LayerTimes::of(vec![
            span(2, Layer::User, 0.0, 10.0),
            span(1, Layer::User, 0.0, 2.0),
            span(2, Layer::Endpoint, 2.0, 4.0),
            span(1, Layer::Deposit, 5.0, 6.0),
            span(0, Layer::Service, 0.0, 100.0),
        ]);
        assert_eq!(t.spans, 5);
        assert_eq!((t.messages, t.conserved), (2, 2));
        assert_eq!(t.total_ps, 16_000_000);
        assert_eq!(t.self_ps["user"], 10_000_000);
        assert_eq!(t.self_ps["endpoint"], 2_000_000);
        assert_eq!(t.self_ps["deposit"], 1_000_000);
        assert_eq!(t.wait_ps, 3_000_000);
        assert!((t.share(Layer::User) - 0.625).abs() < 1e-12);
        assert_eq!(t.conserved_share(), 1.0);
        assert_eq!(LayerTimes::of(Vec::new()).conserved_share(), 1.0);
    }

    #[test]
    fn json_pieces_are_valid() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(
            metrics_object([("wall_s", 2.25, "s")].into_iter()),
            "{\"wall_s\": {\"value\": 2.25, \"unit\": \"s\"}}"
        );
    }
}
