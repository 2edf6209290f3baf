//! Point-in-time metric snapshots and their exposition formats.
//!
//! A [`MetricsSnapshot`] is plain data — taking one costs a relaxed
//! load per atomic and never blocks recorders. It renders to the
//! Prometheus text exposition format ([`MetricsSnapshot::to_prometheus`])
//! or to a JSON document ([`MetricsSnapshot::to_json`]); both are
//! deterministic given the same underlying values.

use std::fmt::Write;

/// Metric family type, mirroring the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Free-moving gauge.
    Gauge,
    /// Bucketed histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A captured histogram: cumulative `le` buckets plus sum and count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)`; `None` is the `+Inf` bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Sum of observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

/// One sample value inside a family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter or gauge reading.
    Integer(u64),
    /// Histogram reading.
    Histogram(HistogramSnapshot),
}

/// One sample of a family: a label set (possibly empty) and a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// `(label_name, label_value)` pairs, already in render order.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// A captured metric family: name, help text, kind, and its samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family name (e.g. `parj_queries_total`).
    pub name: String,
    /// One-line help text for the `# HELP` comment.
    pub help: String,
    /// Family type.
    pub kind: MetricKind,
    /// Samples, in deterministic order.
    pub samples: Vec<Sample>,
}

/// A point-in-time capture of every family in a registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Families in registration order.
    pub families: Vec<FamilySnapshot>,
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        write!(out, "{k}=\"{}\"", prometheus_escape(v)).expect("write");
    }
    out.push('}');
}

/// Escapes a label value per the Prometheus text format.
fn prometheus_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` comments followed by one
    /// line per sample; histograms expand into `_bucket`/`_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            writeln!(out, "# HELP {} {}", fam.name, fam.help).expect("write");
            writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str()).expect("write");
            for sample in &fam.samples {
                match &sample.value {
                    SampleValue::Integer(v) => {
                        out.push_str(&fam.name);
                        render_labels(&mut out, &sample.labels, None);
                        writeln!(out, " {v}").expect("write");
                    }
                    SampleValue::Histogram(h) => {
                        for (bound, count) in &h.buckets {
                            let le = match bound {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            write!(out, "{}_bucket", fam.name).expect("write");
                            render_labels(&mut out, &sample.labels, Some(("le", &le)));
                            writeln!(out, " {count}").expect("write");
                        }
                        write!(out, "{}_sum", fam.name).expect("write");
                        render_labels(&mut out, &sample.labels, None);
                        writeln!(out, " {}", h.sum).expect("write");
                        write!(out, "{}_count", fam.name).expect("write");
                        render_labels(&mut out, &sample.labels, None);
                        writeln!(out, " {}", h.count).expect("write");
                    }
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document:
    /// `{"families": [{"name": ..., "kind": ..., "samples": [...]}]}`.
    /// Hand-rolled so the crate stays dependency-free.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"families\":[");
        for (fi, fam) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"help\":\"{}\",\"kind\":\"{}\",\"samples\":[",
                json_escape(&fam.name),
                json_escape(&fam.help),
                fam.kind.as_str()
            )
            .expect("write");
            for (si, sample) in fam.samples.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in sample.labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v)).expect("write");
                }
                out.push_str("},");
                match &sample.value {
                    SampleValue::Integer(v) => {
                        write!(out, "\"value\":{v}").expect("write");
                    }
                    SampleValue::Histogram(h) => {
                        out.push_str("\"buckets\":[");
                        for (bi, (bound, count)) in h.buckets.iter().enumerate() {
                            if bi > 0 {
                                out.push(',');
                            }
                            match bound {
                                Some(b) => write!(out, "{{\"le\":{b},\"count\":{count}}}"),
                                None => write!(out, "{{\"le\":null,\"count\":{count}}}"),
                            }
                            .expect("write");
                        }
                        write!(out, "],\"sum\":{},\"count\":{}", h.sum, h.count).expect("write");
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Appends another snapshot's families after this one's, producing
    /// a single exposition document (e.g. engine + server families on
    /// one `/metrics` page). Families are assumed disjoint by name —
    /// registries use distinct prefixes — so no de-duplication happens.
    pub fn merge(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        self.families.extend(other.families);
        self
    }

    /// Looks up a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The integer value of `name`'s sample whose labels equal
    /// `labels` (order-sensitive); `None` for histograms / misses.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fam = self.family(name)?;
        let sample = fam.samples.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })?;
        match &sample.value {
            SampleValue::Integer(v) => Some(*v),
            SampleValue::Histogram(_) => None,
        }
    }
}
