//! In-memory spans around calls into each layer's public functions.
//!
//! Spans are recorded by the benchmark, from outside the product
//! crates: real spans wrap a call the harness makes (`request().run()`,
//! `to_sparql_json`, an HTTP round trip, `parse_ntriples_chunk`, …) and
//! *reported* children are laid out inside a real span from the phase
//! durations the call returned (`QueryRunStats`, `MutationOutcome`).
//! Nothing is written until the run ends.

use std::io::Write;
use std::time::Instant;

/// One span. `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Span recorder for the single traced client. A disabled tracer keeps
/// the replay code path identical while recording nothing, which is
/// how `trace.overhead_pct` is measured.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a real span; close it with [`Tracer::close`].
    pub fn open(&mut self, request_id: u64, name: &'static str, parent: Open) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request_id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
        });
        Open(Some(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a real span.
    pub fn span<R>(
        &mut self,
        request_id: u64,
        name: &'static str,
        parent: Open,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(request_id, name, parent);
        let r = f();
        self.close(s);
        r
    }

    /// Lays reported phase durations out back to back from the start of
    /// the (closed) span `parent`.
    pub fn reported_children(&mut self, parent: Open, phases: &[(&'static str, u64)]) {
        let Some(p) = parent.0 else { return };
        let Span {
            request_id,
            start_ns,
            ..
        } = self.spans[p as usize];
        let mut at = start_ns;
        for &(name, micros) in phases {
            let end = at + micros * 1_000;
            self.spans.push(Span {
                request_id,
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(p),
            });
            at = end;
        }
    }

    pub const ROOT: Open = Open(None);

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    /// Self time (ns) summed over every span called `name`: duration
    /// minus the part covered by direct children.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.durations(name)
            .iter()
            .zip(self.children_ns(name))
            .map(|(dur, children)| (dur - children).max(0.0))
            .sum()
    }

    /// For every span called `name`, the summed duration (ns) of its
    /// direct children: what the layer spans account for.
    pub fn children_ns(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &c)| c as f64)
            .collect()
    }

    /// Σ direct children ÷ Σ duration over spans called `name`: how much
    /// of the opaque call the layer spans account for.
    pub fn coverage(&self, name: &str) -> f64 {
        let total = self.total_ns(name);
        if total == 0.0 {
            return 0.0;
        }
        self.children_ns(name).iter().sum::<f64>() / total
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"request_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.request_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.open(1, "core.request", Tracer::ROOT);
        t.close(root);
        // Pin the root to a known length, then attach reported phases.
        t.spans[0].end_ns = t.spans[0].start_ns + 10_000;
        t.reported_children(root, &[("sparql.parse", 2), ("join.execute", 7)]);
        assert_eq!(t.total_ns("core.request"), 10_000.0);
        assert_eq!(t.self_ns("core.request"), 1_000.0);
        assert!((t.coverage("core.request") - 0.9).abs() < 1e-12);
        assert_eq!(t.durations("join.execute"), vec![7_000.0]);
        let kids: Vec<_> = t.spans().iter().filter(|s| s.parent == Some(0)).collect();
        assert_eq!(
            kids[1].start_ns, kids[0].end_ns,
            "phases are laid out back to back"
        );

        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            crate::json::parse(line).expect("every span line is JSON");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open(1, "x", Tracer::ROOT);
        t.reported_children(s, &[("y", 5)]);
        assert_eq!(t.span(2, "z", s, || 7), 7);
        t.close(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage("x"), 0.0);
    }
}
