//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program). Each span has a name, a start and an end
//! relative to the run's epoch, and its parent; every span of one run
//! carries the run's id. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling tracing inside a span");
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.elapsed_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = self.elapsed_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends spans recorded elsewhere (a child process), re-based onto
    /// this tracer's ids and timeline.
    pub fn adopt(&mut self, spans: Vec<Span>, offset_ns: u64) {
        let base = self.spans.len();
        for s in spans {
            self.spans.push(Span {
                id: base + s.id,
                parent: s.parent.map(|p| base + p),
                name: s.name,
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
            });
        }
    }
}

/// Self time per span name: each span's duration minus the part of it
/// covered by its direct children. Summed over all spans of a name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.duration_s();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_s() - child_s[s.id];
    }
    out
}

/// Renders spans as JSON lines, one object per span, all tagged `run_id`.
pub fn to_json_lines(run_id: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "pass",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 2,
                parent: Some(0),
                name: "b",
                start_ns: 50,
                end_ns: 90,
            },
            Span {
                id: 3,
                parent: Some(2),
                name: "a",
                start_ns: 60,
                end_ns: 70,
            },
        ];
        let t = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(t["pass"], 30e-9));
        assert!(close(t["a"], 40e-9));
        assert!(close(t["b"], 30e-9));
        // Self times sum to the root's wall time.
        assert!(close(t.values().sum::<f64>(), 100e-9));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("x", || 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
