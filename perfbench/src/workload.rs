//! What one pass of a workload reports, and the text form a pass takes
//! when it runs in a child process.

use crate::trace::Span;

/// The measured and checked outcome of one pass over a workload's inputs.
///
/// Every workload has two timed phases (see `BENCHMARK.json`); phase 2
/// also times each of its items, for the latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    pub phase1_s: f64,
    pub phase1_items: f64,
    pub phase2_s: f64,
    pub phase2_items: f64,
    pub phase2_latencies_us: Vec<f64>,
    /// Operations attempted and failed (fallbacks, incomplete jobs,
    /// refusals, flagged or re-measured points, failed checks).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations found by the pass's checks.
    pub violations: Vec<String>,
    /// Digest of the pass's outputs.
    pub digest: u64,
    /// Per-layer counts, sizes and simulated outcomes of this pass, by
    /// metric name. All are deterministic for a given seed.
    pub counts: Vec<(String, f64)>,
}

impl PassResult {
    pub fn pass_s(&self) -> f64 {
        self.phase1_s + self.phase2_s
    }

    /// Records a correctness check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(what());
        }
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }
}

/// A workload after set-up: runs passes over its fixed inputs.
pub trait Workload {
    fn pass(&mut self, tracer: &mut crate::trace::Tracer) -> PassResult;
}

/// One child-process pass: set-up time, peak memory, the pass, its spans.
pub struct ChildPass {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub result: PassResult,
    pub spans: Vec<Span>,
}

impl ChildPass {
    /// Line-oriented text form; floats use Rust's shortest round-trip
    /// formatting, so the parent reads back the exact bits.
    pub fn render(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        line("setup_s", self.setup_s.to_string());
        line("peak_rss_mb", self.peak_rss_mb.to_string());
        line("phase1_s", r.phase1_s.to_string());
        line("phase1_items", r.phase1_items.to_string());
        line("phase2_s", r.phase2_s.to_string());
        line("phase2_items", r.phase2_items.to_string());
        for l in &r.phase2_latencies_us {
            line("latency_us", l.to_string());
        }
        line("attempted", r.attempted.to_string());
        line("failed", r.failed.to_string());
        for v in &r.violations {
            line("violation", v.replace('\n', " "));
        }
        line("digest", r.digest.to_string());
        for (name, v) in &r.counts {
            line("count", format!("{name} {v}"));
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            line(
                "span",
                format!("{} {parent} {} {} {}", s.id, s.name, s.start_ns, s.end_ns),
            );
        }
        out
    }

    pub fn parse(text: &str) -> Result<ChildPass, String> {
        let mut cp = ChildPass {
            setup_s: f64::NAN,
            peak_rss_mb: 0.0,
            result: PassResult::default(),
            spans: Vec::new(),
        };
        let f = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("bad number {s:?}: {e}"))
        };
        let u = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad integer {s:?}: {e}"))
        };
        for l in text.lines() {
            let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
            let r = &mut cp.result;
            match key {
                "setup_s" => cp.setup_s = f(rest)?,
                "peak_rss_mb" => cp.peak_rss_mb = f(rest)?,
                "phase1_s" => r.phase1_s = f(rest)?,
                "phase1_items" => r.phase1_items = f(rest)?,
                "phase2_s" => r.phase2_s = f(rest)?,
                "phase2_items" => r.phase2_items = f(rest)?,
                "latency_us" => r.phase2_latencies_us.push(f(rest)?),
                "attempted" => r.attempted = u(rest)?,
                "failed" => r.failed = u(rest)?,
                "violation" => r.violations.push(rest.to_string()),
                "digest" => r.digest = u(rest)?,
                "count" => {
                    let (name, v) = rest.split_once(' ').ok_or("bad count line")?;
                    r.counts.push((name.to_string(), f(v)?));
                }
                "span" => {
                    let p: Vec<&str> = rest.split(' ').collect();
                    if p.len() != 5 {
                        return Err(format!("bad span line {l:?}"));
                    }
                    cp.spans.push(Span {
                        id: u(p[0])? as usize,
                        parent: if p[1] == "-" {
                            None
                        } else {
                            Some(u(p[1])? as usize)
                        },
                        name: intern(p[2]),
                        start_ns: u(p[3])?,
                        end_ns: u(p[4])?,
                    });
                }
                _ => {}
            }
        }
        if cp.setup_s.is_nan() {
            return Err("child pass reported no set-up time".into());
        }
        Ok(cp)
    }
}

/// Span names are static strings; names read back from a child process
/// map onto the known layer names (any other name is leaked once).
fn intern(name: &str) -> &'static str {
    crate::LAYERS
        .iter()
        .map(|l| l.0)
        .chain(std::iter::once(crate::ROOT_SPAN))
        .find(|k| *k == name)
        .unwrap_or_else(|| Box::leak(name.to_string().into_boxed_str()))
}
