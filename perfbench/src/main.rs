//! One benchmark for the whole system.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (reporting the median set-up time),
//! then runs passes over its seeded inputs until `--seconds` have elapsed,
//! checking every pass's outputs. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run alternates untraced and traced passes and reports each layer's self
//! time from the traced ones, plus the tracing overhead. Spans are written
//! to `.bench_build/perfbench-traces/` when the run ends.
//!
//! A non-zero exit status means a failed correctness or determinism check
//! (the JSON line is still printed) or a bad invocation (it is not).

mod mhd;
mod pipeline;
mod stream;
mod sweep;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use trace::Tracer;
use util::{median, peak_rss_mb, percentile};
use workload::{ChildPass, PassResult, Workload};

pub const WORKLOADS: [&str; 4] = [
    "paper-pipeline",
    "governor-stream",
    "config-sweep",
    "mhd-solve",
];

/// The seed of the harness experiments, used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 20231112;

/// Set-ups per run: at least this many, and cheap ones repeated for at
/// least `SETUP_MIN_S`; the median is reported.
const SETUPS: usize = 3;
const SETUP_MIN_S: f64 = 0.2;

/// A set-up cheaper than `CHEAP_SETUP_S` is also repeated for
/// `SETUP_SLICE_S` after every timed pass. The machine's speed drifts over
/// seconds, and a microsecond set-up timed only before the passes would
/// report that moment's speed rather than the run's.
const CHEAP_SETUP_S: f64 = 1e-3;
const SETUP_SLICE_S: f64 = 5e-3;

/// In-process workloads first run untimed warm-up passes for at least this
/// long (checked like any other pass), so the timed passes see a process
/// whose heap and caches have settled.
const WARMUP_S: f64 = 1.0;

/// The span around one whole pass; its self time is the pass's
/// unattributed time.
pub const ROOT_SPAN: &str = "pass";

/// Layer spans and the per-layer metric each one's self time feeds.
pub const LAYERS: [(&str, &str); 13] = [
    ("characterize", "characterize.s"),
    ("gp_model.train", "gp_model.train_s"),
    ("eval.loocv", "eval.loocv_s"),
    ("characterize.lattice", "characterize.lattice_s"),
    ("distributed.sweep", "distributed.sweep_s"),
    ("registry.load", "registry.load_s"),
    ("serving.enqueue", "serving.enqueue_s"),
    ("serving.drain", "serving.drain_s"),
    ("policy.choose", "policy.choose_s"),
    ("fleet.run", "fleet.run_s"),
    ("sim.run", "sim.run_s"),
    ("cronos.step", "cronos.step_s"),
    ("decomp.step", "decomp.step_s"),
];

/// Per-pass counts, sizes and simulated outcomes reported by the
/// workloads (0 where a workload does not exercise the layer).
const COUNTS: [(&str, &str); 25] = [
    ("characterize.points", "count"),
    ("gp_model.trains", "count"),
    ("gp_model.rows", "count"),
    ("eval.folds", "count"),
    ("eval.mape_gain_speedup", "ratio"),
    ("eval.mape_gain_energy", "ratio"),
    ("eval.guard_misses", "count"),
    ("characterize.lattice_points", "count"),
    ("characterize.trace_launches", "count"),
    ("characterize.lattice_energy_saved", "ratio"),
    ("distributed.points", "count"),
    ("distributed.gang_energy_ratio", "ratio"),
    ("registry.bytes", "B"),
    ("serving.cache_hit_ratio", "ratio"),
    ("fleet.jobs", "count"),
    ("fleet.jobs_stolen", "count"),
    ("sim.energy_per_job_j", "J"),
    ("sim.energy_saved_vs_round_robin", "ratio"),
    ("sim.miss_rate", "ratio"),
    ("cronos.cells", "count"),
    ("cronos.state_bytes", "B"),
    ("cronos.bytes_per_step_computed", "B"),
    ("cronos.energy_drift", "ratio"),
    ("cronos.mass_drift", "ratio"),
    ("decomp.halo_bytes", "B"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one set-up and one pass, print it, exit.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--child-pass" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Scratch space inside the checkout, removed when the run ends.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench-scratch")
        .join(std::process::id().to_string())
}

fn setup(workload: &str, seed: u64, rep: usize) -> Box<dyn Workload> {
    match workload {
        "paper-pipeline" => Box::new(pipeline::PaperPipeline::setup(seed)),
        "governor-stream" => Box::new(stream::GovernorStream::setup(
            seed,
            &scratch_dir().join(format!("registry-{rep}")),
        )),
        "config-sweep" => Box::new(sweep::ConfigSweep::setup(seed)),
        "mhd-solve" => Box::new(mhd::MhdSolve::setup(seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// One pass in a fresh child process (the paper pipeline runs this way,
/// so a process-wide cache cannot carry work from one pass to the next).
fn child_pass(args: &Args, traced: bool) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--child-pass", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("child pass exited with {}", out.status));
    }
    ChildPass::parse(&String::from_utf8_lossy(&out.stdout))
}

fn run_child(args: &Args) -> ExitCode {
    let t = Instant::now();
    let mut w = setup(&args.workload, args.seed, 0);
    let setup_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(args.trace);
    let result = w.pass(&mut tracer);
    let cp = ChildPass {
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        result,
        spans: tracer.spans().to_vec(),
    };
    print!("{}", cp.render());
    ExitCode::SUCCESS
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    warmup: Vec<PassResult>,
    untraced: Vec<PassResult>,
    traced: Vec<PassResult>,
    tracer: Tracer,
}

fn measure(args: &Args) -> Result<Run, String> {
    let in_child = args.workload == "paper-pipeline";
    let mut run = Run {
        setup_s: Vec::new(),
        peak_rss_mb: 0.0,
        warmup: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::new(args.trace),
    };
    let mut w = None;
    if !in_child {
        let start = Instant::now();
        while run.setup_s.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
            drop(w.take());
            let t = Instant::now();
            let fresh = setup(&args.workload, args.seed, run.setup_s.len());
            run.setup_s.push(t.elapsed().as_secs_f64());
            w = Some(fresh);
        }
    }

    if let Some(w) = &mut w {
        let start = Instant::now();
        while run.warmup.is_empty() || start.elapsed().as_secs_f64() < WARMUP_S {
            run.tracer.set_enabled(false);
            run.warmup.push(w.pass(&mut run.tracer));
        }
    }

    let cheap_setup = w.is_some() && median(&run.setup_s) < CHEAP_SETUP_S;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let have_both = !args.trace || (!run.untraced.is_empty() && !run.traced.is_empty());
        if elapsed >= args.seconds && have_both && !run.untraced.is_empty() {
            break;
        }
        // Traced runs alternate: untraced, traced, untraced, ...
        let traced = args.trace && run.untraced.len() > run.traced.len();
        let result = match &mut w {
            Some(w) => {
                run.tracer.set_enabled(traced);
                let result = w.pass(&mut run.tracer);
                if cheap_setup {
                    let slice = Instant::now();
                    while slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
                        let t = Instant::now();
                        drop(setup(&args.workload, args.seed, run.setup_s.len()));
                        run.setup_s.push(t.elapsed().as_secs_f64());
                    }
                }
                result
            }
            None => {
                let offset = run.tracer.elapsed_ns();
                let cp = child_pass(args, traced)?;
                run.setup_s.push(cp.setup_s);
                run.peak_rss_mb = run.peak_rss_mb.max(cp.peak_rss_mb);
                run.tracer.adopt(cp.spans, offset);
                cp.result
            }
        };
        eprintln!(
            "pass {}{}: phase 1 {:.4} s, phase 2 {:.4} s",
            run.untraced.len() + run.traced.len(),
            if traced { " (traced)" } else { "" },
            result.phase1_s,
            result.phase2_s
        );
        if traced {
            run.traced.push(result);
        } else {
            run.untraced.push(result);
        }
    }
    run.peak_rss_mb = run.peak_rss_mb.max(peak_rss_mb());
    Ok(run)
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99; the median when there are too few samples for any tail.
fn tail_percentile(samples: usize) -> f64 {
    if samples < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / samples as f64)).min(99.0)
}

/// Metrics of a run, in `BENCHMARK.json` order, with the problems found.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn report(args: &Args, run: &Run) -> Report {
    let all: Vec<&PassResult> = run
        .warmup
        .iter()
        .chain(&run.untraced)
        .chain(&run.traced)
        .collect();
    let mut violations: Vec<String> = Vec::new();
    for p in &all {
        for v in &p.violations {
            if !violations.contains(v) {
                violations.push(v.clone());
            }
        }
    }
    // Determinism: every pass of a run — traced or not — must produce
    // the same outputs and the same counts and simulated outcomes.
    let first = all[0];
    let same_counts = |a: &PassResult, b: &PassResult| {
        a.counts.len() == b.counts.len()
            && a.counts
                .iter()
                .zip(&b.counts)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    };
    for p in &all[1..] {
        if p.digest != first.digest || !same_counts(p, first) {
            violations.push("outputs differ between passes of the same seed".to_string());
            break;
        }
    }
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    // Latencies of the untraced passes' phase-2 items.
    let latencies: Vec<f64> = run
        .untraced
        .iter()
        .flat_map(|p| p.phase2_latencies_us.iter().copied())
        .collect();
    if !args.trace {
        // Pass times and rates are totals over the timed passes: on a
        // shared two-vCPU machine single passes fall into a fast and a slow
        // mode, and a median flips between them from run to run.
        let u = &run.untraced;
        let total = |f: fn(&PassResult) -> f64| u.iter().map(f).sum::<f64>();
        put("setup_s", median(&run.setup_s), "s");
        put("peak_rss_mb", run.peak_rss_mb, "MB");
        put(
            "success_rate",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        put("pass_s", total(PassResult::pass_s) / u.len() as f64, "s");
        put(
            "phase1_per_s",
            total(|p| p.phase1_items) / total(|p| p.phase1_s),
            "1/s",
        );
        put(
            "phase2_per_s",
            total(|p| p.phase2_items) / total(|p| p.phase2_s),
            "1/s",
        );
        put(
            "phase2_tail_us",
            percentile(&latencies, tail_percentile(latencies.len())),
            "us",
        );
    } else {
        let n = run.traced.len() as f64;
        let self_s = trace::self_times(run.tracer.spans());
        let wall: f64 = run
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == ROOT_SPAN)
            .map(|s| s.duration_s())
            .sum();
        let attributed: f64 = self_s.values().sum();
        if (attributed - wall).abs() > 1e-9 * wall.max(1.0) {
            violations.push(format!(
                "layer self times sum to {attributed} s, traced wall time is {wall} s"
            ));
        }
        put("trace.wall_s", wall / n, "s");
        for (span, metric) in LAYERS {
            put(metric, self_s.get(span).copied().unwrap_or(0.0) / n, "s");
        }
        put(
            "unattributed_s",
            self_s.get(ROOT_SPAN).copied().unwrap_or(0.0) / n,
            "s",
        );
        let pass_s =
            |ps: &[PassResult]| ps.iter().map(PassResult::pass_s).sum::<f64>() / ps.len() as f64;
        put(
            "trace.overhead_s",
            pass_s(&run.traced) - pass_s(&run.untraced),
            "s",
        );
        put("trace.spans", run.tracer.spans().len() as f64 / n, "count");
        put("phase2.p50_us", percentile(&latencies, 50.0), "us");
        put("phase2.samples", latencies.len() as f64, "count");
        // Counts are bit-equal across passes (checked above).
        for (name, unit) in COUNTS {
            let value = first.counts.iter().find(|c| c.0 == name).map(|c| c.1);
            put(name, value.unwrap_or(0.0), unit);
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            violations.push(format!("metric {name} is not finite"));
        }
    }
    Report {
        metrics,
        violations,
        attempted,
        failed,
    }
}

fn write_trace(args: &Args, run: &Run) -> Result<PathBuf, std::io::Error> {
    let dir = PathBuf::from(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let run_id = format!("{}-s{}-p{}", args.workload, args.seed, std::process::id());
    let path = dir.join(format!("{run_id}.jsonl"));
    std::fs::write(&path, trace::to_json_lines(&run_id, run.tracer.spans()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return run_child(&args);
    }
    let measured = measure(&args);
    let _ = std::fs::remove_dir_all(scratch_dir());
    let run = match measured {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        match write_trace(&args, &run) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    let rep = report(&args, &run);

    let first = &run.untraced[0];
    println!(
        "digest {} seed={} {:016x}",
        args.workload, args.seed, first.digest
    );
    let samples: usize = run
        .untraced
        .iter()
        .map(|p| p.phase2_latencies_us.len())
        .sum();
    eprintln!(
        "{} phase-2 latency samples; tail percentile p{:.2}",
        samples,
        tail_percentile(samples)
    );
    for (name, value) in &first.counts {
        eprintln!("{name:>34} {value:>16.6}");
    }
    for (name, value, unit) in &rep.metrics {
        eprintln!("{:>34} {value:>16.6} {unit}", name);
    }
    for v in &rep.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let correct = rep.violations.is_empty();
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(50_000), 99.0);
    }
}
