//! `governor-stream`: the online governor, fed from one process.
//!
//! Set-up trains and publishes the single-device and per-class fleet
//! models into a scratch registry. A pass then has two phases:
//!
//! 1. **Stream**: a long pinned job stream through `run_fleet` (min-energy
//!    placement, and the round-robin default-clock fleet) and through
//!    `run_governor` (min-energy). Each run loads its models from the
//!    registry; after that nearly every prediction is a memo-cache hit.
//! 2. **Cold burst**: novel-input requests from one caller in a closed
//!    loop, each through `try_enqueue` → `drain_batch` →
//!    `choose_frequency` on a fresh engine, so every request misses the
//!    cache. Each request's latency is one phase-2 item.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use energy_model::workflow::experiment_frequencies;
use governor::{
    choose_frequency, run_fleet, run_governor, train_and_publish, train_and_publish_fleet,
    EngineConfig, FleetConfig, FleetReport, GovernorConfig, GovernorReport, ModelRegistry, Policy,
    PredictionEngine, PredictionRequest,
};

use crate::trace::Tracer;
use crate::util::{Digest, SplitMix64};
use crate::workload::{PassResult, Workload};

/// Jobs in each stream run.
const STREAM_JOBS: usize = 400;
/// Novel-input requests in each cold burst.
const COLD_REQUESTS: usize = 1200;
/// Deadline slack range and planning safety of the cold requests (the
/// governor's pinned values).
const SLACK: (f64, f64) = (1.15, 1.6);
const DEADLINE_SAFETY: f64 = 0.92;

/// One generated cold request: application, features, deadline slack.
struct ColdRequest {
    app: &'static str,
    features: Vec<f64>,
    slack: f64,
}

pub struct GovernorStream {
    fleet: FleetConfig,
    round_robin: FleetConfig,
    single: GovernorConfig,
    registry: ModelRegistry,
    fingerprint: u64,
    cold: Vec<ColdRequest>,
    artifact_bytes: u64,
}

/// Distinct novel inputs drawn from the seed: Cronos grids and LiGen
/// ligand batches in the ranges the models were trained around. No two
/// share a quantized cache key, so every request misses the memo cache.
fn cold_requests(seed: u64, n: usize) -> Vec<ColdRequest> {
    let mut rng = SplitMix64::new(seed ^ 0xC01D_B025_7000_0000);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (app, features) = if rng.next_u64().is_multiple_of(2) {
            let g = [rng.range(8, 48), rng.range(8, 48), rng.range(8, 48)];
            ("cronos", g)
        } else {
            // [ligands, fragments, atoms]
            let l = [rng.range(256, 10_000), rng.range(4, 20), rng.range(31, 89)];
            ("ligen", l)
        };
        let slack = SLACK.0 + rng.unit() * (SLACK.1 - SLACK.0);
        if seen.insert((app, features)) {
            out.push(ColdRequest {
                app,
                features: features.iter().map(|&v| v as f64).collect(),
                slack,
            });
        }
    }
    out
}

impl GovernorStream {
    /// Trains and publishes every model the pass needs into a fresh
    /// registry under `dir`.
    pub fn setup(seed: u64, dir: &Path) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let registry = ModelRegistry::open(dir);

        let mut single = GovernorConfig::pinned(Policy::MinEnergyUnderDeadline);
        single.seed = seed;
        single.n_jobs = STREAM_JOBS;
        let mut fleet = FleetConfig::pinned();
        fleet.seed = seed;
        fleet.n_jobs = STREAM_JOBS;
        let mut round_robin = FleetConfig::pinned_round_robin();
        round_robin.seed = seed;
        round_robin.n_jobs = STREAM_JOBS;

        let fingerprint =
            train_and_publish(&single, &registry).expect("publishing the governor models");
        train_and_publish_fleet(&fleet, &registry).expect("publishing the fleet models");

        let artifact_bytes = ["cronos", "ligen"]
            .iter()
            .map(|name| {
                let v = registry.latest(name).expect("a published version");
                std::fs::metadata(artifact_path(dir, name, v)).map_or(0, |m| m.len())
            })
            .sum();

        GovernorStream {
            cold: cold_requests(seed, COLD_REQUESTS),
            fleet,
            round_robin,
            single,
            registry,
            fingerprint,
            artifact_bytes,
        }
    }

    fn check_fleet(r: &mut PassResult, name: &str, report: &FleetReport) {
        let completed = report
            .decisions
            .iter()
            .filter(|d| d.record.completed)
            .count();
        r.check(
            report.n_jobs == STREAM_JOBS && completed == STREAM_JOBS,
            || format!("{name}: {completed} of {} jobs completed", STREAM_JOBS),
        );
        let sum: f64 = report
            .decisions
            .iter()
            .map(|d| d.record.measured_energy_j)
            .sum();
        r.check(close(sum, report.total_energy_j), || {
            format!(
                "{name}: decision energies sum to {sum} J, report says {} J",
                report.total_energy_j
            )
        });
        r.attempted += report.n_jobs as u64;
        r.failed += (report.fallbacks + report.admission_rejected) as u64
            + (report.n_jobs - completed) as u64;
    }

    fn check_single(r: &mut PassResult, report: &GovernorReport) {
        let completed = report.decisions.iter().filter(|d| d.completed).count();
        r.check(
            report.n_jobs == STREAM_JOBS && completed == STREAM_JOBS,
            || format!("governor: {completed} of {} jobs completed", STREAM_JOBS),
        );
        let sum: f64 = report.decisions.iter().map(|d| d.measured_energy_j).sum();
        r.check(close(sum, report.total_energy_j), || {
            format!(
                "governor: decision energies sum to {sum} J, report says {} J",
                report.total_energy_j
            )
        });
        r.attempted += report.n_jobs as u64;
        r.failed += (report.fallbacks + report.admission_rejected) as u64
            + (report.n_jobs - completed) as u64;
    }
}

/// Where the registry keeps version `v` of `name` (its documented on-disk
/// layout, `<root>/<name>/vNNNN.json`).
fn artifact_path(root: &Path, name: &str, v: u32) -> PathBuf {
    root.join(name).join(format!("v{v:04}.json"))
}

/// Sums in different orders may differ in the last bits only.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

impl Workload for GovernorStream {
    fn pass(&mut self, tracer: &mut Tracer) -> PassResult {
        let mut r = PassResult::default();
        tracer.begin(crate::ROOT_SPAN);

        // Phase 1: the pinned stream.
        let t0 = Instant::now();
        let fleet = tracer.span("fleet.run", || run_fleet(&self.fleet, &self.registry));
        let rr = tracer.span("fleet.run", || run_fleet(&self.round_robin, &self.registry));
        let single = tracer.span("sim.run", || run_governor(&self.single, &self.registry));
        let t1 = Instant::now();

        // Phase 2: the cold burst on a fresh engine.
        let spec = &self.single.spec;
        let mut engine = PredictionEngine::new(EngineConfig {
            freqs: experiment_frequencies(spec, self.single.freq_stride),
            queue_capacity: self.single.queue_capacity,
            max_batch: self.single.max_batch,
        });
        let mut load_errors = 0u64;
        for app in ["cronos", "ligen"] {
            let loaded = tracer.span("registry.load", || {
                self.registry.load_expecting(app, None, self.fingerprint)
            });
            match loaded {
                Ok((model, _, _)) => engine.install_model(app, model),
                Err(_) => load_errors += 1,
            }
        }
        let mut chosen: Vec<Option<f64>> = Vec::with_capacity(self.cold.len());
        let mut refused = 0u64;
        let mut serve_errors = 0u64;
        for (i, req) in self.cold.iter().enumerate() {
            let start = Instant::now();
            let request = PredictionRequest {
                job_id: i as u64,
                app: req.app.to_string(),
                features: req.features.clone(),
            };
            if tracer
                .span("serving.enqueue", || engine.try_enqueue(request))
                .is_err()
            {
                refused += 1;
                chosen.push(None);
                continue;
            }
            let served = tracer.span("serving.drain", || engine.drain_batch());
            let pick = match served.into_iter().next() {
                Some((_, Ok(profile))) => {
                    let deadline = profile.default_time_s * req.slack * DEADLINE_SAFETY;
                    tracer.span("policy.choose", || {
                        choose_frequency(Policy::MinEnergyUnderDeadline, &profile, deadline)
                    })
                }
                _ => {
                    serve_errors += 1;
                    None
                }
            };
            chosen.push(pick);
            r.phase2_latencies_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        let t2 = Instant::now();
        tracer.end();

        r.phase1_s = (t1 - t0).as_secs_f64();
        r.phase1_items = (3 * STREAM_JOBS) as f64;
        r.phase2_s = (t2 - t1).as_secs_f64();
        r.phase2_items = self.cold.len() as f64;

        Self::check_fleet(&mut r, "fleet min-energy", &fleet);
        Self::check_fleet(&mut r, "fleet round-robin", &rr);
        Self::check_single(&mut r, &single);
        let cold_stats = engine.cache_stats();
        r.check(load_errors == 0, || {
            format!("{load_errors} registry loads failed")
        });
        r.check(cold_stats.hits == 0, || {
            format!("cold burst hit the memo cache {} times", cold_stats.hits)
        });
        r.attempted += self.cold.len() as u64;
        r.failed += refused + serve_errors;

        let mut digest = Digest::new();
        for d in &fleet.decisions {
            digest.word(d.device_index as u64);
            digest_record(&mut digest, &d.record);
        }
        for d in &rr.decisions {
            digest.word(d.device_index as u64);
            digest_record(&mut digest, &d.record);
        }
        for d in &single.decisions {
            digest_record(&mut digest, d);
        }
        for c in &chosen {
            digest.f64(c.unwrap_or(-1.0));
        }
        r.digest = digest.finish();

        let mut stream_cache = fleet.cache;
        stream_cache.accumulate(rr.cache);
        stream_cache.accumulate(single.cache);
        r.count("serving.cache_hit_ratio", stream_cache.hit_rate());
        r.count("registry.bytes", self.artifact_bytes as f64);
        r.count("fleet.jobs", (fleet.n_jobs + rr.n_jobs) as f64);
        r.count(
            "fleet.jobs_stolen",
            (fleet.jobs_stolen + rr.jobs_stolen) as f64,
        );
        // Simulated outcomes of the min-energy fleet: energy per job, the
        // share it saves over the round-robin default-clock fleet, misses.
        r.count(
            "sim.energy_per_job_j",
            fleet.total_energy_j / fleet.n_jobs as f64,
        );
        r.count(
            "sim.energy_saved_vs_round_robin",
            1.0 - fleet.total_energy_j / rr.total_energy_j,
        );
        r.count("sim.miss_rate", fleet.miss_rate);
        r
    }
}

fn digest_record(digest: &mut Digest, d: &governor::DecisionRecord) {
    digest.word(d.job_id);
    digest.f64(d.requested_mhz.unwrap_or(-1.0));
    digest.word(u64::from(d.fallback.is_some()));
    digest.f64(d.measured_time_s);
    digest.f64(d.measured_energy_j);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_requests_are_novel_and_follow_the_seed() {
        let key = |r: &ColdRequest| {
            (
                r.app,
                r.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            )
        };
        let a = cold_requests(7, 500);
        let distinct: HashSet<_> = a.iter().map(key).collect();
        assert_eq!(distinct.len(), a.len());
        let again: Vec<_> = cold_requests(7, 500).iter().map(key).collect();
        assert_eq!(a.iter().map(key).collect::<Vec<_>>(), again);
        let other: Vec<_> = cold_requests(crate::DEFAULT_SEED, 500)
            .iter()
            .map(key)
            .collect();
        assert_ne!(again, other);
    }

    #[test]
    fn a_non_default_seed_passes_its_checks_and_repeats() {
        let dir = std::path::PathBuf::from(".bench_build")
            .join(format!("perfbench-test-{}", std::process::id()));
        let mut tracer = Tracer::new(false);
        let mut w = GovernorStream::setup(7, &dir);
        let a = w.pass(&mut tracer);
        let b = w.pass(&mut tracer);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.phase2_latencies_us.len(), COLD_REQUESTS);
    }
}
