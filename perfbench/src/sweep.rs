//! `config-sweep`: the configuration sweep engines, with no `ml` code.
//!
//! Phase 1 sweeps the (core × mem × cap) lattice and the core-only axis of
//! the four lattice inputs; phase 2 sweeps the 192×64×64 decomposed Cronos
//! gang over {1, 2, 4, 8} devices. Each point is priced by `gpu-sim` and
//! replayed through `synergy`. A pass's gang sweep is its one phase-2 item.

use std::time::Instant;

use energy_model::characterize::{
    characterize_lattice, LatticeAxes, LatticeCharacterization, LatticeDiagnostics, LatticePoint,
    SweepOptions, Workload as SweepWorkload,
};
use energy_model::distributed::{
    characterize_distributed, DistributedAxes, DistributedSweepOptions,
};
use energy_model::workflow::{experiment_frequencies, CRONOS_STEPS};
use governor::{choose_gang, GangProfile};
use gpu_sim::DeviceSpec;

use crate::trace::Tracer;
use crate::util::Digest;
use crate::workload::{PassResult, Workload};

/// The lattice experiment's settings: every 8th core clock, all memory
/// clocks, caps {uncapped, 200 W, 250 W}, 5 repetitions, slack 1.25.
const LATTICE_CORE_STRIDE: usize = 8;
const LATTICE_CAPS_W: [f64; 2] = [200.0, 250.0];
const LATTICE_SLACK: f64 = 1.25;
/// The gang experiment's settings: every 16th core clock, gangs of
/// {1, 2, 4, 8} devices, deadline 0.9 × the single-device default time.
const GANG_CORE_STRIDE: usize = 16;
const GANG_SIZES: [usize; 4] = [1, 2, 4, 8];
const GANG_DEADLINE_FRAC: f64 = 0.9;
const REPS: usize = 5;

pub struct ConfigSweep {
    spec: DeviceSpec,
    inputs: Vec<(String, Box<dyn SweepWorkload>)>,
    lattice: LatticeAxes,
    core_only: LatticeAxes,
    gang: cronos::DistributedGpuCronos,
    gang_axes: DistributedAxes,
    opts: SweepOptions,
    gang_opts: DistributedSweepOptions,
    trace_launches: u64,
}

impl ConfigSweep {
    pub fn setup(seed: u64) -> Self {
        let spec = DeviceSpec::v100();
        let cronos = |x, y, z| {
            Box::new(cronos::GpuCronos::new(
                cronos::Grid::cubic(x, y, z),
                CRONOS_STEPS,
            )) as Box<dyn SweepWorkload>
        };
        let ligen = |l, a, f| Box::new(ligen::GpuLigen::new(l, a, f)) as Box<dyn SweepWorkload>;
        let inputs = vec![
            ("cronos 40x16x16".to_string(), cronos(40, 16, 16)),
            ("cronos 160x64x64".to_string(), cronos(160, 64, 64)),
            ("ligen 1024x63x8".to_string(), ligen(1024, 63, 8)),
            ("ligen 10000x89x20".to_string(), ligen(10_000, 89, 20)),
        ];
        // Launches per recorded trace: the replay work each point re-prices.
        let trace_launches = inputs
            .iter()
            .map(|(_, w)| w.record(&spec).total_launches())
            .sum();
        let core = experiment_frequencies(&spec, LATTICE_CORE_STRIDE);
        let mem = spec.mem_freqs.as_slice().to_vec();
        ConfigSweep {
            lattice: LatticeAxes::full(core.clone(), mem, &LATTICE_CAPS_W),
            core_only: LatticeAxes::core_only(core),
            gang: cronos::DistributedGpuCronos::new(cronos::Grid::cubic(192, 64, 64), CRONOS_STEPS),
            gang_axes: DistributedAxes {
                device_counts: GANG_SIZES.to_vec(),
                core_mhz: experiment_frequencies(&spec, GANG_CORE_STRIDE),
            },
            opts: SweepOptions {
                reps: REPS,
                noise_seed: Some(seed),
                ..SweepOptions::default()
            },
            gang_opts: DistributedSweepOptions {
                reps: REPS,
                noise_seed: Some(seed),
                ..DistributedSweepOptions::default()
            },
            inputs,
            trace_launches,
            spec,
        }
    }
}

/// Min energy under the deadline; the fastest point when none fits (the
/// governor's fallback).
fn pick(ch: &LatticeCharacterization, deadline_s: f64) -> &LatticePoint {
    ch.min_energy_within(deadline_s).unwrap_or_else(|| {
        ch.points
            .iter()
            .min_by(|a, b| a.time_s.total_cmp(&b.time_s))
            .expect("non-empty lattice")
    })
}

/// Sweep points whose measurement was re-taken or flagged.
fn dirty_points(diag: &LatticeDiagnostics) -> u64 {
    let dirty = |d: &energy_model::characterize::PointDiagnostics| d.flagged || d.remeasured > 0;
    u64::from(dirty(&diag.baseline)) + diag.points.iter().filter(|p| dirty(&p.diag)).count() as u64
}

impl Workload for ConfigSweep {
    fn pass(&mut self, tracer: &mut Tracer) -> PassResult {
        let mut r = PassResult::default();
        tracer.begin(crate::ROOT_SPAN);

        let t0 = Instant::now();
        let mut sweeps = Vec::with_capacity(self.inputs.len());
        for (_, w) in &self.inputs {
            let full = tracer.span("characterize.lattice", || {
                characterize_lattice(&self.spec, w.as_ref(), &self.lattice, &self.opts)
            });
            let core = tracer.span("characterize.lattice", || {
                characterize_lattice(&self.spec, w.as_ref(), &self.core_only, &self.opts)
            });
            sweeps.push((full, core));
        }
        let t1 = Instant::now();
        let gang = tracer.span("distributed.sweep", || {
            characterize_distributed(&self.spec, &self.gang, &self.gang_axes, &self.gang_opts)
        });
        let t2 = Instant::now();
        tracer.end();

        let lattice_points =
            self.inputs.len() * (self.lattice.len() + 1 + self.core_only.len() + 1);
        let gang_points = gang.points.len() + 1;
        r.phase1_s = (t1 - t0).as_secs_f64();
        r.phase1_items = lattice_points as f64;
        r.phase2_s = (t2 - t1).as_secs_f64();
        r.phase2_items = gang_points as f64;
        r.phase2_latencies_us.push(r.phase2_s * 1e6);
        r.attempted += (lattice_points + gang_points) as u64;

        let mut digest = Digest::new();
        let mut saved = Vec::with_capacity(sweeps.len());
        for ((name, _), ((full, full_diag), (core, core_diag))) in self.inputs.iter().zip(&sweeps) {
            r.failed += dirty_points(full_diag) + dirty_points(core_diag);
            r.check(full_diag.is_clean() && core_diag.is_clean(), || {
                format!("{name}: sweep diagnostics are not clean")
            });
            r.check(
                full.baseline_time_s.to_bits() == core.baseline_time_s.to_bits()
                    && full.baseline_energy_j.to_bits() == core.baseline_energy_j.to_bits(),
                || format!("{name}: lattice and core-only baselines differ"),
            );
            let deadline = LATTICE_SLACK * full.baseline_time_s;
            let p = pick(full, deadline);
            digest.str(name);
            for v in [
                p.core_mhz,
                p.mem_mhz,
                p.cap_w.unwrap_or(-1.0),
                p.time_s,
                p.energy_j,
            ] {
                digest.f64(v);
            }
            let c = pick(core, deadline);
            digest.f64(c.core_mhz);
            digest.f64(c.energy_j);
            saved.push(1.0 - p.energy_j / full.baseline_energy_j);
        }

        let deadline = GANG_DEADLINE_FRAC * gang.baseline_time_s;
        let profile = GangProfile::from_characterization(&gang);
        let choice = choose_gang(&profile, *GANG_SIZES.iter().max().unwrap_or(&1), deadline);
        r.check(choice.is_some(), || {
            "no gang choice on the gang surface".to_string()
        });
        if let Some(g) = &choice {
            for v in [g.num_devices as f64, g.core_mhz, g.time_s, g.energy_j] {
                digest.f64(v);
            }
            r.check(g.time_s <= deadline, || {
                format!(
                    "gang pick misses its deadline: {} s > {deadline} s",
                    g.time_s
                )
            });
        }
        r.digest = digest.finish();

        // Simulated outcomes: mean energy the deadline-feasible lattice pick
        // saves against the default configuration, and the single-device
        // default energy over the gang pick's energy.
        r.count(
            "characterize.lattice_energy_saved",
            saved.iter().sum::<f64>() / saved.len() as f64,
        );
        r.count(
            "distributed.gang_energy_ratio",
            choice.map_or(f64::NAN, |g| gang.baseline_energy_j / g.energy_j),
        );

        r.count("characterize.lattice_points", lattice_points as f64);
        r.count("characterize.trace_launches", self.trace_launches as f64);
        r.count("distributed.points", gang_points as f64);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_default_seed_reaches_the_noise_and_repeats() {
        let mut tracer = Tracer::new(false);
        let mut w = ConfigSweep::setup(7);
        let a = w.pass(&mut tracer);
        let b = w.pass(&mut tracer);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        let pinned = ConfigSweep::setup(crate::DEFAULT_SEED).pass(&mut tracer);
        assert_ne!(
            a.digest, pinned.digest,
            "the seed must drive the measurement noise"
        );
    }
}
