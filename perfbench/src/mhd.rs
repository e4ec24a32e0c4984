//! `mhd-solve`: the CPU Orszag–Tang MHD solver.
//!
//! Phase 1 advances the monolithic `Simulation` a fixed number of steps;
//! phase 2 advances the 4-slab `DistributedSimulation` over the same grid
//! for the same steps. Each pass restarts both from the set-up initial
//! state, so every pass computes the same final state. Each 4-slab step
//! is one phase-2 item.

use std::time::Instant;

use cronos::diagnostics::global_diagnostics;
use cronos::eos::GAMMA;
use cronos::problems::orszag_tang;
use cronos::state::NCOMP;
use cronos::{DistributedSimulation, Grid, Simulation, State};

use crate::trace::Tracer;
use crate::util::Digest;
use crate::workload::{PassResult, Workload};

/// 96×96×8 interior cells × 64 B = 4.5 MiB of interior state (7.3 MiB with
/// ghost cells), above the 4 MiB per-core L2 of the reference machine.
pub const GRID: (usize, usize, usize) = (96, 96, 8);
const SLABS: usize = 4;
const STEPS: u64 = 4;
const CFL: f64 = 0.4;
/// Relative drift of total mass and total energy allowed on the periodic
/// grid: the finite-volume update conserves both up to round-off.
const CONSERVATION_TOL: f64 = 1e-10;

pub struct MhdSolve {
    mono0: Simulation,
    dist0: DistributedSimulation,
    mass0: f64,
    energy0: f64,
}

impl MhdSolve {
    pub fn setup(_seed: u64) -> Self {
        let grid = Grid::cubic(GRID.0, GRID.1, GRID.2);
        let mono0 = Simulation::new(orszag_tang(grid), GAMMA, CFL);
        let dist0 = DistributedSimulation::new(orszag_tang(grid), GAMMA, CFL, SLABS);
        let d = global_diagnostics(&mono0.state, GAMMA);
        MhdSolve {
            mono0,
            dist0,
            mass0: d.mass,
            energy0: d.total_energy,
        }
    }

    pub fn interior_bytes() -> u64 {
        (GRID.0 * GRID.1 * GRID.2 * NCOMP * 8) as u64
    }

    pub fn storage_bytes(&self) -> u64 {
        (self.mono0.state.grid.n_storage() * NCOMP * 8) as u64
    }
}

fn bits_equal(a: &State, b: &State) -> bool {
    a.cells.len() == b.cells.len()
        && a.cells
            .iter()
            .zip(&b.cells)
            .all(|(x, y)| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()))
}

impl Workload for MhdSolve {
    fn pass(&mut self, tracer: &mut Tracer) -> PassResult {
        let mut r = PassResult::default();
        let mut mono = self.mono0.clone();
        let mut dist = self.dist0.clone();

        tracer.begin(crate::ROOT_SPAN);
        let t0 = Instant::now();
        for _ in 0..STEPS {
            tracer.span("cronos.step", || mono.step());
        }
        let t1 = Instant::now();
        for _ in 0..STEPS {
            let start = Instant::now();
            tracer.span("decomp.step", || dist.step());
            r.phase2_latencies_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        let t2 = Instant::now();
        tracer.end();

        let cells = mono.state.grid.n_cells() as f64;
        r.phase1_s = (t1 - t0).as_secs_f64();
        r.phase1_items = cells * STEPS as f64;
        r.phase2_s = (t2 - t1).as_secs_f64();
        r.phase2_items = cells * STEPS as f64;
        r.attempted += 2 * STEPS;

        let gathered = dist.gather();
        r.check(bits_equal(&gathered, &mono.state), || {
            "gathered 4-slab state differs from the monolithic state".to_string()
        });
        r.check(
            dist.dt.to_bits() == mono.dt.to_bits() && dist.time.to_bits() == mono.time.to_bits(),
            || "4-slab and monolithic timesteps differ".to_string(),
        );
        let d = global_diagnostics(&mono.state, GAMMA);
        let mass_drift = ((d.mass - self.mass0) / self.mass0).abs();
        let energy_drift = ((d.total_energy - self.energy0) / self.energy0).abs();
        r.check(mass_drift <= CONSERVATION_TOL, || {
            format!("mass drifted by {mass_drift:e} (tolerance {CONSERVATION_TOL:e})")
        });
        r.check(energy_drift <= CONSERVATION_TOL, || {
            format!("total energy drifted by {energy_drift:e} (tolerance {CONSERVATION_TOL:e})")
        });
        r.check(mono.state.is_physical(GAMMA), || {
            "unphysical final state".to_string()
        });

        let mut digest = Digest::new();
        for cell in &mono.state.cells {
            for v in cell {
                digest.f64(*v);
            }
        }
        digest.f64(mono.time);
        r.digest = digest.finish();
        r.count("cronos.energy_drift", energy_drift);
        r.count("cronos.mass_drift", mass_drift);

        // Compulsory memory traffic of one step, computed from the array
        // sizes (caches ignored): the state copy (read + write), and per
        // substep one storage read by the stencil, the dU/dt + CFL write
        // (72 B a cell), and the update's three reads and one write.
        let storage = self.storage_bytes() as f64;
        let interior = Self::interior_bytes() as f64;
        let per_step = 2.0 * storage + 3.0 * (storage + interior * 72.0 / 64.0 + 4.0 * interior);
        r.count("cronos.cells", cells);
        r.count("cronos.bytes_per_step_computed", per_step);
        r.count("cronos.state_bytes", interior);
        r.count(
            "decomp.halo_bytes",
            (dist.halo_bytes_exchanged - self.dist0.halo_bytes_exchanged) as f64,
        );
        r
    }
}
