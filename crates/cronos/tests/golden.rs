//! Golden pin of the CPU solver's output.
//!
//! Three runs of five steps each, one per boundary kind, are reduced to a
//! digest of every stored state bit plus the final `dt` and `time`. The
//! pinned digests were produced by the per-cell solver that evaluated
//! every face flux twice; the face-once sweep must reproduce them bit for
//! bit. The monolithic [`Simulation`] and a three-slab
//! [`DistributedSimulation`] are both checked, so a drift the two paths
//! share (which the mono-vs-slab property tests cannot see) fails here.

use cronos::boundary::BoundaryKind;
use cronos::decomp::DistributedSimulation;
use cronos::eos::GAMMA;
use cronos::problems::{self, Problem};
use cronos::sim::Simulation;
use cronos::{Grid, State};

const STEPS: u64 = 5;
const SLABS: usize = 3;

/// FNV-1a over the bits of every stored value, then `dt` and `time`.
fn digest(state: &State, dt: f64, time: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let values = state.cells.iter().flatten().chain([&dt, &time]);
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn reflecting_rotor() -> Problem {
    Problem {
        boundary: BoundaryKind::Reflecting,
        ..problems::mhd_rotor(Grid::cubic(24, 16, 4))
    }
}

/// `(name, problem, pinned digest)` for each golden run.
fn cases() -> Vec<(&'static str, Problem, u64)> {
    vec![
        (
            "orszag_tang 32x32x4 periodic",
            problems::orszag_tang(Grid::cubic(32, 32, 4)),
            0x6811_6817_f829_bc3c,
        ),
        (
            "mhd_blast 16^3 outflow",
            problems::mhd_blast(Grid::cubic(16, 16, 16)),
            0x6413_7936_462c_11b9,
        ),
        (
            "mhd_rotor 24x16x4 reflecting",
            reflecting_rotor(),
            0x7ff4_548d_c639_e1b8,
        ),
    ]
}

#[test]
fn monolithic_runs_match_the_pinned_digests() {
    for (name, problem, pinned) in cases() {
        let mut sim = Simulation::new(problem, GAMMA, 0.4);
        sim.run_steps(STEPS);
        let got = digest(&sim.state, sim.dt, sim.time);
        assert_eq!(got, pinned, "{name}: digest {got:#018x}");
    }
}

#[test]
fn three_slab_runs_match_the_pinned_digests() {
    for (name, problem, pinned) in cases() {
        let mut dist = DistributedSimulation::new(problem, GAMMA, 0.4, SLABS);
        dist.run_steps(STEPS);
        let got = digest(&dist.gather(), dist.dt, dist.time);
        assert_eq!(got, pinned, "{name}: digest {got:#018x}");
    }
}
