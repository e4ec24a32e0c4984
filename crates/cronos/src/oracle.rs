//! Bit-identity oracle for the face-once solver.
//!
//! [`compute_changes`] and [`integrate_substep`] below are the per-cell
//! solver the face-once sweep replaced: every cell evaluates both faces in
//! each direction as one parallel item, and the update visits every
//! storage cell, mapping it back to interior coordinates and skipping
//! ghosts. The tests check that [`crate::stencil::compute_changes`] and
//! [`crate::integrate::integrate_substep`] reproduce them bit for bit,
//! for every block split of the k-planes.

use rayon::prelude::*;

use crate::boundary::{apply_boundary, BoundaryKind};
use crate::eos::{cons_from_primitive, GAMMA};
use crate::flux::{max_signal_speed, rusanov_flux};
use crate::grid::{Grid, NGHOST};
use crate::integrate::{integrate_in_blocks, integrate_substep as integrate_fast, N_SUBSTEPS};
use crate::state::{Cons, State, NCOMP};
use crate::stencil::{
    compute_changes as changes_fast, compute_changes_in_blocks, face_states, Changes,
};
use proptest::prelude::*;

/// The per-cell `computeChanges`: two fluxes per face, one cell per item.
fn compute_changes(state: &State, gamma: f64) -> Changes {
    let g = state.grid;
    let (nx, ny) = (g.nx, g.ny);
    let inv_d = [1.0 / g.dx(), 1.0 / g.dy(), 1.0 / g.dz()];
    // Storage strides per direction (x fastest).
    let strides = [1usize, g.sx(), g.sx() * g.sy()];
    let cells = &state.cells;

    let n_int = g.n_cells();
    let results: Vec<(Cons, f64)> = (0..n_int)
        .into_par_iter()
        .map(|flat| {
            let i = flat % nx;
            let j = (flat / nx) % ny;
            let k = flat / (nx * ny);
            let c0 = g.idx(i + NGHOST, j + NGHOST, k + NGHOST);

            let mut dudt: Cons = [0.0; NCOMP];
            let mut cfl_rate = 0.0f64;
            let u0 = &cells[c0];

            for dir in 0..3 {
                let st = strides[dir];
                let umm = &cells[c0 - 2 * st];
                let um = &cells[c0 - st];
                let up = &cells[c0 + st];
                let upp = &cells[c0 + 2 * st];

                // Face i+1/2: reconstruct from (um, u0, up, upp).
                let (lp, rp) = face_states(um, u0, up, upp);
                let f_plus = rusanov_flux(&lp, &rp, gamma, dir);
                // Face i−1/2: reconstruct from (umm, um, u0, up).
                let (lm, rm) = face_states(umm, um, u0, up);
                let f_minus = rusanov_flux(&lm, &rm, gamma, dir);

                for c in 0..NCOMP {
                    dudt[c] -= (f_plus[c] - f_minus[c]) * inv_d[dir];
                }
                cfl_rate = cfl_rate.max(max_signal_speed(u0, gamma, dir) * inv_d[dir]);
            }
            (dudt, cfl_rate)
        })
        .collect();

    let mut dudt = Vec::with_capacity(n_int);
    let mut cfl = Vec::with_capacity(n_int);
    for (d, c) in results {
        dudt.push(d);
        cfl.push(c);
    }
    Changes { dudt, cfl }
}

/// The per-storage-cell SSP-RK3 update.
fn integrate_substep(state: &mut State, u_old: &State, changes: &Changes, dt: f64, substep: usize) {
    let (a, b) = match substep {
        0 => (0.0, 1.0),
        1 => (0.75, 0.25),
        _ => (1.0 / 3.0, 2.0 / 3.0),
    };

    let g = state.grid;
    let (nx, ny) = (g.nx, g.ny);
    let sx = g.sx();
    let sxy = g.sx() * g.sy();
    let old_cells = &u_old.cells;
    let dudt = &changes.dudt;

    state
        .cells
        .par_iter_mut()
        .enumerate()
        .for_each(|(storage_idx, cell)| {
            // Map the storage index back to interior coordinates; skip ghosts.
            let i = storage_idx % sx;
            let j = (storage_idx / sx) % g.sy();
            let k = storage_idx / sxy;
            if i < NGHOST
                || i >= NGHOST + nx
                || j < NGHOST
                || j >= NGHOST + ny
                || k < NGHOST
                || k >= NGHOST + g.nz
            {
                return;
            }
            let int_flat = ((k - NGHOST) * ny + (j - NGHOST)) * nx + (i - NGHOST);
            let d = &dudt[int_flat];
            let old = &old_cells[storage_idx];
            for c in 0..NCOMP {
                let stage = cell[c] + dt * d[c];
                cell[c] = a * old[c] + b * stage;
            }
        });
}

/// A boundary-filled state whose every interior cell is an independent
/// random perturbation of a magnetized, moving, physical gas.
fn perturbed(g: Grid, kind: BoundaryKind, seed: u64, amp: f64) -> State {
    // splitmix64, mapped to [-0.5, 0.5).
    let mut x = seed;
    let mut jitter = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut s = State::quiescent(g);
    for (i, j, k) in g.interior_coords() {
        *s.interior_mut(i, j, k) = cons_from_primitive(
            1.0 + amp * jitter(),
            0.3 + amp * jitter(),
            -0.2 + amp * jitter(),
            0.1 + amp * jitter(),
            1.0 + amp * jitter(),
            0.4 + amp * jitter(),
            amp * jitter(),
            -0.3 + amp * jitter(),
            GAMMA,
        );
    }
    apply_boundary(&mut s, kind);
    s
}

fn same_bits(a: &[Cons], b: &[Cons]) -> bool {
    a.len() == b.len()
        && a.iter()
            .flatten()
            .zip(b.iter().flatten())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_changes(a: &Changes, b: &Changes) -> bool {
    same_bits(&a.dudt, &b.dudt)
        && a.cfl.len() == b.cfl.len()
        && a.cfl
            .iter()
            .zip(&b.cfl)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

const KINDS: [BoundaryKind; 3] = [
    BoundaryKind::Periodic,
    BoundaryKind::Outflow,
    BoundaryKind::Reflecting,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random grids (each extent 1..=10), boundary kinds and perturbed
    /// states, the face-once sweep equals the per-cell reference bit for
    /// bit for every block split, and so does the update for every
    /// substep coefficient.
    #[test]
    fn face_once_solver_matches_the_per_cell_reference(
        nx in 1usize..11,
        ny in 1usize..11,
        nz in 1usize..11,
        kind in 0usize..3,
        seed in 0u64..u64::MAX,
        amp in 0.0..0.5f64,
        dt in 1e-4..1e-1f64,
    ) {
        let g = Grid::new(nx, ny, nz, 1.0, 0.7, 1.3);
        let kind = KINDS[kind];
        let state = perturbed(g, kind, seed, amp);
        let u_old = perturbed(g, kind, !seed, amp);

        let expect = compute_changes(&state, GAMMA);
        prop_assert!(same_changes(&changes_fast(&state, GAMMA), &expect));
        for planes in 1..=nz {
            let got = compute_changes_in_blocks(&state, GAMMA, planes);
            prop_assert!(same_changes(&got, &expect), "dU/dt or CFL differ, {} planes a block", planes);
        }

        for substep in 0..N_SUBSTEPS {
            let mut want = state.clone();
            integrate_substep(&mut want, &u_old, &expect, dt, substep);
            let mut got = state.clone();
            integrate_fast(&mut got, &u_old, &expect, dt, substep);
            prop_assert!(same_bits(&got.cells, &want.cells), "substep {}", substep);
            for planes in 1..=nz {
                let mut got = state.clone();
                integrate_in_blocks(&mut got, &u_old, &expect, dt, substep, planes);
                prop_assert!(
                    same_bits(&got.cells, &want.cells),
                    "substep {}, {} planes a block",
                    substep,
                    planes
                );
            }
        }
    }
}

/// Called from inside an outer parallel map that holds the whole thread
/// budget, the sweep and update run serially and still match.
#[test]
fn nested_calls_with_a_spent_budget_match_the_reference() {
    let g = Grid::new(7, 5, 6, 1.0, 0.7, 1.3);
    let state = perturbed(g, BoundaryKind::Periodic, 11, 0.3);
    let u_old = perturbed(g, BoundaryKind::Periodic, 12, 0.3);
    let expect = compute_changes(&state, GAMMA);
    let mut want = state.clone();
    integrate_substep(&mut want, &u_old, &expect, 0.01, 1);

    let callers = rayon::current_num_threads().max(2);
    let runs: Vec<(Changes, State)> = (0..callers)
        .into_par_iter()
        .map(|_| {
            let changes = changes_fast(&state, GAMMA);
            let mut next = state.clone();
            integrate_fast(&mut next, &u_old, &changes, 0.01, 1);
            (changes, next)
        })
        .collect();
    for (changes, next) in &runs {
        assert!(same_changes(changes, &expect));
        assert!(same_bits(&next.cells, &want.cells));
    }
}
