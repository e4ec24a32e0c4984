//! SSP Runge–Kutta time integration (the `integrateTime` of Algorithm 1).
//!
//! The paper's main loop runs three substeps per timestep; that is the
//! classic third-order strong-stability-preserving Runge–Kutta scheme
//! (Shu–Osher):
//!
//! ```text
//! substep 0:  u¹   = uⁿ + Δt·L(uⁿ)
//! substep 1:  u²   = ¾uⁿ + ¼(u¹ + Δt·L(u¹))
//! substep 2:  uⁿ⁺¹ = ⅓uⁿ + ⅔(u² + Δt·L(u²))
//! ```
//!
//! Each substep is the paper's "parallelized for every cell in the grid"
//! update. On the CPU it runs over the same contiguous blocks of k-planes
//! as [`crate::stencil::compute_changes`], one block per worker thread,
//! and walks only interior rows, so ghost cells are never visited.

use rayon::prelude::*;

use crate::grid::NGHOST;
use crate::state::{State, NCOMP};
use crate::stencil::{planes_per_block, Changes};

/// Number of SSP-RK substeps per timestep (the paper's `for substep ← 0 to 2`).
pub const N_SUBSTEPS: usize = 3;

/// Applies one SSP-RK3 substep in place.
///
/// `u_old` is the state at the *start of the timestep* (uⁿ); `state` holds
/// the current stage value and is advanced to the next stage. `changes` is
/// the stencil output evaluated on `state`.
///
/// # Panics
/// Panics if `substep ≥ 3`, if the change buffer size mismatches the grid,
/// or if the two states have different grids.
pub fn integrate_substep(
    state: &mut State,
    u_old: &State,
    changes: &Changes,
    dt: f64,
    substep: usize,
) {
    let planes = planes_per_block(state.grid.nz);
    integrate_in_blocks(state, u_old, changes, dt, substep, planes);
}

/// [`integrate_substep`] over blocks of `planes` interior k-planes each.
pub(crate) fn integrate_in_blocks(
    state: &mut State,
    u_old: &State,
    changes: &Changes,
    dt: f64,
    substep: usize,
    planes: usize,
) {
    assert!(substep < N_SUBSTEPS, "substep out of range");
    assert_eq!(state.grid, u_old.grid, "grid mismatch");
    assert_eq!(
        changes.dudt.len(),
        state.grid.n_cells(),
        "change buffer size mismatch"
    );
    assert!(dt > 0.0 && dt.is_finite(), "invalid timestep");

    // Convex coefficients: u_next = a·uⁿ + b·(u_stage + dt·L(u_stage)).
    let (a, b) = match substep {
        0 => (0.0, 1.0),
        1 => (0.75, 0.25),
        _ => (1.0 / 3.0, 2.0 / 3.0),
    };

    let g = state.grid;
    let (nx, ny, sx) = (g.nx, g.ny, g.sx());
    let plane = sx * g.sy();
    // Storage offset of the first interior k-plane.
    let first = NGHOST * plane;
    let old_cells = &u_old.cells;
    let dudt = &changes.dudt;

    state.cells[first..first + g.nz * plane]
        .par_chunks_mut(planes * plane)
        .enumerate()
        .for_each(|(blk, block)| {
            for (p, cells) in block.chunks_mut(plane).enumerate() {
                let k = blk * planes + p;
                for j in 0..ny {
                    let row = (j + NGHOST) * sx + NGHOST;
                    let old = &old_cells[first + k * plane + row..][..nx];
                    let d = &dudt[(k * ny + j) * nx..][..nx];
                    for ((cell, old), d) in cells[row..row + nx].iter_mut().zip(old).zip(d) {
                        for c in 0..NCOMP {
                            let stage = cell[c] + dt * d[c];
                            cell[c] = a * old[c] + b * stage;
                        }
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{apply_boundary, BoundaryKind};
    use crate::eos::{cons_from_primitive, GAMMA};
    use crate::grid::Grid;
    use crate::state::{comp, Cons};
    use crate::stencil::compute_changes;

    fn zero_changes(g: Grid) -> Changes {
        Changes {
            dudt: vec![[0.0; NCOMP]; g.n_cells()],
            cfl: vec![1.0; g.n_cells()],
        }
    }

    #[test]
    fn zero_rhs_leaves_state_unchanged() {
        let g = Grid::cubic(4, 4, 4);
        let mut s = State::quiescent(g);
        let u0 = s.clone();
        let ch = zero_changes(g);
        for sub in 0..N_SUBSTEPS {
            integrate_substep(&mut s, &u0, &ch, 0.1, sub);
        }
        for (a, b) in s.cells.iter().zip(&u0.cells) {
            for c in 0..NCOMP {
                assert!((a[c] - b[c]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn substep0_is_forward_euler() {
        let g = Grid::cubic(2, 2, 2);
        let mut s = State::quiescent(g);
        let u0 = s.clone();
        let mut ch = zero_changes(g);
        for d in &mut ch.dudt {
            d[comp::RHO] = 2.0;
        }
        integrate_substep(&mut s, &u0, &ch, 0.25, 0);
        for (i, j, k) in g.interior_coords() {
            assert!((s.interior(i, j, k)[comp::RHO] - 1.5).abs() < 1e-15);
        }
    }

    #[test]
    fn ghosts_are_not_integrated() {
        let g = Grid::cubic(3, 3, 3);
        let mut s = State::quiescent(g);
        let u0 = s.clone();
        let mut ch = zero_changes(g);
        for d in &mut ch.dudt {
            d[comp::RHO] = 1.0;
        }
        integrate_substep(&mut s, &u0, &ch, 1.0, 0);
        // Ghost corner keeps its quiescent value.
        assert_eq!(s.cells[g.idx(0, 0, 0)][comp::RHO], 1.0);
        assert_eq!(s.interior(0, 0, 0)[comp::RHO], 2.0);
    }

    #[test]
    fn rk3_exact_for_linear_ode() {
        // dU/dt = constant: all three substeps must land exactly on
        // uⁿ + Δt·c (SSP-RK3 is exact for constant RHS).
        let g = Grid::cubic(2, 2, 2);
        let mut s = State::quiescent(g);
        let u0 = s.clone();
        let mut ch = zero_changes(g);
        for d in &mut ch.dudt {
            d[comp::EN] = -0.5;
        }
        let dt = 0.2;
        for sub in 0..N_SUBSTEPS {
            integrate_substep(&mut s, &u0, &ch, dt, sub);
        }
        let expect = u0.interior(0, 0, 0)[comp::EN] + dt * (-0.5);
        assert!((s.interior(0, 0, 0)[comp::EN] - expect).abs() < 1e-14);
    }

    #[test]
    fn full_step_conserves_totals_with_periodic_bc() {
        let g = Grid::cubic(8, 4, 4);
        let mut s = State::from_fn(g, |x, y, _| {
            cons_from_primitive(
                1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin(),
                0.1 * (2.0 * std::f64::consts::PI * y).cos(),
                0.0,
                0.0,
                1.0,
                0.1,
                0.0,
                0.0,
                GAMMA,
            )
        });
        apply_boundary(&mut s, BoundaryKind::Periodic);
        let mass0 = s.total(comp::RHO);
        let energy0 = s.total(comp::EN);

        let u0 = s.clone();
        let dt = 1e-3;
        for sub in 0..N_SUBSTEPS {
            let ch = compute_changes(&s, GAMMA);
            integrate_substep(&mut s, &u0, &ch, dt, sub);
            apply_boundary(&mut s, BoundaryKind::Periodic);
        }
        assert!((s.total(comp::RHO) - mass0).abs() < 1e-11);
        assert!((s.total(comp::EN) - energy0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "substep out of range")]
    fn substep_bound_checked() {
        let g = Grid::cubic(2, 2, 2);
        let mut s = State::quiescent(g);
        let u0 = s.clone();
        let ch = zero_changes(g);
        integrate_substep(&mut s, &u0, &ch, 0.1, 3);
    }

    #[test]
    fn second_substep_averages_toward_old_state() {
        let g = Grid::cubic(2, 2, 2);
        let mut s = State::quiescent(g);
        // Make the stage state differ from uⁿ.
        for (i, j, k) in g.interior_coords() {
            s.interior_mut(i, j, k)[comp::RHO] = 3.0;
        }
        let mut u0 = State::quiescent(g);
        for (i, j, k) in g.interior_coords() {
            u0.interior_mut(i, j, k)[comp::RHO] = 1.0;
        }
        let ch = zero_changes(g);
        integrate_substep(&mut s, &u0, &ch, 0.1, 1);
        // ¾·1 + ¼·3 = 1.5
        let v: Cons = *s.interior(0, 0, 0);
        assert!((v[comp::RHO] - 1.5).abs() < 1e-15);
    }
}
