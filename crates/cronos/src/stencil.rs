//! The `computeChanges` stencil.
//!
//! Second-order finite-volume update: per cell, minmod-limited linear
//! reconstruction to each face and Rusanov interface fluxes, accumulated as
//! `dU/dt = −ΣΔF/Δx`. The reconstruction needs the two neighbours on each
//! side in every direction, so each cell reads 4 cells per dimension plus
//! itself — the paper's **13-point stencil** (§3.1).
//!
//! Alongside the change buffer, the stencil produces the per-cell CFL rate
//! `max_d (|u_d| + c_f,d) / Δx_d` that the subsequent max-reduction turns
//! into the next time step — exactly the `cflBuf` of Algorithm 1.
//!
//! # Face-once plane-block sweep
//!
//! The interior is split into one contiguous block of k-planes per worker
//! thread, and each block writes its own range of the output buffers.
//! Within a block the sweep walks `(k, j, i)` and evaluates every face flux
//! once: a cell computes its three `+½` faces and takes its `−½` faces from
//! three buffers — the x-face carried along the row, the row's y-faces and
//! the plane's z-faces — which its `+½` fluxes then replace. A `−½` face is
//! computed directly only where no cell precedes it in the walk: at the
//! start of each row (x), each plane (y) and each block (z), so a z-face
//! between two blocks is evaluated by both. A flux is a pure function of
//! the same four cells whichever side evaluates it, so the result is
//! bit-identical to evaluating both faces per cell; the telescoping flux
//! sums keep the scheme exactly conservative.

use rayon::prelude::*;

use crate::flux::{max_signal_speed, rusanov_flux};
use crate::grid::NGHOST;
use crate::state::{Cons, State, NCOMP};

/// Output of one `computeChanges` sweep: per-interior-cell time derivative
/// and CFL rate, in interior (x-fastest) order.
#[derive(Debug, Clone, PartialEq)]
pub struct Changes {
    /// `dU/dt` per interior cell.
    pub dudt: Vec<Cons>,
    /// CFL rate (1/s) per interior cell.
    pub cfl: Vec<f64>,
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Limited slope of every component at a cell given its two neighbours.
#[inline]
fn slopes(um: &Cons, u0: &Cons, up: &Cons) -> Cons {
    let mut s: Cons = [0.0; NCOMP];
    for c in 0..NCOMP {
        s[c] = minmod(u0[c] - um[c], up[c] - u0[c]);
    }
    s
}

/// Reconstructed face states `(left-of-face, right-of-face)` for the face
/// between `u0` and `up`, using the 4-cell neighbourhood `(um, u0, up, upp)`.
#[inline]
pub(crate) fn face_states(um: &Cons, u0: &Cons, up: &Cons, upp: &Cons) -> (Cons, Cons) {
    let s0 = slopes(um, u0, up);
    let s1 = slopes(u0, up, upp);
    let mut l: Cons = [0.0; NCOMP];
    let mut r: Cons = [0.0; NCOMP];
    for c in 0..NCOMP {
        l[c] = u0[c] + 0.5 * s0[c];
        r[c] = up[c] - 0.5 * s1[c];
    }
    (l, r)
}

/// Interior k-planes per parallel block: one contiguous block per worker
/// thread (the last may be shorter).
pub(crate) fn planes_per_block(nz: usize) -> usize {
    nz.div_ceil(rayon::current_num_threads())
}

/// Runs one `computeChanges` sweep over the interior. Ghost cells must have
/// been filled (two layers) by a boundary pass first.
pub fn compute_changes(state: &State, gamma: f64) -> Changes {
    compute_changes_in_blocks(state, gamma, planes_per_block(state.grid.nz))
}

/// [`compute_changes`] with blocks of `planes` k-planes each.
pub(crate) fn compute_changes_in_blocks(state: &State, gamma: f64, planes: usize) -> Changes {
    let g = state.grid;
    let plane = g.nx * g.ny;
    let mut dudt = vec![[0.0; NCOMP]; g.n_cells()];
    let mut cfl = vec![0.0; g.n_cells()];
    let block = planes * plane;
    dudt.par_chunks_mut(block)
        .zip(cfl.par_chunks_mut(block))
        .enumerate()
        .for_each(|(b, (dudt, cfl))| sweep_block(state, gamma, b * planes, dudt, cfl));
    Changes { dudt, cfl }
}

/// Sweeps one block of interior k-planes, starting at plane `k0`, into its
/// slices of the output buffers (their length sets the plane count),
/// evaluating each face flux once.
fn sweep_block(state: &State, gamma: f64, k0: usize, dudt: &mut [Cons], cfl: &mut [f64]) {
    let g = state.grid;
    let (nx, ny) = (g.nx, g.ny);
    let inv_d = [1.0 / g.dx(), 1.0 / g.dy(), 1.0 / g.dz()];
    // Storage strides per direction (x fastest).
    let strides = [1usize, g.sx(), g.sx() * g.sy()];
    let cells = &state.cells;

    // Rusanov flux through the face between storage cells `c` and
    // `c + stride`, reconstructed from the 4-cell neighbourhood.
    let flux = |c: usize, dir: usize| {
        let st = strides[dir];
        let (l, r) = face_states(
            &cells[c - st],
            &cells[c],
            &cells[c + st],
            &cells[c + 2 * st],
        );
        rusanov_flux(&l, &r, gamma, dir)
    };
    let row_start = |j: usize, k: usize| g.idx(NGHOST, j + NGHOST, k + NGHOST);

    // z-faces k−½ of the current plane, y-faces j−½ of the current row.
    let mut fz: Vec<Cons> = (0..ny)
        .flat_map(|j| (0..nx).map(move |i| row_start(j, k0) + i - strides[2]))
        .map(|c| flux(c, 2))
        .collect();
    let mut fy: Vec<Cons> = vec![[0.0; NCOMP]; nx];

    let mut out = 0;
    for k in k0..k0 + dudt.len() / (nx * ny) {
        for (i, f) in fy.iter_mut().enumerate() {
            *f = flux(row_start(0, k) + i - strides[1], 1);
        }
        for j in 0..ny {
            let row = row_start(j, k);
            // x-face i−½, carried along the row.
            let mut fx = flux(row - 1, 0);
            for i in 0..nx {
                let c0 = row + i;
                let f_minus = [fx, fy[i], fz[j * nx + i]];
                let f_plus = [flux(c0, 0), flux(c0, 1), flux(c0, 2)];

                let u0 = &cells[c0];
                let mut d: Cons = [0.0; NCOMP];
                let mut cfl_rate = 0.0f64;
                for dir in 0..3 {
                    for c in 0..NCOMP {
                        d[c] -= (f_plus[dir][c] - f_minus[dir][c]) * inv_d[dir];
                    }
                    cfl_rate = cfl_rate.max(max_signal_speed(u0, gamma, dir) * inv_d[dir]);
                }
                dudt[out] = d;
                cfl[out] = cfl_rate;
                out += 1;

                [fx, fy[i], fz[j * nx + i]] = f_plus;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{apply_boundary, BoundaryKind};
    use crate::eos::{cons_from_primitive, GAMMA};
    use crate::grid::Grid;
    use crate::state::comp;

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(2.0, 1.0), 1.0);
        assert_eq!(minmod(-1.0, -3.0), -1.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn uniform_state_has_zero_changes() {
        let g = Grid::cubic(6, 6, 6);
        let mut s = State::from_fn(g, |_, _, _| {
            cons_from_primitive(1.0, 0.3, -0.2, 0.1, 1.0, 0.2, 0.1, -0.3, GAMMA)
        });
        apply_boundary(&mut s, BoundaryKind::Periodic);
        let ch = compute_changes(&s, GAMMA);
        for d in &ch.dudt {
            for (c, v) in d.iter().enumerate() {
                assert!(
                    v.abs() < 1e-12,
                    "uniform flow must be an equilibrium, got {v} (component {c})"
                );
            }
        }
    }

    #[test]
    fn cfl_rate_matches_signal_over_dx() {
        let g = Grid::cubic(4, 4, 4);
        let mut s = State::from_fn(g, |_, _, _| {
            cons_from_primitive(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, GAMMA)
        });
        apply_boundary(&mut s, BoundaryKind::Periodic);
        let ch = compute_changes(&s, GAMMA);
        let expect = GAMMA.sqrt() / g.dx();
        for r in &ch.cfl {
            assert!((r - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn changes_sum_to_zero_with_periodic_boundaries() {
        // Conservation: the flux-difference form telescopes, so the sum of
        // dU/dt over the domain vanishes for every component.
        let g = Grid::cubic(8, 4, 4);
        let mut s = State::from_fn(g, |x, y, z| {
            let rho = 1.0 + 0.3 * (2.0 * std::f64::consts::PI * x).sin();
            cons_from_primitive(
                rho,
                0.2 * (2.0 * std::f64::consts::PI * y).cos(),
                0.1,
                -0.05 * (2.0 * std::f64::consts::PI * z).sin(),
                1.0 + 0.1 * x,
                0.1,
                0.2,
                0.05,
                GAMMA,
            )
        });
        apply_boundary(&mut s, BoundaryKind::Periodic);
        let ch = compute_changes(&s, GAMMA);
        for c in 0..NCOMP {
            let total: f64 = ch.dudt.iter().map(|d| d[c]).sum();
            let scale: f64 = ch.dudt.iter().map(|d| d[c].abs()).sum::<f64>().max(1.0);
            assert!(
                (total / scale).abs() < 1e-12,
                "component {c} not conservative: {total}"
            );
        }
    }

    #[test]
    fn density_gradient_drives_mass_toward_low_side() {
        // A pressure-balanced density step: dissipation should move mass
        // from the dense half toward the light half.
        let g = Grid::cubic(8, 4, 4);
        let mut s = State::from_fn(g, |x, _, _| {
            let rho = if x < 0.5 { 2.0 } else { 1.0 };
            cons_from_primitive(rho, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, GAMMA)
        });
        apply_boundary(&mut s, BoundaryKind::Outflow);
        let ch = compute_changes(&s, GAMMA);
        // The cell just right of the step must gain mass.
        let idx_right = 4; // first light cell on the x-axis row (j=k=0)
        assert!(ch.dudt[idx_right][comp::RHO] > 0.0);
    }

    #[test]
    fn deterministic_under_parallelism() {
        let g = Grid::cubic(10, 6, 6);
        let mut s = State::from_fn(g, |x, y, z| {
            cons_from_primitive(
                1.0 + 0.2 * (x * 7.0).sin() * (y * 3.0).cos(),
                0.1 * z,
                -0.2 * x,
                0.05,
                1.0 + 0.05 * y,
                0.1 * (z * 2.0).sin(),
                0.2,
                0.0,
                GAMMA,
            )
        });
        apply_boundary(&mut s, BoundaryKind::Periodic);
        let a = compute_changes(&s, GAMMA);
        let b = compute_changes(&s, GAMMA);
        assert_eq!(a, b, "parallel sweep must be bit-deterministic");
    }
}
