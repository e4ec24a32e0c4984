//! Conserved-variable state.
//!
//! Ideal MHD evolves eight conserved quantities per cell: mass density,
//! three momentum components, total energy density, and three magnetic
//! field components. Cells are stored as arrays-of-structures (`[f64; 8]`)
//! because the stencil touches all eight components of each neighbour
//! together — one cache line per cell visit.

use serde::{Deserialize, Serialize};

use crate::grid::Grid;

/// Number of conserved components.
pub const NCOMP: usize = 8;

/// Component indices into a [`Cons`] vector.
pub mod comp {
    /// Mass density ρ.
    pub const RHO: usize = 0;
    /// x-momentum ρu.
    pub const MX: usize = 1;
    /// y-momentum ρv.
    pub const MY: usize = 2;
    /// z-momentum ρw.
    pub const MZ: usize = 3;
    /// Total energy density E.
    pub const EN: usize = 4;
    /// Magnetic field Bx.
    pub const BX: usize = 5;
    /// Magnetic field By.
    pub const BY: usize = 6;
    /// Magnetic field Bz.
    pub const BZ: usize = 7;
}

/// One cell's conserved variables.
pub type Cons = [f64; NCOMP];

/// The full grid state: one [`Cons`] per storage cell (ghosts included).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct State {
    /// Grid geometry.
    pub grid: Grid,
    /// Cell data in storage order (x fastest), ghosts included.
    pub cells: Vec<Cons>,
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            grid: self.grid,
            cells: self.cells.clone(),
        }
    }

    /// Copies into the existing cell buffer, so a scratch state is
    /// refreshed without a new allocation.
    fn clone_from(&mut self, source: &Self) {
        self.grid = source.grid;
        self.cells.clone_from(&source.cells);
    }
}

impl State {
    /// A state of quiescent gas: uniform density 1, pressure-consistent
    /// energy for γ = 5/3 with p = 1, zero velocity and field.
    pub fn quiescent(grid: Grid) -> Self {
        let e = 1.0 / (5.0 / 3.0 - 1.0); // p/(γ−1)
        let cell: Cons = [1.0, 0.0, 0.0, 0.0, e, 0.0, 0.0, 0.0];
        State {
            grid,
            cells: vec![cell; grid.n_storage()],
        }
    }

    /// Builds a state by evaluating `f(x, y, z) -> Cons` at every interior
    /// cell centre (ghosts start zeroed; call a boundary fill before use).
    pub fn from_fn(grid: Grid, f: impl Fn(f64, f64, f64) -> Cons) -> Self {
        let mut s = State {
            grid,
            cells: vec![[0.0; NCOMP]; grid.n_storage()],
        };
        for (i, j, k) in grid.interior_coords() {
            let (x, y, z) = grid.cell_center(i, j, k);
            s.cells[grid.interior_idx(i, j, k)] = f(x, y, z);
        }
        s
    }

    /// Interior cell accessor.
    #[inline]
    pub fn interior(&self, i: usize, j: usize, k: usize) -> &Cons {
        &self.cells[self.grid.interior_idx(i, j, k)]
    }

    /// Mutable interior cell accessor.
    #[inline]
    pub fn interior_mut(&mut self, i: usize, j: usize, k: usize) -> &mut Cons {
        let idx = self.grid.interior_idx(i, j, k);
        &mut self.cells[idx]
    }

    /// Sum of one conserved component over the interior (a conservation
    /// diagnostic: with periodic boundaries these sums are time-invariant).
    pub fn total(&self, component: usize) -> f64 {
        assert!(component < NCOMP, "component out of range");
        self.grid
            .interior_coords()
            .map(|(i, j, k)| self.interior(i, j, k)[component])
            .sum()
    }

    /// True when every interior cell has positive density and a physical
    /// (non-negative-pressure) energy for the given γ.
    pub fn is_physical(&self, gamma: f64) -> bool {
        self.grid.interior_coords().all(|(i, j, k)| {
            let u = self.interior(i, j, k);
            u[comp::RHO] > 0.0 && crate::eos::pressure(u, gamma) >= -1e-12
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_is_physical() {
        let s = State::quiescent(Grid::cubic(4, 4, 4));
        assert!(s.is_physical(5.0 / 3.0));
        assert!((s.total(comp::RHO) - 64.0).abs() < 1e-12);
        assert_eq!(s.total(comp::MX), 0.0);
    }

    #[test]
    fn from_fn_fills_interior_only() {
        let g = Grid::cubic(2, 2, 2);
        let s = State::from_fn(g, |_, _, _| [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        assert!((s.total(comp::RHO) - 16.0).abs() < 1e-12);
        // A ghost cell stays zeroed.
        assert_eq!(s.cells[g.idx(0, 0, 0)][comp::RHO], 0.0);
    }

    #[test]
    fn from_fn_sees_cell_centers() {
        let g = Grid::cubic(4, 1, 1);
        let s = State::from_fn(g, |x, _, _| [x, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        assert!((s.interior(0, 0, 0)[comp::RHO] - 0.125).abs() < 1e-15);
        assert!((s.interior(3, 0, 0)[comp::RHO] - 0.875).abs() < 1e-15);
    }

    #[test]
    fn clone_from_reuses_the_cell_buffer() {
        let src = State::quiescent(Grid::cubic(3, 3, 3));
        let mut dst = State::quiescent(Grid::cubic(4, 4, 4));
        let buf = dst.cells.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.cells.as_ptr(), buf);
    }

    #[test]
    fn interior_mut_round_trips() {
        let mut s = State::quiescent(Grid::cubic(3, 3, 3));
        s.interior_mut(1, 2, 0)[comp::RHO] = 9.0;
        assert_eq!(s.interior(1, 2, 0)[comp::RHO], 9.0);
    }
}
