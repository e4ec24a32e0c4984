//! Frequency-selection policies over a predicted Pareto set.
//!
//! A policy turns a [`PredictedProfile`] plus a per-job deadline into a
//! clock request — or into *no* request ([`Policy::DefaultClock`], the
//! baseline every other policy is measured against, and the fallback
//! every failure mode converges to).
//!
//! Tie-breaking is fully deterministic: candidates are compared by
//! `total_cmp` chains, never by float `==` alone, so two runs of the same
//! stream make the same choices bit-for-bit.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cmp::Ordering;

use crate::serving::{LatticeProfile, PredictedProfile};
use energy_model::ds_model::{ConfigPredictedPoint, PredictedPoint};
use serde::{Deserialize, Serialize};

/// A frequency-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Never change the clock — the vendor-default baseline.
    DefaultClock,
    /// Minimize predicted energy among points that meet the deadline;
    /// if no point does, take the fastest point (least deadline damage).
    MinEnergyUnderDeadline,
    /// Minimize the predicted energy-delay product, ignoring deadlines.
    MinEdp,
}

impl Policy {
    /// All policies, baseline first.
    pub fn all() -> [Policy; 3] {
        [
            Policy::DefaultClock,
            Policy::MinEnergyUnderDeadline,
            Policy::MinEdp,
        ]
    }

    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::DefaultClock => "default-clock",
            Policy::MinEnergyUnderDeadline => "min-energy-under-deadline",
            Policy::MinEdp => "min-edp",
        }
    }

    /// Parses a [`Policy::name`] string.
    pub fn parse(s: &str) -> Option<Policy> {
        Policy::all().into_iter().find(|p| p.name() == s)
    }
}

/// What the selection rule reads from a predicted operating point, plus
/// the point's own total order for settling objective ties.
pub(crate) trait Candidate {
    /// Predicted `t_default / t`.
    fn speedup(&self) -> f64;
    /// Predicted `e / e_default`.
    fn norm_energy(&self) -> f64;
    /// Settles ties in the energy and EDP picks: the lesser point wins.
    fn tie_break(&self, other: &Self) -> Ordering;
    /// Settles ties in the fastest-point fallback: the greater point wins.
    fn fallback_tie_break(&self, other: &Self) -> Ordering {
        self.tie_break(other)
    }
}

impl Candidate for PredictedPoint {
    fn speedup(&self) -> f64 {
        self.speedup
    }
    fn norm_energy(&self) -> f64 {
        self.norm_energy
    }
    fn tie_break(&self, other: &Self) -> Ordering {
        self.freq_mhz.total_cmp(&other.freq_mhz)
    }
}

impl Candidate for ConfigPredictedPoint {
    fn speedup(&self) -> f64 {
        self.speedup
    }
    fn norm_energy(&self) -> f64 {
        self.norm_energy
    }
    fn tie_break(&self, other: &Self) -> Ordering {
        config_order(&self.config, &other.config)
    }
}

/// Lexicographic `total_cmp` order over configurations — ascending core,
/// then memory, then cap, … — so equal-objective points resolve the same
/// way on every run.
pub(crate) fn config_order(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(a.len().cmp(&b.len()))
}

/// The one selection rule every chooser shares. Non-finite points are
/// never candidates. [`Policy::MinEnergyUnderDeadline`] minimizes
/// predicted energy among points whose predicted time
/// (`default_time_s / speedup`) meets `deadline_s`, and if none does,
/// takes the fastest point (least deadline damage);
/// [`Policy::MinEdp`] minimizes the energy-delay product and ignores the
/// deadline; [`Policy::DefaultClock`] picks nothing. Ties fall through to
/// the faster (or, in the fallback, cheaper) point, then to the point's
/// own total order.
pub(crate) fn select<'a, T: Candidate>(
    policy: Policy,
    points: impl Iterator<Item = &'a T> + Clone,
    default_time_s: f64,
    deadline_s: f64,
) -> Option<&'a T> {
    let candidates = points
        .filter(|p| p.speedup().is_finite() && p.norm_energy().is_finite() && p.speedup() > 0.0);
    match policy {
        Policy::DefaultClock => None,
        Policy::MinEnergyUnderDeadline => candidates
            .clone()
            .filter(|p| default_time_s / p.speedup() <= deadline_s)
            .min_by(|a, b| {
                a.norm_energy()
                    .total_cmp(&b.norm_energy())
                    .then(b.speedup().total_cmp(&a.speedup()))
                    .then(a.tie_break(b))
            })
            .or_else(|| {
                // Nothing meets the deadline: minimize the damage by
                // running as fast as the model believes possible.
                candidates.max_by(|a, b| {
                    a.speedup()
                        .total_cmp(&b.speedup())
                        .then(b.norm_energy().total_cmp(&a.norm_energy()))
                        .then(a.fallback_tie_break(b))
                })
            }),
        // EDP in normalized units: (1/speedup) · norm_energy — the
        // default anchors cancel, so this orders points exactly as
        // absolute energy·delay would.
        Policy::MinEdp => candidates.min_by(|a, b| {
            (a.norm_energy() / a.speedup())
                .total_cmp(&(b.norm_energy() / b.speedup()))
                .then(b.speedup().total_cmp(&a.speedup()))
                .then(a.tie_break(b))
        }),
    }
}

/// Picks the clock a policy requests for one job: `None` means "leave the
/// device at its default clock" (always the answer for
/// [`Policy::DefaultClock`], and the degenerate answer when the predicted
/// front is empty or non-finite).
pub fn choose_frequency(
    policy: Policy,
    profile: &PredictedProfile,
    deadline_s: f64,
) -> Option<f64> {
    select(
        policy,
        profile.pareto.iter(),
        profile.default_time_s,
        deadline_s,
    )
    .map(|p| p.freq_mhz)
}

/// A job's clock decision together with the prediction at the chosen
/// point — the default-clock anchors when no clock is requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClockDecision {
    /// The clock to request; `None` leaves the device at its default.
    pub freq_mhz: Option<f64>,
    /// Predicted wall time at the decision (s).
    pub time_s: f64,
    /// Predicted energy at the decision (J).
    pub energy_j: f64,
}

/// [`choose_frequency`] plus the predicted time and energy of the chosen
/// Pareto point: the one decision step the single-device governor, the
/// lifecycle loop and the fleet all take.
pub(crate) fn resolve_clock(
    policy: Policy,
    profile: &PredictedProfile,
    deadline_s: f64,
) -> ClockDecision {
    match select(
        policy,
        profile.pareto.iter(),
        profile.default_time_s,
        deadline_s,
    ) {
        Some(p) => ClockDecision {
            freq_mhz: Some(p.freq_mhz),
            time_s: profile.default_time_s / p.speedup,
            energy_j: p.norm_energy * profile.default_energy_j,
        },
        None => ClockDecision {
            freq_mhz: None,
            time_s: profile.default_time_s,
            energy_j: profile.default_energy_j,
        },
    }
}

/// Picks the full operating configuration a policy requests over a
/// predicted Pareto *surface* — the configuration-keyed sibling of
/// [`choose_frequency`], on the same selection rule with ties settled in
/// ascending configuration order. `None` means "leave the device at its
/// default configuration" (always for [`Policy::DefaultClock`], and the
/// degenerate answer when the surface is empty or non-finite).
pub fn choose_config(policy: Policy, profile: &LatticeProfile, deadline_s: f64) -> Option<&[f64]> {
    select(
        policy,
        profile.surface.iter(),
        profile.default_time_s,
        deadline_s,
    )
    .map(|p| p.config.as_slice())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn point(freq_mhz: f64, speedup: f64, norm_energy: f64) -> PredictedPoint {
        PredictedPoint {
            freq_mhz,
            speedup,
            norm_energy,
        }
    }

    fn profile(pareto: Vec<PredictedPoint>) -> PredictedProfile {
        PredictedProfile {
            default_time_s: 10.0,
            default_energy_j: 100.0,
            default_freq_mhz: 1500.0,
            pareto,
        }
    }

    #[test]
    fn default_clock_never_requests_a_frequency() {
        let p = profile(vec![point(900.0, 0.9, 0.7), point(1500.0, 1.0, 1.0)]);
        assert_eq!(choose_frequency(Policy::DefaultClock, &p, 1.0), None);
    }

    #[test]
    fn min_energy_picks_cheapest_feasible_point() {
        // deadline 12 s: 900 MHz runs in 10/0.9 ≈ 11.1 s (feasible, cheap);
        // 700 MHz runs in 10/0.7 ≈ 14.3 s (infeasible, cheaper).
        let p = profile(vec![
            point(700.0, 0.7, 0.5),
            point(900.0, 0.9, 0.7),
            point(1500.0, 1.0, 1.0),
        ]);
        assert_eq!(
            choose_frequency(Policy::MinEnergyUnderDeadline, &p, 12.0),
            Some(900.0)
        );
    }

    #[test]
    fn min_energy_falls_back_to_fastest_when_nothing_feasible() {
        let p = profile(vec![point(700.0, 0.7, 0.5), point(1200.0, 0.95, 0.8)]);
        assert_eq!(
            choose_frequency(Policy::MinEnergyUnderDeadline, &p, 1.0),
            Some(1200.0)
        );
        // Equally fast and cheap points: the higher clock wins the tie.
        let tied = profile(vec![point(1300.0, 0.95, 0.8), point(1200.0, 0.95, 0.8)]);
        assert_eq!(
            choose_frequency(Policy::MinEnergyUnderDeadline, &tied, 1.0),
            Some(1300.0)
        );
    }

    #[test]
    fn min_edp_ignores_deadline() {
        // EDP: 700 → 0.5/0.7 ≈ 0.714; 1500 → 1.0. Tight deadline must not
        // change the answer.
        let p = profile(vec![point(700.0, 0.7, 0.5), point(1500.0, 1.0, 1.0)]);
        assert_eq!(choose_frequency(Policy::MinEdp, &p, 0.001), Some(700.0));
    }

    #[test]
    fn empty_or_degenerate_front_yields_no_request() {
        let empty = profile(vec![]);
        let nan = profile(vec![point(900.0, f64::NAN, 0.5)]);
        for policy in Policy::all() {
            assert_eq!(choose_frequency(policy, &empty, 10.0), None);
            assert_eq!(choose_frequency(policy, &nan, 10.0), None);
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in Policy::all() {
            assert_eq!(Policy::parse(policy.name()), Some(policy));
        }
        assert_eq!(Policy::parse("nope"), None);
    }

    // ---- Lattice (configuration-surface) selection ----

    fn cfg_point(
        core: f64,
        mem: f64,
        cap: f64,
        speedup: f64,
        norm_energy: f64,
    ) -> ConfigPredictedPoint {
        ConfigPredictedPoint {
            config: vec![core, mem, cap],
            speedup,
            norm_energy,
        }
    }

    fn lattice_profile(surface: Vec<ConfigPredictedPoint>) -> LatticeProfile {
        LatticeProfile {
            default_time_s: 10.0,
            default_energy_j: 100.0,
            default_config: vec![1500.0, 1100.0, 300.0],
            surface,
        }
    }

    #[test]
    fn default_clock_never_requests_a_config() {
        let p = lattice_profile(vec![cfg_point(900.0, 800.0, 150.0, 0.9, 0.7)]);
        assert_eq!(choose_config(Policy::DefaultClock, &p, 1.0), None);
    }

    #[test]
    fn min_energy_picks_cheapest_feasible_lattice_point() {
        // Deadline 12 s: the mem-downclocked point is feasible and cheaper
        // than the core-only point — the lattice must beat the front.
        let p = lattice_profile(vec![
            cfg_point(900.0, 1100.0, 300.0, 0.9, 0.75),
            cfg_point(900.0, 800.0, 300.0, 0.88, 0.65),
            cfg_point(700.0, 800.0, 150.0, 0.6, 0.5),
            cfg_point(1500.0, 1100.0, 300.0, 1.0, 1.0),
        ]);
        assert_eq!(
            choose_config(Policy::MinEnergyUnderDeadline, &p, 12.0),
            Some(&[900.0, 800.0, 300.0][..])
        );
    }

    #[test]
    fn min_energy_config_falls_back_to_fastest_when_nothing_feasible() {
        let p = lattice_profile(vec![
            cfg_point(700.0, 800.0, 150.0, 0.6, 0.5),
            cfg_point(1200.0, 1100.0, 300.0, 0.95, 0.8),
        ]);
        assert_eq!(
            choose_config(Policy::MinEnergyUnderDeadline, &p, 1.0),
            Some(&[1200.0, 1100.0, 300.0][..])
        );
    }

    #[test]
    fn min_edp_config_ignores_deadline() {
        let p = lattice_profile(vec![
            cfg_point(700.0, 800.0, 150.0, 0.7, 0.5),
            cfg_point(1500.0, 1100.0, 300.0, 1.0, 1.0),
        ]);
        assert_eq!(
            choose_config(Policy::MinEdp, &p, 0.001),
            Some(&[700.0, 800.0, 150.0][..])
        );
    }

    #[test]
    fn equal_objective_configs_tie_break_deterministically() {
        // Two points with identical objectives: ascending (core, mem, cap)
        // order must decide, on every run.
        let a = cfg_point(900.0, 800.0, 150.0, 0.9, 0.7);
        let b = cfg_point(900.0, 1100.0, 150.0, 0.9, 0.7);
        let p1 = lattice_profile(vec![a.clone(), b.clone()]);
        let p2 = lattice_profile(vec![b, a]);
        assert_eq!(
            choose_config(Policy::MinEnergyUnderDeadline, &p1, 100.0),
            choose_config(Policy::MinEnergyUnderDeadline, &p2, 100.0),
        );
        assert_eq!(
            choose_config(Policy::MinEnergyUnderDeadline, &p1, 100.0),
            Some(&[900.0, 800.0, 150.0][..])
        );
        // In the fastest-point fallback the greater configuration wins.
        for p in [&p1, &p2] {
            assert_eq!(
                choose_config(Policy::MinEnergyUnderDeadline, p, 0.001),
                Some(&[900.0, 1100.0, 150.0][..])
            );
        }
    }

    #[test]
    fn empty_or_degenerate_surface_yields_no_request() {
        let empty = lattice_profile(vec![]);
        let nan = lattice_profile(vec![cfg_point(900.0, 800.0, 150.0, f64::NAN, 0.5)]);
        for policy in Policy::all() {
            assert_eq!(choose_config(policy, &empty, 10.0), None);
            assert_eq!(choose_config(policy, &nan, 10.0), None);
        }
    }
}
