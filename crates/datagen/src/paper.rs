//! The ICDE 2018 experimental parameterization (§IV-A).
//!
//! Defaults straight from the paper:
//!
//! * `k` — number of scheduled events: default **100**, maximum **500**;
//! * `|T|` — candidate intervals: varied from `k/5` to `3k`, default `3k/2`;
//! * `|E|` — candidate events: `2k`;
//! * competing events per interval: uniform with mean **8.1** (measured on
//!   the Meetup dumps);
//! * available locations: **25** (derived from the spatio-temporal conflict
//!   percentage, following She et al.);
//! * organizer resources `θ = 20`; required resources `ξ ~ U[1, 20/3]`;
//! * social-activity probability `σ`: uniform.

use serde::{Deserialize, Serialize};

/// How `σ(u,t)` is produced when building instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SigmaMode {
    /// `σ(u,t) ~ U[0,1)`, hashed from the seed (the paper's setting).
    Uniform,
    /// Estimated from the dataset's check-in history per weekly slot
    /// (extension; see `ses_ebsn::activity`).
    FromCheckins,
}

/// Full parameterization of one experimental cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperConfig {
    /// Number of events to schedule.
    pub k: usize,
    /// `|T| = round(k × t_factor)`, clamped to ≥ 1.
    pub t_factor: f64,
    /// `|E| = round(k × e_factor)`.
    pub e_factor: f64,
    /// Number of available locations events are spread over.
    pub num_locations: usize,
    /// Organizer budget θ.
    pub theta: f64,
    /// Required resources drawn from `U[xi_min, xi_max]`.
    pub xi_min: f64,
    /// Upper end of the ξ draw.
    pub xi_max: f64,
    /// Mean of the uniform competing-events-per-interval draw.
    pub competing_mean: f64,
    /// σ production mode.
    pub sigma: SigmaMode,
    /// Seed for every random draw during instance construction.
    pub seed: u64,
}

impl Default for PaperConfig {
    fn default() -> Self {
        Self {
            k: 100,
            t_factor: 1.5,
            e_factor: 2.0,
            num_locations: 25,
            theta: 20.0,
            xi_min: 1.0,
            xi_max: 20.0 / 3.0,
            competing_mean: 8.1,
            sigma: SigmaMode::Uniform,
            seed: 0,
        }
    }
}

impl PaperConfig {
    /// Default configuration at a given `k` (all other knobs at paper
    /// defaults).
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Default configuration at a given `k` and `|T|` factor.
    pub fn with_k_and_t_factor(k: usize, t_factor: f64) -> Self {
        Self {
            k,
            t_factor,
            ..Self::default()
        }
    }

    /// Derived `|T|`.
    pub fn num_intervals(&self) -> usize {
        ((self.k as f64 * self.t_factor).round() as usize).max(1)
    }

    /// Derived `|E|`.
    pub fn num_events(&self) -> usize {
        ((self.k as f64 * self.e_factor).round() as usize).max(self.k)
    }

    /// The paper's `k` sweep (Fig. 1a/1b): 100 … 500.
    pub fn paper_k_values() -> &'static [usize] {
        &[100, 200, 300, 400, 500]
    }

    /// The paper's `|T|` sweep factors (Fig. 1c/1d): `k/5 … 3k`.
    pub fn paper_t_factors() -> &'static [f64] {
        &[0.2, 0.5, 1.0, 1.5, 2.0, 3.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = PaperConfig::default();
        assert_eq!(cfg.k, 100);
        assert_eq!(cfg.num_intervals(), 150); // 3k/2
        assert_eq!(cfg.num_events(), 200); // 2k
        assert_eq!(cfg.num_locations, 25);
        assert_eq!(cfg.theta, 20.0);
        assert!((cfg.xi_max - 20.0 / 3.0).abs() < 1e-12);
        assert!((cfg.competing_mean - 8.1).abs() < 1e-12);
        assert_eq!(cfg.sigma, SigmaMode::Uniform);
    }

    #[test]
    fn derived_sizes_track_k() {
        let cfg = PaperConfig::with_k(500);
        assert_eq!(cfg.num_intervals(), 750);
        assert_eq!(cfg.num_events(), 1000);
        let cfg = PaperConfig::with_k_and_t_factor(100, 0.2);
        assert_eq!(cfg.num_intervals(), 20); // k/5
        let cfg = PaperConfig::with_k_and_t_factor(100, 3.0);
        assert_eq!(cfg.num_intervals(), 300); // 3k
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let cfg = PaperConfig::with_k_and_t_factor(1, 0.2);
        assert_eq!(cfg.num_intervals(), 1);
        assert!(cfg.num_events() >= cfg.k);
    }

    #[test]
    fn sweeps_cover_paper_ranges() {
        let ks = PaperConfig::paper_k_values();
        assert_eq!(ks.first(), Some(&100));
        assert_eq!(ks.last(), Some(&500));
        let ts = PaperConfig::paper_t_factors();
        assert!((ts.first().unwrap() - 0.2).abs() < 1e-12);
        assert!((ts.last().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = PaperConfig::with_k(300);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(serde_json::from_str::<PaperConfig>(&json).unwrap(), cfg);
    }
}
