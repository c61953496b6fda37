//! Theorem 1 machinery: the Multiple Knapsack Problem with Identical bin
//! capacities (MKPI) and its reduction to SES.
//!
//! The paper proves SES strongly NP-hard by reducing MKPI to a restricted
//! SES instance. This module makes the reduction executable:
//!
//! * bins → time intervals, capacity → `θ`, items → events,
//!   weight → `ξ`, profit → interest;
//! * one user per item, each user interested in exactly their own item's
//!   event with `µ_i = p_i·K/(1−p_i)`, and in every interval's single
//!   competing event with interest `K`;
//! * `σ ≡ 1`, distinct locations (no location constraint binds).
//!
//! With that choice the Luce ratio for user `i` when event `i` is scheduled
//! collapses to `µ_i/(K+µ_i) = p_i`, so `Ω(S) = Σ_{i ∈ S} p_i` — the packed
//! profit — regardless of which bins items land in. Solving the reduced SES
//! instance exactly therefore solves the MKPI instance; the tests verify
//! this end-to-end against a brute-force MKPI solver.

use crate::activity::Activity;
use crate::ids::{CompetingEventId, EventId, IntervalId, LocationId, UserId};
use crate::instance::SesInstance;
use crate::interest::InterestBuilder;
use crate::model::{uniform_grid, CandidateEvent, CompetingEvent, Organizer};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One MKPI item.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MkpiItem {
    /// Item weight (`> 0`).
    pub weight: f64,
    /// Item profit (`> 0`).
    pub profit: f64,
}

/// A Multiple Knapsack instance with identical bin capacities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MkpiInstance {
    /// Number of identical bins.
    pub num_bins: usize,
    /// Capacity of every bin.
    pub capacity: f64,
    /// The items.
    pub items: Vec<MkpiItem>,
}

/// Errors in MKPI data or reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum ReductionError {
    /// Weights and profits must be strictly positive and finite.
    InvalidItem {
        /// Index of the offending item.
        index: usize,
    },
    /// Capacity must be strictly positive.
    InvalidCapacity {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ReductionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReductionError::InvalidItem { index } => {
                write!(f, "MKPI item {index} has non-positive weight or profit")
            }
            ReductionError::InvalidCapacity { value } => {
                write!(f, "MKPI capacity {value} must be positive")
            }
        }
    }
}

impl std::error::Error for ReductionError {}

impl MkpiInstance {
    /// Validates the instance data.
    pub fn validate(&self) -> Result<(), ReductionError> {
        if !self.capacity.is_finite() || self.capacity <= 0.0 {
            return Err(ReductionError::InvalidCapacity {
                value: self.capacity,
            });
        }
        for (i, item) in self.items.iter().enumerate() {
            let ok = item.weight > 0.0
                && item.weight.is_finite()
                && item.profit > 0.0
                && item.profit.is_finite();
            if !ok {
                return Err(ReductionError::InvalidItem { index: i });
            }
        }
        Ok(())
    }

    /// Brute-force optimum: tries every assignment of items to
    /// `{none, bin 0, …, bin m−1}`. Exponential — only for tiny instances
    /// (≤ ~8 items) used as the reduction oracle.
    pub fn solve_brute_force(&self) -> f64 {
        fn rec(inst: &MkpiInstance, i: usize, loads: &mut [f64], profit: f64, best: &mut f64) {
            if i == inst.items.len() {
                *best = best.max(profit);
                return;
            }
            let item = inst.items[i];
            // Skip item i.
            rec(inst, i + 1, loads, profit, best);
            // Place item i into each bin with room. Identical capacities make
            // bins interchangeable; trying each is still exact (just slower).
            for b in 0..loads.len() {
                if loads[b] + item.weight <= inst.capacity + 1e-12 {
                    loads[b] += item.weight;
                    rec(inst, i + 1, loads, profit + item.profit, best);
                    loads[b] -= item.weight;
                }
            }
        }
        let mut loads = vec![0.0; self.num_bins];
        let mut best = 0.0;
        rec(self, 0, &mut loads, 0.0, &mut best);
        best
    }
}

/// The SES instance produced by the Theorem 1 reduction, together with the
/// factor converting SES utility back to MKPI profit.
pub struct ReducedInstance {
    /// The restricted SES instance (shared, ready for engines and sessions).
    pub instance: Arc<SesInstance>,
    /// `MKPI profit = SES utility × profit_scale`.
    pub profit_scale: f64,
}

/// Builds the restricted SES instance of Theorem 1 from an MKPI instance.
///
/// Profits are normalized to `p_i = profit_i / (2·max_profit) ∈ (0, ½]` so
/// that with `K = 1` every interest `µ_i = p_i/(1−p_i) ≤ 1`; the returned
/// `profit_scale = 2·max_profit` undoes the normalization.
pub fn mkpi_to_ses(mkpi: &MkpiInstance) -> Result<ReducedInstance, ReductionError> {
    mkpi.validate()?;
    let n = mkpi.items.len();
    let m = mkpi.num_bins;
    let max_profit = mkpi
        .items
        .iter()
        .map(|i| i.profit)
        .fold(f64::MIN_POSITIVE, f64::max);
    let scale = 2.0 * max_profit;
    const K: f64 = 1.0;

    let mut interest = InterestBuilder::new(n, n, m);
    for (i, item) in mkpi.items.iter().enumerate() {
        let p = item.profit / scale; // ∈ (0, 1/2]
        let mu = p * K / (1.0 - p); // ≤ 1 by construction
        interest
            .set(UserId::new(i as u32), EventId::new(i as u32), mu)
            .expect("µ in range by construction");
        // Every user has interest K in the single competing event of every
        // interval.
        for t in 0..m {
            interest
                .set(UserId::new(i as u32), CompetingEventId::new(t as u32), K)
                .expect("K in range");
        }
    }

    let events = mkpi
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            // Distinct locations: the location constraint never binds
            // (restriction 7 of the proof sketch).
            CandidateEvent::new(
                EventId::new(i as u32),
                LocationId::new(i as u32),
                item.weight,
            )
        })
        .collect();
    let competing = (0..m)
        .map(|t| CompetingEvent::new(CompetingEventId::new(t as u32), IntervalId::new(t as u32)))
        .collect();

    let instance = SesInstance::builder()
        .organizer(Organizer::new(mkpi.capacity))
        .intervals(uniform_grid(m, 1))
        .events(events)
        .competing(competing)
        .interest(interest.build().expect("valid by construction"))
        .activity(Activity::constant(n, m, 1.0).expect("σ = 1 is valid"))
        .build_shared()
        .expect("reduction output must validate");

    Ok(ReducedInstance {
        instance,
        profit_scale: scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{ExactScheduler, Scheduler};
    use crate::engine::AttendanceEngine;
    use crate::util::float::{approx_eq, approx_eq_tol};

    fn item(weight: f64, profit: f64) -> MkpiItem {
        MkpiItem { weight, profit }
    }

    #[test]
    fn validation_rejects_bad_data() {
        let bad = MkpiInstance {
            num_bins: 1,
            capacity: 0.0,
            items: Vec::new(),
        };
        assert!(matches!(
            bad.validate().unwrap_err(),
            ReductionError::InvalidCapacity { .. }
        ));
        let bad = MkpiInstance {
            num_bins: 1,
            capacity: 1.0,
            items: vec![item(1.0, -2.0)],
        };
        assert!(matches!(
            bad.validate().unwrap_err(),
            ReductionError::InvalidItem { index: 0 }
        ));
    }

    #[test]
    fn brute_force_solves_known_case() {
        // 2 bins of capacity 10; items (w, p):
        // (6, 30), (5, 20), (5, 19), (4, 10). Optimum packs (6+4) and (5+5):
        // all items fit → 79.
        let mkpi = MkpiInstance {
            num_bins: 2,
            capacity: 10.0,
            items: vec![
                item(6.0, 30.0),
                item(5.0, 20.0),
                item(5.0, 19.0),
                item(4.0, 10.0),
            ],
        };
        assert!(approx_eq(mkpi.solve_brute_force(), 79.0));

        // 1 bin: best pack is (6+4) → 30 + 10 = 40, beating (5+5) → 39.
        let single = MkpiInstance {
            num_bins: 1,
            ..mkpi
        };
        assert!(approx_eq(single.solve_brute_force(), 40.0));
    }

    #[test]
    fn scheduled_event_attendance_equals_normalized_profit() {
        // The core identity of the reduction: ω(e_i) = p_i wherever e_i goes.
        let mkpi = MkpiInstance {
            num_bins: 2,
            capacity: 10.0,
            items: vec![item(3.0, 8.0), item(4.0, 2.0)],
        };
        let reduced = mkpi_to_ses(&mkpi).unwrap();
        let inst = &reduced.instance;
        for t in 0..2u32 {
            let mut engine = AttendanceEngine::new(inst);
            engine.assign(EventId::new(0), IntervalId::new(t)).unwrap();
            let omega = engine.expected_attendance(EventId::new(0)).unwrap();
            let p0 = 8.0 / reduced.profit_scale;
            assert!(
                approx_eq(omega, p0),
                "interval {t}: ω = {omega}, expected p = {p0}"
            );
        }
    }

    #[test]
    fn attendance_is_independent_of_coscheduling() {
        // Users like exactly one candidate event, so co-scheduled events do
        // not cannibalize each other in the reduced instance.
        let mkpi = MkpiInstance {
            num_bins: 1,
            capacity: 10.0,
            items: vec![item(3.0, 5.0), item(3.0, 7.0)],
        };
        let reduced = mkpi_to_ses(&mkpi).unwrap();
        let mut engine = AttendanceEngine::new(&reduced.instance);
        engine.assign(EventId::new(0), IntervalId::new(0)).unwrap();
        let solo = engine.expected_attendance(EventId::new(0)).unwrap();
        engine.assign(EventId::new(1), IntervalId::new(0)).unwrap();
        let shared = engine.expected_attendance(EventId::new(0)).unwrap();
        assert!(approx_eq(solo, shared));
    }

    #[test]
    fn solving_reduced_ses_solves_mkpi() {
        let cases = [
            MkpiInstance {
                num_bins: 2,
                capacity: 10.0,
                items: vec![
                    item(6.0, 30.0),
                    item(5.0, 20.0),
                    item(5.0, 19.0),
                    item(4.0, 10.0),
                ],
            },
            MkpiInstance {
                num_bins: 1,
                capacity: 7.0,
                items: vec![item(3.0, 9.0), item(4.0, 12.0), item(5.0, 14.0)],
            },
            MkpiInstance {
                num_bins: 3,
                capacity: 5.0,
                items: vec![
                    item(4.0, 7.0),
                    item(4.0, 8.0),
                    item(4.0, 9.0),
                    item(2.0, 3.0),
                ],
            },
        ];
        for (i, mkpi) in cases.iter().enumerate() {
            let expected = mkpi.solve_brute_force();
            let reduced = mkpi_to_ses(mkpi).unwrap();
            // k = n lets the B&B pick the best subset of any size ≤ n.
            let out = ExactScheduler::new()
                .run(&reduced.instance, mkpi.items.len())
                .unwrap();
            let recovered = out.total_utility * reduced.profit_scale;
            assert!(
                approx_eq_tol(recovered, expected, 1e-6),
                "case {i}: SES-recovered profit {recovered} vs MKPI optimum {expected}"
            );
        }
    }

    #[test]
    fn reduction_respects_capacity_via_theta() {
        let mkpi = MkpiInstance {
            num_bins: 1,
            capacity: 5.0,
            items: vec![item(3.0, 1.0), item(3.0, 1.0)],
        };
        let reduced = mkpi_to_ses(&mkpi).unwrap();
        let mut engine = AttendanceEngine::new(&reduced.instance);
        engine.assign(EventId::new(0), IntervalId::new(0)).unwrap();
        // Second item does not fit (3 + 3 > 5) — mirrors the bin constraint.
        assert!(engine.assign(EventId::new(1), IntervalId::new(0)).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let mkpi = MkpiInstance {
            num_bins: 2,
            capacity: 4.0,
            items: vec![item(1.0, 2.0)],
        };
        let json = serde_json::to_string(&mkpi).unwrap();
        assert_eq!(serde_json::from_str::<MkpiInstance>(&json).unwrap(), mkpi);
    }
}
