//! Estimating the social-activity probability `σ(u, slot)` from check-ins.
//!
//! For each member and weekly slot, the estimate is
//!
//! ```text
//! σ̂(u, s) = min(1, checkins(u, s) / weeks_observed)
//! ```
//!
//! optionally smoothed with Laplace pseudo-counts so that members with thin
//! histories do not collapse to hard 0/1 probabilities. The result plugs
//! directly into `ses_core::Activity::from_slots`.

use crate::checkins::{slot_of_tick, weeks_in_horizon, SLOTS_PER_WEEK};
use crate::dataset::EbsnDataset;

/// Smoothing for [`estimate_slot_activity`].
#[derive(Debug, Clone, Copy)]
pub struct SmoothingConfig {
    /// Pseudo-count added to every slot's check-in count.
    pub alpha: f64,
    /// Pseudo-weeks added to the denominator.
    pub beta: f64,
}

impl Default for SmoothingConfig {
    fn default() -> Self {
        // One phantom check-in spread over four phantom weeks: keeps thin
        // histories near a plausible base rate instead of exactly 0.
        Self {
            alpha: 0.25,
            beta: 4.0,
        }
    }
}

/// Per-member × per-slot activity estimates, row-major
/// (`profile[member * SLOTS_PER_WEEK + slot]`), each in `[0,1]`.
pub fn estimate_slot_activity(dataset: &EbsnDataset, smoothing: SmoothingConfig) -> Vec<f64> {
    let num_members = dataset.members.len();
    let weeks = weeks_in_horizon(dataset.horizon_ticks) as f64;
    let mut counts = vec![0.0f64; num_members * SLOTS_PER_WEEK];
    for rsvp in &dataset.rsvps {
        if !rsvp.attended {
            continue; // only realized check-ins signal availability
        }
        let event = &dataset.events[rsvp.event.index()];
        let slot = slot_of_tick(event.start);
        counts[rsvp.member.index() * SLOTS_PER_WEEK + slot] += 1.0;
    }
    counts
        .iter()
        .map(|&c| ((c + smoothing.alpha) / (weeks + smoothing.beta)).clamp(0.0, 1.0))
        .collect()
}

/// Mean activity per slot across all members (for dataset reports).
pub fn mean_activity_by_slot(profile: &[f64]) -> [f64; SLOTS_PER_WEEK] {
    let mut out = [0.0; SLOTS_PER_WEEK];
    if profile.is_empty() {
        return out;
    }
    let members = profile.len() / SLOTS_PER_WEEK;
    for m in 0..members {
        for (s, slot_mean) in out.iter_mut().enumerate() {
            *slot_mean += profile[m * SLOTS_PER_WEEK + s];
        }
    }
    for slot_mean in &mut out {
        *slot_mean /= members as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkins::TICKS_PER_WEEK;
    use crate::generator::{generate, GeneratorConfig};

    #[test]
    fn estimates_are_probabilities() {
        let ds = generate(&GeneratorConfig::default());
        let profile = estimate_slot_activity(&ds, SmoothingConfig::default());
        assert_eq!(profile.len(), ds.members.len() * SLOTS_PER_WEEK);
        assert!(profile.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn more_checkins_mean_higher_sigma() {
        let ds = generate(&GeneratorConfig::default());
        let profile = estimate_slot_activity(&ds, SmoothingConfig::default());
        // Count attended check-ins per member; the most active member must
        // not have a uniformly smaller profile than the least active one.
        let mut attended = vec![0usize; ds.members.len()];
        for r in &ds.rsvps {
            if r.attended {
                attended[r.member.index()] += 1;
            }
        }
        let most = attended
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        let none = attended.iter().position(|&c| c == 0);
        let sum_of = |m: usize| -> f64 {
            profile[m * SLOTS_PER_WEEK..(m + 1) * SLOTS_PER_WEEK]
                .iter()
                .sum()
        };
        if let Some(none) = none {
            assert!(
                sum_of(most) > sum_of(none),
                "member with {} check-ins must out-score member with none",
                attended[most]
            );
        }
    }

    #[test]
    fn smoothing_keeps_zero_history_above_zero() {
        let ds = generate(&GeneratorConfig::default());
        let smoothed = estimate_slot_activity(&ds, SmoothingConfig::default());
        assert!(smoothed.iter().all(|&p| p > 0.0));
        let unsmoothed = estimate_slot_activity(
            &ds,
            SmoothingConfig {
                alpha: 0.0,
                beta: 0.0,
            },
        );
        assert!(unsmoothed.contains(&0.0));
    }

    #[test]
    fn evenings_dominate_mornings_on_generated_data() {
        // The generator skews events to evenings, so estimated evening
        // activity should exceed morning activity on average.
        let ds = generate(&GeneratorConfig {
            num_events: 400,
            ..GeneratorConfig::default()
        });
        let profile = estimate_slot_activity(&ds, SmoothingConfig::default());
        let means = mean_activity_by_slot(&profile);
        let evenings: f64 = (0..7).map(|d| means[d * 3 + 2]).sum();
        let mornings: f64 = (0..7).map(|d| means[d * 3]).sum();
        assert!(
            evenings > mornings,
            "evenings {evenings} should exceed mornings {mornings}"
        );
    }

    #[test]
    fn horizon_weeks_scale_the_denominator() {
        let mut ds = generate(&GeneratorConfig::default());
        let short = estimate_slot_activity(&ds, SmoothingConfig::default());
        ds.horizon_ticks *= 4;
        // Same check-ins over 4× the horizon must not raise any estimate.
        let long = estimate_slot_activity(&ds, SmoothingConfig::default());
        assert_eq!(short.len(), long.len());
        assert!(short.iter().zip(&long).all(|(s, l)| l <= s));
        let _ = TICKS_PER_WEEK; // silence unused import in cfg(test)
    }
}
