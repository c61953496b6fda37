//! The frozen **hash-map scoring baseline**: the engine layout this
//! workspace shipped before the columnar mass table, kept verbatim so the
//! perf trajectory (`BENCH_engine.json`) always measures the win against a
//! fixed reference instead of against a moving target.
//!
//! Layout under measurement: per-interval `FxHashMap<UserId, f64>` tables
//! for both the competing mass `B_t` and the scheduled mass `M_t`, with the
//! activity probability `σ(u,t)` looked up on every posting visit — two hash
//! probes and one σ lookup per posting, the access pattern
//! `ses_core::engine` replaced with flat columns.
//!
//! Only what the greedy solve needs is reproduced (scoring, assignment
//! bookkeeping, feasibility tracking); the selection logic is the same
//! Algorithm 1 as `GreedyScheduler`, tie-breaks included, so the baseline
//! and the columnar engine pick identical schedules and any wall-clock
//! difference is attributable to the data layout alone.

use ses_core::util::float::{luce_ratio, total_cmp};
use ses_core::util::fxhash::FxHashMap;
use ses_core::{EventId, IntervalId, SesInstance, UserId};
use std::sync::Arc;
use std::time::Instant;

/// What one baseline greedy solve measured.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Total utility Ω of the schedule (must match the columnar engine).
    pub utility: f64,
    /// Wall-clock milliseconds of the solve.
    pub millis: f64,
    /// Eq. 4 evaluations performed.
    pub score_evaluations: u64,
    /// Posting entries visited while scoring.
    pub posting_visits: u64,
    /// Assignments placed.
    pub scheduled: usize,
}

/// The pre-columnar incremental engine, hash maps and all.
struct HashMapEngine<'a> {
    inst: &'a SesInstance,
    /// Per-interval competing mass `B_t`.
    b: Vec<FxHashMap<UserId, f64>>,
    /// Per-interval scheduled mass `M_t`.
    m: Vec<FxHashMap<UserId, f64>>,
    used_resources: Vec<f64>,
    used_locations: Vec<FxHashMap<u32, EventId>>,
    scheduled: Vec<bool>,
    num_scheduled: usize,
    total_utility: f64,
    score_evaluations: u64,
    posting_visits: u64,
}

impl<'a> HashMapEngine<'a> {
    fn new(inst: &'a SesInstance) -> Self {
        let nt = inst.num_intervals();
        let mut b: Vec<FxHashMap<UserId, f64>> = vec![FxHashMap::default(); nt];
        for c in inst.competing() {
            let postings = inst.interest().interested_users(c.id.into());
            let map = &mut b[c.interval.index()];
            for &(u, mu) in postings {
                *map.entry(u).or_insert(0.0) += mu;
            }
        }
        Self {
            inst,
            b,
            m: vec![FxHashMap::default(); nt],
            used_resources: vec![0.0; nt],
            used_locations: vec![FxHashMap::default(); nt],
            scheduled: vec![false; inst.num_events()],
            num_scheduled: 0,
            total_utility: 0.0,
            score_evaluations: 0,
            posting_visits: 0,
        }
    }

    fn is_valid(&self, event: EventId, interval: IntervalId) -> bool {
        if self.scheduled[event.index()] {
            return false;
        }
        let ev = self.inst.event(event);
        let ti = interval.index();
        if self.used_locations[ti].contains_key(&ev.location.raw()) {
            return false;
        }
        self.used_resources[ti] + ev.required_resources <= self.inst.budget()
    }

    fn score(&mut self, event: EventId, interval: IntervalId) -> f64 {
        self.score_evaluations += 1;
        let postings = self.inst.interest().interested_users(event.into());
        self.posting_visits += postings.len() as u64;
        let ti = interval.index();
        let bt = &self.b[ti];
        let mt = &self.m[ti];
        let activity = self.inst.activity();
        let mut sum = 0.0;
        for &(u, mu) in postings {
            let b = bt.get(&u).copied().unwrap_or(0.0);
            let m = mt.get(&u).copied().unwrap_or(0.0);
            let before = luce_ratio(m, b + m);
            let after = luce_ratio(m + mu, b + m + mu);
            sum += activity.sigma(u, interval) * (after - before);
        }
        sum
    }

    fn assign(&mut self, event: EventId, interval: IntervalId) {
        let gain = self.score(event, interval);
        let ti = interval.index();
        let postings = self.inst.interest().interested_users(event.into());
        let mt = &mut self.m[ti];
        for &(u, mu) in postings {
            *mt.entry(u).or_insert(0.0) += mu;
        }
        let ev = self.inst.event(event);
        self.used_resources[ti] += ev.required_resources;
        self.used_locations[ti].insert(ev.location.raw(), event);
        self.scheduled[event.index()] = true;
        self.num_scheduled += 1;
        self.total_utility += gain;
    }
}

#[derive(Clone, Copy)]
struct ListEntry {
    event: EventId,
    interval: IntervalId,
    score: f64,
}

/// The paper's GRD (Algorithm 1) over the hash-map engine — selection logic
/// and tie-breaks identical to `ses_core::GreedyScheduler`, so the produced
/// schedule (and Ω) matches the columnar run and only the layout differs.
pub fn greedy_hashmap(inst: &Arc<SesInstance>, k: usize) -> BaselineOutcome {
    let start = Instant::now();
    let mut engine = HashMapEngine::new(inst);

    let mut list: Vec<ListEntry> = Vec::with_capacity(inst.num_events() * inst.num_intervals());
    for e in 0..inst.num_events() {
        let event = EventId::new(e as u32);
        for t in 0..inst.num_intervals() {
            let interval = IntervalId::new(t as u32);
            list.push(ListEntry {
                event,
                interval,
                score: engine.score(event, interval),
            });
        }
    }

    while engine.num_scheduled < k {
        let Some(top_idx) = list
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                total_cmp(a.score, b.score)
                    .then_with(|| b.event.cmp(&a.event))
                    .then_with(|| b.interval.cmp(&a.interval))
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let top = list.swap_remove(top_idx);
        if !engine.is_valid(top.event, top.interval) {
            continue;
        }
        engine.assign(top.event, top.interval);

        if engine.num_scheduled < k {
            let selected_interval = top.interval;
            let mut i = 0;
            while i < list.len() {
                let entry = list[i];
                if !engine.is_valid(entry.event, entry.interval) {
                    list.swap_remove(i);
                    continue;
                }
                if entry.interval == selected_interval {
                    list[i].score = engine.score(entry.event, entry.interval);
                }
                i += 1;
            }
        }
    }

    BaselineOutcome {
        utility: engine.total_utility,
        millis: start.elapsed().as_secs_f64() * 1e3,
        score_evaluations: engine.score_evaluations,
        posting_visits: engine.posting_visits,
        scheduled: engine.num_scheduled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::testkit;
    use ses_core::{GreedyScheduler, Scheduler};

    #[test]
    fn baseline_matches_the_columnar_greedy_exactly() {
        // Same algorithm, same tie-breaks, same float operations per posting
        // — the two layouts must agree on the schedule and on the counters,
        // and on Ω to within accumulation noise.
        for seed in 0..5u64 {
            let inst = testkit::medium_instance(seed);
            let columnar = GreedyScheduler::new().run(&inst, 6).unwrap();
            let baseline = greedy_hashmap(&inst, 6);
            assert_eq!(baseline.scheduled, columnar.len(), "seed {seed}");
            assert!(
                (baseline.utility - columnar.total_utility).abs()
                    <= 1e-9 * columnar.total_utility.abs().max(1.0),
                "seed {seed}: baseline {} vs columnar {}",
                baseline.utility,
                columnar.total_utility
            );
            assert_eq!(
                baseline.score_evaluations,
                columnar.stats.engine.score_evaluations
            );
            assert_eq!(
                baseline.posting_visits,
                columnar.stats.engine.posting_visits
            );
        }
    }
}
