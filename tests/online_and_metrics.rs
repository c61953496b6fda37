//! Cross-crate integration of the extension modules: online replanning and
//! schedule metrics driven by EBSN-derived instances.

use ses::prelude::*;
use ses_core::online::OnlineSession;

fn built() -> (EbsnDataset, PaperConfig) {
    let ds = generate(&GeneratorConfig {
        num_members: 400,
        num_events: 250,
        seed: 3,
        ..GeneratorConfig::default()
    });
    let cfg = PaperConfig {
        k: 12,
        seed: 3,
        ..PaperConfig::default()
    };
    (ds, cfg)
}

#[test]
fn metrics_describe_an_ebsn_schedule_coherently() {
    let (ds, cfg) = built();
    let built = build_instance(&ds, &cfg).unwrap();
    let out = GreedyScheduler::new().run(&built.instance, cfg.k).unwrap();
    let m = schedule_metrics(&built.instance, &out.schedule, cfg.k).unwrap();

    assert_eq!(m.total_utility.to_bits(), out.total_utility.to_bits());
    assert!(m.expected_reach > 0.0);
    assert!(m.expected_reach <= built.instance.num_users() as f64);
    assert!(m.occupied_intervals <= cfg.k);
    let per_interval_events: usize = m.intervals.iter().map(|r| r.num_events).sum();
    assert_eq!(per_interval_events, out.len());
    // Resource budgets hold in every report row.
    for r in &m.intervals {
        assert!(r.used_resources <= built.instance.budget() + 1e-9);
    }
}

#[test]
fn online_session_survives_a_disruption_storm() {
    let (ds, cfg) = built();
    let b = build_instance(&ds, &cfg).unwrap();
    let initial = GreedyScheduler::new().run(&b.instance, cfg.k).unwrap();
    let mut session = OnlineSession::new(&b.instance, &initial.schedule).unwrap();

    let population: Vec<UserId> = (0..b.instance.num_users())
        .map(|u| UserId::new(u as u32))
        .collect();
    let mut utility = session.utility();
    // Ten alternating disruptions; after each one the schedule stays
    // feasible, size-stable (modulo the extensions), and the engine's
    // running utility stays meaningful.
    for round in 0..10u32 {
        match round % 3 {
            0 => {
                let t = session
                    .schedule()
                    .occupied_intervals()
                    .next()
                    .expect("non-empty");
                let postings: Vec<(UserId, f64)> =
                    population.iter().step_by(2).map(|&u| (u, 0.7)).collect();
                let report = session.announce_competing(t, &postings);
                assert!(report.utility_after <= report.utility_before + 1e-9);
            }
            1 => {
                let victim = session.schedule().scheduled_events()[0];
                let report = session.cancel_event(victim).unwrap();
                assert!(report.recovered() >= -1e-9);
            }
            _ => {
                session.extend();
            }
        }
        b.instance.check_schedule(session.schedule()).unwrap();
        utility = session.utility();
        assert!(utility.is_finite() && utility >= 0.0);
    }
    assert!(session.schedule().len() >= cfg.k - 1);
    let _ = utility;
}

#[test]
fn annealing_slots_into_the_pipeline() {
    let (ds, cfg) = built();
    let b = build_instance(&ds, &cfg).unwrap();
    let grd = GreedyScheduler::new().run(&b.instance, cfg.k).unwrap();
    let sa = AnnealingScheduler::new(GreedyScheduler::new())
        .run(&b.instance, cfg.k)
        .unwrap();
    assert!(sa.total_utility >= grd.total_utility - 1e-9);
    b.instance.check_schedule(&sa.schedule).unwrap();
}
