//! End-to-end integration: EBSN generation → paper pipeline → scheduling →
//! evaluation, across the crate boundaries of the workspace.

use ses::core::testkit::evaluate_schedule;
use ses::prelude::*;
use ses_datagen::paper::SigmaMode;
use ses_datagen::sweep::{k_sweep, t_sweep};

fn dataset() -> EbsnDataset {
    generate(&GeneratorConfig::default())
}

#[test]
fn full_pipeline_generates_schedules_and_utilities() {
    let ds = dataset();
    let cfg = PaperConfig {
        k: 15,
        ..PaperConfig::default()
    };
    let built = build_instance(&ds, &cfg).unwrap();
    let out = GreedyScheduler::new().run(&built.instance, cfg.k).unwrap();
    assert_eq!(out.len(), cfg.k);
    built.instance.check_schedule(&out.schedule).unwrap();
    assert!(out.total_utility > 0.0);
    // The reported utility is the from-scratch oracle's, bit for bit.
    let eval = evaluate_schedule(&built.instance, &out.schedule);
    assert_eq!(out.total_utility.to_bits(), eval.total_utility.to_bits());
}

#[test]
fn paper_method_ordering_holds_end_to_end() {
    // The headline shape of Fig. 1a on an EBSN-derived instance: GRD beats
    // both baselines.
    let ds = dataset();
    let cfg = PaperConfig {
        k: 20,
        ..PaperConfig::default()
    };
    let built = build_instance(&ds, &cfg).unwrap();
    let grd = GreedyScheduler::new().run(&built.instance, cfg.k).unwrap();
    let top = TopScheduler::new().run(&built.instance, cfg.k).unwrap();
    let rand = RandomScheduler::new(0).run(&built.instance, cfg.k).unwrap();
    assert!(
        grd.total_utility > top.total_utility,
        "GRD {} vs TOP {}",
        grd.total_utility,
        top.total_utility
    );
    assert!(
        grd.total_utility > rand.total_utility,
        "GRD {} vs RAND {}",
        grd.total_utility,
        rand.total_utility
    );
}

#[test]
fn utility_increases_with_more_intervals() {
    // The shape of Fig. 1c: more candidate intervals → higher GRD utility
    // (less within-interval cannibalization, more choices).
    let ds = dataset();
    let few = build_instance(&ds, &PaperConfig::with_k_and_t_factor(15, 0.2)).unwrap();
    let many = build_instance(&ds, &PaperConfig::with_k_and_t_factor(15, 3.0)).unwrap();
    let u_few = GreedyScheduler::new()
        .run(&few.instance, 15)
        .unwrap()
        .total_utility;
    let u_many = GreedyScheduler::new()
        .run(&many.instance, 15)
        .unwrap()
        .total_utility;
    assert!(
        u_many > u_few,
        "utility at |T|=45 ({u_many}) should exceed |T|=3 ({u_few})"
    );
}

#[test]
fn dataset_roundtrip_preserves_built_instances() {
    let ds = dataset();
    let dir = std::env::temp_dir().join("ses_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ds.json");
    ds.save_json(&path).unwrap();
    let loaded = EbsnDataset::load_json(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cfg = PaperConfig {
        k: 10,
        ..PaperConfig::default()
    };
    let a = build_instance(&ds, &cfg).unwrap();
    let b = build_instance(&loaded, &cfg).unwrap();
    assert_eq!(a.candidate_source, b.candidate_source);
    let out_a = GreedyScheduler::new().run(&a.instance, 10).unwrap();
    let out_b = GreedyScheduler::new().run(&b.instance, 10).unwrap();
    assert_eq!(out_a.schedule, out_b.schedule);
    assert_eq!(out_a.total_utility.to_bits(), out_b.total_utility.to_bits());
}

#[test]
fn checkin_sigma_changes_results_but_stays_valid() {
    let ds = dataset();
    let uniform = build_instance(
        &ds,
        &PaperConfig {
            k: 10,
            ..PaperConfig::default()
        },
    )
    .unwrap();
    let checkins = build_instance(
        &ds,
        &PaperConfig {
            k: 10,
            sigma: SigmaMode::FromCheckins,
            ..PaperConfig::default()
        },
    )
    .unwrap();
    let u = GreedyScheduler::new().run(&uniform.instance, 10).unwrap();
    let c = GreedyScheduler::new().run(&checkins.instance, 10).unwrap();
    assert!(u.total_utility > 0.0 && c.total_utility > 0.0);
    // Check-in σ values are small (a member attends a given weekly slot
    // rarely), so utilities land well below the uniform-σ run.
    assert!(c.total_utility < u.total_utility);
}

#[test]
fn sweeps_build_at_every_cell() {
    let ds = dataset();
    for cell in k_sweep(&[5, 10], 1)
        .iter()
        .chain(t_sweep(10, &[0.2, 1.0, 3.0], 1).iter())
    {
        let built = build_instance(&ds, &cell.config).unwrap();
        let out = GreedyScheduler::new()
            .run(&built.instance, cell.config.k)
            .unwrap();
        assert!(out.len() <= cell.config.k);
        built.instance.check_schedule(&out.schedule).unwrap();
    }
}

#[test]
fn facade_prelude_exposes_the_working_surface() {
    // Compile-time check that the `ses::prelude` is sufficient for the
    // quickstart workflow (this test IS the quickstart, minus printing).
    let ds = generate(&GeneratorConfig {
        num_members: 100,
        num_events: 60,
        ..GeneratorConfig::default()
    });
    let cfg = PaperConfig {
        k: 5,
        ..PaperConfig::default()
    };
    let BuiltInstance { instance, .. } = build_instance(&ds, &cfg).unwrap();
    let outcome = GreedyScheduler::new().run(&instance, 5).unwrap();
    assert!(outcome.len() <= 5);
}
