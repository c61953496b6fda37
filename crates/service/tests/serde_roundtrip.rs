//! Serde round-trip property tests for the service wire types: whatever a
//! front end serializes — requests, session events, repair reports — must
//! deserialize back to an equal value, across the whole generated space.

use proptest::prelude::*;
use ses_core::{Assignment, EventId, IntervalId, RepairReport, SchedulerSpec, UserId};
use ses_service::{
    Announcement, Arrival, Availability, Cancellation, CapacityChange, InstanceName, SessionEvent,
    SessionOpen, SolveRequest,
};

fn roundtrip_json<T>(value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

/// `value`'s JSON object with a retired `"threads": 4` field spliced in —
/// the bytes older clients and WAL records written before the field was
/// dropped still carry — decoded again.
fn decode_with_retired_threads<T>(value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize,
{
    let json = serde_json::to_string(value).expect("serializes");
    let body = json.strip_prefix('{').expect("a JSON object");
    serde_json::from_str(&format!(r#"{{"threads":4,{body}"#)).expect("deserializes")
}

/// Request JSON without a `threads` field and JSON that still sends the
/// retired field (older clients, WAL records written while it existed)
/// decode to the same value.
#[test]
fn pre_threads_request_json_still_deserializes() {
    let req: SolveRequest =
        serde_json::from_str(r#"{"spec":"Greedy","k":6}"#).expect("legacy SolveRequest parses");
    assert_eq!(req.k, 6);
    let threaded: SolveRequest = serde_json::from_str(r#"{"spec":"Greedy","k":6,"threads":4}"#)
        .expect("SolveRequest with threads parses");
    assert_eq!(threaded, req, "threads is ignored");
    let open: SessionOpen = serde_json::from_str(r#"{"name":"main","spec":"Top","k":3}"#)
        .expect("legacy SessionOpen parses");
    assert_eq!(open.name, "main");
    let threaded: SessionOpen =
        serde_json::from_str(r#"{"name":"main","spec":"Top","k":3,"threads":4}"#)
            .expect("SessionOpen with threads parses");
    assert_eq!(threaded, open, "threads is ignored");
    // Likewise reports recorded before the `clock` field existed.
    let report: ses_service::SessionReport = serde_json::from_str(
        r#"{"name":"main","utility":1.5,"scheduled":2,"budget":8.0,"events_applied":3,
            "counters":{"score_evaluations":1,"posting_visits":2,"assigns":3,"unassigns":4}}"#,
    )
    .expect("legacy SessionReport parses");
    assert_eq!(report.clock, 0, "missing clock defaults to 0");
    assert_eq!(report.instance.as_str(), "default");
}

/// Requests recorded before the `instance` field existed must land on the
/// `"default"` tenant — not on an empty string — and explicit instance
/// names must survive a JSON round-trip.
#[test]
fn pre_instance_request_json_lands_on_default_tenant() {
    let req: SolveRequest = serde_json::from_str(r#"{"spec":"Greedy","k":6,"threads":2}"#)
        .expect("pre-instance SolveRequest parses");
    assert_eq!(req.instance, InstanceName::default());
    assert_eq!(req.instance.as_str(), "default");

    let open: SessionOpen =
        serde_json::from_str(r#"{"name":"main","spec":"Top","k":3,"threads":1}"#)
            .expect("pre-instance SessionOpen parses");
    assert_eq!(open.instance.as_str(), "default");

    let eval: ses_service::EvalRequest =
        serde_json::from_str(r#"{"assignments":[]}"#).expect("pre-instance EvalRequest parses");
    assert_eq!(eval.instance.as_str(), "default");

    // An explicit name is a plain JSON string on the wire.
    let req: SolveRequest =
        serde_json::from_str(r#"{"spec":"Greedy","k":2,"threads":0,"instance":"tenant-b"}"#)
            .expect("explicit instance parses");
    assert_eq!(req.instance.as_str(), "tenant-b");
    let json = serde_json::to_string(&req).expect("serializes");
    assert!(json.contains(r#""instance":"tenant-b""#), "{json}");
    // A non-string instance is a typed parse error, not a panic.
    assert!(
        serde_json::from_str::<SolveRequest>(r#"{"spec":"Greedy","k":2,"instance":7}"#).is_err()
    );
}

/// A spec entered through the CELF lazy-greedy alias family must behave
/// exactly like the canonical `GRD-PQ` spelling on the wire: same serde
/// form, same `Display → parse` round-trip, same serde round-trip.
#[test]
fn lazy_alias_specs_round_trip_like_grd_pq() {
    for alias in ["LAZY", "CELF", "GRD-PQ-LAZY", "lazy"] {
        let spec: SchedulerSpec = alias.parse().expect("lazy alias parses");
        assert_eq!(spec, SchedulerSpec::GreedyHeap, "alias {alias}");
        assert_eq!(spec.to_string(), "GRD-PQ");
        assert_eq!(spec.to_string().parse::<SchedulerSpec>(), Ok(spec));
        assert_eq!(roundtrip_json(&spec), spec, "alias {alias}");
        let req = SolveRequest {
            spec,
            k: 7,
            instance: InstanceName::default(),
        };
        assert_eq!(roundtrip_json(&req), req, "alias {alias}");
    }
}

fn spec_strategy() -> impl Strategy<Value = SchedulerSpec> {
    (0usize..7, any::<u64>()).prop_map(|(i, seed)| match i {
        0 => SchedulerSpec::Greedy,
        1 => SchedulerSpec::GreedyHeap,
        2 => SchedulerSpec::Top,
        3 => SchedulerSpec::Random(seed),
        4 => SchedulerSpec::GreedyLocalSearch,
        5 => SchedulerSpec::GreedyAnnealing,
        _ => SchedulerSpec::Exact,
    })
}

fn postings_strategy() -> impl Strategy<Value = Vec<(UserId, f64)>> {
    prop::collection::vec((0u32..10_000, 0.0f64..1.0), 0..40)
        .prop_map(|v| v.into_iter().map(|(u, mu)| (UserId::new(u), mu)).collect())
}

fn event_strategy() -> impl Strategy<Value = SessionEvent> {
    (
        0usize..6,
        0u32..50_000,
        0u32..5_000,
        postings_strategy(),
        0.0f64..1e6,
        prop::bool::ANY,
    )
        .prop_map(
            |(i, event, interval, postings, budget, available)| match i {
                0 => SessionEvent::Announce(Announcement {
                    interval: IntervalId::new(interval),
                    postings,
                }),
                1 => SessionEvent::Cancel(Cancellation {
                    event: EventId::new(event),
                }),
                2 => SessionEvent::Arrive(Arrival {
                    event: EventId::new(event),
                }),
                3 => SessionEvent::Capacity(CapacityChange { budget }),
                4 => SessionEvent::SetAvailable(Availability {
                    event: EventId::new(event),
                    available,
                }),
                _ => SessionEvent::Extend,
            },
        )
}

fn repair_report_strategy() -> impl Strategy<Value = RepairReport> {
    (
        0.0f64..1e4,
        0.0f64..1e4,
        0.0f64..1e4,
        prop::collection::vec((0u32..50_000, 0u32..5_000), 0..20),
    )
        .prop_map(
            |(utility_before, utility_disrupted, utility_after, moves)| RepairReport {
                utility_before,
                utility_disrupted,
                utility_after,
                moves: moves
                    .into_iter()
                    .map(|(e, t)| (EventId::new(e), IntervalId::new(t)))
                    .collect(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solve_request_round_trips(spec in spec_strategy(), k in 0usize..100_000) {
        let req = SolveRequest {
            spec,
            k,
            instance: InstanceName::new(format!("inst-{}", k % 7)),
        };
        prop_assert_eq!(roundtrip_json(&req), req.clone());
        prop_assert_eq!(decode_with_retired_threads(&req), req);
    }

    #[test]
    fn session_open_round_trips(spec in spec_strategy(), k in 0usize..10_000) {
        let open = SessionOpen {
            name: format!("tenant-{k}"),
            spec,
            k,
            instance: InstanceName::new(format!("inst-{}", k % 4)),
        };
        prop_assert_eq!(roundtrip_json(&open), open.clone());
        prop_assert_eq!(decode_with_retired_threads(&open), open);
    }

    #[test]
    fn session_event_round_trips(event in event_strategy()) {
        prop_assert_eq!(roundtrip_json(&event), event);
    }

    #[test]
    fn repair_report_round_trips(report in repair_report_strategy()) {
        // Floats must survive exactly (shortest-round-trip formatting), not
        // just approximately — bit-for-bit equality.
        let back = roundtrip_json(&report);
        prop_assert_eq!(back.utility_before.to_bits(), report.utility_before.to_bits());
        prop_assert_eq!(back.utility_disrupted.to_bits(), report.utility_disrupted.to_bits());
        prop_assert_eq!(back.utility_after.to_bits(), report.utility_after.to_bits());
        prop_assert_eq!(back.moves, report.moves);
    }

    #[test]
    fn session_report_round_trips_with_counters_and_clock(
        utility in 0.0f64..1e6,
        scheduled in 0usize..10_000,
        budget in 0.0f64..1e6,
        events_applied in 0u64..1_000_000,
        clock in 0u64..1_000_000,
        ops in prop::collection::vec(0u64..u64::MAX / 4, 4..5),
    ) {
        let report = ses_service::SessionReport {
            name: format!("tenant-{scheduled}"),
            utility,
            scheduled,
            budget,
            events_applied,
            counters: ses_core::EngineCounters {
                score_evaluations: ops[0],
                posting_visits: ops[1],
                assigns: ops[2],
                unassigns: ops[3],
            },
            clock,
            memory: ses_core::EngineMemoryStats {
                column_slots: ops[0] / 2,
                dense_slots: ops[0],
                resident_column_bytes: ops[1],
                run_bytes: ops[2],
                index_bytes: ops[3],
                state_bytes: ops[0] / 3,
                build_millis: utility / 3.0,
            },
            instance: InstanceName::new(format!("inst-{}", events_applied % 3)),
            durable: events_applied % 2 == 0,
        };
        let back = roundtrip_json(&report);
        prop_assert_eq!(back.utility.to_bits(), report.utility.to_bits());
        prop_assert_eq!(back.budget.to_bits(), report.budget.to_bits());
        prop_assert_eq!(&back.counters, &report.counters);
        prop_assert_eq!(back.clock, report.clock);
        prop_assert_eq!(back.memory.build_millis.to_bits(), report.memory.build_millis.to_bits());
        prop_assert_eq!(back, report);
    }

    #[test]
    fn event_report_round_trips_through_assignments(
        pairs in prop::collection::vec((0u32..1_000, 0u32..100), 0..30)
    ) {
        let assignments: Vec<Assignment> = pairs
            .into_iter()
            .map(|(e, t)| Assignment::new(EventId::new(e), IntervalId::new(t)))
            .collect();
        let req = ses_service::EvalRequest {
            assignments,
            instance: InstanceName::default(),
        };
        prop_assert_eq!(roundtrip_json(&req), req);
    }
}
