//! Property tests for the packed instance store (DESIGN.md §12).
//!
//! Contracts pinned here, on *random* sparse instances (the unit tests in
//! `store.rs` cover fixed fixtures and exhaustive truncation/bit-flip
//! sweeps on one small file):
//!
//! * pack→open round-trips are **bit-exact**: the reopened instance
//!   reproduces `evaluate_schedule` Ω and every per-event ω to the last
//!   bit, and the engine's memory accounting (excluding the wall-clock
//!   `build_millis`) is identical;
//! * the encoding is canonical — re-packing the reopened instance yields
//!   byte-identical output;
//! * truncating the stream anywhere, corrupting any single byte, or
//!   rewriting the version all surface as typed [`StoreError`]s. Reads
//!   never panic and never silently accept altered bytes, and a damaged
//!   file opened by path fails exactly as the same bytes do in memory;
//! * an instance opened from a file and one read from the same bytes in
//!   memory are the same instance, on a universe large enough that every
//!   heavy section spans several read windows and decodes on two threads.

use proptest::prelude::*;
use ses_core::store::{
    open_path, read_instance, write_instance, StoreError, FORMAT_VERSION, MAGIC,
};
use ses_core::testkit::{random_instance, TestInstanceConfig};
use ses_core::{
    evaluate_schedule, registry, AttendanceEngine, EventId, IntervalId, SchedulerSpec, SesInstance,
};
use std::sync::Arc;

fn config() -> impl Strategy<Value = TestInstanceConfig> {
    (
        1usize..20, // users
        1usize..8,  // events
        1usize..6,  // intervals
        0usize..6,  // competing events
        0.1f64..0.9,
        any::<u64>(),
    )
        .prop_map(
            |(num_users, num_events, num_intervals, num_competing, interest_density, seed)| {
                TestInstanceConfig {
                    num_users,
                    num_events,
                    num_intervals,
                    num_competing,
                    num_locations: 3,
                    theta: 9.0,
                    xi_max: 3.0,
                    interest_density,
                    seed,
                }
            },
        )
}

fn packed(cfg: &TestInstanceConfig) -> Vec<u8> {
    let inst = random_instance(cfg);
    let mut buf = Vec::new();
    write_instance(&inst, &mut buf).expect("write to memory");
    buf
}

/// Opens `bytes` by path: writes them to a temp file named for this
/// process and `tag`, then `open_path`s it.
fn open_as_file(bytes: &[u8], tag: &str) -> Result<Arc<SesInstance>, StoreError> {
    let path = std::env::temp_dir().join(format!(
        "ses-store-roundtrip-{}-{tag}.sesstore",
        std::process::id()
    ));
    std::fs::write(&path, bytes).expect("write temp file");
    let opened = open_path(&path);
    std::fs::remove_file(&path).ok();
    opened
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ω, per-event ω and the engine's memory accounting survive the
    /// round-trip bit for bit, and the encoding is canonical.
    #[test]
    fn pack_open_round_trip_is_bit_exact(
        cfg in config(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..20),
    ) {
        let original = random_instance(&cfg);
        let mut buf = Vec::new();
        write_instance(&original, &mut buf).expect("write to memory");
        let reopened = read_instance(&buf[..]).expect("reopen");

        prop_assert_eq!(reopened.num_users(), original.num_users());
        prop_assert_eq!(reopened.num_events(), original.num_events());
        prop_assert_eq!(reopened.num_intervals(), original.num_intervals());
        prop_assert_eq!(reopened.num_competing(), original.num_competing());

        // Drive the same feasible schedule into both instances.
        let mut sched_a = original.empty_schedule();
        let mut sched_b = reopened.empty_schedule();
        let mut probe = AttendanceEngine::new(&original);
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % original.num_events() as u32);
            let t = IntervalId::new(traw % original.num_intervals() as u32);
            if !sched_a.contains(e) && probe.check_assignment(e, t).is_ok() {
                sched_a.assign(e, t).unwrap();
                probe.assign(e, t).unwrap();
                sched_b.assign(e, t).unwrap();
            }
        }
        let eval_a = evaluate_schedule(&original, &sched_a);
        let eval_b = evaluate_schedule(&reopened, &sched_b);
        prop_assert_eq!(
            eval_a.total_utility.to_bits(),
            eval_b.total_utility.to_bits(),
            "Ω differs: built {} vs reopened {}",
            eval_a.total_utility,
            eval_b.total_utility
        );
        for (a, b) in eval_a.per_event.iter().zip(eval_b.per_event.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.2.to_bits(), b.2.to_bits(), "ω({}) differs", a.0);
        }

        // The blocked engine builds the same layout from both (build_millis
        // is wall-clock and deliberately excluded).
        let ma = AttendanceEngine::new(&original).memory_stats();
        let mb = AttendanceEngine::new(&reopened).memory_stats();
        prop_assert_eq!(ma.column_slots, mb.column_slots);
        prop_assert_eq!(ma.dense_slots, mb.dense_slots);
        prop_assert_eq!(ma.resident_column_bytes, mb.resident_column_bytes);
        prop_assert_eq!(ma.run_bytes, mb.run_bytes);

        // Canonical encoding: one universe, one byte stream.
        let mut again = Vec::new();
        write_instance(&reopened, &mut again).expect("re-pack");
        prop_assert_eq!(&buf, &again, "re-packing the reopened instance changed bytes");
    }

    /// Cutting the stream anywhere short of the end is a typed error.
    #[test]
    fn truncation_anywhere_is_a_typed_error(cfg in config(), cut in any::<u64>()) {
        let buf = packed(&cfg);
        let cut = (cut % buf.len() as u64) as usize; // strictly shorter than the file
        let err = read_instance(&buf[..cut]).expect_err("truncated must fail");
        // Any StoreError variant is acceptable; reaching here proves no panic.
        let _ = err.to_string();
        let file_err = open_as_file(&buf[..cut], "cut").expect_err("truncated file must fail");
        prop_assert_eq!(file_err, err);
    }

    /// Any single corrupted byte is rejected — the FNV-1a section checksums
    /// (and the framed header) leave no byte uncovered.
    #[test]
    fn single_byte_corruption_is_detected(
        cfg in config(),
        pos in any::<u64>(),
        xor in 1u8..=255u8,
    ) {
        let mut buf = packed(&cfg);
        let pos = (pos % buf.len() as u64) as usize;
        buf[pos] ^= xor;
        let err = read_instance(&buf[..]).expect_err("corrupted byte must fail");
        let _ = err.to_string();
        let file_err = open_as_file(&buf, "flip").expect_err("corrupted file must fail");
        prop_assert_eq!(file_err, err);
    }
}

#[test]
fn wrong_version_and_bad_magic_are_typed_errors() {
    let buf = packed(&TestInstanceConfig::default());

    let mut wrong_version = buf.clone();
    wrong_version[MAGIC.len()..MAGIC.len() + 4]
        .copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match read_instance(&wrong_version[..]) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut bad_magic = buf;
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        read_instance(&bad_magic[..]),
        Err(StoreError::BadMagic { .. })
    ));
}

/// The file source and the byte source decode one store into the same
/// instance: identical greedy Ω bits, identical engine memory accounting,
/// and byte-identical re-packs. 20k users × 24 intervals of σ make each
/// activity section ~6 MB, so both activity passes, the interest µ column
/// and every transpose row span several read windows, and the heavy
/// sections decode on two threads wherever there are two cores.
#[test]
fn file_and_bytes_open_the_same_instance() {
    let original = random_instance(&TestInstanceConfig {
        num_users: 20_000,
        num_events: 30,
        num_intervals: 24,
        num_competing: 10,
        num_locations: 6,
        theta: 12.0,
        xi_max: 3.0,
        interest_density: 0.1,
        seed: 11,
    });
    let mut buf = Vec::new();
    write_instance(&original, &mut buf).expect("write to memory");
    assert!(buf.len() > 4 << 20, "store is {} bytes", buf.len());
    let from_bytes = read_instance(&buf[..]).expect("read bytes");
    let from_file = open_as_file(&buf, "same").expect("open file");

    let omega = |inst: &Arc<SesInstance>| {
        registry::build(SchedulerSpec::Greedy)
            .run(inst, 8)
            .expect("greedy solves")
            .total_utility
            .to_bits()
    };
    assert_eq!(omega(&from_file), omega(&from_bytes));
    assert_eq!(omega(&from_file), omega(&original));

    let stats = |inst: &Arc<SesInstance>| {
        let m = AttendanceEngine::new(inst).memory_stats();
        (
            m.column_slots,
            m.dense_slots,
            m.resident_column_bytes,
            m.run_bytes,
        )
    };
    assert_eq!(stats(&from_file), stats(&from_bytes));

    let mut again = Vec::new();
    write_instance(&from_file, &mut again).expect("re-pack");
    assert!(
        again == buf,
        "re-packing the file-opened instance changed bytes"
    );
}
