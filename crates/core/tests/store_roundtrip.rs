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
    open_path, read_instance, write_instance, FoldState, StoreError, FORMAT_VERSION, MAGIC,
};
use ses_core::testkit::evaluate_schedule;
use ses_core::testkit::{random_instance, TestInstanceConfig};
use ses_core::{registry, AttendanceEngine, EventId, IntervalId, SchedulerSpec, SesInstance};
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

    // Version 1 stored σ on two axes; it is refused, not read.
    for version in [1, FORMAT_VERSION + 1] {
        let mut wrong_version = buf.clone();
        wrong_version[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        match read_instance(&wrong_version[..]) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
    assert_eq!(FORMAT_VERSION, 2);

    let mut bad_magic = buf;
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        read_instance(&bad_magic[..]),
        Err(StoreError::BadMagic { .. })
    ));
}

/// The file source and the byte source decode one store into the same
/// instance: identical greedy Ω bits, identical engine memory accounting,
/// and byte-identical re-packs. 20k users × 24 intervals of σ make the
/// activity section ~6 MB, so its interval and σ columns and the interest
/// µ column span several read windows, and the heavy sections decode on
/// two threads wherever there are two cores.
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

/// The payload range and checksum offset of the first frame with section
/// id `id` (frames follow the 12-byte header as `[id][u64 len][payload]
/// [u64 checksum]`).
fn frame(buf: &[u8], id: u8) -> (std::ops::Range<usize>, usize) {
    let mut pos = MAGIC.len() + 4;
    loop {
        let len = u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let payload = pos + 9..pos + 9 + len;
        if buf[pos] == id {
            return (payload.clone(), payload.end);
        }
        pos = payload.end + 8;
    }
}

/// A length field with its top bit set claims bytes past `i64::MAX`, which
/// no source holds: the file and the same bytes in memory both answer
/// `Truncated`.
#[test]
fn length_with_top_bit_set_is_truncated_from_both_sources() {
    let mut buf = packed(&TestInstanceConfig::default());
    let (payload, _) = frame(&buf, 0x05);
    buf[payload.start - 1] ^= 0x80;
    let truncated = StoreError::Truncated {
        section: "interest/candidate",
    };
    assert_eq!(read_instance(&buf[..]).unwrap_err(), truncated);
    assert_eq!(open_as_file(&buf, "top-bit").unwrap_err(), truncated);
}

/// Rewrites the `activity/by-user` frame of a packed default instance
/// through `edit`, which gets the decoded offsets, interval ids and σ
/// values, then re-seals the frame's checksum with `FoldState`, so only
/// the reader's row checks stand between the result and an instance.
fn resealed_sigma_rows(edit: impl FnOnce(&[u64], &mut [u32], &mut [f64])) -> Vec<u8> {
    let cfg = TestInstanceConfig::default();
    let mut buf = packed(&cfg);
    let (payload, checksum_at) = frame(&buf, 0x07);
    let bytes = &buf[payload.clone()];
    let offset_bytes = 8 * (cfg.num_users + 1);
    let nnz = (bytes.len() - offset_bytes) / 12;
    let (offsets, columns) = bytes.split_at(offset_bytes);
    let (ids, sigmas) = columns.split_at(4 * nnz);
    let offsets: Vec<u64> = offsets
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let mut ids: Vec<u32> = ids
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let mut sigmas: Vec<f64> = sigmas
        .chunks_exact(8)
        .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().unwrap())))
        .collect();
    edit(&offsets, &mut ids, &mut sigmas);
    let mut rewritten = Vec::with_capacity(bytes.len());
    rewritten.extend(offsets.iter().flat_map(|o| o.to_le_bytes()));
    rewritten.extend(ids.iter().flat_map(|t| t.to_le_bytes()));
    rewritten.extend(sigmas.iter().flat_map(|s| s.to_bits().to_le_bytes()));
    let mut fold = FoldState::new();
    fold.update(&rewritten);
    buf[payload].copy_from_slice(&rewritten);
    buf[checksum_at..checksum_at + 8].copy_from_slice(&fold.finalize().to_le_bytes());
    buf
}

/// The first user row holding at least two entries, as an entry range.
fn long_row(offsets: &[u64]) -> std::ops::Range<usize> {
    offsets
        .windows(2)
        .map(|w| w[0] as usize..w[1] as usize)
        .find(|row| row.len() >= 2)
        .expect("some user is active in two intervals")
}

/// Checksum-valid σ rows that break the activity invariants are typed
/// `Corrupt` errors from both sources, naming the by-user section.
#[test]
fn checksum_valid_but_invalid_sigma_rows_are_corrupt() {
    let num_intervals = TestInstanceConfig::default().num_intervals as u32;
    let ascending = "not strictly ascending";
    let in_range = "\u{2265} |T|";
    let probability = "outside (0, 1]";
    let cases = [
        (
            ascending,
            resealed_sigma_rows(|offsets, ids, _| {
                let row = long_row(offsets);
                ids.swap(row.start, row.start + 1);
            }),
        ),
        (
            in_range,
            resealed_sigma_rows(|offsets, ids, _| {
                // The row's last entry, so the row stays ascending.
                ids[long_row(offsets).end - 1] = num_intervals;
            }),
        ),
        (
            probability,
            resealed_sigma_rows(|_, _, sigmas| sigmas[0] = 0.0),
        ),
        (
            probability,
            resealed_sigma_rows(|_, _, sigmas| sigmas[0] = 1.5),
        ),
        (
            probability,
            resealed_sigma_rows(|_, _, sigmas| sigmas[0] = f64::NAN),
        ),
    ];
    for (expected, buf) in cases {
        let err = read_instance(&buf[..]).unwrap_err();
        match &err {
            StoreError::Corrupt {
                section: "activity/by-user",
                detail,
            } => assert!(detail.contains(expected), "{detail}"),
            other => panic!("expected activity/by-user Corrupt, got {other:?}"),
        }
        assert_eq!(open_as_file(&buf, "sigma-rows").unwrap_err(), err);
    }
}
