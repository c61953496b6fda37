//! End-to-end durability contracts for `ses-durable`:
//!
//! * append → reopen reconstructs exactly the sessions and events that
//!   were live (write-ahead mirror and recovery scan agree);
//! * recovery *through the service* rebuilds session state bit-for-bit
//!   (utility Ω, schedule size, clock) — recovery is replay;
//! * snapshots compact the journal, survive reopen, and let sealed
//!   segments be truncated;
//! * extract/install (the migration primitives) move a session between
//!   two WALs without changing its replayed state;
//! * a torn or bit-flipped tail is a typed, recoverable condition: the
//!   log recovers to the last whole record and **never panics** (the
//!   satellite contract, swept by proptest below).

use proptest::prelude::*;
use ses_core::testkit::small_instance;
use ses_core::{EventId, IntervalId, SchedulerSpec, UserId};
use ses_durable::{
    encode_record, recover_sessions, FsyncPolicy, RecoveredLog, SessionJournal, SessionSnapshot,
    ShardWal, WalConfig, HEADER_LEN, REC_SNAPSHOT,
};
use ses_service::{
    Announcement, Arrival, Availability, Cancellation, CapacityChange, InstanceName,
    InstanceRegistry, SchedulerService, SessionEvent, SessionOpen,
};
use std::path::PathBuf;

/// A scratch directory under the OS temp dir, wiped on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ses-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_request(name: &str) -> SessionOpen {
    SessionOpen {
        name: name.to_owned(),
        spec: SchedulerSpec::Greedy,
        k: 4,
        instance: InstanceName::default(),
    }
}

/// A deterministic mixed event stream, valid for `small_instance` (6
/// events, 3 intervals, 8 users) but deliberately including events the
/// service answers with `applied: false` or rejects — replay must treat
/// them identically.
fn event_stream(n: usize) -> Vec<SessionEvent> {
    (0..n)
        .map(|i| match i % 6 {
            0 => SessionEvent::SetAvailable(Availability {
                event: EventId::new((i % 6) as u32),
                available: i % 2 == 0,
            }),
            1 => SessionEvent::Capacity(CapacityChange {
                budget: 2.0 + (i % 5) as f64,
            }),
            2 => SessionEvent::Cancel(Cancellation {
                event: EventId::new((i % 6) as u32),
            }),
            3 => SessionEvent::Arrive(Arrival {
                event: EventId::new(((i + 3) % 6) as u32),
            }),
            4 => SessionEvent::Announce(Announcement {
                interval: IntervalId::new((i % 3) as u32),
                postings: vec![(UserId::new((i % 8) as u32), 0.4), (UserId::new(0), 0.2)],
            }),
            _ => SessionEvent::Extend,
        })
        .collect()
}

fn registry() -> InstanceRegistry {
    let reg = InstanceRegistry::new();
    reg.register("default", small_instance(7));
    reg
}

fn wal_config(dir: &std::path::Path) -> WalConfig {
    WalConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Off,
        snapshot_every: 0,
        segment_bytes: 4 << 20,
    }
}

/// `sync_due_in` reports a deadline only for unsynced appends under
/// `interval:N`, and `flush_if_due` syncs exactly when it has passed.
#[test]
fn interval_sync_comes_due_without_another_append() {
    use std::time::Duration;
    let scratch = Scratch::new("interval-due");
    let open_with = |tag: &str, fsync| {
        let cfg = WalConfig {
            fsync,
            ..wal_config(&scratch.path().join(tag))
        };
        ShardWal::open(cfg).expect("fresh open").0
    };

    // Nothing pending: no deadline under any policy.
    let long = FsyncPolicy::Interval { millis: 60_000 };
    for fsync in [long, FsyncPolicy::PerRecord, FsyncPolicy::Off] {
        let mut wal = open_with(&fsync.label(), fsync);
        assert_eq!(wal.sync_due_in(), None);
        wal.append_open(&open_request("s")).unwrap();
        if fsync == long {
            // Pending, but not due for another minute.
            let wait = wal.sync_due_in().expect("unsynced append has a deadline");
            assert!(wait > Duration::ZERO && wait <= Duration::from_secs(60));
            wal.flush_if_due().unwrap();
            assert_eq!(wal.stats().fsyncs, 0, "not due yet");
        } else {
            assert_eq!(wal.sync_due_in(), None, "{} never waits", fsync.label());
        }
    }

    // A short interval comes due while idle; one flush clears it.
    let mut wal = open_with("short", FsyncPolicy::Interval { millis: 20 });
    wal.append_open(&open_request("s")).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    wal.flush_if_due().unwrap();
    assert_eq!(wal.stats().fsyncs, 1, "synced by the append or the flush");
    assert_eq!(wal.sync_due_in(), None);
    wal.flush_if_due().unwrap();
    assert_eq!(wal.stats().fsyncs, 1, "nothing left to sync");
}

/// Appends opens/events/closes and reopens the directory: the recovered
/// log must list exactly the live sessions with their full event history,
/// and the journal mirror must agree with what recovery scans from disk.
#[test]
fn reopen_reconstructs_live_sessions_exactly() {
    let scratch = Scratch::new("reopen");
    let events = event_stream(9);
    {
        let (mut wal, log) = ShardWal::open(wal_config(scratch.path())).expect("fresh open");
        assert!(log.sessions.is_empty());
        wal.append_open(&open_request("a")).expect("open a");
        wal.append_open(&open_request("b")).expect("open b");
        for e in &events {
            wal.append_event("a", e).expect("event a");
        }
        wal.append_event("b", &events[0]).expect("event b");
        // A rejected duplicate open and an event for an unknown session
        // leave records behind; recovery must skip both.
        wal.append_open(&open_request("a")).expect("dup open");
        wal.append_event("ghost", &events[1]).expect("ghost event");
        wal.append_close("b").expect("close b");
        assert_eq!(
            wal.journal("a").expect("journal a").events.len(),
            events.len()
        );
        assert!(wal.journal("b").is_none(), "closed session leaves mirror");
        wal.flush().expect("flush");
    }
    let (wal, log) = ShardWal::open(wal_config(scratch.path())).expect("reopen");
    assert_eq!(log.sessions.len(), 1, "only 'a' is live");
    let a = &log.sessions[0];
    assert_eq!(a.name, "a");
    assert_eq!(a.open, open_request("a"));
    assert!(a.snapshot_events.is_empty());
    assert_eq!(a.tail_events, events);
    assert_eq!(a.snapshot_lsn, 0);
    // Dup open counts as covered (not skipped); the ghost event is skipped.
    assert_eq!(log.records_skipped, 1);
    assert!(log.torn_tail.is_none());
    assert!(log.scan_errors.is_empty());
    let stats = wal.stats();
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.last_lsn, log.max_lsn);
    assert_eq!(
        wal.journal("a").expect("mirror survives reopen").events,
        events
    );
}

/// A record recovery skips (an event for an unknown session) still took
/// its LSN: after a reopen, the next append gets a fresh one.
#[test]
fn a_skipped_record_keeps_its_lsn() {
    let scratch = Scratch::new("skipped-lsn");
    let ghost_lsn = {
        let (mut wal, _) = ShardWal::open(wal_config(scratch.path())).expect("fresh open");
        wal.append_open(&open_request("a")).expect("open a");
        wal.append_event("ghost", &SessionEvent::Extend)
            .expect("ghost event")
    };
    let (mut wal, log) = ShardWal::open(wal_config(scratch.path())).expect("reopen");
    assert_eq!(log.records_skipped, 1);
    assert_eq!(log.max_lsn, ghost_lsn);
    let next = wal
        .append_event("a", &SessionEvent::Extend)
        .expect("event a");
    assert!(next > ghost_lsn, "LSN {next} handed out twice");
}

/// Recovery through a real `SchedulerService` rebuilds the session's
/// report bit-for-bit: utility Ω, schedule size, events applied, clock.
#[test]
fn recovery_through_service_is_bit_identical_replay() {
    let scratch = Scratch::new("replay");
    let reg = registry();
    let inst = reg.get("default").expect("instance");
    let open = open_request("live");
    let events = event_stream(24);

    // Arm A: the "pre-crash" server — log first, then apply.
    let mut live = SchedulerService::new();
    let (mut wal, _) = ShardWal::open(wal_config(scratch.path())).expect("fresh open");
    wal.append_open(&open).expect("log open");
    live.open_session(&inst, &open).expect("open");
    for e in &events {
        wal.append_event("live", e).expect("log event");
        let _ = live.apply("live", e);
    }
    wal.flush().expect("flush");
    let before = live.report("live").expect("report");
    drop(wal);

    // Arm B: recovery after a clean kill.
    let (_wal, log) = ShardWal::open(wal_config(scratch.path())).expect("reopen");
    let mut recovered = SchedulerService::new();
    let report = recover_sessions(&mut recovered, &reg, &log);
    assert_eq!(report.sessions_recovered, 1, "errors: {:?}", report.errors);
    assert_eq!(report.sessions_failed, 0);
    assert_eq!(
        report.events_replayed + report.events_rejected,
        events.len() as u64
    );
    let after = recovered.report("live").expect("recovered report");
    assert_eq!(after.utility.to_bits(), before.utility.to_bits());
    assert_eq!(after.scheduled, before.scheduled);
    assert_eq!(after.events_applied, before.events_applied);
    assert_eq!(after.clock, before.clock);
    assert_eq!(after.budget.to_bits(), before.budget.to_bits());
}

/// With snapshots enabled and tiny segments, old segments get truncated,
/// and reopening from snapshot + tail still replays to the same state.
#[test]
fn snapshots_compact_and_truncate_without_changing_replay() {
    let scratch = Scratch::new("snapshot");
    let reg = registry();
    let inst = reg.get("default").expect("instance");
    let open = open_request("snappy");
    let events = event_stream(40);

    let cfg = WalConfig {
        dir: scratch.path().to_path_buf(),
        fsync: FsyncPolicy::Off,
        snapshot_every: 8,
        segment_bytes: 1024, // force frequent rotation
    };
    let mut live = SchedulerService::new();
    let (mut wal, _) = ShardWal::open(cfg.clone()).expect("fresh open");
    wal.append_open(&open).expect("log open");
    live.open_session(&inst, &open).expect("open");
    let mut snapshots_taken = 0u64;
    for e in &events {
        wal.append_event("snappy", e).expect("log event");
        let _ = live.apply("snappy", e);
        let report = live.report("snappy").expect("report");
        if wal
            .maybe_snapshot("snappy", report.scheduled, report.utility)
            .expect("maybe snapshot")
            .is_some()
        {
            snapshots_taken += 1;
        }
    }
    wal.flush().expect("flush");
    let before = live.report("snappy").expect("report");
    let stats = wal.stats();
    assert!(snapshots_taken >= 2, "snapshots: {snapshots_taken}");
    assert_eq!(stats.snapshots, snapshots_taken);
    assert!(
        stats.segments_removed > 0,
        "tiny segments + snapshots must truncate, stats: {stats:?}"
    );
    drop(wal);

    let (_wal, log) = ShardWal::open(cfg).expect("reopen");
    assert_eq!(log.sessions.len(), 1);
    let s = &log.sessions[0];
    assert!(s.snapshot_lsn > 0, "recovery must find the snapshot");
    assert!(
        !s.snapshot_events.is_empty(),
        "snapshot carries the compacted prefix"
    );
    assert_eq!(
        s.snapshot_events.len() + s.tail_events.len(),
        events.len(),
        "snapshot prefix + WAL tail cover every event exactly once"
    );
    let mut recovered = SchedulerService::new();
    let report = recover_sessions(&mut recovered, &reg, &log);
    assert_eq!(report.sessions_recovered, 1, "errors: {:?}", report.errors);
    assert!(
        report.check_failures.is_empty(),
        "snapshot integrity checks must pass: {:?}",
        report.check_failures
    );
    let after = recovered.report("snappy").expect("recovered report");
    assert_eq!(after.utility.to_bits(), before.utility.to_bits());
    assert_eq!(after.scheduled, before.scheduled);
    assert_eq!(after.events_applied, before.events_applied);
}

/// A tampered snapshot (flipped utility bits) recovers the session anyway
/// but surfaces a typed integrity-check failure in the report.
#[test]
fn tampered_snapshot_check_is_reported_not_fatal() {
    let scratch = Scratch::new("tamper-snap");
    let reg = registry();
    let inst = reg.get("default").expect("instance");
    let open = open_request("s");
    let cfg = WalConfig {
        dir: scratch.path().to_path_buf(),
        fsync: FsyncPolicy::Off,
        snapshot_every: 4,
        segment_bytes: 4 << 20,
    };
    let mut live = SchedulerService::new();
    let (mut wal, _) = ShardWal::open(cfg.clone()).expect("fresh open");
    wal.append_open(&open).expect("log open");
    live.open_session(&inst, &open).expect("open");
    for e in event_stream(6) {
        wal.append_event("s", &e).expect("log event");
        let _ = live.apply("s", &e);
        let report = live.report("s").expect("report");
        // Lie about the utility: the snapshot records a wrong bit pattern.
        wal.maybe_snapshot("s", report.scheduled, report.utility + 1.0)
            .expect("maybe snapshot");
    }
    wal.flush().expect("flush");
    drop(wal);

    let (_wal, log) = ShardWal::open(cfg).expect("reopen");
    let mut recovered = SchedulerService::new();
    let report = recover_sessions(&mut recovered, &reg, &log);
    assert_eq!(report.sessions_recovered, 1);
    assert!(
        !report.check_failures.is_empty(),
        "the lie must be caught: {report:?}"
    );
    assert!(recovered.report("s").is_ok(), "session is still live");
}

/// A version-2 segment's snapshot holds the old running-sum Ω bits, which
/// differ from Ω by its one definition: recovering it after the upgrade
/// skips only the Ω half of the check (the `scheduled` half still runs),
/// while the same bits in a version-3 segment are a check failure.
#[test]
fn a_version_2_snapshot_recovers_without_its_omega_check() {
    let scratch = Scratch::new("v2-snap");
    let reg = registry();
    let inst = reg.get("default").expect("instance");
    let cfg = WalConfig {
        dir: scratch.path().to_path_buf(),
        fsync: FsyncPolicy::Off,
        snapshot_every: 4,
        segment_bytes: 4 << 20,
    };
    let recover = |version: u32, scheduled_lie: usize| {
        let _ = std::fs::remove_dir_all(scratch.path());
        let mut live = SchedulerService::new();
        let (mut wal, _) = ShardWal::open(cfg.clone()).expect("fresh open");
        wal.append_open(&open_request("s")).expect("log open");
        live.open_session(&inst, &open_request("s")).expect("open");
        for e in event_stream(6) {
            wal.append_event("s", &e).expect("log event");
            let _ = live.apply("s", &e);
            let report = live.report("s").expect("report");
            // Bits another Ω definition could have written.
            let other = f64::from_bits(report.utility.to_bits() ^ 1);
            wal.maybe_snapshot("s", report.scheduled + scheduled_lie, other)
                .expect("maybe snapshot");
        }
        wal.flush().expect("flush");
        drop(wal);
        let seg = scratch.path().join("seg-00000000.wal");
        let mut bytes = std::fs::read(&seg).expect("read seg");
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&seg, &bytes).expect("write seg");
        let (_wal, log) = ShardWal::open(cfg.clone()).expect("reopen");
        assert!(
            log.sessions[0].snapshot_lsn > 0,
            "recovery starts from the snapshot"
        );
        let mut recovered = SchedulerService::new();
        let report = recover_sessions(&mut recovered, &reg, &log);
        assert_eq!(report.sessions_recovered, 1);
        assert_eq!(report.snapshot_checks, 1);
        let state = recovered.report("s").expect("recovered report");
        assert_eq!(
            state.utility.to_bits(),
            live.report("s").unwrap().utility.to_bits()
        );
        report.check_failures
    };
    assert_eq!(recover(2, 0), Vec::<String>::new());
    assert_eq!(recover(3, 0).len(), 1, "a version-3 snapshot checks Ω");
    assert_eq!(
        recover(2, 1).len(),
        1,
        "a version-2 snapshot checks `scheduled`"
    );
}

/// Extract on one WAL + install on another moves the session: the source
/// recovery no longer lists it, the target replays it to identical state.
#[test]
fn extract_install_moves_a_session_between_wals() {
    let scratch_a = Scratch::new("migrate-src");
    let scratch_b = Scratch::new("migrate-dst");
    let reg = registry();
    let inst = reg.get("default").expect("instance");
    let open = open_request("mover");
    let events = event_stream(15);

    let mut live = SchedulerService::new();
    let (mut wal_a, _) = ShardWal::open(wal_config(scratch_a.path())).expect("open a");
    wal_a.append_open(&open).expect("log open");
    live.open_session(&inst, &open).expect("open");
    for e in &events {
        wal_a.append_event("mover", e).expect("log event");
        let _ = live.apply("mover", e);
    }
    let before = live.report("mover").expect("report");

    let journal: SessionJournal = wal_a
        .extract("mover")
        .expect("extract io")
        .expect("session was live");
    assert_eq!(journal.events, events);
    assert!(wal_a.journal("mover").is_none());

    let (mut wal_b, _) = ShardWal::open(wal_config(scratch_b.path())).expect("open b");
    wal_b.install(&journal).expect("install");
    drop(wal_a);
    drop(wal_b);

    // Source shard: the close record wins; nothing to recover.
    let (_w, log_a) = ShardWal::open(wal_config(scratch_a.path())).expect("reopen a");
    assert!(log_a.sessions.is_empty(), "source must not resurrect");

    // Target shard: full replay to the same state.
    let (_w, log_b) = ShardWal::open(wal_config(scratch_b.path())).expect("reopen b");
    assert_eq!(log_b.sessions.len(), 1);
    let mut recovered = SchedulerService::new();
    let report = recover_sessions(&mut recovered, &reg, &log_b);
    assert_eq!(report.sessions_recovered, 1, "errors: {:?}", report.errors);
    let after = recovered.report("mover").expect("recovered report");
    assert_eq!(after.utility.to_bits(), before.utility.to_bits());
    assert_eq!(after.scheduled, before.scheduled);
    assert_eq!(after.events_applied, before.events_applied);
}

/// Builds one shard-WAL directory with `n` events, with a snapshot record
/// after every second event when `snapshots` is set, and returns the live
/// segment's path plus the last LSN written.
fn seeded_wal(dir: &std::path::Path, n: usize, snapshots: bool) -> (PathBuf, u64) {
    let cfg = WalConfig {
        snapshot_every: if snapshots { 2 } else { 0 },
        ..wal_config(dir)
    };
    let (mut wal, _) = ShardWal::open(cfg).expect("fresh open");
    wal.append_open(&open_request("t")).expect("open");
    for e in event_stream(n) {
        wal.append_event("t", &e).expect("event");
        wal.maybe_snapshot("t", 0, 0.0).expect("snapshot");
    }
    wal.flush().expect("flush");
    (dir.join("seg-00000000.wal"), wal.stats().last_lsn)
}

/// The events a recovered session replays: its snapshot's, then its tail.
fn recovered_events(log: &RecoveredLog) -> Vec<SessionEvent> {
    log.sessions.first().map_or_else(Vec::new, |s| {
        let mut events = s.snapshot_events.clone();
        events.extend(s.tail_events.iter().cloned());
        events
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The satellite contract: truncate the segment anywhere — recovery
    /// never panics, reports a typed torn tail (when the cut lands inside
    /// a record), and recovers exactly the whole-record prefix.
    #[test]
    fn truncated_tail_recovers_cleanly_at_every_cut(
        n in 1usize..8,
        cut in 0u64..4096,
        snapshots in any::<bool>(),
    ) {
        let scratch = Scratch::new(&format!("torn-{n}-{cut}-{snapshots}"));
        let (seg, last_lsn) = seeded_wal(scratch.path(), n, snapshots);
        let full = std::fs::metadata(&seg).expect("metadata").len();
        let cut = cut.min(full);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).expect("open seg");
        f.set_len(cut).expect("truncate");
        drop(f);

        let (_wal, log) = ShardWal::open(wal_config(scratch.path()))
            .expect("reopen after truncation must not error");
        if cut < full && cut >= HEADER_LEN {
            // Some suffix was lost: either a clean record boundary (fewer
            // events, no torn tail) or a mid-record cut (torn tail set).
            let events = recovered_events(&log).len();
            prop_assert!(events <= n, "recovered {events} of {n}");
            if log.torn_tail.is_none() {
                // Boundary cut: the file is now a clean shorter log.
                prop_assert!(log.max_lsn <= last_lsn);
            }
        } else if cut < HEADER_LEN {
            // Header gone: the segment is unreadable, moved aside; the
            // error is typed, recovery proceeds with nothing.
            prop_assert!(log.sessions.is_empty());
            prop_assert!(!log.scan_errors.is_empty());
        }
        // Reopening once more must see a consistent (already-repaired) log.
        drop(_wal);
        let (_wal2, log2) = ShardWal::open(wal_config(scratch.path()))
            .expect("second reopen is clean");
        prop_assert!(log2.torn_tail.is_none(), "repair is sticky: {:?}", log2.torn_tail);
        prop_assert_eq!(log2.sessions.len(), log.sessions.len());
    }

    /// Flip any single byte after the header: recovery never panics, and
    /// either the flip lands in the lost suffix (torn tail truncated /
    /// moved aside) or recovery still yields a prefix of the original
    /// event stream.
    #[test]
    fn bit_flips_never_panic_and_keep_a_clean_prefix(
        n in 1usize..6,
        byte in HEADER_LEN..2048u64,
        bit in 0u8..8,
        snapshots in any::<bool>(),
    ) {
        let scratch = Scratch::new(&format!("flip-{n}-{byte}-{bit}-{snapshots}"));
        let (seg, _) = seeded_wal(scratch.path(), n, snapshots);
        let mut bytes = std::fs::read(&seg).expect("read seg");
        // Fold the generated offset into the record region of the file.
        let base = HEADER_LEN as usize;
        let byte = base + (byte as usize - base) % (bytes.len() - base);
        bytes[byte] ^= 1 << bit;
        std::fs::write(&seg, &bytes).expect("write flipped");

        let (_wal, log) = ShardWal::open(wal_config(scratch.path()))
            .expect("reopen after bit flip must not error");
        let original = event_stream(n);
        let events = recovered_events(&log);
        // Whatever survived is a strict prefix of what was written — a
        // flip can cost us the tail, never alter an accepted event.
        prop_assert!(events.len() <= n);
        prop_assert_eq!(
            events.as_slice(),
            &original[..events.len()],
            "accepted events must be unaltered"
        );
        prop_assert!(
            log.torn_tail.is_some() || !log.scan_errors.is_empty() || log.records_skipped > 0
                || events.len() == n,
            "a flip that changed bytes must be detected or fully covered: {log:?}"
        );
    }
}

/// Every append records one `wal` span that covers its own write and
/// fsync, snapshot records included and never nested in a second span:
/// the spans add up to the append-latency histogram.
#[test]
fn wal_spans_time_the_whole_append() {
    let scratch = Scratch::new("wal-span");
    let cfg = WalConfig {
        fsync: FsyncPolicy::PerRecord,
        snapshot_every: 2,
        ..wal_config(scratch.path())
    };
    let (mut wal, _) = ShardWal::open(cfg).expect("fresh open");
    let trace = ses_obs::TraceId::generate();
    {
        let _scope = ses_obs::trace_scope(trace);
        wal.append_open(&open_request("s")).expect("open");
        for e in event_stream(6) {
            wal.append_event("s", &e).expect("event");
            wal.maybe_snapshot("s", 0, 0.0).expect("snapshot");
        }
    }
    assert_eq!(wal.stats().snapshots, 3);
    let spans: Vec<_> = ses_obs::collect_trace(trace)
        .into_iter()
        .filter(|s| s.stage == ses_obs::Stage::Wal)
        .collect();
    let appends = wal.append_latencies();
    assert_eq!(appends.count, spans.len() as u64, "one span per append");
    assert_eq!(
        appends.sum,
        spans.iter().map(|s| s.dur_ns / 1_000).sum::<u64>(),
        "the spans time the appends"
    );
}

/// Snapshots are records in the log, synced even under `off`: with
/// segments rolling every KiB and truncation following the snapshots, the
/// directory only ever holds segment files.
#[test]
fn snapshots_leave_only_segment_files() {
    let scratch = Scratch::new("only-segments");
    let cfg = WalConfig {
        snapshot_every: 2,
        segment_bytes: 1024,
        ..wal_config(scratch.path())
    };
    let (mut wal, _) = ShardWal::open(cfg).expect("fresh open");
    for name in ["a", "b"] {
        wal.append_open(&open_request(name)).expect("open");
    }
    for e in event_stream(20) {
        for name in ["a", "b"] {
            wal.append_event(name, &e).expect("event");
            wal.maybe_snapshot(name, 0, 0.0).expect("snapshot");
        }
    }
    wal.append_close("b").expect("close b");
    let stats = wal.stats();
    assert_eq!(stats.snapshots, 20, "{stats:?}");
    let rotations = stats.segments - 1 + stats.segments_removed;
    assert!(
        stats.fsyncs <= stats.snapshots + rotations,
        "under `off` only snapshot records and segment seals sync: {stats:?}"
    );
    assert!(stats.segments_removed > 0, "{stats:?}");
    drop(wal);
    let files: Vec<String> = std::fs::read_dir(scratch.path())
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !files.is_empty()
            && files
                .iter()
                .all(|f| f.starts_with("seg-") && f.ends_with(".wal")),
        "only segments expected: {files:?}"
    );
}

/// A session that stays quiet after its open does not hold the log back:
/// each rotation snapshots it again, so the busy session's whole-journal
/// snapshots are deleted as they are outgrown and the directory stays
/// within a few segments and snapshots, however long the busy session runs.
#[test]
fn a_quiet_session_does_not_hold_the_log_back() {
    let scratch = Scratch::new("quiet-session");
    let cfg = WalConfig {
        snapshot_every: 2,
        segment_bytes: 1024,
        ..wal_config(scratch.path())
    };
    let events = event_stream(200);
    let (mut wal, _) = ShardWal::open(cfg.clone()).expect("fresh open");
    wal.append_open(&open_request("quiet")).expect("open quiet");
    wal.maybe_snapshot("quiet", 1, 0.5).expect("report quiet");
    wal.append_open(&open_request("busy")).expect("open busy");
    for e in &events {
        wal.append_event("busy", e).expect("event");
        wal.maybe_snapshot("busy", 0, 0.0).expect("snapshot");
    }
    let stats = wal.stats();
    assert!(stats.segments_removed > 0, "{stats:?}");
    assert!(stats.segments <= 3, "{stats:?}");
    drop(wal);

    // Bound: three segments, each a KiB plus up to two snapshots of each
    // session written before it rolls.
    let busy_snapshot = serde_json::to_string(&event_stream(200))
        .expect("serialize")
        .len() as u64;
    let bound = 3 * (1024 + 2 * (busy_snapshot + 1024));
    let bytes: u64 = std::fs::read_dir(scratch.path())
        .expect("read dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum();
    assert!(bytes <= bound, "{bytes} bytes on disk, bound {bound}");

    let (_wal, log) = ShardWal::open(cfg).expect("reopen");
    let names: Vec<&str> = log.sessions.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["busy", "quiet"]);
    assert_eq!(recovered_events(&log), events, "busy recovers every event");
    let quiet = &log.sessions[1];
    assert!(quiet.snapshot_lsn > 0, "quiet starts from a later snapshot");
    assert!(quiet.snapshot_events.is_empty() && quiet.tail_events.is_empty());
    assert_eq!(quiet.check.map(|c| c.scheduled), Some(1));
}

/// A format-1 directory still opens: its segments recover, and a
/// `snap-*.snap` sidecar it left behind is not read but named among the
/// scan errors.
#[test]
fn leftover_snapshot_file_is_reported_by_name() {
    let scratch = Scratch::new("leftover-snap");
    let open = open_request("v1");
    {
        let (mut wal, _) = ShardWal::open(wal_config(scratch.path())).expect("fresh open");
        wal.append_open(&open).expect("open");
        wal.flush().expect("flush");
    }
    // Rewrite the segment header as format 1.
    let seg = scratch.path().join("seg-00000000.wal");
    let mut bytes = std::fs::read(&seg).expect("read seg");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&seg, &bytes).expect("write seg");
    // A well-formed format-1 sidecar snapshot of a session the log lacks.
    let snap = SessionSnapshot {
        lsn: 7,
        journal: SessionJournal {
            name: "sidecar".to_owned(),
            open: open_request("sidecar"),
            events: event_stream(3),
        },
        scheduled: 0,
        utility_bits: 0,
    };
    let mut file = b"SESWSNAP".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    let payload = serde_json::to_string(&snap).expect("serialize");
    encode_record(REC_SNAPSHOT, payload.as_bytes(), &mut file);
    let planted = scratch.path().join("snap-0123456789abcdef.snap");
    std::fs::write(&planted, &file).expect("plant sidecar");

    let (_wal, log) = ShardWal::open(wal_config(scratch.path())).expect("reopen v1 dir");
    let names: Vec<&str> = log.sessions.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["v1"], "the segment recovers, the sidecar does not");
    assert!(
        log.scan_errors
            .iter()
            .any(|e| e.contains("snap-0123456789abcdef.snap")),
        "the sidecar must be named: {:?}",
        log.scan_errors
    );
}

/// `RecoveredLog` default is empty (used by the no-WAL server path).
#[test]
fn recovered_log_default_is_empty() {
    let log = RecoveredLog::default();
    assert!(log.sessions.is_empty());
    assert_eq!(log.max_lsn, 0);
}
