//! The per-shard write-ahead log: segmented record files, per-session
//! snapshots, and the in-memory session journal mirror that snapshots and
//! migration ship.
//!
//! ## Record framing
//!
//! A segment file is an 8-byte magic (`SESWALOG`) + a `u32` LE format
//! version, followed by records framed exactly like the instance store's
//! sections (DESIGN.md §12): `[u8 kind][u64 LE payload_len][payload]
//! [u64 LE checksum]`. The checksum is the store's four-lane FNV-1a fold
//! ([`ses_core::FoldState`]) over the kind byte plus the payload — the
//! kind byte is included so a bit flip that turns one record kind into
//! another (an `event` into a `close`, say) can never pass verification
//! even when the payload happens to parse under both shapes.
//!
//! Payloads are the crate's serde wire types as JSON: the same
//! [`SessionOpen`]/[`SessionEvent`] bodies the HTTP API carries, wrapped
//! with the record's LSN. Replaying the log is therefore *literally* a
//! replay of the request stream through [`SchedulerService::apply`], which
//! is what makes the server-vs-sim trace digest the recovery oracle.
//!
//! ## Write-ahead ordering
//!
//! The shard appends a record (and applies the fsync policy) *before*
//! handing the operation to the service. Operations the service then
//! rejects (duplicate open, unknown session, out-of-universe event) leave
//! a record behind — deliberately: `apply` is deterministic, so recovery
//! replays the record and rejects it identically, and the journal mirror
//! applies the same acceptance rules (see [`ShardWal::append_open`]).
//!
//! [`SchedulerService::apply`]: ses_service::SchedulerService::apply
//! [`SessionOpen`]: ses_service::SessionOpen
//! [`SessionEvent`]: ses_service::SessionEvent

use serde::{Deserialize, Serialize};
use ses_core::util::Fnv1a;
use ses_core::FoldState;
use ses_service::{SessionEvent, SessionOpen};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic bytes opening every WAL segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SESWALOG";
/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SESWSNAP";
/// On-disk format version (bumped on incompatible layout changes).
pub const FORMAT_VERSION: u32 = 1;
/// Bytes of segment/snapshot header: magic + version.
pub const HEADER_LEN: u64 = 12;

/// Record kind: a session open (payload [`WalOpen`]).
pub const REC_OPEN: u8 = 0x01;
/// Record kind: a session event (payload [`WalEvent`]).
pub const REC_EVENT: u8 = 0x02;
/// Record kind: a session close or departure (payload [`WalClose`]).
pub const REC_CLOSE: u8 = 0x03;
/// Record kind: a full session snapshot (payload [`SessionSnapshot`];
/// snapshot files only).
pub const REC_SNAPSHOT: u8 = 0x04;

/// Human-readable name of a record kind.
pub fn record_kind_name(kind: u8) -> &'static str {
    match kind {
        REC_OPEN => "open",
        REC_EVENT => "event",
        REC_CLOSE => "close",
        REC_SNAPSHOT => "snapshot",
        _ => "unknown",
    }
}

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: an acknowledged event is never lost.
    PerRecord,
    /// `fdatasync` at most once per `millis`, and no later than `millis`
    /// after an unsynced append even if the shard then goes idle: bounded
    /// loss window, near fsync-free throughput.
    Interval {
        /// Maximum milliseconds between syncs.
        millis: u64,
    },
    /// Never fsync (the OS flushes on its own schedule): crash loses the
    /// unflushed tail, kept for benchmarking the framing overhead alone.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `per-record`, `interval`,
    /// `interval:<millis>`, or `off`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "per-record" => Ok(FsyncPolicy::PerRecord),
            "interval" => Ok(FsyncPolicy::Interval { millis: 25 }),
            "off" => Ok(FsyncPolicy::Off),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse()
                    .map(|millis| FsyncPolicy::Interval { millis })
                    .map_err(|_| format!("bad fsync interval millis: {ms:?}")),
                None => Err(format!(
                    "unknown fsync policy {other:?} (expected per-record, interval[:millis], off)"
                )),
            },
        }
    }

    /// Stable label used in reports.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::PerRecord => "per-record".to_owned(),
            FsyncPolicy::Interval { millis } => format!("interval:{millis}"),
            FsyncPolicy::Off => "off".to_owned(),
        }
    }
}

/// Everything that can go wrong in the WAL layer. Every variant is a typed,
/// displayable error — the durability layer never panics on bad input
/// (torn tails and flipped bits are *expected* inputs after a crash).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalError {
    /// An OS-level I/O failure.
    Io {
        /// What the WAL was doing.
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The offending file.
        path: String,
    },
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// The offending file.
        path: String,
        /// Version found in the header.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The file ends mid-record (the classic torn tail).
    Truncated {
        /// The offending file.
        path: String,
        /// Byte offset of the record that ran off the end.
        offset: u64,
    },
    /// A record's checksum does not match its bytes.
    ChecksumMismatch {
        /// The offending file.
        path: String,
        /// Byte offset of the record.
        offset: u64,
        /// Checksum stored on disk.
        expected: u64,
        /// Checksum recomputed from the bytes.
        actual: u64,
    },
    /// A record's framing or payload is structurally invalid.
    Corrupt {
        /// The offending file.
        path: String,
        /// Byte offset of the record.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { op, path, message } => write!(f, "wal {op} on {path}: {message}"),
            WalError::BadMagic { path } => write!(f, "{path}: not a ses WAL file (bad magic)"),
            WalError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{path}: format version {found} (this build reads up to {supported})"
            ),
            WalError::Truncated { path, offset } => {
                write!(f, "{path}: torn record at byte {offset} (file ends mid-record)")
            }
            WalError::ChecksumMismatch {
                path,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "{path}: checksum mismatch at byte {offset} (stored {expected:#018x}, computed {actual:#018x})"
            ),
            WalError::Corrupt {
                path,
                offset,
                detail,
            } => write!(f, "{path}: corrupt record at byte {offset}: {detail}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> WalError {
    WalError::Io {
        op,
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Payload of a [`REC_OPEN`] record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalOpen {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The open request, verbatim.
    pub open: SessionOpen,
}

/// Payload of a [`REC_EVENT`] record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalEvent {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The session the event addressed.
    pub name: String,
    /// The event, verbatim.
    pub event: SessionEvent,
}

/// Payload of a [`REC_CLOSE`] record: the session was closed by a client,
/// or left this shard through migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalClose {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The session that closed.
    pub name: String,
}

/// A session's complete replayable history: the open request plus every
/// event since, in application order. This is what snapshots persist and
/// what migration ships between shards — state is never serialized, only
/// the inputs that deterministically rebuild it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionJournal {
    /// Session name.
    pub name: String,
    /// The original open request.
    pub open: SessionOpen,
    /// Every event appended since the open, in order (including events the
    /// service rejected — replay rejects them identically).
    pub events: Vec<SessionEvent>,
}

/// Payload of a [`REC_SNAPSHOT`] record: one session's journal compacted to
/// a single checksummed file, plus cheap integrity checks of the state the
/// journal rebuilds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// LSN of the last record folded into this snapshot; WAL records with
    /// `lsn <=` this are redundant for the session.
    pub lsn: u64,
    /// The compacted journal.
    pub journal: SessionJournal,
    /// Schedule size after replaying the journal (integrity check).
    pub scheduled: usize,
    /// Bit pattern of the utility Ω after replaying the journal
    /// (integrity check — recovery verifies this bit-for-bit).
    pub utility_bits: u64,
}

/// Encodes one framed record into `buf`.
pub fn encode_record(kind: u8, payload: &[u8], buf: &mut Vec<u8>) {
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let mut fold = FoldState::new();
    fold.update(&[kind]);
    fold.update(payload);
    buf.extend_from_slice(&fold.finalize().to_le_bytes());
}

/// One decoded record: its byte offset, kind, and payload slice.
pub struct RawRecord<'a> {
    /// Byte offset of the record's first byte in the file.
    pub offset: u64,
    /// Record kind byte.
    pub kind: u8,
    /// The payload bytes (checksum already verified).
    pub payload: &'a [u8],
}

/// Iterates framed records over a segment's bytes (after the header).
pub struct RecordReader<'a> {
    data: &'a [u8],
    pos: usize,
    base: u64,
    path: String,
}

impl<'a> RecordReader<'a> {
    /// A reader over `data`, reporting offsets as `base + position` (pass
    /// [`HEADER_LEN`] when `data` starts right after the file header).
    pub fn new(data: &'a [u8], base: u64, path: impl Into<String>) -> Self {
        Self {
            data,
            pos: 0,
            base,
            path: path.into(),
        }
    }

    /// Byte offset the next record would start at.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Decodes the next record, verifying its checksum. `None` at a clean
    /// end of data; an error leaves the reader parked at the bad record's
    /// offset (so callers can truncate there).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<RawRecord<'a>, WalError>> {
        let rest = &self.data[self.pos..];
        if rest.is_empty() {
            return None;
        }
        let offset = self.offset();
        if rest.len() < 9 {
            return Some(Err(WalError::Truncated {
                path: self.path.clone(),
                offset,
            }));
        }
        let kind = rest[0];
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&rest[1..9]);
        let len = u64::from_le_bytes(len_bytes) as usize;
        let Some(total) = len.checked_add(17) else {
            return Some(Err(WalError::Corrupt {
                path: self.path.clone(),
                offset,
                detail: "payload length overflows".to_owned(),
            }));
        };
        if rest.len() < total {
            return Some(Err(WalError::Truncated {
                path: self.path.clone(),
                offset,
            }));
        }
        let payload = &rest[9..9 + len];
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(&rest[9 + len..total]);
        let expected = u64::from_le_bytes(sum_bytes);
        let mut fold = FoldState::new();
        fold.update(&[kind]);
        fold.update(payload);
        let actual = fold.finalize();
        if actual != expected {
            return Some(Err(WalError::ChecksumMismatch {
                path: self.path.clone(),
                offset,
                expected,
                actual,
            }));
        }
        if !matches!(kind, REC_OPEN | REC_EVENT | REC_CLOSE | REC_SNAPSHOT) {
            return Some(Err(WalError::Corrupt {
                path: self.path.clone(),
                offset,
                detail: format!("unknown record kind {kind:#04x}"),
            }));
        }
        self.pos += total;
        Some(Ok(RawRecord {
            offset,
            kind,
            payload,
        }))
    }
}

/// Reads and validates a file header, returning the record bytes.
pub fn check_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    path: &Path,
) -> Result<&'a [u8], WalError> {
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != magic[..] {
        return Err(WalError::BadMagic {
            path: path.display().to_string(),
        });
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[8..12]);
    let found = u32::from_le_bytes(v);
    if found > FORMAT_VERSION {
        return Err(WalError::UnsupportedVersion {
            path: path.display().to_string(),
            found,
            supported: FORMAT_VERSION,
        });
    }
    Ok(&bytes[HEADER_LEN as usize..])
}

/// How the WAL behaves: where it lives, when it syncs, when it compacts.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// The shard's WAL directory (created if missing).
    pub dir: PathBuf,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Snapshot a session after this many events since its last snapshot
    /// (`0` disables snapshots and therefore truncation).
    pub snapshot_every: u64,
    /// Seal the live segment and start a new one past this many bytes.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Defaults for `dir`: interval fsync, snapshot every 64 events,
    /// 4 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval { millis: 25 },
            snapshot_every: 64,
            segment_bytes: 4 << 20,
        }
    }
}

/// Point-in-time WAL accounting, readable through the shard's `Stats`
/// round-trip (the WAL is single-threaded shard state, so these are plain
/// counters — no atomics).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WalStats {
    /// Fsync policy label.
    pub policy: String,
    /// Records appended since boot (all kinds).
    pub records: u64,
    /// Bytes appended since boot (framing included).
    pub appended_bytes: u64,
    /// `fdatasync` calls issued since boot.
    pub fsyncs: u64,
    /// Snapshot files written since boot.
    pub snapshots: u64,
    /// Segment files on disk (sealed + live).
    pub segments: u64,
    /// Sealed segments deleted by truncation since boot.
    pub segments_removed: u64,
    /// Highest LSN assigned so far (`0` = nothing appended).
    pub last_lsn: u64,
    /// Open sessions mirrored in the journal.
    pub sessions: u64,
}

struct SessionState {
    journal: SessionJournal,
    open_lsn: u64,
    snapshot_lsn: u64,
    events_since_snapshot: u64,
    last_lsn: u64,
}

struct SealedSegment {
    path: PathBuf,
    max_lsn: u64,
}

/// A session recovered from disk, split at its snapshot boundary so the
/// replayer can verify the snapshot's integrity checks before applying the
/// tail.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSession {
    /// Session name.
    pub name: String,
    /// The original open request.
    pub open: SessionOpen,
    /// Events covered by the snapshot (empty when there was none).
    pub snapshot_events: Vec<SessionEvent>,
    /// Events past the snapshot, from the WAL tail.
    pub tail_events: Vec<SessionEvent>,
    /// LSN of the snapshot (`0` = no snapshot).
    pub snapshot_lsn: u64,
    /// The snapshot's integrity checks, verified after replaying
    /// `snapshot_events`.
    pub check: Option<SnapshotCheck>,
}

/// The cheap state checks a snapshot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotCheck {
    /// Expected schedule size.
    pub scheduled: usize,
    /// Expected utility Ω bit pattern.
    pub utility_bits: u64,
}

/// Everything [`ShardWal::open`] reconstructed from disk, ready to replay
/// through the service (see [`crate::recover_sessions`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredLog {
    /// Sessions alive at the crash/shutdown point, sorted by name.
    pub sessions: Vec<RecoveredSession>,
    /// Records skipped because their session was unknown or closed.
    pub records_skipped: u64,
    /// Torn-tail description, when the last segment was cleanly truncated.
    pub torn_tail: Option<String>,
    /// Non-tail scan problems (corrupt mid-log segments moved aside,
    /// unreadable snapshots, …).
    pub scan_errors: Vec<String>,
    /// Highest LSN seen on disk.
    pub max_lsn: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
}

fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    // FNV-1a of the name: session names are arbitrary percent-decoded
    // strings, so the file name carries a stable hash instead.
    let h = Fnv1a::hash(name.as_bytes());
    dir.join(format!("snap-{h:016x}.snap"))
}

fn write_header(buf: &mut Vec<u8>, magic: &[u8; 8]) {
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
}

struct Building {
    open: SessionOpen,
    open_lsn: u64,
    snapshot_events: Vec<SessionEvent>,
    tail: Vec<(u64, SessionEvent)>,
    snapshot_lsn: u64,
    check: Option<SnapshotCheck>,
}

/// One shard's write-ahead log. Owned by its shard and used under that
/// shard's lock; all methods take `&mut self` and never block on other
/// shards.
pub struct ShardWal {
    cfg: WalConfig,
    file: File,
    live_path: PathBuf,
    segment_index: u64,
    live_bytes: u64,
    live_max_lsn: u64,
    sealed: Vec<SealedSegment>,
    next_lsn: u64,
    sessions: BTreeMap<String, SessionState>,
    records: u64,
    appended_bytes: u64,
    fsyncs: u64,
    snapshots_written: u64,
    segments_removed: u64,
    dirty_since_sync: bool,
    last_sync_ns: u64,
    append_hist: ses_obs::Histogram,
    fsync_hist: ses_obs::Histogram,
}

impl ShardWal {
    /// Opens (or creates) the WAL in `cfg.dir`, scanning snapshots and
    /// segments into a [`RecoveredLog`]. Torn tails are truncated in place;
    /// mid-log corruption moves the unreadable suffix aside (`.corrupt`)
    /// so the log stays prefix-consistent. Never panics on bad bytes.
    pub fn open(cfg: WalConfig) -> Result<(Self, RecoveredLog), WalError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &cfg.dir, e))?;
        let mut log = RecoveredLog::default();

        // Snapshots first: they seed the per-session journals.
        let mut snapshots: BTreeMap<String, (PathBuf, SessionSnapshot)> = BTreeMap::new();
        let mut segment_files: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&cfg.dir).map_err(|e| io_err("read dir", &cfg.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", &cfg.dir, e))?;
            let path = entry.path();
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(idx) = file_name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
            {
                if let Ok(index) = idx.parse::<u64>() {
                    segment_files.push((index, path));
                }
            } else if file_name.starts_with("snap-") && file_name.ends_with(".snap") {
                match read_snapshot_file(&path) {
                    Ok(snap) => {
                        let keep = snapshots
                            .get(&snap.journal.name)
                            .is_none_or(|(_, old)| old.lsn < snap.lsn);
                        if keep {
                            snapshots.insert(snap.journal.name.clone(), (path, snap));
                        }
                    }
                    Err(e) => log.scan_errors.push(e.to_string()),
                }
            }
        }
        segment_files.sort_by_key(|(index, _)| *index);

        let mut building: BTreeMap<String, Building> = BTreeMap::new();
        let mut stale_snapshots: Vec<PathBuf> = Vec::new();
        for (name, (_path, snap)) in &snapshots {
            building.insert(
                name.clone(),
                Building {
                    open: snap.journal.open.clone(),
                    open_lsn: 0,
                    snapshot_events: snap.journal.events.clone(),
                    tail: Vec::new(),
                    snapshot_lsn: snap.lsn,
                    check: Some(SnapshotCheck {
                        scheduled: snap.scheduled,
                        utility_bits: snap.utility_bits,
                    }),
                },
            );
            log.max_lsn = log.max_lsn.max(snap.lsn);
        }

        let mut sealed = Vec::new();
        let mut poisoned_from: Option<usize> = None;
        for (i, (_index, path)) in segment_files.iter().enumerate() {
            if poisoned_from.is_some() {
                break;
            }
            let last_segment = i + 1 == segment_files.len();
            let bytes = fs::read(path).map_err(|e| io_err("read segment", path, e))?;
            let records = match check_header(&bytes, &SEGMENT_MAGIC, path) {
                Ok(r) => r,
                Err(e) => {
                    // Unreadable header: nothing in this segment is usable.
                    log.scan_errors.push(e.to_string());
                    poisoned_from = Some(i);
                    break;
                }
            };
            let mut reader = RecordReader::new(records, HEADER_LEN, path.display().to_string());
            let mut seg_max_lsn = 0u64;
            let mut torn_at: Option<(u64, WalError)> = None;
            loop {
                let rec = match reader.next() {
                    None => break,
                    Some(Ok(rec)) => rec,
                    Some(Err(e)) => {
                        torn_at = Some((reader.offset(), e));
                        break;
                    }
                };
                match decode_into(&rec, &mut building, &mut snapshots, &mut stale_snapshots) {
                    Ok(lsn) => {
                        seg_max_lsn = seg_max_lsn.max(lsn);
                        log.max_lsn = log.max_lsn.max(lsn);
                    }
                    Err(Skip::UnknownSession) => log.records_skipped += 1,
                    Err(Skip::Covered) => {}
                    Err(Skip::Bad(detail)) => {
                        log.scan_errors.push(format!(
                            "{}: record at byte {} undecodable: {detail}",
                            path.display(),
                            rec.offset
                        ));
                        log.records_skipped += 1;
                    }
                }
            }
            if let Some((offset, e)) = torn_at {
                if last_segment {
                    // The torn tail of a crashed append: truncate to the
                    // last whole record and carry on.
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|er| io_err("open for truncate", path, er))?;
                    f.set_len(offset)
                        .map_err(|er| io_err("truncate", path, er))?;
                    f.sync_all()
                        .map_err(|er| io_err("sync truncate", path, er))?;
                    log.torn_tail = Some(format!("{e} — truncated to {offset} bytes"));
                } else {
                    // Mid-log corruption is not a torn tail; move the bad
                    // segment and everything after it aside so the log
                    // stays a clean prefix.
                    log.scan_errors.push(e.to_string());
                    poisoned_from = Some(i);
                    break;
                }
            }
            sealed.push(SealedSegment {
                path: path.clone(),
                max_lsn: seg_max_lsn,
            });
        }
        if let Some(from) = poisoned_from {
            for (_, path) in &segment_files[from..] {
                let aside = path.with_extension("wal.corrupt");
                match fs::rename(path, &aside) {
                    Ok(()) => log.scan_errors.push(format!(
                        "moved unreadable segment {} aside as {}",
                        path.display(),
                        aside.display()
                    )),
                    Err(e) => return Err(io_err("move corrupt segment", path, e)),
                }
            }
        }
        for path in stale_snapshots {
            let _ = fs::remove_file(path);
        }

        // Fresh live segment past everything on disk.
        let segment_index = segment_files.last().map_or(0, |(i, _)| i + 1);
        let live_path = segment_path(&cfg.dir, segment_index);
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        write_header(&mut header, &SEGMENT_MAGIC);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&live_path)
            .map_err(|e| io_err("create segment", &live_path, e))?;
        file.write_all(&header)
            .map_err(|e| io_err("write header", &live_path, e))?;

        // The in-memory mirror and the replay list.
        let mut sessions = BTreeMap::new();
        for (name, b) in building {
            let mut events = b.snapshot_events.clone();
            events.extend(b.tail.iter().map(|(_, e)| e.clone()));
            let last_lsn = b.tail.last().map_or(b.snapshot_lsn, |(lsn, _)| *lsn);
            sessions.insert(
                name.clone(),
                SessionState {
                    journal: SessionJournal {
                        name: name.clone(),
                        open: b.open.clone(),
                        events,
                    },
                    open_lsn: b.open_lsn,
                    snapshot_lsn: b.snapshot_lsn,
                    events_since_snapshot: b.tail.len() as u64,
                    last_lsn,
                },
            );
            log.sessions.push(RecoveredSession {
                name,
                open: b.open,
                snapshot_events: b.snapshot_events,
                tail_events: b.tail.into_iter().map(|(_, e)| e).collect(),
                snapshot_lsn: b.snapshot_lsn,
                check: b.check,
            });
        }

        let wal = Self {
            next_lsn: log.max_lsn + 1,
            cfg,
            file,
            live_path,
            segment_index,
            live_bytes: HEADER_LEN,
            live_max_lsn: 0,
            sealed,
            sessions,
            records: 0,
            appended_bytes: 0,
            fsyncs: 0,
            snapshots_written: 0,
            segments_removed: 0,
            dirty_since_sync: false,
            last_sync_ns: ses_obs::now_ns(),
            append_hist: ses_obs::Histogram::new(),
            fsync_hist: ses_obs::Histogram::new(),
        };
        Ok((wal, log))
    }

    /// The WAL's directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Appends a session-open record; the session joins the journal mirror
    /// unless the name is already live (in which case the service will
    /// reject the open, and recovery will skip the record the same way).
    pub fn append_open(&mut self, open: &SessionOpen) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let payload = to_payload(&WalOpen {
            lsn,
            open: open.clone(),
        })?;
        self.append(REC_OPEN, &payload)?;
        if !self.sessions.contains_key(&open.name) {
            self.sessions.insert(
                open.name.clone(),
                SessionState {
                    journal: SessionJournal {
                        name: open.name.clone(),
                        open: open.clone(),
                        events: Vec::new(),
                    },
                    open_lsn: lsn,
                    snapshot_lsn: 0,
                    events_since_snapshot: 0,
                    last_lsn: lsn,
                },
            );
        }
        Ok(lsn)
    }

    /// Appends a session-event record and mirrors it into the session's
    /// journal (events for unknown sessions are logged but not mirrored —
    /// the service rejects them, and recovery skips them identically).
    pub fn append_event(&mut self, name: &str, event: &SessionEvent) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let payload = to_payload(&WalEvent {
            lsn,
            name: name.to_owned(),
            event: event.clone(),
        })?;
        self.append(REC_EVENT, &payload)?;
        if let Some(s) = self.sessions.get_mut(name) {
            s.journal.events.push(event.clone());
            s.events_since_snapshot += 1;
            s.last_lsn = lsn;
        }
        Ok(lsn)
    }

    /// Appends a close record and drops the session from the mirror (and
    /// its snapshot from disk).
    pub fn append_close(&mut self, name: &str) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let payload = to_payload(&WalClose {
            lsn,
            name: name.to_owned(),
        })?;
        self.append(REC_CLOSE, &payload)?;
        if self.sessions.remove(name).is_some() {
            let _ = fs::remove_file(snapshot_path(&self.cfg.dir, name));
        }
        Ok(lsn)
    }

    /// Writes a snapshot of `name` if it has accumulated
    /// `cfg.snapshot_every` events since the last one, then truncates any
    /// sealed segment every live session has outgrown. `scheduled` and
    /// `utility` are the session's current state, recorded as integrity
    /// checks. Returns the snapshot LSN when one was written.
    pub fn maybe_snapshot(
        &mut self,
        name: &str,
        scheduled: usize,
        utility: f64,
    ) -> Result<Option<u64>, WalError> {
        if self.cfg.snapshot_every == 0 {
            return Ok(None);
        }
        let Some(s) = self.sessions.get(name) else {
            return Ok(None);
        };
        if s.events_since_snapshot < self.cfg.snapshot_every {
            return Ok(None);
        }
        let snap = SessionSnapshot {
            lsn: s.last_lsn,
            journal: s.journal.clone(),
            scheduled,
            utility_bits: utility.to_bits(),
        };
        let mut span = ses_obs::span(ses_obs::Stage::Wal);
        let path = snapshot_path(&self.cfg.dir, name);
        let bytes = write_snapshot_file(&path, &snap)?;
        span.set_aux(bytes, 1);
        drop(span);
        // Only now that the file is durably in place does the session's
        // stable point move.
        if let Some(s) = self.sessions.get_mut(name) {
            s.snapshot_lsn = snap.lsn;
            s.events_since_snapshot = 0;
        }
        self.snapshots_written += 1;
        self.truncate_covered();
        Ok(Some(snap.lsn))
    }

    /// Removes the session from this WAL for migration: its full journal is
    /// returned, a close record marks the departure (so recovery never
    /// resurrects it here), and its snapshot file is deleted.
    pub fn extract(&mut self, name: &str) -> Result<Option<SessionJournal>, WalError> {
        if !self.sessions.contains_key(name) {
            return Ok(None);
        }
        let journal = self.sessions.get(name).map(|s| s.journal.clone());
        self.append_close(name)?;
        self.flush()?;
        Ok(journal)
    }

    /// Installs a migrated session's journal into this WAL: the open and
    /// every event are re-logged with fresh LSNs (the journal is replayed
    /// through the service by the caller). Returns the last LSN appended.
    pub fn install(&mut self, journal: &SessionJournal) -> Result<u64, WalError> {
        let mut lsn = self.append_open(&journal.open)?;
        for event in &journal.events {
            lsn = self.append_event(&journal.name, event)?;
        }
        self.flush()?;
        Ok(lsn)
    }

    /// Syncs any unflushed appends to disk (used at graceful shutdown and
    /// after migration installs; a no-op when nothing is pending).
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.dirty_since_sync {
            self.fsync()?;
        }
        Ok(())
    }

    /// How long until the pending appends are due for their interval sync:
    /// `Some(remaining)` only under [`FsyncPolicy::Interval`] with unsynced
    /// appends (zero once overdue), `None` otherwise. The server's WAL-sync
    /// thread sleeps at most this long before syncing, so an idle shard
    /// still syncs its acknowledged tail within the interval.
    pub fn sync_due_in(&self) -> Option<Duration> {
        match self.cfg.fsync {
            FsyncPolicy::Interval { millis } if self.dirty_since_sync => {
                let since = ses_obs::now_ns().saturating_sub(self.last_sync_ns);
                let interval = millis.saturating_mul(1_000_000);
                Some(Duration::from_nanos(interval.saturating_sub(since)))
            }
            _ => None,
        }
    }

    /// Syncs the pending appends if their interval sync is due (see
    /// [`Self::sync_due_in`]); a no-op otherwise. A failed sync is retried
    /// one interval later rather than immediately, so a failing disk
    /// cannot spin the shard loop.
    pub fn flush_if_due(&mut self) -> Result<(), WalError> {
        if self.sync_due_in() != Some(Duration::ZERO) {
            return Ok(());
        }
        let synced = self.fsync();
        if synced.is_err() {
            self.last_sync_ns = ses_obs::now_ns();
        }
        synced
    }

    /// The session's mirrored journal, if it is live on this shard.
    pub fn journal(&self, name: &str) -> Option<&SessionJournal> {
        self.sessions.get(name).map(|s| &s.journal)
    }

    /// Current accounting.
    pub fn stats(&self) -> WalStats {
        WalStats {
            policy: self.cfg.fsync.label(),
            records: self.records,
            appended_bytes: self.appended_bytes,
            fsyncs: self.fsyncs,
            snapshots: self.snapshots_written,
            segments: self.sealed.len() as u64 + 1,
            segments_removed: self.segments_removed,
            last_lsn: self.next_lsn - 1,
            sessions: self.sessions.len() as u64,
        }
    }

    /// Distribution of append latencies (µs), fsync time included when the
    /// append synced.
    pub fn append_latencies(&self) -> ses_obs::HistogramSnapshot {
        self.append_hist.snapshot()
    }

    /// Distribution of fsync latencies (µs).
    pub fn fsync_latencies(&self) -> ses_obs::HistogramSnapshot {
        self.fsync_hist.snapshot()
    }

    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), WalError> {
        let start_ns = ses_obs::now_ns();
        let mut buf = Vec::with_capacity(payload.len() + 17);
        encode_record(kind, payload, &mut buf);
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("append", &self.live_path, e))?;
        self.live_bytes += buf.len() as u64;
        self.live_max_lsn = self.next_lsn;
        self.records += 1;
        self.appended_bytes += buf.len() as u64;
        self.dirty_since_sync = true;
        let synced = match self.cfg.fsync {
            FsyncPolicy::PerRecord => {
                self.fsync()?;
                true
            }
            FsyncPolicy::Interval { millis } => {
                if ses_obs::now_ns().saturating_sub(self.last_sync_ns) >= millis * 1_000_000 {
                    self.fsync()?;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Off => false,
        };
        self.next_lsn += 1;
        let dur_ns = ses_obs::now_ns().saturating_sub(start_ns);
        self.append_hist.record(dur_ns / 1_000);
        let mut span = ses_obs::span(ses_obs::Stage::Wal);
        span.set_aux(buf.len() as u64, u64::from(synced));
        drop(span);
        if self.live_bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn fsync(&mut self) -> Result<(), WalError> {
        let start_ns = ses_obs::now_ns();
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.live_path, e))?;
        self.fsyncs += 1;
        self.dirty_since_sync = false;
        self.last_sync_ns = ses_obs::now_ns();
        self.fsync_hist
            .record(self.last_sync_ns.saturating_sub(start_ns) / 1_000);
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // Seal the live segment: it must be durable before the new one
        // takes appends, or truncation accounting could outrun the disk.
        if self.dirty_since_sync && self.cfg.fsync != FsyncPolicy::Off {
            self.fsync()?;
        }
        self.sealed.push(SealedSegment {
            path: self.live_path.clone(),
            max_lsn: self.live_max_lsn,
        });
        self.segment_index += 1;
        self.live_path = segment_path(&self.cfg.dir, self.segment_index);
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        write_header(&mut header, &SEGMENT_MAGIC);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&self.live_path)
            .map_err(|e| io_err("create segment", &self.live_path, e))?;
        file.write_all(&header)
            .map_err(|e| io_err("write header", &self.live_path, e))?;
        self.file = file;
        self.live_bytes = HEADER_LEN;
        self.live_max_lsn = 0;
        self.dirty_since_sync = false;
        self.truncate_covered();
        Ok(())
    }

    /// Deletes sealed segments every live session has outgrown: a segment
    /// is droppable when its highest LSN is at or below every session's
    /// stable point (its snapshot LSN, or just before its open record when
    /// it has no snapshot). With no live sessions, everything sealed is
    /// droppable.
    fn truncate_covered(&mut self) {
        let floor = self
            .sessions
            .values()
            .map(|s| {
                if s.snapshot_lsn > 0 {
                    s.snapshot_lsn
                } else {
                    s.open_lsn.saturating_sub(1)
                }
            })
            .min()
            .unwrap_or(u64::MAX);
        let mut kept = Vec::with_capacity(self.sealed.len());
        for seg in self.sealed.drain(..) {
            if seg.max_lsn <= floor && fs::remove_file(&seg.path).is_ok() {
                self.segments_removed += 1;
            } else {
                kept.push(seg);
            }
        }
        self.sealed = kept;
    }
}

enum Skip {
    UnknownSession,
    Covered,
    Bad(String),
}

fn decode_into(
    rec: &RawRecord<'_>,
    building: &mut BTreeMap<String, Building>,
    snapshots: &mut BTreeMap<String, (PathBuf, SessionSnapshot)>,
    stale_snapshots: &mut Vec<PathBuf>,
) -> Result<u64, Skip> {
    match rec.kind {
        REC_OPEN => {
            let open: WalOpen = from_payload(rec.payload).map_err(Skip::Bad)?;
            let name = open.open.name.clone();
            if building.contains_key(&name) {
                // A duplicate open the service rejected (or one already
                // covered by this session's snapshot).
                return Err(Skip::Covered);
            }
            let lsn = open.lsn;
            building.insert(
                name,
                Building {
                    open: open.open,
                    open_lsn: lsn,
                    snapshot_events: Vec::new(),
                    tail: Vec::new(),
                    snapshot_lsn: 0,
                    check: None,
                },
            );
            Ok(lsn)
        }
        REC_EVENT => {
            let ev: WalEvent = from_payload(rec.payload).map_err(Skip::Bad)?;
            match building.get_mut(&ev.name) {
                None => Err(Skip::UnknownSession),
                Some(b) if ev.lsn <= b.snapshot_lsn => Err(Skip::Covered),
                Some(b) => {
                    let lsn = ev.lsn;
                    b.tail.push((lsn, ev.event));
                    Ok(lsn)
                }
            }
        }
        REC_CLOSE => {
            let close: WalClose = from_payload(rec.payload).map_err(Skip::Bad)?;
            match building.get(&close.name) {
                None => Err(Skip::UnknownSession),
                Some(b) if close.lsn <= b.snapshot_lsn => Err(Skip::Covered),
                Some(_) => {
                    building.remove(&close.name);
                    if let Some((path, _)) = snapshots.remove(&close.name) {
                        stale_snapshots.push(path);
                    }
                    Ok(close.lsn)
                }
            }
        }
        REC_SNAPSHOT => Err(Skip::Bad(
            "snapshot record inside a segment file".to_owned(),
        )),
        other => Err(Skip::Bad(format!("unknown record kind {other:#04x}"))),
    }
}

fn to_payload<T: Serialize>(value: &T) -> Result<Vec<u8>, WalError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| WalError::Io {
            op: "serialize",
            path: String::new(),
            message: e.to_string(),
        })
}

fn from_payload<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Writes one snapshot file atomically (tmp + rename + fsync).
pub fn write_snapshot_file(path: &Path, snap: &SessionSnapshot) -> Result<u64, WalError> {
    let payload = to_payload(snap)?;
    let mut buf = Vec::with_capacity(payload.len() + HEADER_LEN as usize + 17);
    write_header(&mut buf, &SNAPSHOT_MAGIC);
    encode_record(REC_SNAPSHOT, &payload, &mut buf);
    let tmp = path.with_extension("snap.tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot", &tmp, e))?;
    f.write_all(&buf)
        .map_err(|e| io_err("write snapshot", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync snapshot", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("publish snapshot", path, e))?;
    Ok(buf.len() as u64)
}

/// Reads and verifies one snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<SessionSnapshot, WalError> {
    let bytes = fs::read(path).map_err(|e| io_err("read snapshot", path, e))?;
    let records = check_header(&bytes, &SNAPSHOT_MAGIC, path)?;
    let mut reader = RecordReader::new(records, HEADER_LEN, path.display().to_string());
    let rec = match reader.next() {
        Some(Ok(rec)) if rec.kind == REC_SNAPSHOT => rec,
        Some(Ok(rec)) => {
            return Err(WalError::Corrupt {
                path: path.display().to_string(),
                offset: rec.offset,
                detail: format!(
                    "expected snapshot record, found {}",
                    record_kind_name(rec.kind)
                ),
            })
        }
        Some(Err(e)) => return Err(e),
        None => {
            return Err(WalError::Truncated {
                path: path.display().to_string(),
                offset: HEADER_LEN,
            })
        }
    };
    from_payload(rec.payload).map_err(|detail| WalError::Corrupt {
        path: path.display().to_string(),
        offset: rec.offset,
        detail,
    })
}
