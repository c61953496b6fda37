//! The per-shard write-ahead log: segmented record files, per-session
//! snapshot records, and the in-memory session journal mirror that
//! snapshots and migration ship.
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
use ses_core::FoldState;
use ses_service::{SessionEvent, SessionOpen};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic bytes opening every WAL segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SESWALOG";
/// On-disk format version (bumped on incompatible layout changes). Version
/// 2 writes snapshots as records inside segments, which version-1 builds
/// refuse by this number instead of misreading. Version 3 changes what a
/// snapshot's `utility_bits` mean: Ω by its one definition (the ω fold in
/// event-id order) instead of the engine's running sum of gains, so the Ω
/// half of a snapshot check runs only on version-3 segments.
pub const FORMAT_VERSION: u32 = 3;
/// Bytes of segment header: magic + version.
pub const HEADER_LEN: u64 = 12;

/// Record kind: a session open (payload [`WalOpen`]).
pub const REC_OPEN: u8 = 0x01;
/// Record kind: a session event (payload [`WalEvent`]).
pub const REC_EVENT: u8 = 0x02;
/// Record kind: a session close or departure (payload [`WalClose`]).
pub const REC_CLOSE: u8 = 0x03;
/// Record kind: a full session snapshot (payload [`SessionSnapshot`]).
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
    /// Never fsync an event, open or close record (the OS flushes on its
    /// own schedule): a crash loses the unflushed tail, kept for
    /// benchmarking the framing overhead alone. Snapshot records and
    /// segment seals still sync, since truncation relies on them.
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
/// event since, in application order. This is what snapshot records hold
/// and what migration ships between shards — state is never serialized, only
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

/// Payload of a [`REC_SNAPSHOT`] record: one session's whole journal in a
/// single record, plus cheap integrity checks of the state the journal
/// rebuilds. Recovery starts the session from it, so the session's earlier
/// records are redundant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The record's log sequence number.
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

/// Reads and validates a segment header, returning the segment's format
/// version and its record bytes.
pub fn check_header<'a>(bytes: &'a [u8], path: &Path) -> Result<(u32, &'a [u8]), WalError> {
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != SEGMENT_MAGIC {
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
    Ok((found, &bytes[HEADER_LEN as usize..]))
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

/// Point-in-time WAL accounting, read under the shard's lock (the WAL is
/// owned by its shard, so these are plain counters — no atomics).
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
    /// Snapshot records written since boot.
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
    /// LSN of the open or snapshot record recovery starts the session from.
    start_lsn: u64,
    events_since_snapshot: u64,
    /// The session's state after `journal`, as last reported through
    /// [`ShardWal::maybe_snapshot`] (`None` until reported, and again after
    /// each event until the next report).
    check: Option<SnapshotCheck>,
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
    /// Events logged after the snapshot (or after the open).
    pub tail_events: Vec<SessionEvent>,
    /// LSN of the snapshot record recovery started from (`0` = none).
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
    /// Expected utility Ω bit pattern; `None` for a snapshot from a
    /// version-2 segment, whose bits are the old running sum's.
    pub utility_bits: Option<u64>,
}

/// Everything [`ShardWal::open`] reconstructed from disk, ready to replay
/// through the service (see [`crate::recover_sessions`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredLog {
    /// Sessions alive at the crash/shutdown point, sorted by name.
    pub sessions: Vec<RecoveredSession>,
    /// Records skipped because their session was unknown or closed. Once a
    /// session's open is truncated away, this includes its records that
    /// precede its snapshot in a retained segment.
    pub records_skipped: u64,
    /// Torn-tail description, when the last segment was cleanly truncated.
    pub torn_tail: Option<String>,
    /// Non-tail scan problems (corrupt mid-log segments moved aside,
    /// undecodable records, leftover format-1 snapshot files, …).
    pub scan_errors: Vec<String>,
    /// Highest LSN seen on disk.
    pub max_lsn: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
}

/// Lists the `seg-*.wal` files in `dir` in index order, which is replay
/// order. A `snap-*.snap` file left by a format-1 WAL is named in `notes`
/// and never read: a session that needed it to recover is lost.
pub(crate) fn list_segments(
    dir: &Path,
    notes: &mut Vec<String>,
) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))? {
        let path = entry.map_err(|e| io_err("read dir", dir, e))?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let index = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(index) = index {
            segments.push((index, path));
        } else if name.starts_with("snap-") && name.ends_with(".snap") {
            notes.push(format!(
                "{}: format-1 snapshot file ignored (snapshots are log records since format 2)",
                path.display()
            ));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// Creates segment `index` in `dir`, holding just its header, and syncs the
/// directory so the file's entry survives a power cut along with the
/// records later synced into it.
fn create_segment(dir: &Path, index: u64) -> Result<(PathBuf, File), WalError> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("create segment", &path, e))?;
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.write_all(&header)
        .map_err(|e| io_err("write header", &path, e))?;
    sync_dir(dir)?;
    Ok((path, file))
}

/// Makes the directory's entries (created or removed files) durable.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync dir", dir, e))
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
    /// Test hook: the next append writes only this many bytes of its frame
    /// and then fails, like a write cut short by a full disk.
    #[cfg(test)]
    short_write: Option<usize>,
}

impl ShardWal {
    /// Opens (or creates) the WAL in `cfg.dir`, scanning its segments in
    /// order into a [`RecoveredLog`]. Torn tails are truncated in place;
    /// mid-log corruption moves the unreadable suffix aside (`.corrupt`)
    /// so the log stays prefix-consistent. Never panics on bad bytes.
    pub fn open(cfg: WalConfig) -> Result<(Self, RecoveredLog), WalError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &cfg.dir, e))?;
        let mut log = RecoveredLog::default();
        let segment_files = list_segments(&cfg.dir, &mut log.scan_errors)?;

        // Each live session with the LSN of the record it starts from.
        let mut building: BTreeMap<String, (u64, RecoveredSession)> = BTreeMap::new();
        let mut sealed = Vec::new();
        let mut poisoned_from: Option<usize> = None;
        for (i, (_index, path)) in segment_files.iter().enumerate() {
            if poisoned_from.is_some() {
                break;
            }
            let last_segment = i + 1 == segment_files.len();
            let bytes = read_synced(path)?;
            let (version, records) = match check_header(&bytes, path) {
                Ok(header) => header,
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
                // A skipped record still took its LSN, which the next
                // append must not hand out again.
                let lsn = match decode_into(&rec, version, &mut building) {
                    Ok(lsn) | Err(Skip::Duplicate(lsn)) => lsn,
                    Err(Skip::UnknownSession(lsn)) => {
                        log.records_skipped += 1;
                        lsn
                    }
                    Err(Skip::Bad(detail)) => {
                        log.scan_errors.push(format!(
                            "{}: record at byte {} undecodable: {detail}",
                            path.display(),
                            rec.offset
                        ));
                        log.records_skipped += 1;
                        continue;
                    }
                };
                seg_max_lsn = seg_max_lsn.max(lsn);
                log.max_lsn = log.max_lsn.max(lsn);
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

        // Fresh live segment past everything on disk.
        let segment_index = segment_files.last().map_or(0, |(i, _)| i + 1);
        let (live_path, file) = create_segment(&cfg.dir, segment_index)?;

        // The in-memory mirror and the replay list.
        let mut sessions = BTreeMap::new();
        for (name, (start_lsn, s)) in building {
            let mut events = s.snapshot_events.clone();
            events.extend(s.tail_events.iter().cloned());
            sessions.insert(
                name.clone(),
                SessionState {
                    journal: SessionJournal {
                        name,
                        open: s.open.clone(),
                        events,
                    },
                    start_lsn,
                    events_since_snapshot: s.tail_events.len() as u64,
                    check: None,
                },
            );
            log.sessions.push(s);
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
            #[cfg(test)]
            short_write: None,
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
        self.roll_if_full()?;
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
                    start_lsn: lsn,
                    events_since_snapshot: 0,
                    check: None,
                },
            );
        }
        Ok(lsn)
    }

    /// Appends a session-event record and mirrors it into the session's
    /// journal (events for unknown sessions are logged but not mirrored —
    /// the service rejects them, and recovery skips them identically).
    pub fn append_event(&mut self, name: &str, event: &SessionEvent) -> Result<u64, WalError> {
        self.roll_if_full()?;
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
            s.check = None;
        }
        Ok(lsn)
    }

    /// Appends a close record and drops the session from the mirror.
    pub fn append_close(&mut self, name: &str) -> Result<u64, WalError> {
        self.roll_if_full()?;
        let lsn = self.next_lsn;
        let payload = to_payload(&WalClose {
            lsn,
            name: name.to_owned(),
        })?;
        self.append(REC_CLOSE, &payload)?;
        self.sessions.remove(name);
        Ok(lsn)
    }

    /// Records `scheduled` and `utility` as the state of `name` after its
    /// journal so far — the integrity check its snapshot records carry —
    /// and appends a snapshot record of it once it has accumulated
    /// `cfg.snapshot_every` events since the last one. The shard reports
    /// every live session's state here after each of its events (and after
    /// its open, install or recovery), so a segment roll can re-snapshot a
    /// quiet session (see `roll_if_full`). Returns the snapshot LSN
    /// when one was written.
    pub fn maybe_snapshot(
        &mut self,
        name: &str,
        scheduled: usize,
        utility: f64,
    ) -> Result<Option<u64>, WalError> {
        let Some(s) = self.sessions.get_mut(name) else {
            return Ok(None);
        };
        s.check = Some(SnapshotCheck {
            scheduled,
            utility_bits: Some(utility.to_bits()),
        });
        self.roll_if_full()?;
        let due = self.cfg.snapshot_every > 0
            && self
                .sessions
                .get(name)
                .is_some_and(|s| s.events_since_snapshot >= self.cfg.snapshot_every);
        if !due {
            return Ok(None);
        }
        let lsn = self.append_snapshot(name)?;
        self.truncate_covered();
        Ok(lsn)
    }

    /// Appends a snapshot record of `name` (its journal and reported
    /// state) and makes it the session's start record. `append` syncs the
    /// record under every policy, and only then does the start move.
    /// `None` when the session is gone or its state was never reported.
    fn append_snapshot(&mut self, name: &str) -> Result<Option<u64>, WalError> {
        let lsn = self.next_lsn;
        let Some(s) = self.sessions.get(name) else {
            return Ok(None);
        };
        let Some(SnapshotCheck {
            scheduled,
            utility_bits: Some(utility_bits),
        }) = s.check
        else {
            return Ok(None);
        };
        let payload = to_payload(&SessionSnapshot {
            lsn,
            journal: s.journal.clone(),
            scheduled,
            utility_bits,
        })?;
        self.append(REC_SNAPSHOT, &payload)?;
        if let Some(s) = self.sessions.get_mut(name) {
            s.start_lsn = lsn;
            s.events_since_snapshot = 0;
        }
        self.snapshots_written += 1;
        Ok(Some(lsn))
    }

    /// Removes the session from this WAL for migration: its full journal is
    /// returned, and a close record marks the departure (so recovery never
    /// resurrects it here).
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
    /// cannot spin the WAL-sync thread.
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

    /// Writes one framed record at the end of the live segment and syncs it
    /// as the policy (or, for a snapshot, every policy) asks. A write or
    /// sync that fails cuts the frame off again, so the log never holds a
    /// partial record ahead of later whole ones and a failed append leaves
    /// no record at all.
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), WalError> {
        let start_ns = ses_obs::now_ns();
        let mut buf = Vec::with_capacity(payload.len() + 17);
        encode_record(kind, payload, &mut buf);
        // A snapshot record syncs under every policy: once it is the
        // session's stable point, truncation may delete the segments that
        // hold the session's open and events.
        let synced = kind == REC_SNAPSHOT
            || match self.cfg.fsync {
                FsyncPolicy::PerRecord => true,
                FsyncPolicy::Interval { millis } => {
                    ses_obs::now_ns().saturating_sub(self.last_sync_ns) >= millis * 1_000_000
                }
                FsyncPolicy::Off => false,
            };
        let written = self.write_frame(&buf).and_then(|()| {
            self.dirty_since_sync = true;
            if synced {
                self.fsync()
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            return Err(self.cut_back(e));
        }
        self.live_bytes += buf.len() as u64;
        self.live_max_lsn = self.next_lsn;
        self.records += 1;
        self.appended_bytes += buf.len() as u64;
        self.next_lsn += 1;
        let dur_ns = ses_obs::now_ns().saturating_sub(start_ns);
        self.append_hist.record(dur_ns / 1_000);
        ses_obs::record_span(
            ses_obs::Stage::Wal,
            start_ns,
            dur_ns,
            ses_obs::OpsDelta::default(),
            [buf.len() as u64, u64::from(synced)],
        );
        Ok(())
    }

    fn write_frame(&mut self, buf: &[u8]) -> Result<(), WalError> {
        #[cfg(test)]
        if let Some(n) = self.short_write.take() {
            let _ = self.file.write_all(&buf[..n.min(buf.len())]);
            return Err(io_err(
                "append",
                &self.live_path,
                std::io::Error::other("injected short write"),
            ));
        }
        self.file
            .write_all(buf)
            .map_err(|e| io_err("append", &self.live_path, e))
    }

    /// Cuts the live segment back to its last whole record after a failed
    /// append, and returns the append's error (or, when the cut fails too,
    /// one naming both).
    fn cut_back(&mut self, failed: WalError) -> WalError {
        let cut = self
            .file
            .set_len(self.live_bytes)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.live_bytes)));
        match cut {
            Ok(_) => failed,
            Err(e) => io_err(
                "cut back a failed append",
                &self.live_path,
                std::io::Error::other(format!("{failed}; then: {e}")),
            ),
        }
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

    /// Seals the live segment once it has reached `cfg.segment_bytes` and
    /// starts the next one, before the next record is written. The sealed
    /// segment syncs under every policy: a synced snapshot record only
    /// recovers if every segment before it reads whole. Then every live
    /// session whose start record lies in a sealed segment older than the
    /// one just sealed is snapshotted again, so a quiet session never holds
    /// the log back, and the covered segments are deleted: the log keeps at
    /// most one sealed segment beside the live one (plus, until a session
    /// reports its state, the segments that session holds).
    fn roll_if_full(&mut self) -> Result<(), WalError> {
        if self.live_bytes < self.cfg.segment_bytes {
            return Ok(());
        }
        if self.dirty_since_sync {
            self.fsync()?;
        }
        let (path, file) = create_segment(&self.cfg.dir, self.segment_index + 1)?;
        self.sealed.push(SealedSegment {
            path: std::mem::replace(&mut self.live_path, path),
            max_lsn: self.live_max_lsn,
        });
        self.file = file;
        self.segment_index += 1;
        self.live_bytes = HEADER_LEN;
        self.live_max_lsn = 0;
        let rebased = self.snapshot_laggards();
        self.truncate_covered();
        rebased
    }

    /// Snapshots every session whose start record lies in a sealed segment
    /// other than the newest.
    fn snapshot_laggards(&mut self) -> Result<(), WalError> {
        if self.cfg.snapshot_every == 0 || self.sealed.len() < 2 {
            return Ok(());
        }
        let older = &self.sealed[..self.sealed.len() - 1];
        let held = older.iter().map(|seg| seg.max_lsn).max().unwrap_or(0);
        let laggards: Vec<String> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.start_lsn <= held)
            .map(|(name, _)| name.clone())
            .collect();
        for name in laggards {
            self.append_snapshot(&name)?;
        }
        Ok(())
    }

    /// Deletes sealed segments every live session has outgrown: a segment
    /// is droppable when its highest LSN lies below every session's start
    /// record (its open, or its latest snapshot). With no live sessions,
    /// everything sealed is droppable.
    fn truncate_covered(&mut self) {
        let floor = self
            .sessions
            .values()
            .map(|s| s.start_lsn.saturating_sub(1))
            .min()
            .unwrap_or(u64::MAX);
        let before = self.sealed.len();
        self.sealed
            .retain(|seg| seg.max_lsn > floor || fs::remove_file(&seg.path).is_err());
        let removed = before - self.sealed.len();
        if removed > 0 {
            self.segments_removed += removed as u64;
            // Best effort: a segment whose deletion a power cut undoes
            // holds only records older than every live session's start.
            let _ = sync_dir(&self.cfg.dir);
        }
    }
}

/// Why a record changes no session, with the LSN it took when it has one.
enum Skip {
    UnknownSession(u64),
    /// An open for a name that is already live: the service rejected it.
    Duplicate(u64),
    Bad(String),
}

/// Folds one record into the live sessions, in log order. Returns the
/// record's LSN, or why it changes nothing.
fn decode_into(
    rec: &RawRecord<'_>,
    version: u32,
    building: &mut BTreeMap<String, (u64, RecoveredSession)>,
) -> Result<u64, Skip> {
    match rec.kind {
        REC_OPEN => {
            let WalOpen { lsn, open } = from_payload(rec.payload).map_err(Skip::Bad)?;
            if building.contains_key(&open.name) {
                return Err(Skip::Duplicate(lsn));
            }
            let session = RecoveredSession {
                name: open.name.clone(),
                open,
                snapshot_events: Vec::new(),
                tail_events: Vec::new(),
                snapshot_lsn: 0,
                check: None,
            };
            building.insert(session.name.clone(), (lsn, session));
            Ok(lsn)
        }
        REC_EVENT => {
            let ev: WalEvent = from_payload(rec.payload).map_err(Skip::Bad)?;
            let (_, session) = building
                .get_mut(&ev.name)
                .ok_or(Skip::UnknownSession(ev.lsn))?;
            session.tail_events.push(ev.event);
            Ok(ev.lsn)
        }
        REC_CLOSE => {
            let close: WalClose = from_payload(rec.payload).map_err(Skip::Bad)?;
            building
                .remove(&close.name)
                .ok_or(Skip::UnknownSession(close.lsn))?;
            Ok(close.lsn)
        }
        REC_SNAPSHOT => {
            // The journal holds everything the session's earlier records
            // built (or would have, had truncation kept them): start over
            // from it.
            let snap: SessionSnapshot = from_payload(rec.payload).map_err(Skip::Bad)?;
            let SessionJournal { name, open, events } = snap.journal;
            let session = RecoveredSession {
                name: name.clone(),
                open,
                snapshot_events: events,
                tail_events: Vec::new(),
                snapshot_lsn: snap.lsn,
                check: Some(SnapshotCheck {
                    scheduled: snap.scheduled,
                    utility_bits: (version >= 3).then_some(snap.utility_bits),
                }),
            };
            building.insert(name, (snap.lsn, session));
            Ok(snap.lsn)
        }
        other => Err(Skip::Bad(format!("unknown record kind {other:#04x}"))),
    }
}

/// Reads a segment whole after syncing it: a segment an `off` run left in
/// the page cache becomes durable before any record written after it is.
fn read_synced(path: &Path) -> Result<Vec<u8>, WalError> {
    let mut file = File::open(path).map_err(|e| io_err("read segment", path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .and_then(|_| file.sync_data())
        .map_err(|e| io_err("read segment", path, e))?;
    Ok(bytes)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::SchedulerSpec;
    use ses_service::InstanceName;

    fn open_request(name: &str) -> SessionOpen {
        SessionOpen {
            name: name.to_owned(),
            spec: SchedulerSpec::Greedy,
            k: 2,
            instance: InstanceName::default(),
        }
    }

    /// A write cut short (say by a full disk) is cut off again: the events
    /// acknowledged after it survive reopen, whether the failed record was
    /// an event or a snapshot.
    #[test]
    fn a_short_write_leaves_no_partial_record() {
        for snapshot in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "ses-wal-short-write-{}-{snapshot}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            let cfg = WalConfig {
                fsync: FsyncPolicy::PerRecord,
                snapshot_every: 1,
                ..WalConfig::new(&dir)
            };
            let (mut wal, _) = ShardWal::open(cfg.clone()).expect("fresh open");
            wal.append_open(&open_request("s")).expect("open");
            if snapshot {
                wal.append_event("s", &SessionEvent::Extend).expect("event");
                wal.short_write = Some(20);
                assert!(wal.maybe_snapshot("s", 0, 0.0).is_err());
                assert_eq!(wal.stats().snapshots, 0);
            } else {
                wal.short_write = Some(20);
                assert!(wal.append_event("s", &SessionEvent::Extend).is_err());
            }
            let lsn = wal
                .append_event("s", &SessionEvent::Extend)
                .expect("later event");
            drop(wal);

            let (_wal, log) = ShardWal::open(cfg).expect("reopen");
            assert!(log.torn_tail.is_none(), "{:?}", log.torn_tail);
            assert!(log.scan_errors.is_empty(), "{:?}", log.scan_errors);
            assert_eq!(log.max_lsn, lsn);
            let s = &log.sessions[0];
            let events = s.snapshot_events.len() + s.tail_events.len();
            assert_eq!(events, if snapshot { 2 } else { 1 }, "{s:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
