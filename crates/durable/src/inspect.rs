//! Offline WAL inspection for `ses wal inspect`: walk a `--wal-dir`,
//! decode every shard's segments, and report what a recovery
//! would see — tolerant of torn tails and corruption (that is the point of
//! inspecting), erroring only when the directory itself is unreadable.

use crate::wal::{
    check_header, list_segments, record_kind_name, RawRecord, RecordReader, SessionSnapshot,
    WalClose, WalEvent, WalOpen, HEADER_LEN, REC_CLOSE, REC_EVENT, REC_OPEN, REC_SNAPSHOT,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One decoded record, for `ses wal inspect --records`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordInfo {
    /// Byte offset in the segment file.
    pub offset: u64,
    /// Record kind label (`open`, `event`, `close`, `snapshot`).
    pub kind: String,
    /// Log sequence number.
    pub lsn: u64,
    /// Session the record addresses.
    pub session: String,
    /// Payload bytes.
    pub bytes: u64,
}

/// One segment file's summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentInfo {
    /// File name (`seg-00000003.wal`).
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Whole records decoded.
    pub records: u64,
    /// Lowest LSN in the segment (`0` when empty).
    pub first_lsn: u64,
    /// Highest LSN in the segment.
    pub last_lsn: u64,
    /// Description of the torn/corrupt record that stopped the scan, if
    /// any.
    #[serde(default)]
    pub torn: Option<String>,
}

/// One shard directory's inspection.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardInspection {
    /// Shard directory name (`shard-0`).
    pub dir: String,
    /// Segments, index order.
    pub segments: Vec<SegmentInfo>,
    /// Decoded records across all segments.
    pub records: u64,
    /// Problems found (bad headers, undecodable payloads, leftover
    /// format-1 snapshot files, …).
    #[serde(default)]
    pub errors: Vec<String>,
    /// Decoded records, when requested.
    #[serde(default)]
    pub record_list: Vec<RecordInfo>,
}

/// A whole `--wal-dir` inspection: one entry per `shard-*` subdirectory
/// (or a single synthetic entry when the directory itself is a shard dir).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WalInspection {
    /// Per-shard breakdown.
    pub shards: Vec<ShardInspection>,
}

fn record_info(rec: &RawRecord<'_>) -> Result<RecordInfo, String> {
    let text = std::str::from_utf8(rec.payload).map_err(|e| e.to_string())?;
    let (lsn, session) = match rec.kind {
        REC_OPEN => {
            let p: WalOpen = serde_json::from_str(text).map_err(|e| e.to_string())?;
            (p.lsn, p.open.name)
        }
        REC_EVENT => {
            let p: WalEvent = serde_json::from_str(text).map_err(|e| e.to_string())?;
            (p.lsn, p.name)
        }
        REC_CLOSE => {
            let p: WalClose = serde_json::from_str(text).map_err(|e| e.to_string())?;
            (p.lsn, p.name)
        }
        REC_SNAPSHOT => {
            let p: SessionSnapshot = serde_json::from_str(text).map_err(|e| e.to_string())?;
            (p.lsn, p.journal.name)
        }
        other => return Err(format!("unexpected record kind {other:#04x} in segment")),
    };
    Ok(RecordInfo {
        offset: rec.offset,
        kind: record_kind_name(rec.kind).to_owned(),
        lsn,
        session,
        bytes: rec.payload.len() as u64,
    })
}

fn inspect_shard_dir(dir: &Path, with_records: bool) -> Result<ShardInspection, String> {
    let mut out = ShardInspection {
        dir: dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(".")
            .to_owned(),
        ..ShardInspection::default()
    };
    let segments = list_segments(dir, &mut out.errors).map_err(|e| e.to_string())?;
    for (_, path) in &segments {
        let file = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_owned();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                out.errors.push(format!("read {}: {e}", path.display()));
                continue;
            }
        };
        let mut info = SegmentInfo {
            file,
            bytes: bytes.len() as u64,
            records: 0,
            first_lsn: 0,
            last_lsn: 0,
            torn: None,
        };
        match check_header(&bytes, path) {
            Ok((_, records)) => {
                let mut reader = RecordReader::new(records, HEADER_LEN, path.display().to_string());
                loop {
                    match reader.next() {
                        None => break,
                        Some(Err(e)) => {
                            info.torn = Some(e.to_string());
                            break;
                        }
                        Some(Ok(rec)) => match record_info(&rec) {
                            Ok(ri) => {
                                info.records += 1;
                                if info.first_lsn == 0 {
                                    info.first_lsn = ri.lsn;
                                }
                                info.last_lsn = info.last_lsn.max(ri.lsn);
                                if with_records {
                                    out.record_list.push(ri);
                                }
                            }
                            Err(e) => {
                                out.errors.push(format!(
                                    "{}: byte {}: {e}",
                                    path.display(),
                                    rec.offset
                                ));
                            }
                        },
                    }
                }
            }
            Err(e) => out.errors.push(e.to_string()),
        }
        out.records += info.records;
        out.segments.push(info);
    }
    Ok(out)
}

/// Inspects a `--wal-dir`: every `shard-*` subdirectory, or the directory
/// itself when it contains segments directly.
pub fn inspect_dir(dir: &Path, with_records: bool) -> Result<WalInspection, String> {
    let mut shard_dirs: Vec<std::path::PathBuf> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut has_local_segments = false;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() && name.starts_with("shard-") {
            shard_dirs.push(path);
        } else if name.starts_with("seg-") && name.ends_with(".wal") {
            has_local_segments = true;
        }
    }
    shard_dirs.sort();
    let mut out = WalInspection::default();
    if shard_dirs.is_empty() || has_local_segments {
        out.shards.push(inspect_shard_dir(dir, with_records)?);
    }
    for d in &shard_dirs {
        out.shards.push(inspect_shard_dir(d, with_records)?);
    }
    Ok(out)
}
