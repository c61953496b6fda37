//! # ses-durable — per-shard durability for online scheduling sessions
//!
//! The paper's SES problem is inherently online: events, cancellations and
//! arrivals stream into live [`OnlineSession`]s that, before this crate,
//! lived only in shard memory. `ses-durable` makes a shard's sessions
//! survive a crash and move between shards, with three std-only pieces:
//!
//! * [`ShardWal`] — a per-shard append-only write-ahead log of
//!   [`SessionOpen`]/[`SessionEvent`] wire bodies, in segmented files
//!   framed `[kind][len][payload][checksum]` with the instance store's
//!   four-lane FNV-1a checksum ([`ses_core::FoldState`]), under a
//!   configurable [`FsyncPolicy`] (per-record / interval-batched / off);
//! * per-session **snapshots** ([`SessionSnapshot`]) — the session's
//!   whole journal appended to the live segment as one record, fsynced
//!   whatever the policy, after which the sealed segments every session
//!   has outgrown are deleted; each segment roll also snapshots the
//!   sessions that have gone quiet, so the log keeps at most one sealed
//!   segment beside the live one;
//! * **recovery** ([`recover_sessions`]) — the segments are read in order
//!   and each session starts from its open or its latest snapshot record;
//!   the snapshot's journal, then the events logged after it, replay
//!   through [`SchedulerService::apply`], the same code path that produced
//!   the pre-crash state, and the snapshot's check is verified in between.
//!   Torn tails are detected by checksum and cleanly truncated; corruption
//!   is a typed [`WalError`], never a panic (this crate's request-path
//!   files are under the workspace `server-panic-discipline` lint).
//!
//! Because the log stores *requests*, not state, recovery correctness
//! reduces to the determinism the workspace already pins: the
//! server-vs-simulator replay digest (`ses-server`'s `verify_replay`) must
//! come out bit-identical across a kill-and-recover, which the integration
//! suite and the CI smoke job assert. The same journal-shipping machinery
//! drives live session migration (`POST /admin/rebalance`): with both
//! shards locked, the owning shard extracts the [`SessionJournal`], the
//! target re-logs and replays it, and the server re-routes the name-hash
//! entry. See DESIGN.md §13.
//!
//! [`OnlineSession`]: ses_core::OnlineSession
//! [`SessionOpen`]: ses_service::SessionOpen
//! [`SessionEvent`]: ses_service::SessionEvent
//! [`SchedulerService::apply`]: ses_service::SchedulerService::apply
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod inspect;
mod recover;
mod wal;

pub use inspect::{inspect_dir, RecordInfo, SegmentInfo, ShardInspection, WalInspection};
pub use recover::{recover_sessions, RecoveryReport};
pub use wal::{
    check_header, encode_record, record_kind_name, FsyncPolicy, RawRecord, RecordReader,
    RecoveredLog, RecoveredSession, SessionJournal, SessionSnapshot, ShardWal, SnapshotCheck,
    WalClose, WalConfig, WalError, WalEvent, WalOpen, WalStats, FORMAT_VERSION, HEADER_LEN,
    REC_CLOSE, REC_EVENT, REC_OPEN, REC_SNAPSHOT, SEGMENT_MAGIC,
};
