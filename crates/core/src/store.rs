//! The persisted columnar instance store (`DESIGN.md` §12).
//!
//! A [`SesInstance`] serializes to a versioned on-disk format so a universe
//! is materialized **once** (`ses pack`) and every later boot cold-opens it
//! without re-running a generator or re-sorting posting lists:
//!
//! ```text
//! magic "SESSTORE" · u32 version
//! [u8 section id][u64 payload len][payload][u64 FNV-1a checksum] …
//! META · INTERVALS · EVENTS · COMPETING ·
//! INTEREST_CAND · INTEREST_COMP · ACTIVITY_BY_USER · END
//! ```
//!
//! Everything is little-endian; floats are stored as raw `f64` bits so a
//! reopened instance reproduces Ω and every engine aggregate **bit for
//! bit**. Section checksums are four-lane FNV-1a over little-endian u64
//! *words* of the payload (`FoldState`): detection stays deterministic
//! (every fold step is invertible), but the serial multiply chain of a
//! byte fold is gone — that margin is most of what makes cold-open
//! competitive with an in-memory rebuild.
//! Interest is CSR by event (offsets + user column + µ-bits column);
//! activity σ is CSR by user (offsets + interval column + σ-bits column),
//! exactly the [`Activity`] arrays, which the reader decodes straight into
//! and the engine builds its columns from. σ is stored on that one axis
//! only: the engine's columns are ordered by rank over the candidate
//! union, not by user or interval id, so a second axis would supply
//! nothing the by-user rows do not.
//!
//! The writer streams (section lengths are computed arithmetically up
//! front, payloads never buffered whole) and builds no copy of the
//! instance. The reader never holds a file whole: it reads through
//! positional reads ([`ReadAt`] — `pread` on a `File` for [`open_path`], a
//! `&[u8]` for bytes already in memory). It checks magic and version, then
//! locates every section by reading only its `[id][len]` head and its
//! checksum trailer, so a length the source does not hold is `Truncated`
//! before anything is sized from it. Small sections are read whole and
//! verified before decoding. The heavy CSR sections stream through one
//! reused window per decoder thread (`WINDOW`, 1 MiB): the interest
//! sections take a verify-only fold pass, then a decode pass straight into
//! each event's posting list; the σ section folds and decodes in one pass
//! straight into the `Activity` columns. In every case the checksum is
//! compared before any decoded value is validated or used — the
//! conversions themselves are total, no branch looks at an unvouched
//! value. CSR monotonicity and value ranges (µ and σ in range, each user's
//! intervals strictly ascending and below |T|) are checked after. Every
//! failure is a typed [`StoreError`], never a panic, so a server can
//! lazily open tenant files on the request path (the
//! `server-panic-discipline` lint covers this module); a file that is
//! shorter than its frames claim, including one truncated while it is
//! read, is `Truncated`. With more than one core, the interest sections
//! and the activity section decode on two scoped threads.

use crate::activity::Activity;
use crate::ids::{CompetingEventId, EventId, IntervalId, LocationId, UserId};
use crate::instance::{InstanceBuilder, SesInstance, ValidationError};
use crate::interest::{Interest, Posting};
use crate::model::{CandidateEvent, CompetingEvent, Organizer, TimeInterval};
use crate::util::fnv::{FNV_OFFSET, FNV_PRIME};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic opening every packed instance file.
pub const MAGIC: [u8; 8] = *b"SESSTORE";

/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// Total little-endian conversions for the hot decode loops. Every call
/// site hands over an exactly-sized window (`chunks_exact`, `split_at`, a
/// fixed-size head), so the zero fallback is unreachable — spelled
/// without `expect` to keep this module panic-free *by construction*
/// (the `server-panic-discipline` lint covers it), and any
/// hypothetically wrong width would still be caught by the section
/// checksum or the value validation downstream.
#[inline]
fn le_u64(w: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(w) {
        Ok(a) => u64::from_le_bytes(a),
        Err(_) => 0,
    }
}

#[inline]
fn le_u32(w: &[u8]) -> u32 {
    match <[u8; 4]>::try_from(w) {
        Ok(a) => u32::from_le_bytes(a),
        Err(_) => 0,
    }
}

/// Granularity of the writer's buffering: sections stream through the
/// checksum fold and the underlying writer in chunks of this size, so
/// per-value `put` calls touch only an in-memory window.
const CHUNK: usize = 64 * 1024;

/// Streaming FNV-1a over little-endian **u64 words** of the byte stream,
/// folded across four independent lanes (word i goes to lane i mod 4) that
/// are combined at `finalize`. Word granularity plus four lanes breaks the
/// byte-fold's serial multiply chain — roughly 30× less fold latency, the
/// difference between cold-open beating an in-memory rebuild and losing to
/// it — and detection stays *deterministic*, not probabilistic: every fold
/// step `h' = (h ^ w)·P` with odd `P` is invertible and the lanes combine
/// invertibly, so any change to any word always changes the final hash.
/// The final partial word is zero-padded; truncations that would shift
/// word phase are caught by the length framing before the fold runs.
///
/// `carry`/`carry_len` hold an incomplete trailing word between `update`
/// calls, so the fold can consume arbitrarily-sized chunks.
///
/// Public so other on-disk formats in the workspace (the `ses-durable`
/// WAL records) frame their payloads with the *same* checksum the
/// instance store uses, rather than a second, subtly-different one.
#[derive(Clone, Copy, Debug)]
pub struct FoldState {
    lanes: [u64; 4],
    phase: usize,
    carry: u64,
    carry_len: usize,
}

impl Default for FoldState {
    fn default() -> Self {
        Self::new()
    }
}

impl FoldState {
    /// A fresh fold over the empty stream.
    pub fn new() -> Self {
        Self {
            lanes: [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3],
            phase: 0,
            carry: 0,
            carry_len: 0,
        }
    }

    #[inline]
    fn fold_word(&mut self, word: u64) {
        self.lanes[self.phase] = (self.lanes[self.phase] ^ word).wrapping_mul(FNV_PRIME);
        self.phase = (self.phase + 1) & 3;
    }

    /// Folds `bytes` into the running checksum (chunk boundaries do not
    /// affect the result).
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.carry_len > 0 {
            while self.carry_len < 8 {
                match bytes.split_first() {
                    Some((&b, rest)) => {
                        self.carry |= (b as u64) << (8 * self.carry_len);
                        self.carry_len += 1;
                        bytes = rest;
                    }
                    None => return,
                }
            }
            let word = self.carry;
            self.carry = 0;
            self.carry_len = 0;
            self.fold_word(word);
        }
        // Peel to a lane-aligned phase so the main loop's four lane
        // chains are position-fixed and run as independent pipelines.
        while self.phase != 0 && bytes.len() >= 8 {
            let (w, rest) = bytes.split_at(8);
            self.fold_word(le_u64(w));
            bytes = rest;
        }
        if self.phase == 0 {
            let mut quads = bytes.chunks_exact(32);
            let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
            for q in &mut quads {
                l0 = (l0 ^ le_u64(&q[0..8])).wrapping_mul(FNV_PRIME);
                l1 = (l1 ^ le_u64(&q[8..16])).wrapping_mul(FNV_PRIME);
                l2 = (l2 ^ le_u64(&q[16..24])).wrapping_mul(FNV_PRIME);
                l3 = (l3 ^ le_u64(&q[24..32])).wrapping_mul(FNV_PRIME);
            }
            self.lanes = [l0, l1, l2, l3];
            bytes = quads.remainder();
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold_word(le_u64(w));
        }
        for &b in words.remainder() {
            self.carry |= (b as u64) << (8 * self.carry_len);
            self.carry_len += 1;
        }
    }

    /// Zero-pads any trailing partial word and folds the four lanes into
    /// the final 64-bit checksum.
    pub fn finalize(mut self) -> u64 {
        if self.carry_len > 0 {
            let word = self.carry;
            self.carry = 0;
            self.carry_len = 0;
            self.fold_word(word);
        }
        let mut h = FNV_OFFSET;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

const SEC_META: u8 = 0x01;
const SEC_INTERVALS: u8 = 0x02;
const SEC_EVENTS: u8 = 0x03;
const SEC_COMPETING: u8 = 0x04;
const SEC_INTEREST_CAND: u8 = 0x05;
const SEC_INTEREST_COMP: u8 = 0x06;
const SEC_ACTIVITY_BY_USER: u8 = 0x07;
const SEC_END: u8 = 0xFF;

fn section_name(id: u8) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_INTERVALS => "intervals",
        SEC_EVENTS => "events",
        SEC_COMPETING => "competing",
        SEC_INTEREST_CAND => "interest/candidate",
        SEC_INTEREST_COMP => "interest/competing",
        SEC_ACTIVITY_BY_USER => "activity/by-user",
        SEC_END => "end",
        _ => "unknown",
    }
}

/// Everything that can go wrong packing or opening an instance file.
///
/// `Clone + PartialEq` like the rest of the `ses-core` error hierarchy, so
/// IO failures carry the `std::io::Error` rendering rather than the value.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// An underlying read/write failed.
    Io {
        /// What the store was doing (e.g. `"write section"`).
        op: &'static str,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version in the file.
        found: u32,
        /// The version this build understands.
        supported: u32,
    },
    /// The file ended before a section's promised payload or checksum.
    Truncated {
        /// The section being read when the data ran out.
        section: &'static str,
    },
    /// A section's payload does not hash to its recorded checksum.
    ChecksumMismatch {
        /// The damaged section.
        section: &'static str,
        /// The checksum recorded in the file.
        expected: u64,
        /// The checksum of the bytes actually read.
        actual: u64,
    },
    /// A section id arrived out of the fixed order (or is unknown).
    UnexpectedSection {
        /// The section id found.
        found: u8,
        /// The section id required here.
        expected: u8,
    },
    /// A section decoded but its contents are internally inconsistent
    /// (non-monotone CSR offsets, unordered or out-of-range values).
    Corrupt {
        /// The inconsistent section.
        section: &'static str,
        /// What exactly is wrong.
        detail: String,
    },
    /// The decoded components do not assemble into a valid instance.
    Validation(ValidationError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, message } => write!(f, "store io error during {op}: {message}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a packed SES instance (magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "packed instance format v{found} is not supported (this build reads v{supported})"
            ),
            StoreError::Truncated { section } => {
                write!(f, "packed instance truncated in section '{section}'")
            }
            StoreError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => write!(
                f,
                "section '{section}' checksum mismatch: file says {expected:#018x}, \
                 bytes hash to {actual:#018x}"
            ),
            StoreError::UnexpectedSection { found, expected } => write!(
                f,
                "unexpected section id {found:#04x} (expected {expected:#04x} '{}')",
                section_name(*expected)
            ),
            StoreError::Corrupt { section, detail } => {
                write!(f, "section '{section}' is corrupt: {detail}")
            }
            StoreError::Validation(e) => write!(f, "packed instance fails validation: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidationError> for StoreError {
    fn from(e: ValidationError) -> Self {
        StoreError::Validation(e)
    }
}

fn io_err(op: &'static str, e: io::Error) -> StoreError {
    StoreError::Io {
        op,
        message: e.to_string(),
    }
}

// ---- writing ---------------------------------------------------------------

/// Streams one section: buffers payload bytes in [`CHUNK`]-sized windows,
/// folding each window into the running word-FNV checksum as it drains, so
/// per-value `put` calls are a bounds check and a copy — never a write
/// syscall or a hash step — and the payload is never buffered whole.
struct SectionSink<'a, W: Write> {
    out: &'a mut W,
    fold: FoldState,
    written: u64,
    buf: Vec<u8>,
}

impl<'a, W: Write> SectionSink<'a, W> {
    fn begin(out: &'a mut W, id: u8, payload_len: u64) -> Result<Self, StoreError> {
        out.write_all(&[id])
            .and_then(|()| out.write_all(&payload_len.to_le_bytes()))
            .map_err(|e| io_err("write section header", e))?;
        Ok(Self {
            out,
            fold: FoldState::new(),
            written: 0,
            buf: Vec::with_capacity(CHUNK),
        })
    }

    /// Folds and writes the buffered window.
    fn drain(&mut self) -> Result<(), StoreError> {
        self.fold.update(&self.buf);
        self.out
            .write_all(&self.buf)
            .map_err(|e| io_err("write section payload", e))?;
        self.buf.clear();
        Ok(())
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.written += bytes.len() as u64;
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= CHUNK {
            self.drain()?;
        }
        Ok(())
    }

    fn put_u32(&mut self, v: u32) -> Result<(), StoreError> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> Result<(), StoreError> {
        self.put(&v.to_le_bytes())
    }

    fn put_f64_bits(&mut self, v: f64) -> Result<(), StoreError> {
        self.put_u64(v.to_bits())
    }

    fn put_opt_str(&mut self, s: Option<&str>) -> Result<(), StoreError> {
        match s {
            None => self.put(&[0]),
            Some(s) => {
                self.put(&[1])?;
                self.put_u64(s.len() as u64)?;
                self.put(s.as_bytes())
            }
        }
    }

    /// Closes the section: verifies the promised length was exactly met and
    /// appends the checksum. A mismatch is a bug in the length arithmetic,
    /// reported as a typed error rather than an assertion.
    fn finish(mut self, promised: u64) -> Result<u64, StoreError> {
        if self.written != promised {
            return Err(StoreError::Corrupt {
                section: "writer",
                detail: format!(
                    "section promised {promised} bytes but wrote {}",
                    self.written
                ),
            });
        }
        self.drain()?;
        let hash = self.fold.finalize();
        self.out
            .write_all(&hash.to_le_bytes())
            .map_err(|e| io_err("write section checksum", e))?;
        Ok(1 + 8 + self.written + 8)
    }
}

fn opt_str_len(s: Option<&str>) -> u64 {
    match s {
        None => 1,
        Some(s) => 1 + 8 + s.len() as u64,
    }
}

/// CSR length: `(rows + 1)` u64 offsets + per-entry `u32` id + `u64` bits.
fn csr_len(rows: usize, nnz: usize) -> u64 {
    8 * (rows as u64 + 1) + nnz as u64 * (4 + 8)
}

/// Streams one CSR section straight from its three columns.
fn write_csr<W: Write>(
    out: &mut W,
    id: u8,
    offsets: &[u64],
    ids: &[u32],
    values: &[f64],
) -> Result<u64, StoreError> {
    let len = csr_len(offsets.len() - 1, ids.len());
    let mut sink = SectionSink::begin(out, id, len)?;
    for &offset in offsets {
        sink.put_u64(offset)?;
    }
    for &id in ids {
        sink.put_u32(id)?;
    }
    for &v in values {
        sink.put_f64_bits(v)?;
    }
    sink.finish(len)
}

fn write_postings_csr<W: Write>(
    out: &mut W,
    id: u8,
    lists: &[&[Posting]],
) -> Result<u64, StoreError> {
    let nnz: usize = lists.iter().map(|l| l.len()).sum();
    let len = csr_len(lists.len(), nnz);
    let mut sink = SectionSink::begin(out, id, len)?;
    // Three streamed passes over the same lists: offsets, ids, µ bits.
    let mut offset = 0u64;
    sink.put_u64(0)?;
    for list in lists {
        offset += list.len() as u64;
        sink.put_u64(offset)?;
    }
    for list in lists {
        for &(u, _) in list.iter() {
            sink.put_u32(u.raw())?;
        }
    }
    for list in lists {
        for &(_, mu) in list.iter() {
            sink.put_f64_bits(mu)?;
        }
    }
    sink.finish(len)
}

/// Serializes `inst` to `out` in format v[`FORMAT_VERSION`]; returns the
/// total bytes written. The writer streams — nothing larger than a CSR
/// offset table's row is buffered beyond the instance already in memory.
pub fn write_instance<W: Write>(inst: &SesInstance, mut out: W) -> Result<u64, StoreError> {
    let mut total = 0u64;
    out.write_all(&MAGIC)
        .and_then(|()| out.write_all(&FORMAT_VERSION.to_le_bytes()))
        .map_err(|e| io_err("write header", e))?;
    total += MAGIC.len() as u64 + 4;

    // META: universe counts, budget bits, organizer name.
    let organizer = inst.organizer();
    let meta_len = 8 * 5 + opt_str_len(organizer.name.as_deref());
    let mut sink = SectionSink::begin(&mut out, SEC_META, meta_len)?;
    sink.put_u64(inst.num_users() as u64)?;
    sink.put_u64(inst.num_events() as u64)?;
    sink.put_u64(inst.num_competing() as u64)?;
    sink.put_u64(inst.num_intervals() as u64)?;
    sink.put_f64_bits(organizer.available_resources)?;
    sink.put_opt_str(organizer.name.as_deref())?;
    total += sink.finish(meta_len)?;

    // INTERVALS: (start, end) pairs; ids are dense by validation.
    let intervals_len = 16 * inst.num_intervals() as u64;
    let mut sink = SectionSink::begin(&mut out, SEC_INTERVALS, intervals_len)?;
    for t in inst.intervals() {
        sink.put_u64(t.start)?;
        sink.put_u64(t.end)?;
    }
    total += sink.finish(intervals_len)?;

    // EVENTS: location, ξ bits, name.
    let events_len: u64 = inst
        .events()
        .iter()
        .map(|e| 4 + 8 + opt_str_len(e.name.as_deref()))
        .sum();
    let mut sink = SectionSink::begin(&mut out, SEC_EVENTS, events_len)?;
    for e in inst.events() {
        sink.put_u32(e.location.raw())?;
        sink.put_f64_bits(e.required_resources)?;
        sink.put_opt_str(e.name.as_deref())?;
    }
    total += sink.finish(events_len)?;

    // COMPETING: pinned interval, name.
    let competing_len: u64 = inst
        .competing()
        .iter()
        .map(|c| 4 + opt_str_len(c.name.as_deref()))
        .sum();
    let mut sink = SectionSink::begin(&mut out, SEC_COMPETING, competing_len)?;
    for c in inst.competing() {
        sink.put_u32(c.interval.raw())?;
        sink.put_opt_str(c.name.as_deref())?;
    }
    total += sink.finish(competing_len)?;

    // INTEREST: CSR by event, candidates then competing.
    let interest = inst.interest();
    let cand_lists: Vec<&[Posting]> = (0..inst.num_events())
        .map(|e| interest.interested_users(EventId::new(e as u32).into()))
        .collect();
    total += write_postings_csr(&mut out, SEC_INTEREST_CAND, &cand_lists)?;
    let comp_lists: Vec<&[Posting]> = (0..inst.num_competing())
        .map(|c| interest.interested_users(CompetingEventId::new(c as u32).into()))
        .collect();
    total += write_postings_csr(&mut out, SEC_INTEREST_COMP, &comp_lists)?;

    // ACTIVITY: the by-user CSR exactly as held (the same rows the engine
    // builds columns from).
    let (offsets, intervals, sigmas) = inst.activity().columns();
    total += write_csr(&mut out, SEC_ACTIVITY_BY_USER, offsets, intervals, sigmas)?;

    // END: an empty, checksummed terminator.
    let sink = SectionSink::begin(&mut out, SEC_END, 0)?;
    total += sink.finish(0)?;
    out.flush().map_err(|e| io_err("flush", e))?;
    Ok(total)
}

/// Packs `inst` to a file at `path` (created or truncated); returns the
/// bytes written.
pub fn pack_to_path(inst: &SesInstance, path: &Path) -> Result<u64, StoreError> {
    let file = std::fs::File::create(path).map_err(|e| io_err("create file", e))?;
    let mut out = io::BufWriter::new(file);
    let bytes = write_instance(inst, &mut out)?;
    out.into_inner()
        .map_err(|e| io_err("flush file", e.into_error()))?
        .sync_all()
        .map_err(|e| io_err("sync file", e))?;
    Ok(bytes)
}

// ---- reading ---------------------------------------------------------------

/// Heavy sections (interest + activity CSRs) decode on scoped threads when
/// their combined payload crosses this size; tiny fixture files decode
/// inline so tests don't pay spawn latency.
const PARALLEL_DECODE_BYTES: u64 = 1 << 20;

/// Each decoder thread's read window: heavy sections are read, folded and
/// decoded this many bytes at a time, so no buffer the size of a section
/// (let alone of the file) is ever allocated. A multiple of 8, so every
/// window holds whole values of every column width.
const WINDOW: usize = 1 << 20;

/// A byte source the reader addresses by offset. Reads are positional, so
/// the two decoder threads share one source with no cursor between them,
/// and the reader asks for one window at a time instead of the whole.
///
/// `File` serves [`open_path`] (Unix `pread`); `[u8]` serves bytes already
/// in memory, such as the byte-level fault tests' buffers.
pub trait ReadAt: Sync {
    /// Fills `buf` with the bytes that start at `offset`. A source that
    /// ends first answers [`io::ErrorKind::UnexpectedEof`].
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
}

#[cfg(unix)]
impl ReadAt for std::fs::File {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        // `pread` takes a signed offset and refuses one past `i64::MAX` with
        // `EINVAL`; no file holds such bytes, so that read ends the source,
        // as it does for a `[u8]`.
        let end = offset.checked_add(buf.len() as u64);
        if end.is_none_or(|end| end > i64::MAX as u64) {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }
}

impl ReadAt for [u8] {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let bytes = usize::try_from(offset)
            .ok()
            .and_then(|at| self.get(at..)?.get(..buf.len()));
        match bytes {
            Some(bytes) => {
                buf.copy_from_slice(bytes);
                Ok(())
            }
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }
}

/// A positional read in which running out of bytes — a short file, or
/// one truncated while it is read — is the section's `Truncated`.
fn read_at<S: ReadAt + ?Sized>(
    src: &S,
    buf: &mut [u8],
    offset: u64,
    section: &'static str,
) -> Result<(), StoreError> {
    src.read_exact_at(buf, offset).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { section }
        } else {
            io_err("read", e)
        }
    })
}

fn usize_of(v: u64, section: &'static str, what: &str) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_| StoreError::Corrupt {
        section,
        detail: format!("{what} {v} does not fit this platform's usize"),
    })
}

/// One framed section located in the source: where its payload lies and
/// the checksum its trailer records.
struct Frame {
    section: &'static str,
    start: u64,
    len: u64,
    checksum: u64,
}

impl Frame {
    /// Locates the frame at `*pos`, checking its id against the fixed
    /// section order, and advances `*pos` past it. Only the `[id][len]`
    /// head and the checksum trailer are read, so a length the source does
    /// not hold is `Truncated` before anything is sized from it.
    fn locate<S: ReadAt + ?Sized>(
        src: &S,
        pos: &mut u64,
        expected: u8,
    ) -> Result<Self, StoreError> {
        let section = section_name(expected);
        let mut head = [0u8; 9];
        read_at(src, &mut head, *pos, section)?;
        if head[0] != expected {
            return Err(StoreError::UnexpectedSection {
                found: head[0],
                expected,
            });
        }
        let len = le_u64(&head[1..]);
        let start = pos.saturating_add(9);
        let trailer = start
            .checked_add(len)
            .ok_or(StoreError::Truncated { section })?;
        let mut checksum = [0u8; 8];
        read_at(src, &mut checksum, trailer, section)?;
        *pos = trailer.saturating_add(8);
        Ok(Self {
            section,
            start,
            len,
            checksum: u64::from_le_bytes(checksum),
        })
    }

    /// Compares a finished fold of the payload against the trailer. Every
    /// decoder calls this before any value it parsed is validated or used,
    /// so they only ever act on bytes the checksum has vouched for (they
    /// still validate *values* — a crafted file can checksum anything).
    fn check(&self, fold: FoldState) -> Result<(), StoreError> {
        let actual = fold.finalize();
        if actual != self.checksum {
            return Err(StoreError::ChecksumMismatch {
                section: self.section,
                expected: self.checksum,
                actual,
            });
        }
        Ok(())
    }

    /// Reads a small section (meta, the interval, event and competing
    /// tables, end) whole and verifies its checksum before decoding.
    fn load<S: ReadAt + ?Sized>(&self, src: &S) -> Result<Vec<u8>, StoreError> {
        let mut bytes = vec![0u8; usize_of(self.len, self.section, "section length")?];
        read_at(src, &mut bytes, self.start, self.section)?;
        let mut fold = FoldState::new();
        fold.update(&bytes);
        self.check(fold)?;
        Ok(bytes)
    }

    /// The verify-only pass of a heavy section: folds the payload window
    /// by window and compares the checksum.
    fn verify<S: ReadAt + ?Sized>(&self, src: &S, win: &mut [u8]) -> Result<(), StoreError> {
        let mut fold = FoldState::new();
        let len = usize_of(self.len, self.section, "section length")?;
        Column::new(
            src,
            self.section,
            self.start,
            self.len,
            win,
            Some(&mut fold),
        )
        .windows(len, 1, |_| {})?;
        self.check(fold)
    }

    /// Reads a CSR payload's `rows + 1` offsets, folding them into `fold`
    /// when given. The frame must hold them before they are allocated.
    fn offsets<S: ReadAt + ?Sized>(
        &self,
        src: &S,
        rows: usize,
        win: &mut [u8],
        fold: Option<&mut FoldState>,
    ) -> Result<Vec<u64>, StoreError> {
        let count = rows.saturating_add(1);
        let bytes = (count as u64)
            .checked_mul(8)
            .filter(|&b| b <= self.len)
            .ok_or(StoreError::Truncated {
                section: self.section,
            })?;
        // The range is exactly the offsets, so a folding read folds no
        // byte of the columns behind them.
        Column::new(src, self.section, self.start, bytes, win, fold)
            .collect::<u64, 8>(count, le_u64)
    }

    /// Places a CSR payload's id and value columns behind its offsets,
    /// given the entry count the last offset claims: the payload holds
    /// exactly `8·(rows + 1)` offset bytes, `4·nnz` id bytes and `8·nnz`
    /// value bytes. Returns `(nnz, ids start, values start)`.
    fn csr_columns(&self, rows: usize, nnz: u64) -> Result<(usize, u64, u64), StoreError> {
        let section = self.section;
        let overflow = || StoreError::Corrupt {
            section,
            detail: "value count overflows the payload length".to_owned(),
        };
        let offset_bytes = (rows as u64)
            .checked_add(1)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(overflow)?;
        let need = nnz
            .checked_mul(4 + 8)
            .and_then(|b| b.checked_add(offset_bytes))
            .ok_or_else(overflow)?;
        if need > self.len {
            return Err(StoreError::Truncated { section });
        }
        if need < self.len {
            return Err(StoreError::Corrupt {
                section,
                detail: format!("{} payload bytes left unread", self.len - need),
            });
        }
        let ids = self.start + offset_bytes;
        Ok((
            usize_of(nnz, section, "CSR entry count")?,
            ids,
            ids + 4 * nnz,
        ))
    }
}

/// A forward reader over `len` bytes of a section starting at source
/// offset `start`, read through a window the decoder thread lends it, and
/// folding every window it reads into `fold` when one is given. Window
/// lengths are multiples of 8 and callers read whole columns of one value
/// width, so a window always holds whole values.
struct Column<'a, S: ?Sized> {
    src: &'a S,
    section: &'static str,
    /// Source offset of the first byte not yet read into the window.
    next: u64,
    /// Source offset one past the range.
    end: u64,
    win: &'a mut [u8],
    filled: usize,
    at: usize,
    fold: Option<&'a mut FoldState>,
}

impl<'a, S: ReadAt + ?Sized> Column<'a, S> {
    fn new(
        src: &'a S,
        section: &'static str,
        start: u64,
        len: u64,
        win: &'a mut [u8],
        fold: Option<&'a mut FoldState>,
    ) -> Self {
        Self {
            src,
            section,
            next: start,
            end: start.saturating_add(len),
            win,
            filled: 0,
            at: 0,
            fold,
        }
    }

    /// Reads the next window of the range; `Truncated` if fewer than
    /// `width` bytes of the range remain.
    fn refill(&mut self, width: usize) -> Result<(), StoreError> {
        let left = self.end - self.next;
        let want = usize::try_from(left).map_or(self.win.len(), |l| l.min(self.win.len()));
        let buf = match self.win.get_mut(..want) {
            Some(buf) if want >= width => buf,
            _ => {
                return Err(StoreError::Truncated {
                    section: self.section,
                })
            }
        };
        read_at(self.src, buf, self.next, self.section)?;
        if let Some(fold) = self.fold.as_deref_mut() {
            fold.update(buf);
        }
        self.next += want as u64;
        self.filled = want;
        self.at = 0;
        Ok(())
    }

    /// Hands the next `n` values of `width` bytes to `f`, as many whole
    /// values per call as the window holds. `Truncated` if the range holds
    /// fewer — checked up front, so callers may size an allocation by `n`.
    fn windows(
        &mut self,
        mut n: usize,
        width: usize,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), StoreError> {
        self.holds(n, width)?;
        while n > 0 {
            if self.at == self.filled {
                self.refill(width)?;
            }
            let take = ((self.filled - self.at) / width).min(n);
            if take == 0 {
                return Err(StoreError::Truncated {
                    section: self.section,
                });
            }
            f(&self.win[self.at..self.at + take * width]);
            self.at += take * width;
            n -= take;
        }
        Ok(())
    }

    /// `Truncated` unless the rest of the range holds `n` values of
    /// `width` bytes.
    fn holds(&self, n: usize, width: usize) -> Result<(), StoreError> {
        let left = (self.end - self.next) + (self.filled - self.at) as u64;
        if (n as u64)
            .checked_mul(width as u64)
            .is_none_or(|b| b > left)
        {
            return Err(StoreError::Truncated {
                section: self.section,
            });
        }
        Ok(())
    }

    /// The next `n` values, `W` bytes each, converted by `conv`.
    fn collect<T, const W: usize>(
        &mut self,
        n: usize,
        conv: fn(&[u8]) -> T,
    ) -> Result<Vec<T>, StoreError> {
        self.holds(n, W)?;
        let mut out = Vec::with_capacity(n);
        self.windows(n, W, |bytes| out.extend(bytes.chunks_exact(W).map(conv)))?;
        Ok(out)
    }
}

fn le_f64(w: &[u8]) -> f64 {
    f64::from_bits(le_u64(w))
}

/// A decoder thread's window: [`WINDOW`] bytes, or less for sections
/// smaller than that.
fn window(largest_section: u64) -> Vec<u8> {
    let len = usize::try_from(largest_section).map_or(WINDOW, |l| l.min(WINDOW));
    vec![0u8; len.next_multiple_of(8)]
}

/// Validates a CSR offsets column: starts at 0, monotone non-decreasing.
/// Returns the entry count, the last offset.
fn check_offsets(offsets: &[u64], section: &'static str) -> Result<usize, StoreError> {
    if offsets.first() != Some(&0) {
        return Err(StoreError::Corrupt {
            section,
            detail: "CSR offsets must start at 0".to_owned(),
        });
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return Err(StoreError::Corrupt {
                section,
                detail: format!("CSR offsets decrease ({} then {})", w[0], w[1]),
            });
        }
    }
    usize_of(offsets[offsets.len() - 1], section, "CSR entry count")
}

/// Decodes one interest section into per-event posting lists: a
/// verify-only fold pass over the payload, then one decode pass that reads
/// the id and µ columns side by side (each through half the window)
/// straight into every event's final list.
fn read_postings<S: ReadAt + ?Sized>(
    src: &S,
    frame: &Frame,
    rows: usize,
    win: &mut [u8],
) -> Result<Vec<Box<[Posting]>>, StoreError> {
    frame.verify(src, win)?;
    let section = frame.section;
    let offsets = frame.offsets(src, rows, win, None)?;
    let nnz = check_offsets(&offsets, section)?;
    let (_, ids_at, mus_at) = frame.csr_columns(rows, nnz as u64)?;
    let (id_win, mu_win) = win.split_at_mut(win.len() / 16 * 8);
    let mut ids = Column::new(src, section, ids_at, 4 * nnz as u64, id_win, None);
    let mut mus = Column::new(src, section, mus_at, 8 * nnz as u64, mu_win, None);
    offsets
        .windows(2)
        .map(|row| {
            // Monotone offsets ending at nnz: the row length fits.
            let n = (row[1] - row[0]) as usize;
            let mut list = Vec::with_capacity(n);
            ids.windows(n, 4, |bytes| {
                list.extend(bytes.chunks_exact(4).map(|w| (UserId::new(le_u32(w)), 0.0)));
            })?;
            // The window's values lead the zip, so a window that runs out
            // never pulls (and skips) a list slot.
            let mut slots = list.iter_mut();
            mus.windows(n, 8, |bytes| {
                for (w, slot) in bytes.chunks_exact(8).zip(slots.by_ref()) {
                    slot.1 = le_f64(w);
                }
            })?;
            Ok(list.into_boxed_slice())
        })
        .collect()
}

/// Decodes both interest sections and assembles the validated
/// [`Interest`] (ascending users, µ range re-checked there).
fn decode_interest<S: ReadAt + ?Sized>(
    src: &S,
    cand: &Frame,
    comp: &Frame,
    num_users: usize,
    num_events: usize,
    num_competing: usize,
) -> Result<Interest, StoreError> {
    let mut win = window(cand.len.max(comp.len));
    let cand_lists = read_postings(src, cand, num_events, &mut win)?;
    let comp_lists = read_postings(src, comp, num_competing, &mut win)?;
    Interest::from_sorted_postings(num_users, cand_lists, comp_lists).map_err(|e| {
        StoreError::Corrupt {
            section: "interest/candidate",
            detail: e.to_string(),
        }
    })
}

/// Decodes the by-user activity section into the validated [`Activity`]:
/// one fold-and-decode pass straight into the CSR columns `Activity`
/// adopts, its checksum compared before anything decoded is validated;
/// then every row is checked — strictly ascending interval ids, each below
/// |T|, σ in (0, 1].
fn decode_activity<S: ReadAt + ?Sized>(
    src: &S,
    frame: &Frame,
    num_users: usize,
    num_intervals: usize,
) -> Result<Activity, StoreError> {
    let mut win = window(frame.len);
    let mut fold = FoldState::new();
    let section = frame.section;
    let offsets = frame.offsets(src, num_users, &mut win, Some(&mut fold))?;
    let claimed = offsets.last().copied().unwrap_or(0);
    let (nnz, ids_at, sigmas_at) = frame.csr_columns(num_users, claimed)?;
    let ids_len = 4 * nnz as u64;
    let intervals = Column::new(src, section, ids_at, ids_len, &mut win, Some(&mut fold))
        .collect::<u32, 4>(nnz, le_u32)?;
    let sigmas_len = 8 * nnz as u64;
    let sigmas = Column::new(
        src,
        section,
        sigmas_at,
        sigmas_len,
        &mut win,
        Some(&mut fold),
    )
    .collect::<f64, 8>(nnz, le_f64)?;
    frame.check(fold)?;
    check_offsets(&offsets, section)?;
    let corrupt = |detail| StoreError::Corrupt { section, detail };
    for (u, row) in offsets.windows(2).enumerate() {
        // In range: offsets are monotone and end at intervals.len().
        let (lo, hi) = (row[0] as usize, row[1] as usize);
        let mut last = None;
        for (&t, &sigma) in intervals[lo..hi].iter().zip(&sigmas[lo..hi]) {
            if last.is_some_and(|l| t <= l) {
                return Err(corrupt(format!(
                    "user {u} intervals are not strictly ascending"
                )));
            }
            last = Some(t);
            if t as usize >= num_intervals {
                return Err(corrupt(format!(
                    "user {u} references interval {t} \u{2265} |T| = {num_intervals}"
                )));
            }
            if !(sigma > 0.0 && sigma <= 1.0) {
                return Err(corrupt(format!(
                    "\u{3c3}({u},{t}) = {sigma} is outside (0, 1]"
                )));
            }
        }
    }
    Ok(Activity::from_checked_csr(
        num_intervals,
        offsets,
        intervals,
        sigmas,
    ))
}

/// Decodes scalar and column values off a small section's
/// checksum-verified bytes.
struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SliceSource<'a> {
    fn new(data: &'a [u8], section: &'static str) -> Self {
        Self {
            data,
            pos: 0,
            section,
        }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                section: self.section,
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        // `take_slice(N)` returns exactly N bytes; the zeroed fallback is
        // unreachable, spelled without `expect` (panic discipline).
        Ok(<[u8; N]>::try_from(self.take_slice(N)?).unwrap_or([0; N]))
    }

    fn take_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    fn take_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }

    fn take_f64_bits(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_opt_str(&mut self) -> Result<Option<String>, StoreError> {
        let flag = self.take_arr::<1>()?;
        match flag[0] {
            0 => Ok(None),
            1 => {
                let len = usize_of(self.take_u64()?, self.section, "string length")?;
                let bytes = self.take_slice(len)?;
                String::from_utf8(bytes.to_vec())
                    .map(Some)
                    .map_err(|_| StoreError::Corrupt {
                        section: self.section,
                        detail: "name is not valid UTF-8".to_owned(),
                    })
            }
            other => Err(StoreError::Corrupt {
                section: self.section,
                detail: format!("optional-string flag must be 0 or 1, found {other}"),
            }),
        }
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt {
                section: self.section,
                detail: format!("{} payload bytes left unread", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Reads a packed instance from a positional source — [`open_path`]
/// passes the file, bytes already in memory pass a `&[u8]`. Checks magic
/// and version, locates every framed section by its head and trailer,
/// decodes the small sections (each verified whole first), then decodes
/// the heavy CSR sections through read windows — the interest group and
/// the activity group on two scoped threads when there is more than one
/// core to use — and assembles through [`InstanceBuilder`] (which re-runs
/// full instance validation).
pub fn read_instance<S: ReadAt + ?Sized>(src: &S) -> Result<Arc<SesInstance>, StoreError> {
    let mut magic = [0u8; 8];
    read_at(src, &mut magic, 0, "header")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let mut version = [0u8; 4];
    read_at(src, &mut version, MAGIC.len() as u64, "header")?;
    let version = u32::from_le_bytes(version);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    let mut pos = MAGIC.len() as u64 + 4;
    let meta_sec = Frame::locate(src, &mut pos, SEC_META)?;
    let intervals_sec = Frame::locate(src, &mut pos, SEC_INTERVALS)?;
    let events_sec = Frame::locate(src, &mut pos, SEC_EVENTS)?;
    let competing_sec = Frame::locate(src, &mut pos, SEC_COMPETING)?;
    let cand_sec = Frame::locate(src, &mut pos, SEC_INTEREST_CAND)?;
    let comp_sec = Frame::locate(src, &mut pos, SEC_INTEREST_COMP)?;
    let by_user_sec = Frame::locate(src, &mut pos, SEC_ACTIVITY_BY_USER)?;
    let end_sec = Frame::locate(src, &mut pos, SEC_END)?;
    if !end_sec.load(src)?.is_empty() {
        return Err(StoreError::Corrupt {
            section: "end",
            detail: "END section must be empty".to_owned(),
        });
    }

    // META.
    let bytes = meta_sec.load(src)?;
    let mut src_meta = SliceSource::new(&bytes, meta_sec.section);
    let num_users = usize_of(src_meta.take_u64()?, "meta", "user count")?;
    let num_events = usize_of(src_meta.take_u64()?, "meta", "event count")?;
    let num_competing = usize_of(src_meta.take_u64()?, "meta", "competing count")?;
    let num_intervals = usize_of(src_meta.take_u64()?, "meta", "interval count")?;
    let budget = src_meta.take_f64_bits()?;
    let organizer_name = src_meta.take_opt_str()?;
    src_meta.finish()?;
    let organizer = match organizer_name {
        Some(name) => Organizer::named(budget, name),
        None => Organizer::new(budget),
    };

    // INTERVALS.
    let bytes = intervals_sec.load(src)?;
    let mut table = SliceSource::new(&bytes, intervals_sec.section);
    let mut intervals = Vec::with_capacity(num_intervals.min(1 << 20));
    for t in 0..num_intervals {
        let start = table.take_u64()?;
        let end = table.take_u64()?;
        // `TimeInterval::new` asserts end > start — a fine contract for
        // construction bugs, but these values come from a file (the
        // checksum vouches for transport, not for what was written), so
        // reject them as data.
        if end <= start {
            return Err(StoreError::Corrupt {
                section: section_name(SEC_INTERVALS),
                detail: format!("interval {t} has end {end} <= start {start}"),
            });
        }
        intervals.push(TimeInterval::new(IntervalId::new(t as u32), start, end));
    }
    table.finish()?;

    // EVENTS.
    let bytes = events_sec.load(src)?;
    let mut table = SliceSource::new(&bytes, events_sec.section);
    let mut events = Vec::with_capacity(num_events.min(1 << 20));
    for e in 0..num_events {
        let location = LocationId::new(table.take_u32()?);
        let xi = table.take_f64_bits()?;
        let ev = match table.take_opt_str()? {
            Some(name) => CandidateEvent::named(EventId::new(e as u32), location, xi, name),
            None => CandidateEvent::new(EventId::new(e as u32), location, xi),
        };
        events.push(ev);
    }
    table.finish()?;

    // COMPETING.
    let bytes = competing_sec.load(src)?;
    let mut table = SliceSource::new(&bytes, competing_sec.section);
    let mut competing = Vec::with_capacity(num_competing.min(1 << 20));
    for c in 0..num_competing {
        let interval = IntervalId::new(table.take_u32()?);
        let ev = match table.take_opt_str()? {
            Some(name) => CompetingEvent::named(CompetingEventId::new(c as u32), interval, name),
            None => CompetingEvent::new(CompetingEventId::new(c as u32), interval),
        };
        competing.push(ev);
    }
    table.finish()?;

    // The heavy sections: interest CSRs → Interest, the activity CSR →
    // Activity. They are independent byte ranges of one positional
    // source, so decode the two groups on scoped threads when the payload
    // is big enough to pay for the spawn.
    let interest = || {
        decode_interest(
            src,
            &cand_sec,
            &comp_sec,
            num_users,
            num_events,
            num_competing,
        )
    };
    let activity = || decode_activity(src, &by_user_sec, num_users, num_intervals);
    let heavy = cand_sec.len + comp_sec.len + by_user_sec.len;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (interest, activity) = if cores > 1 && heavy >= PARALLEL_DECODE_BYTES {
        std::thread::scope(|scope| {
            let interest = scope.spawn(interest);
            let activity = activity();
            (joined(interest), activity)
        })
    } else {
        (interest(), activity())
    };

    InstanceBuilder::default()
        .organizer(organizer)
        .intervals(intervals)
        .events(events)
        .competing(competing)
        .interest(interest?)
        .activity(activity?)
        .build_shared()
        .map_err(StoreError::from)
}

/// Collapses a scoped decode thread's result; a panicked decoder (which
/// the panic-discipline lint forbids in the first place) surfaces as a
/// typed error rather than propagating the panic to the caller.
fn joined<T>(
    handle: std::thread::ScopedJoinHandle<'_, Result<T, StoreError>>,
) -> Result<T, StoreError> {
    match handle.join() {
        Ok(res) => res,
        Err(_) => Err(StoreError::Corrupt {
            section: "decoder",
            detail: "section decoder thread panicked".to_owned(),
        }),
    }
}

/// Opens a packed instance file: [`read_instance`] over positional reads
/// of the file, so no buffer the size of the file or of a heavy section
/// is ever allocated.
pub fn open_path(path: &Path) -> Result<Arc<SesInstance>, StoreError> {
    let file = std::fs::File::open(path).map_err(|e| io_err("open file", e))?;
    read_instance(&file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    fn packed(seed: u64) -> Vec<u8> {
        let inst = testkit::medium_instance(seed);
        let mut buf = Vec::new();
        let bytes = write_instance(&inst, &mut buf).unwrap();
        assert_eq!(bytes as usize, buf.len());
        buf
    }

    #[test]
    fn roundtrip_preserves_shape_and_values() {
        let inst = testkit::medium_instance(3);
        let mut buf = Vec::new();
        write_instance(&inst, &mut buf).unwrap();
        let reopened = read_instance(&buf[..]).unwrap();
        assert_eq!(reopened.num_users(), inst.num_users());
        assert_eq!(reopened.num_events(), inst.num_events());
        assert_eq!(reopened.num_intervals(), inst.num_intervals());
        assert_eq!(reopened.num_competing(), inst.num_competing());
        assert_eq!(reopened.budget().to_bits(), inst.budget().to_bits());
        assert_eq!(reopened.interest().nnz(), inst.interest().nnz());
        for u in 0..inst.num_users() as u32 {
            for t in 0..inst.num_intervals() as u32 {
                assert_eq!(
                    reopened.sigma(UserId::new(u), IntervalId::new(t)).to_bits(),
                    inst.sigma(UserId::new(u), IntervalId::new(t)).to_bits(),
                );
            }
            for e in 0..inst.num_events() as u32 {
                assert_eq!(
                    reopened.mu(UserId::new(u), EventId::new(e)).to_bits(),
                    inst.mu(UserId::new(u), EventId::new(e)).to_bits(),
                );
            }
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = packed(1);
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_instance(&buf[..]),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut buf = packed(1);
        buf[8] = 0xEE;
        assert!(matches!(
            read_instance(&buf[..]),
            Err(StoreError::UnsupportedVersion { found, .. }) if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let buf = packed(2);
        // Cutting the stream at any point must yield a typed error, never a
        // panic. Step through a spread of prefixes including the tail.
        for cut in (0..buf.len()).step_by(97).chain([buf.len() - 1]) {
            let err = read_instance(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::Corrupt { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let clean = packed(3);
        // Flip a byte in every region of the file; the reader must reject
        // each damaged copy with a typed error (usually a checksum
        // mismatch) — silent acceptance would defeat the format.
        for pos in (12..clean.len()).step_by(211) {
            let mut buf = clean.clone();
            buf[pos] ^= 0x20;
            assert!(
                read_instance(&buf[..]).is_err(),
                "bit flip at {pos} was accepted"
            );
        }
    }

    #[test]
    fn display_messages_are_informative() {
        let e = StoreError::ChecksumMismatch {
            section: "meta",
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("meta"));
        let e = StoreError::UnsupportedVersion {
            found: 9,
            supported: FORMAT_VERSION,
        };
        assert!(e.to_string().contains("v9"));
        let e = StoreError::Io {
            op: "open file",
            message: "denied".to_owned(),
        };
        assert!(e.to_string().contains("open file"));
    }
}
