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
//! INTEREST_CAND · INTEREST_COMP ·
//! ACTIVITY_BY_USER · ACTIVITY_BY_INTERVAL · END
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
//! activity σ is CSR by *both* axes — the by-user copy is exactly the
//! [`Activity`] arrays, which the reader adopts as they are decoded, while
//! the by-interval copy is the layout a streaming per-interval column
//! build wants and doubles as a structural end-to-end check: the reader
//! verifies the two are exact transposes before accepting the file.
//!
//! The writer streams (section lengths are computed arithmetically up
//! front, payloads never buffered whole); the only copy it builds is the
//! flat by-interval transpose of σ. The reader checks magic and
//! version, slurps the framed sections, and indexes them by slicing;
//! small sections verify their checksum before decoding, while the heavy
//! CSR columns fold the checksum *while* parsing in cache-sized windows
//! (one memory pass instead of two) and compare it before any parsed
//! value is validated or used — the conversions themselves are total, no
//! branch looks at an unvouched value. CSR monotonicity, value ranges and
//! the transpose cross-check run after. Every failure is a typed
//! [`StoreError`], never a panic, so a server can lazily open tenant
//! files on the request path (the `server-panic-discipline` lint covers
//! this module). With more than one core, the interest and activity
//! section groups decode on scoped threads.

use crate::activity::Activity;
use crate::ids::{CompetingEventId, EventId, IntervalId, LocationId, UserId};
use crate::instance::{InstanceBuilder, SesInstance, ValidationError};
use crate::interest::{Interest, Posting};
use crate::model::{CandidateEvent, CompetingEvent, Organizer, TimeInterval};
use crate::util::fnv::{FNV_OFFSET, FNV_PRIME};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic opening every packed instance file.
pub const MAGIC: [u8; 8] = *b"SESSTORE";

/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 1;

/// Total little-endian conversions for the hot decode loops. Every call
/// site hands over an exactly-sized window (`chunks_exact`, `split_at`,
/// `take_slice(N)`), so the zero fallback is unreachable — spelled
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

/// Granularity of sink/source buffering: sections stream through the
/// checksum fold and the underlying reader/writer in chunks of this size,
/// so per-value `put`/`take` calls touch only an in-memory window.
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
const SEC_ACTIVITY_BY_INTERVAL: u8 = 0x08;
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
        SEC_ACTIVITY_BY_INTERVAL => "activity/by-interval",
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
    /// (non-monotone CSR offsets, out-of-range values, transpose mismatch).
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

/// The by-interval transpose of σ's by-user CSR: one count pass, a prefix
/// sum and one scatter. Users are scattered in ascending order, so each
/// interval's row lists its users ascending.
fn transpose(activity: &Activity) -> (Vec<u64>, Vec<u32>, Vec<f64>) {
    let (offsets, intervals, sigmas) = activity.columns();
    let nt = activity.num_intervals();
    let mut t_offsets = vec![0u64; nt + 1];
    for &t in intervals {
        t_offsets[t as usize + 1] += 1;
    }
    for t in 0..nt {
        t_offsets[t + 1] += t_offsets[t];
    }
    let mut cursor: Vec<usize> = t_offsets[..nt].iter().map(|&o| o as usize).collect();
    let mut users = vec![0u32; intervals.len()];
    let mut values = vec![0.0f64; intervals.len()];
    for (u, row) in offsets.windows(2).enumerate() {
        let (lo, hi) = (row[0] as usize, row[1] as usize);
        for (&t, &sigma) in intervals[lo..hi].iter().zip(&sigmas[lo..hi]) {
            let slot = &mut cursor[t as usize];
            users[*slot] = u as u32;
            values[*slot] = sigma;
            *slot += 1;
        }
    }
    (t_offsets, users, values)
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
    // builds columns from), then its by-interval transpose.
    let (offsets, intervals, sigmas) = inst.activity().columns();
    total += write_csr(&mut out, SEC_ACTIVITY_BY_USER, offsets, intervals, sigmas)?;
    let (offsets, users, sigmas) = transpose(inst.activity());
    total += write_csr(
        &mut out,
        SEC_ACTIVITY_BY_INTERVAL,
        &offsets,
        &users,
        &sigmas,
    )?;

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
const PARALLEL_DECODE_BYTES: usize = 1 << 20;

/// One indexed section: its payload slice and recorded checksum trailer.
struct RawSection<'a> {
    section: &'static str,
    payload: &'a [u8],
    checksum: u64,
}

impl<'a> RawSection<'a> {
    /// Folds the payload and compares against the recorded trailer. Called
    /// before any value is decoded, so decoders only ever see bytes the
    /// checksum has vouched for (they still validate *values* — a crafted
    /// file can checksum anything).
    fn verify(&self) -> Result<(), StoreError> {
        let mut fold = FoldState::new();
        fold.update(self.payload);
        self.check(fold)
    }

    /// Compares a finished fold against the stored checksum. Lets hot
    /// decoders fold the payload in cache-sized windows *while* parsing
    /// (one DRAM pass instead of two) and still refuse the section before
    /// any parsed value is validated or used.
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

    fn source(&self) -> SliceSource<'a> {
        SliceSource {
            data: self.payload,
            pos: 0,
            section: self.section,
        }
    }
}

/// Splits the next framed section off the front of `bytes`, checking the
/// id against the fixed section order. Only slices — a corrupt length can
/// never drive an allocation, just a typed error.
fn next_section<'a>(bytes: &mut &'a [u8], expected: u8) -> Result<RawSection<'a>, StoreError> {
    let section = section_name(expected);
    let (&id, rest) = match bytes.split_first() {
        Some(split) => split,
        None => return Err(StoreError::Truncated { section }),
    };
    if id != expected {
        return Err(StoreError::UnexpectedSection {
            found: id,
            expected,
        });
    }
    if rest.len() < 8 {
        return Err(StoreError::Truncated { section });
    }
    let (len_bytes, rest) = rest.split_at(8);
    let len = usize_of(le_u64(len_bytes), section, "section length")?;
    if rest.len() < len || rest.len() - len < 8 {
        return Err(StoreError::Truncated { section });
    }
    let (payload, rest) = rest.split_at(len);
    let (sum_bytes, rest) = rest.split_at(8);
    *bytes = rest;
    Ok(RawSection {
        section,
        payload,
        checksum: le_u64(sum_bytes),
    })
}

/// Decodes scalar and column values off a checksum-verified payload slice.
struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SliceSource<'a> {
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

    /// `n` values * `size` bytes with overflow-checked arithmetic, so a
    /// corrupt count from a checksum-valid crafted file cannot wrap.
    fn take_values(&mut self, n: usize, size: usize) -> Result<&'a [u8], StoreError> {
        let bytes = n.checked_mul(size).ok_or(StoreError::Corrupt {
            section: self.section,
            detail: "value count overflows the payload length".to_owned(),
        })?;
        self.take_slice(bytes)
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

    /// Bulk column reads: one `chunks_exact` pass straight off the slice.
    /// The output allocation is bounded by bytes actually present — the
    /// slice is taken first.
    fn take_u64s(&mut self, n: usize) -> Result<Vec<u64>, StoreError> {
        let bytes = self.take_values(n, 8)?;
        Ok(bytes.chunks_exact(8).map(le_u64).collect())
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

/// Fold-while-parse column readers: each [`CHUNK`]-sized window is folded
/// into the running checksum and converted while it is still cache-hot,
/// so a column costs one DRAM pass instead of a verify pass plus a parse
/// pass. `CHUNK` is a multiple of 8 (and 4), so window boundaries never
/// split an element. The conversions are total — no branch looks at a
/// value — and callers compare the finished fold against the stored
/// checksum before validating or using anything parsed here.
fn fold_u64s(fold: &mut FoldState, bytes: &[u8]) -> Vec<u64> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    for win in bytes.chunks(CHUNK) {
        fold.update(win);
        out.extend(win.chunks_exact(8).map(le_u64));
    }
    out
}

fn fold_u32s(fold: &mut FoldState, bytes: &[u8]) -> Vec<u32> {
    let mut out = Vec::with_capacity(bytes.len() / 4);
    for win in bytes.chunks(CHUNK) {
        fold.update(win);
        out.extend(win.chunks_exact(4).map(le_u32));
    }
    out
}

fn fold_f64s(fold: &mut FoldState, bytes: &[u8]) -> Vec<f64> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    for win in bytes.chunks(CHUNK) {
        fold.update(win);
        out.extend(win.chunks_exact(8).map(|w| f64::from_bits(le_u64(w))));
    }
    out
}

fn read_exact<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    section: &'static str,
) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| {
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

/// One CSR matrix read back whole: offsets plus parallel id/value columns.
struct Csr {
    offsets: Vec<u64>,
    ids: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (&self.ids[lo..hi], &self.values[lo..hi])
    }
}

/// Validates a CSR offsets column: starts at 0, monotone non-decreasing.
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

/// Decodes one SoA CSR section into owned columns, folding the checksum
/// while parsing. The trailing offset only *sizes* the column takes until
/// the checksum is compared — `take_values` bounds every take (and the
/// matching allocation) by the bytes actually present, so a corrupt
/// length fails with a typed error instead of a huge allocation.
fn read_csr(sec: &RawSection<'_>, rows: usize) -> Result<Csr, StoreError> {
    let mut fold = FoldState::new();
    let mut src = sec.source();
    let section = src.section;
    let offsets = fold_u64s(&mut fold, src.take_values(rows + 1, 8)?);
    let nnz = usize_of(offsets[rows], section, "CSR entry count")?;
    let ids = fold_u32s(&mut fold, src.take_values(nnz, 4)?);
    let values = fold_f64s(&mut fold, src.take_values(nnz, 8)?);
    src.finish()?;
    sec.check(fold)?;
    check_offsets(&offsets, section)?;
    Ok(Csr {
        offsets,
        ids,
        values,
    })
}

/// Decodes one interest CSR section into per-row boxed posting lists,
/// folding the checksum while parsing. Both columns are parsed in bulk
/// first (those loops vectorise), then each row interleaves its slice
/// windows — after the checksum comparison has accepted the section.
fn read_postings(sec: &RawSection<'_>, rows: usize) -> Result<Vec<Box<[Posting]>>, StoreError> {
    let mut fold = FoldState::new();
    let mut src = sec.source();
    let section = src.section;
    let offsets = fold_u64s(&mut fold, src.take_values(rows + 1, 8)?);
    let nnz = usize_of(offsets[rows], section, "CSR entry count")?;
    let ids = fold_u32s(&mut fold, src.take_values(nnz, 4)?);
    let mus = fold_f64s(&mut fold, src.take_values(nnz, 8)?);
    src.finish()?;
    sec.check(fold)?;
    check_offsets(&offsets, section)?;
    let lists = (0..rows)
        .map(|r| {
            // In range: offsets are monotone and end at nnz.
            let lo = offsets[r] as usize;
            let hi = offsets[r + 1] as usize;
            ids[lo..hi]
                .iter()
                .zip(&mus[lo..hi])
                .map(|(&u, &mu)| (UserId::new(u), mu))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
        .collect();
    Ok(lists)
}

/// Decodes both interest sections and assembles the validated
/// [`Interest`] (ascending users, µ range re-checked there).
fn decode_interest(
    cand: &RawSection<'_>,
    comp: &RawSection<'_>,
    num_users: usize,
    num_events: usize,
    num_competing: usize,
) -> Result<Interest, StoreError> {
    let cand_lists = read_postings(cand, num_events)?;
    let comp_lists = read_postings(comp, num_competing)?;
    Interest::from_sorted_postings(num_users, cand_lists, comp_lists).map_err(|e| {
        StoreError::Corrupt {
            section: "interest/candidate",
            detail: e.to_string(),
        }
    })
}

/// Reads a packed instance from `input`: magic and version are checked
/// off the stream first (a wrong file type fails before any slurp), then
/// the framed sections are read to the end and handed to the slice
/// parser. Prefer [`open_path`] for files — it reads with an exact-size
/// allocation instead of growing through `read_to_end`.
pub fn read_instance<R: Read>(mut input: R) -> Result<Arc<SesInstance>, StoreError> {
    let mut magic = [0u8; 8];
    read_exact(&mut input, &mut magic, "header")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let mut version = [0u8; 4];
    read_exact(&mut input, &mut version, "header")?;
    let version = u32::from_le_bytes(version);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    // Slurp the framed sections — transient memory on the order of the
    // file, strictly smaller than the instance being assembled.
    let mut bytes = Vec::new();
    input
        .read_to_end(&mut bytes)
        .map_err(|e| io_err("read sections", e))?;
    parse_sections(&bytes)
}

/// Parses the framed sections that follow the 12-byte header: indexes
/// them by slicing, verifies every section's checksum *before* its
/// values are decoded, decodes the heavy CSR sections on scoped threads
/// when there is more than one core to use, cross-checks the by-user /
/// by-interval activity transpose, and assembles through
/// [`InstanceBuilder`] (which re-runs full instance validation).
fn parse_sections(bytes: &[u8]) -> Result<Arc<SesInstance>, StoreError> {
    let mut rest: &[u8] = bytes;
    let meta_sec = next_section(&mut rest, SEC_META)?;
    let intervals_sec = next_section(&mut rest, SEC_INTERVALS)?;
    let events_sec = next_section(&mut rest, SEC_EVENTS)?;
    let competing_sec = next_section(&mut rest, SEC_COMPETING)?;
    let cand_sec = next_section(&mut rest, SEC_INTEREST_CAND)?;
    let comp_sec = next_section(&mut rest, SEC_INTEREST_COMP)?;
    let by_user_sec = next_section(&mut rest, SEC_ACTIVITY_BY_USER)?;
    let by_interval_sec = next_section(&mut rest, SEC_ACTIVITY_BY_INTERVAL)?;
    let end_sec = next_section(&mut rest, SEC_END)?;
    end_sec.verify()?;
    if !end_sec.payload.is_empty() {
        return Err(StoreError::Corrupt {
            section: "end",
            detail: "END section must be empty".to_owned(),
        });
    }

    // META.
    meta_sec.verify()?;
    let mut src = meta_sec.source();
    let num_users = usize_of(src.take_u64()?, "meta", "user count")?;
    let num_events = usize_of(src.take_u64()?, "meta", "event count")?;
    let num_competing = usize_of(src.take_u64()?, "meta", "competing count")?;
    let num_intervals = usize_of(src.take_u64()?, "meta", "interval count")?;
    let budget = src.take_f64_bits()?;
    let organizer_name = src.take_opt_str()?;
    src.finish()?;
    let organizer = match organizer_name {
        Some(name) => Organizer::named(budget, name),
        None => Organizer::new(budget),
    };

    // INTERVALS.
    intervals_sec.verify()?;
    let mut src = intervals_sec.source();
    let mut intervals = Vec::with_capacity(num_intervals.min(1 << 20));
    for t in 0..num_intervals {
        let start = src.take_u64()?;
        let end = src.take_u64()?;
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
    src.finish()?;

    // EVENTS.
    events_sec.verify()?;
    let mut src = events_sec.source();
    let mut events = Vec::with_capacity(num_events.min(1 << 20));
    for e in 0..num_events {
        let location = LocationId::new(src.take_u32()?);
        let xi = src.take_f64_bits()?;
        let ev = match src.take_opt_str()? {
            Some(name) => CandidateEvent::named(EventId::new(e as u32), location, xi, name),
            None => CandidateEvent::new(EventId::new(e as u32), location, xi),
        };
        events.push(ev);
    }
    src.finish()?;

    // COMPETING.
    competing_sec.verify()?;
    let mut src = competing_sec.source();
    let mut competing = Vec::with_capacity(num_competing.min(1 << 20));
    for c in 0..num_competing {
        let interval = IntervalId::new(src.take_u32()?);
        let ev = match src.take_opt_str()? {
            Some(name) => CompetingEvent::named(CompetingEventId::new(c as u32), interval, name),
            None => CompetingEvent::new(CompetingEventId::new(c as u32), interval),
        };
        competing.push(ev);
    }
    src.finish()?;

    // The heavy sections: interest CSRs → Interest, activity by-user
    // CSR (+ per-entry validation), activity by-interval CSR. They are
    // independent byte ranges, so decode them on scoped threads when the
    // payload is big enough to pay for the spawns.
    let heavy = cand_sec.payload.len()
        + comp_sec.payload.len()
        + by_user_sec.payload.len()
        + by_interval_sec.payload.len();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (interest, by_user) = if cores > 1 && heavy >= PARALLEL_DECODE_BYTES {
        std::thread::scope(|scope| {
            let interest = scope.spawn(|| {
                decode_interest(&cand_sec, &comp_sec, num_users, num_events, num_competing)
            });
            let by_user = read_csr(&by_user_sec, num_users).and_then(|by_user| {
                verify_activity(&by_user, &by_interval_sec, num_users, num_intervals)?;
                Ok(by_user)
            });
            (joined(interest), by_user)
        })
    } else {
        let by_user = read_csr(&by_user_sec, num_users).and_then(|by_user| {
            verify_activity(&by_user, &by_interval_sec, num_users, num_intervals)?;
            Ok(by_user)
        });
        (
            decode_interest(&cand_sec, &comp_sec, num_users, num_events, num_competing),
            by_user,
        )
    };
    let (interest, by_user) = (interest?, by_user?);
    // `verify_activity` checked the by-user rows: ascending in-range
    // intervals and σ in (0, 1].
    let activity =
        Activity::from_checked_csr(num_intervals, by_user.offsets, by_user.ids, by_user.values);

    InstanceBuilder::default()
        .organizer(organizer)
        .intervals(intervals)
        .events(events)
        .competing(competing)
        .interest(interest)
        .activity(activity)
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

/// Opens a packed instance file. Reads the whole file with an
/// exact-size allocation (`fs::read` pre-sizes from metadata) — on a
/// page-cached file this is one copy, several times faster than growing
/// a buffer through `read_to_end`.
pub fn open_path(path: &Path) -> Result<Arc<SesInstance>, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("open file", e))?;
    let Some((magic, rest)) = bytes.split_first_chunk::<8>() else {
        return Err(StoreError::Truncated { section: "header" });
    };
    if *magic != MAGIC {
        return Err(StoreError::BadMagic { found: *magic });
    }
    let Some((version, rest)) = rest.split_first_chunk::<4>() else {
        return Err(StoreError::Truncated { section: "header" });
    };
    let version = u32::from_le_bytes(*version);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    parse_sections(rest)
}

/// Verifies the by-interval activity section against the decoded by-user
/// copy in one fused pass, without materialising the transpose: checksum
/// first, then the offsets column, then a cursor walk that validates the
/// by-user values (strictly ascending intervals per user, interval ids in
/// range, σ in (0, 1]) while decoding each by-interval entry straight
/// off the payload bytes and checking the transpose is *exact* — same
/// entry count, every `(u, t, σ)` of the by-user copy present at
/// `(t, u)` with bit-identical σ, no surplus entries. `O(nnz)` because
/// both sides are sorted; the walk touches each by-interval entry once.
fn verify_activity(
    by_user: &Csr,
    sec: &RawSection<'_>,
    num_users: usize,
    num_intervals: usize,
) -> Result<(), StoreError> {
    sec.verify()?;
    let mut src = sec.source();
    let section = src.section;
    let offsets = src.take_u64s(num_intervals + 1)?;
    let nnz = check_offsets(&offsets, section)?;
    if nnz != by_user.ids.len() {
        return Err(StoreError::Corrupt {
            section,
            detail: format!(
                "transpose entry count {nnz} differs from by-user count {}",
                by_user.ids.len()
            ),
        });
    }
    let tr_ids = src.take_values(nnz, 4)?;
    let tr_sigmas = src.take_values(nnz, 8)?;
    src.finish()?;
    // Walk the by-user copy in (u, t) order with one (cursor, row end)
    // pair per interval into the by-interval columns.
    let mut cursors: Vec<(usize, usize)> = offsets
        .windows(2)
        .map(|w| (w[0] as usize, w[1] as usize))
        .collect();
    for u in 0..num_users {
        let (ts, sigmas) = by_user.row(u);
        let mut last = None;
        for (&t, &sigma) in ts.iter().zip(sigmas) {
            if last.is_some_and(|l| t <= l) {
                return Err(StoreError::Corrupt {
                    section: "activity/by-user",
                    detail: format!("user {u} intervals are not strictly ascending"),
                });
            }
            last = Some(t);
            let ti = t as usize;
            if ti >= num_intervals {
                return Err(StoreError::Corrupt {
                    section: "activity/by-user",
                    detail: format!(
                        "user {u} references interval {t} \u{2265} |T| = {num_intervals}"
                    ),
                });
            }
            if !(sigma > 0.0 && sigma <= 1.0) {
                return Err(StoreError::Corrupt {
                    section: "activity/by-user",
                    detail: format!("\u{3c3}({u},{t}) = {sigma} is outside (0, 1]"),
                });
            }
            let (cursor, row_end) = cursors[ti];
            let matches = cursor < row_end && {
                let tu = le_u32(&tr_ids[cursor * 4..cursor * 4 + 4]);
                let tsig = le_u64(&tr_sigmas[cursor * 8..cursor * 8 + 8]);
                tu == u as u32 && tsig == sigma.to_bits()
            };
            if !matches {
                return Err(StoreError::Corrupt {
                    section,
                    detail: format!("entry (u{u}, t{ti}) missing or differs in the transpose"),
                });
            }
            cursors[ti].0 = cursor + 1;
        }
    }
    for (t, &(cursor, row_end)) in cursors.iter().enumerate() {
        if cursor != row_end {
            return Err(StoreError::Corrupt {
                section,
                detail: format!("interval {t} has surplus transpose entries"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use std::io::Cursor;

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
        let reopened = read_instance(Cursor::new(&buf)).unwrap();
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
            read_instance(Cursor::new(&buf)),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut buf = packed(1);
        buf[8] = 0xEE;
        assert!(matches!(
            read_instance(Cursor::new(&buf)),
            Err(StoreError::UnsupportedVersion { found, .. }) if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let buf = packed(2);
        // Cutting the stream at any point must yield a typed error, never a
        // panic. Step through a spread of prefixes including the tail.
        for cut in (0..buf.len()).step_by(97).chain([buf.len() - 1]) {
            let err = read_instance(Cursor::new(&buf[..cut])).unwrap_err();
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
                read_instance(Cursor::new(&buf)).is_err(),
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
