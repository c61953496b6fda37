//! Per-step traces and their determinism digest.
//!
//! Every applied (or skipped) disruption appends one [`TraceRecord`]; the
//! whole trace folds into a 64-bit FNV-1a [`Trace::digest`] over the
//! records' exact bit patterns, so two runs produced the same schedule
//! evolution if and only if their digests match. Wall-clock time never
//! enters the trace — determinism is a property of the *schedule*, not the
//! hardware.

use crate::disruption::DisruptionKind;
use ses_core::util::Fnv1a;

/// What one simulation step did to the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// 0-based step index.
    pub step: u64,
    /// Simulation tick the disruption fired at.
    pub tick: u64,
    /// Which kind of disruption fired.
    pub kind: DisruptionKind,
    /// Whether the session actually changed state (a cancel of an
    /// unscheduled event, an exhausted extend, … are recorded but inert).
    pub applied: bool,
    /// Utility before the disruption.
    pub utility_before: f64,
    /// Utility right after the disruption, before repair.
    pub utility_disrupted: f64,
    /// Utility after repair.
    pub utility_after: f64,
    /// Events moved/added by the repair.
    pub moves: u32,
}

impl TraceRecord {
    /// How much of the disruption the repair recovered.
    pub fn recovered(&self) -> f64 {
        self.utility_after - self.utility_disrupted
    }
}

/// The full evolution of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// All records, in step order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// FNV-1a digest of the exact trace contents. Two runs with equal
    /// digests followed the same schedule evolution bit for bit.
    pub fn digest(&self) -> u64 {
        self.digest_prefix(self.records.len())
    }

    /// The digest of the first `steps` records (the whole trace when
    /// `steps >= len`). Lets a crash-recovery check compare a partially
    /// driven server arm against the matching prefix of the reference
    /// simulation before resuming where it left off.
    pub fn digest_prefix(&self, steps: usize) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.records[..steps.min(self.records.len())] {
            h.write(&r.step.to_le_bytes());
            h.write(&r.tick.to_le_bytes());
            h.write_u8(r.kind.tag());
            h.write_u8(r.applied as u8);
            for f in [r.utility_before, r.utility_disrupted, r.utility_after] {
                h.write(&f.to_bits().to_le_bytes());
            }
            h.write(&r.moves.to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(step: u64, utility: f64) -> TraceRecord {
        TraceRecord {
            step,
            tick: step * 3,
            kind: DisruptionKind::RivalAnnounce,
            applied: true,
            utility_before: utility,
            utility_disrupted: utility - 1.0,
            utility_after: utility - 0.25,
            moves: 2,
        }
    }

    #[test]
    fn equal_traces_equal_digests() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        for i in 0..10 {
            a.push(record(i, 50.0 - i as f64));
            b.push(record(i, 50.0 - i as f64));
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn single_bit_changes_move_the_digest() {
        let mut a = Trace::new();
        a.push(record(0, 10.0));
        let mut b = Trace::new();
        let mut r = record(0, 10.0);
        r.utility_after += f64::EPSILON * 10.0;
        b.push(r);
        assert_ne!(a.digest(), b.digest());

        let mut c = Trace::new();
        let mut r = record(0, 10.0);
        r.kind = DisruptionKind::ActivityDrift;
        c.push(r);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn recovered_matches_definition() {
        let r = record(0, 10.0);
        assert!((r.recovered() - 0.75).abs() < 1e-12);
    }
}
