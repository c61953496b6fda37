//! The Eq. 4 inner loop: one algebraically-reduced division per posting,
//! explicitly chunked 4-wide over a contiguous run held as two parallel
//! slices, column-local slots and µ.
//!
//! This module is the repo's only `unsafe` surface inside `crates/core`
//! (enforced by `ses-analyze`'s `kernel-unsafe-confinement` lint): the
//! column-local slots in a run are validated against the column length at
//! construction, so the gathers skip the per-element bounds checks the
//! optimizer cannot hoist through the `chunks_exact` structure.
//!
//! # Bit-exactness contract
//!
//! The chunking batches only the *independent* work — the `σ`/`B`/`M`
//! gathers and the `µ·B/(D·(D+µ))` divisions, which the CPU can overlap —
//! and then folds the four gains into the accumulator strictly left to
//! right. The f64 reduction order is therefore identical to the scalar
//! loop's, so chunked ≡ scalar ≡ the dense layout bit-for-bit
//! (`chunked_reduction_is_bit_identical_to_scalar` below pins it, and
//! `tests/sparse_layout.rs` pins the whole engine against the hash-map
//! oracle).

/// One posting's Eq. 4 contribution, algebraically reduced.
///
/// With `D = B + M`, the telescoped difference
/// `(M+µ)/(D+µ) − M/D` simplifies to `µ·B / (D·(D+µ))` — one division
/// instead of two, and *zero* divisions when `B = 0` (then the ratio is `1`
/// before and after if the user already has mass, and jumps `0 → 1` if `µ`
/// is the first mass at the interval). The 0/0 := 0 Luce convention is what
/// the `d > 0` branch encodes.
#[inline(always)]
pub(crate) fn posting_gain(b: f64, m: f64, mu: f64) -> f64 {
    let d = b + m;
    let denom = d * (d + mu);
    // `denom > 0` whenever the user has any mass; the fallback covers the
    // first-mass case `D = 0` (ratio jumps 0 → µ/µ = 1). The `µ > 0` guard
    // there keeps a zero-weight posting (which `Interest` never stores) at
    // the 0/0 := 0 convention instead of inventing a phantom unit of gain.
    // Both sides are computed and one is selected: a user without competing
    // mass (the first-mass case) is common and scattered through a run, so
    // a branch on it would mispredict, while a division by zero is only a
    // discarded NaN or infinity.
    let first_mass = if mu > 0.0 { 1.0 } else { 0.0 };
    let ratio = mu * b / denom;
    if denom > 0.0 {
        ratio
    } else {
        first_mass
    }
}

/// Width of the explicit chunks: four independent divisions in flight
/// covers the divider latency on current x86-64/aarch64 cores without
/// spilling the gain batch out of registers.
const LANES: usize = 4;

/// Eq. 4 over one run: `Σ σ[s] · posting_gain(B[s], M[s], µ)` for each
/// slot `s` of `slots` and its µ in `mus`, where `b`/`m`/`sigma` are one
/// interval's column.
///
/// `slots` must index inside the column — guaranteed by construction
/// ([`super::columns::ResolvedRuns::build`] emits column-local slots, and
/// full columns are addressed by rank with `len == stride`), and
/// debug-asserted here at every entry.
pub(crate) fn score_run(slots: &[u32], mus: &[f64], b: &[f64], m: &[f64], sigma: &[f64]) -> f64 {
    debug_assert_eq!(slots.len(), mus.len());
    debug_assert_eq!(b.len(), m.len());
    debug_assert_eq!(b.len(), sigma.len());
    debug_assert!(
        slots.iter().all(|&s| (s as usize) < b.len()),
        "run slot outside its column"
    );
    let mut sum = 0.0;
    let mut slot_chunks = slots.chunks_exact(LANES);
    let mut mu_chunks = mus.chunks_exact(LANES);
    for (chunk, mu_chunk) in (&mut slot_chunks).zip(&mut mu_chunks) {
        let mut gains = [0.0f64; LANES];
        for ((g, &slot), &mu) in gains.iter_mut().zip(chunk).zip(mu_chunk) {
            let i = slot as usize;
            // SAFETY: `i < b.len() == m.len() == sigma.len()` — run slots
            // are column-local indices validated against the column length
            // at construction and debug-asserted above.
            let (bv, mv, sv) = unsafe {
                (
                    *b.get_unchecked(i),
                    *m.get_unchecked(i),
                    *sigma.get_unchecked(i),
                )
            };
            *g = sv * posting_gain(bv, mv, mu);
        }
        // Fold strictly left to right — the bit-exactness contract.
        for g in gains {
            sum += g;
        }
    }
    for (&slot, &mu) in slot_chunks.remainder().iter().zip(mu_chunks.remainder()) {
        let i = slot as usize;
        // SAFETY: same construction-time bound as above.
        let (bv, mv, sv) = unsafe {
            (
                *b.get_unchecked(i),
                *m.get_unchecked(i),
                *sigma.get_unchecked(i),
            )
        };
        sum += sv * posting_gain(bv, mv, mu);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unchunked loop the kernel must reproduce bit-for-bit.
    fn score_run_scalar(slots: &[u32], mus: &[f64], b: &[f64], m: &[f64], sigma: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&slot, &mu) in slots.iter().zip(mus) {
            let i = slot as usize;
            sum += sigma[i] * posting_gain(b[i], m[i], mu);
        }
        sum
    }

    /// Deterministic awkward values (denormal-adjacent, huge spreads) —
    /// exactly the inputs where a reassociated reduction would diverge.
    fn wiggly(i: usize, salt: u64) -> f64 {
        let h = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let scale = [1e-12, 1e-3, 1.0, 1e3][(h % 4) as usize];
        unit * scale
    }

    #[test]
    fn chunked_reduction_is_bit_identical_to_scalar() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33, 200] {
            let b: Vec<f64> = (0..len).map(|i| wiggly(i, 1)).collect();
            let m: Vec<f64> = (0..len).map(|i| wiggly(i, 2)).collect();
            let sigma: Vec<f64> = (0..len).map(|i| wiggly(i, 3).min(1.0)).collect();
            let slots: Vec<u32> = (0..len).map(|i| (len - 1 - i) as u32).collect();
            let mus: Vec<f64> = (0..len).map(|i| wiggly(i, 4).min(1.0)).collect();
            let chunked = score_run(&slots, &mus, &b, &m, &sigma);
            let scalar = score_run_scalar(&slots, &mus, &b, &m, &sigma);
            assert_eq!(chunked.to_bits(), scalar.to_bits(), "len {len}");
        }
    }

    #[test]
    fn posting_gain_matches_the_two_division_form_and_keeps_conventions() {
        // Reduced one-division form ≡ the telescoped two-division form.
        let (b, m, mu) = (0.5, 0.8, 0.4);
        let two_div = (m + mu) / (b + m + mu) - m / (b + m);
        assert!((posting_gain(b, m, mu) - two_div).abs() < 1e-15);
        // First mass at the interval: ratio jumps 0 → 1.
        assert_eq!(posting_gain(0.0, 0.0, 0.5), 1.0);
        // Existing mass with zero competition: ratio stays 1 → gain 0.
        assert_eq!(posting_gain(0.0, 0.3, 0.4), 0.0);
        // Zero-weight posting on an empty slot: 0/0 := 0, not 1.
        assert_eq!(posting_gain(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn kernel_handles_zero_mass_conventions() {
        // First-mass jump and the 0/0 := 0 convention survive the chunking.
        let b = [0.0, 0.0, 0.5, 0.0];
        let m = [0.0, 0.3, 0.8, 0.0];
        let sigma = [1.0, 1.0, 1.0, 1.0];
        let slots = [0u32, 1, 2, 3];
        let mus = [0.5, 0.4, 0.4, 0.0];
        let got = score_run(&slots, &mus, &b, &m, &sigma);
        let want = score_run_scalar(&slots, &mus, &b, &m, &sigma);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(score_run(&slots[..1], &mus[..1], &b, &m, &sigma), 1.0);
        assert_eq!(score_run(&slots[3..], &mus[3..], &b, &m, &sigma), 0.0);
    }
}
