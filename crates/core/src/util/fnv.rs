//! Streaming 64-bit FNV-1a over a byte stream.
//!
//! The one definition of the FNV constants in the workspace: stable,
//! seedless digests (shard routing, trace digests)
//! fold bytes through [`Fnv1a`], and the instance store's word-folding
//! checksum starts its lanes from the same offset basis and prime.

/// The 64-bit FNV offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// A running FNV-1a hash: XOR each byte in, then multiply by the prime.
/// Chunk boundaries do not affect the result.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A hash of the empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds one byte into the hash.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chunking_does_not_change_the_hash() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"");
        h.write_u8(b'b');
        h.write(b"ar");
        assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
    }
}
