//! A small deterministic PRNG for workload generation, and the hash
//! behind every committed fingerprint.
//!
//! The simulation itself is deterministic by construction; randomness is
//! only used by workload generators (message contents, request sizes).
//! `SplitMix64` is tiny, fast, has a public reference implementation, and
//! keeps the simulator free of versioning hazards from external RNG
//! crates (benchmarks embed seeds in their output). [`Fnv1a`] is the
//! same kind of choice for digests: shard placement, histogram and
//! cluster-state fingerprints, and every committed `*_digest` field.

/// A 64-bit SplitMix generator (Steele, Lea & Flood 2014).
///
/// # Examples
///
/// ```
/// use shrimp_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Debiased multiply-shift (Lemire).
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fill a byte slice with pseudorandom data.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// 64-bit FNV-1a over the little-endian bytes of whatever is fed in.
///
/// # Examples
///
/// ```
/// use shrimp_sim::Fnv1a;
/// let mut h = Fnv1a::default();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feed raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Feed an integer as its 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Fnv1a {
        self.bytes(&v.to_le_bytes())
    }

    /// Feed a float as the little-endian bytes of its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Fnv1a {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors_and_feeders_are_le_bytes() {
        let of = |bytes: &[u8]| Fnv1a::default().bytes(bytes).finish();
        assert_eq!(of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(Fnv1a::default().u64(v).finish(), of(&v.to_le_bytes()));
        let x = 29.737f64;
        assert_eq!(
            Fnv1a::default().f64(x).finish(),
            of(&x.to_bits().to_le_bytes())
        );
    }

    #[test]
    fn reference_values() {
        // First outputs for seed 0 from the published SplitMix64 reference.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut g = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..50 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_bytes_is_deterministic_and_covers_tail() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let mut x = [0u8; 13];
        let mut y = [0u8; 13];
        a.fill_bytes(&mut x);
        b.fill_bytes(&mut y);
        assert_eq!(x, y);
        assert_ne!(x, [0u8; 13]); // astronomically unlikely to be all zero
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }
}
