//! A tiny deterministic PRNG, so reproducible streams need no external
//! crate.

/// SplitMix64. The fault-injection layer draws its corruption bytes from
/// it; the same seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`; 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pinned_to_its_seed() {
        // Fault plans' corruption bytes are replayed from this stream, so
        // the first draw of seed 0 is pinned to SplitMix64's reference.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.next_below(0), 0);
        assert!((0..64).all(|_| a.next_below(10) < 10));
    }
}
