//! Minimal deterministic PRNG used inside the simulator.
//!
//! The simulator needs a tiny, allocation-free generator whose sequence is a
//! pure function of the seed; SplitMix64 (Steele et al., "Fast splittable
//! pseudorandom number generators") fits and is also the generator used to
//! seed larger PRNGs elsewhere in the workspace.

/// SplitMix64 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use ksim::SplitMix64;
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let seq = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(3), seq(3));
        assert_ne!(seq(3), seq(4));
    }

    #[test]
    fn reasonable_uniformity() {
        let mut r = SplitMix64::new(123);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[(r.next_u64() >> 61) as usize] += 1;
        }
        for b in buckets {
            assert!((9_000..11_000).contains(&b), "bucket count {b} skewed");
        }
    }
}
