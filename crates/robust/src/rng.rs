//! The workspace's one seeded generator.
//!
//! [`DetRng`] is SplitMix64: a 64-bit Weyl sequence passed through a
//! mixing function, one `u64` of state, no external dependency. Every
//! seeded draw in the workspace comes from it: the synthetic datasets, the
//! Random baseline, the sampling approximator, the fault harness, retry
//! backoff, the store synthesizer and every property suite. Equal seeds
//! give equal streams on every platform (rule L2).
//!
//! The draws beyond [`DetRng::next_u64`] are thin layers over it and keep
//! no state of their own, so adding a call site never perturbs how an
//! existing one consumes the stream.

use std::ops::Range;

/// Deterministic SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct DetRng(u64);

impl DetRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        DetRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`0` when `n == 0`, without drawing).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the half-open `range`. An empty range yields
    /// `range.start` without drawing.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        range.start + self.below(range.end.saturating_sub(range.start))
    }

    /// Uniform in the half-open `range`, as `start + width · next_f64()`.
    /// An empty range yields `range.start` without drawing.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        if range.is_empty() {
            return range.start;
        }
        range.start + (range.end - range.start) * self.next_f64()
    }

    /// `true` with probability `p`: `chance(0.0)` never fires and
    /// `chance(1.0)` always does.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniformly chosen element of `items`; `None` for an empty slice,
    /// without drawing.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.get(self.below(items.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_matches_the_splitmix64_reference_vector() {
        let mut rng = DetRng::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn integer_draws_stay_inside_and_reach_both_ends() {
        let mut rng = DetRng::new(7);
        let draws: Vec<usize> = (0..500).map(|_| rng.range(3..6)).collect();
        assert!(draws.iter().all(|x| (3..6).contains(x)));
        assert!(draws.contains(&3) && draws.contains(&5));

        let below: Vec<usize> = (0..500).map(|_| rng.below(4)).collect();
        assert!(below.iter().all(|&x| x < 4));
        assert!(below.contains(&0) && below.contains(&3));

        let items = ['a', 'b', 'c'];
        let picks: Vec<char> = (0..500).filter_map(|_| rng.pick(&items).copied()).collect();
        assert_eq!(picks.len(), 500);
        assert!(picks.contains(&'a') && picks.contains(&'c'));
    }

    #[test]
    fn float_draws_stay_inside_and_reach_both_ends() {
        let mut rng = DetRng::new(11);
        let draws: Vec<f64> = (0..2000).map(|_| rng.range_f64(-1.0..1.0)).collect();
        assert!(draws.iter().all(|x| (-1.0..1.0).contains(x)));
        assert!(draws.iter().any(|&x| x < -0.99));
        assert!(draws.iter().any(|&x| x > 0.99));
        let units: Vec<f64> = (0..2000).map(|_| rng.next_f64()).collect();
        assert!(units.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn empty_ranges_and_slices_yield_the_documented_value_without_drawing() {
        let mut rng = DetRng::new(5);
        let mut twin = rng.clone();
        assert_eq!(rng.range(4..4), 4);
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = rng.range(9..2);
        assert_eq!(reversed, 9);
        assert_eq!(rng.range_f64(2.5..2.5), 2.5);
        assert_eq!(rng.range_f64(3.0..1.0), 3.0);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.pick::<u8>(&[]), None);
        // Nothing above consumed the stream.
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn chance_extremes_are_never_and_always() {
        let mut rng = DetRng::new(13);
        assert!((0..1000).all(|_| !rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
        let hits = (0..4000).filter(|_| rng.chance(0.5)).count();
        assert!(
            (1800..2200).contains(&hits),
            "chance(0.5) fired {hits}/4000"
        );
    }
}
