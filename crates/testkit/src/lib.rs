//! Seeded property testing with nothing outside this repository: a
//! splitmix64 generator and a case driver. Every property suite in the
//! workspace draws its inputs from an [`Rng`] handed out by [`cases`], so a
//! run is a pure function of the seed written in the test.
//!
//! There is no shrinking. A failing case prints its own seed instead, and
//! `cases(1, <that seed>, ..)` replays exactly that case.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream that starts at `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`; the modulo bias is far below what a test sees.
    ///
    /// # Panics
    ///
    /// If the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// [`Rng::range`] for lengths and indices.
    pub fn index(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A fair coin.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(0, items.len())]
    }

    /// `lo..hi` random bytes.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        self.vec(lo, hi, |rng| rng.next_u64() as u8)
    }

    /// A vector of `lo..hi` elements drawn by `item`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.index(lo, hi)).map(|_| item(self)).collect()
    }
}

/// Prints how to replay the case it was created for if that case panics.
struct Replay {
    case: u64,
    seed: u64,
}

impl Drop for Replay {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "testkit: case {} failed; replay it alone with cases(1, {:#018x}, ..)",
                self.case, self.seed
            );
        }
    }
}

/// Run `property` on `n` independent cases derived from `seed`. Case 0 uses
/// `seed` itself, which is what makes a printed case seed replayable.
pub fn cases(n: u64, seed: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..n {
        // An odd stride other than the generator's own increment, so the
        // streams of neighbouring cases are not shifts of one another.
        let seed = seed.wrapping_add(case.wrapping_mul(0xD134_2543_DE82_EF95));
        let _replay = Replay { case, seed };
        property(&mut Rng::new(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_case_seed_replays_that_case() {
        let mut drawn = Vec::new();
        cases(5, 42, |rng| drawn.push(rng.next_u64()));
        let fourth = 42u64.wrapping_add(3u64.wrapping_mul(0xD134_2543_DE82_EF95));
        cases(1, fourth, |rng| assert_eq!(rng.next_u64(), drawn[3]));
        assert_eq!(
            drawn
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            5
        );
    }

    #[test]
    fn draws_stay_in_range() {
        cases(64, 7, |rng| {
            assert!((10..20).contains(&rng.range(10, 20)));
            assert!([1, 2, 3].contains(rng.pick(&[1, 2, 3])));
            assert!((3..9).contains(&rng.bytes(3, 9).len()));
            assert!((2..5).contains(&rng.vec(2, 5, Rng::flip).len()));
        });
    }
}
