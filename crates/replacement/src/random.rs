//! Random replacement.

use stem_sim_core::{CacheGeometry, SplitMix64};

use crate::ReplacementPolicy;

/// Uniform-random victim selection.
///
/// Deterministic given its seed, like every source of randomness in this
/// workspace.
#[derive(Debug, Clone)]
pub struct Random {
    ways: usize,
    rng: SplitMix64,
}

impl Random {
    /// Creates a random policy with a fixed default seed.
    pub fn new(geom: CacheGeometry) -> Self {
        Random::with_seed(geom, 0xDA7A_CACE)
    }

    /// Creates a random policy with an explicit seed.
    pub fn with_seed(geom: CacheGeometry, seed: u64) -> Self {
        Random {
            ways: geom.ways(),
            rng: SplitMix64::new(seed),
        }
    }
}

impl ReplacementPolicy for Random {
    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize) -> usize {
        self.rng.next_below(self.ways as u64) as usize
    }

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn name(&self) -> &str {
        "Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_in_range_and_cover_ways() {
        let geom = CacheGeometry::new(2, 4, 64).unwrap();
        let mut p = Random::with_seed(geom, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = p.victim(0);
            assert!(v < 4);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "random victims did not cover all ways"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let geom = CacheGeometry::new(2, 4, 64).unwrap();
        let mut a = Random::with_seed(geom, 3);
        let mut b = Random::with_seed(geom, 3);
        for _ in 0..50 {
            assert_eq!(a.victim(0), b.victim(0));
        }
    }
}
