//! Tree-based pseudo-LRU, the replacement policy real L2/L3 tag arrays
//! most often implement (true LRU rank fields get expensive beyond ~4
//! ways).
//!
//! Included as a hardware-realistic baseline beyond the paper's five
//! schemes: it shows how close the paper's idealised LRU baseline is to
//! what shipping caches actually do.

use stem_sim_core::CacheGeometry;

use crate::ReplacementPolicy;

/// Tree PLRU: one bit per internal node of a binary tree over the ways;
/// a hit flips the path bits away from the accessed way, the victim is
/// found by following the bits.
///
/// # Examples
///
/// ```
/// use stem_replacement::{Plru, SetAssocCache};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(256, 8, 64)?;
/// let cache = SetAssocCache::new(geom, Box::new(Plru::new(geom)));
/// assert_eq!(cache.name(), "PLRU");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Plru {
    /// `bits[set]`: the tree bits, packed little-endian; node 0 is the
    /// root, node `2i+1`/`2i+2` its children.
    bits: Vec<u64>,
    ways: usize,
}

impl Plru {
    /// Creates PLRU state for every set of `geom`.
    ///
    /// # Panics
    ///
    /// Panics if the associativity is not a power of two (tree PLRU needs
    /// a complete binary tree) or exceeds 64.
    pub fn new(geom: CacheGeometry) -> Self {
        let ways = geom.ways();
        assert!(
            ways.is_power_of_two() && ways <= 64,
            "tree PLRU requires a power-of-two associativity up to 64"
        );
        Plru {
            bits: vec![0; geom.sets()],
            ways,
        }
    }

    /// Walks from the root toward `way`, pointing every node on the path
    /// *away* from it.
    fn touch(&mut self, set: usize, way: usize) {
        if self.ways == 1 {
            return;
        }
        let mut node = 0usize; // root
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            // Point the node at the *other* half (the not-recently-used
            // side).
            if go_right {
                self.bits[set] &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            } else {
                self.bits[set] |= 1 << node;
                node = 2 * node + 1;
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for Plru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        if self.ways == 1 {
            return 0;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[set] & (1 << node) != 0 {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn name(&self) -> &str {
        "PLRU"
    }

    // Per-set tree bits, no shared state: sampling-safe.
    fn supports_set_sampling(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::prop;

    fn geom(ways: usize) -> CacheGeometry {
        CacheGeometry::new(4, ways, 64).unwrap()
    }

    #[test]
    fn victim_is_never_the_last_touched_way() {
        for ways in [2usize, 4, 8, 16] {
            let mut p = Plru::new(geom(ways));
            for w in 0..ways {
                p.on_fill(0, w);
                assert_ne!(p.victim(0), w, "ways={ways}, touched {w}");
            }
        }
    }

    #[test]
    fn single_way_works() {
        let mut p = Plru::new(geom(1));
        p.on_fill(0, 0);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_ways_panics() {
        let g = CacheGeometry::new(4, 3, 64).unwrap();
        let _ = Plru::new(g);
    }

    #[test]
    fn approximates_lru_on_sequential_touch() {
        // Touch 0..8 in order: PLRU's victim should be in the "old" half.
        let mut p = Plru::new(geom(8));
        for w in 0..8 {
            p.on_hit(0, w);
        }
        assert!(
            p.victim(0) < 4,
            "victim {} should be in the older half",
            p.victim(0)
        );
    }

    /// The victim is always in range, and repeatedly touching the
    /// victim always changes it (no way can be both MRU-protected and
    /// the victim).
    #[test]
    fn victim_in_range_and_moves() {
        prop::check(128, |g| {
            let ways = 1usize << g.u32(1, 5);
            let mut p = Plru::new(geom(ways));
            for _ in 0..g.usize(1, 64) {
                let t = g.usize(0, ways);
                p.on_hit(0, t);
                let v = p.victim(0);
                assert!(v < ways);
                if ways > 1 {
                    assert_ne!(v, t);
                }
            }
        });
    }
}
