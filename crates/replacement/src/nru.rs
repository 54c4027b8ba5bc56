//! Not-recently-used replacement (one reference bit per line), the other
//! classic cheap hardware policy.

use stem_sim_core::{CacheGeometry, SplitMix64};

use crate::ReplacementPolicy;

/// NRU: each way carries a reference bit, set on hit/fill. The victim is
/// the first way with a clear bit; when all bits are set they are cleared
/// (except the just-used way's on the next touch) and scanning restarts.
///
/// # Examples
///
/// ```
/// use stem_replacement::{Nru, SetAssocCache};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(64, 8, 64)?;
/// let cache = SetAssocCache::new(geom, Nru::new(geom));
/// assert_eq!(cache.name(), "NRU");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Nru {
    /// `referenced[set]`: one bit per way, packed.
    referenced: Vec<u64>,
    ways: usize,
    rng: SplitMix64,
}

impl Nru {
    /// Creates NRU state for every set of `geom`.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64.
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.ways() <= 64, "NRU bitmap supports up to 64 ways");
        Nru {
            referenced: vec![0; geom.sets()],
            ways: geom.ways(),
            rng: SplitMix64::new(0x6E72_7531),
        }
    }

    fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }
}

impl ReplacementPolicy for Nru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.referenced[set] |= 1 << way;
        if self.referenced[set] == self.full_mask() {
            // Aging: clear everyone else.
            self.referenced[set] = 1 << way;
        }
    }

    fn victim(&mut self, set: usize) -> usize {
        let clear = !self.referenced[set] & self.full_mask();
        if clear == 0 {
            // All referenced (can happen right after a fill burst): pick
            // pseudo-randomly and clear.
            let v = self.rng.next_below(self.ways as u64) as usize;
            self.referenced[set] = 0;
            v
        } else {
            clear.trailing_zeros() as usize
        }
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.on_hit(set, way);
    }

    fn name(&self) -> &str {
        "NRU"
    }

    // NOT sampling-safe: victim() falls back to a single global RNG when a
    // set's reference bits saturate, so the draw a set observes depends on
    // the global access interleaving. Explicit refusal (the per-set
    // reference bits alone would suggest otherwise).
    fn supports_set_sampling(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2, 4, 64).unwrap()
    }

    #[test]
    fn victim_avoids_referenced_ways() {
        let mut p = Nru::new(geom());
        p.on_fill(0, 0);
        p.on_fill(0, 2);
        let v = p.victim(0);
        assert!(v == 1 || v == 3, "victim {v} should be unreferenced");
    }

    #[test]
    fn aging_clears_on_saturation() {
        let mut p = Nru::new(geom());
        for w in 0..4 {
            p.on_hit(0, w);
        }
        // After the 4th touch everyone else was cleared: ways 0-2 are
        // victims again.
        let v = p.victim(0);
        assert!(v < 3, "victim {v} should be an aged way");
    }

    #[test]
    fn sets_independent() {
        let mut p = Nru::new(geom());
        p.on_fill(0, 0);
        assert_eq!(p.victim(1), 0);
    }
}
