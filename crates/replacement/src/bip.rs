//! The bimodal insertion policy (BIP) of Qureshi et al. (ISCA'07).

use stem_sim_core::{CacheGeometry, SplitMix64};

use crate::{RecencyStack, ReplacementPolicy};

/// log2 of BIP's default bimodal throttle: incoming blocks are inserted at
/// MRU with probability 1/32 and at LRU otherwise.
pub const BIP_DEFAULT_THROTTLE_LOG2: u32 = 5;

/// Binomial/Bimodal Insertion Policy.
///
/// Hits promote to MRU like LRU, but incoming (missed) blocks are inserted
/// at the *LRU* position except for a 1-in-2^throttle chance of MRU
/// insertion. This retains part of a thrashing working set instead of
/// cycling the whole set through the cache. STEM adapts each individual set
/// between LRU and BIP (§4.1 goal 3).
///
/// # Examples
///
/// ```
/// use stem_replacement::{Bip, ReplacementPolicy};
/// use stem_sim_core::CacheGeometry;
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let mut bip = Bip::new(CacheGeometry::new(2, 4, 64)?);
/// bip.on_fill(0, 3); // very likely inserted at LRU
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bip {
    sets: Vec<RecencyStack>,
    throttle_log2: u32,
    rng: SplitMix64,
}

impl Bip {
    /// Creates BIP state with the standard 1/32 throttle.
    pub fn new(geom: CacheGeometry) -> Self {
        Bip::with_throttle(geom, BIP_DEFAULT_THROTTLE_LOG2, 0xB1B0_5EED)
    }

    /// Creates BIP with an explicit throttle (`1/2^throttle_log2` MRU
    /// probability) and RNG seed.
    pub fn with_throttle(geom: CacheGeometry, throttle_log2: u32, seed: u64) -> Self {
        Bip {
            sets: vec![RecencyStack::new(geom.ways()); geom.sets()],
            throttle_log2,
            rng: SplitMix64::new(seed),
        }
    }
}

impl ReplacementPolicy for Bip {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.sets[set].lru_way()
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        if self.rng.one_in_pow2(self.throttle_log2) {
            self.sets[set].touch_mru(way);
        } else {
            self.sets[set].demote_lru(way);
        }
    }

    fn name(&self) -> &str {
        "BIP"
    }

    // NOT sampling-safe: one global RNG is consumed on every fill, so which
    // draw a given set's fill observes depends on the global miss
    // interleaving. Explicit refusal (the trait default, made explicit here
    // because the per-set stacks alone would suggest otherwise).
    fn supports_set_sampling(&self) -> bool {
        false
    }

    fn audit_set(&self, set: usize) -> Result<(), String> {
        if self.sets[set].is_permutation() {
            Ok(())
        } else {
            Err(format!(
                "BIP recency stack of set {set} is not a permutation"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2, 4, 64).unwrap()
    }

    #[test]
    fn bip_mostly_inserts_at_lru() {
        let mut p = Bip::new(geom());
        let mut lru_insertions = 0;
        for _ in 0..1000 {
            p.on_fill(0, 1);
            if p.victim(0) == 1 {
                lru_insertions += 1;
            }
        }
        // Expect ~ 1000 * 31/32 ≈ 969.
        assert!(lru_insertions > 900, "only {lru_insertions} LRU insertions");
        assert!(lru_insertions < 1000, "BIP never inserted at MRU");
    }

    #[test]
    fn bip_throttle_zero_behaves_like_lru_insertion() {
        let mut p = Bip::with_throttle(geom(), 0, 1);
        p.on_fill(0, 2);
        assert_ne!(p.victim(0), 2); // always MRU-inserted
    }

    #[test]
    fn names() {
        assert_eq!(Bip::new(geom()).name(), "BIP");
    }
}
