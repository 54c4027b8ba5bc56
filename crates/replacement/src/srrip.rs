//! Static Re-Reference Interval Prediction (Jaleel et al., ISCA'10).
//!
//! Included as an extra temporal baseline beyond the paper's five schemes:
//! it post-dates neither DIP nor PeLIFO conceptually and gives the
//! benchmark harness a sixth point of comparison.

use stem_sim_core::CacheGeometry;

use crate::ReplacementPolicy;

/// SRRIP-HP with M-bit re-reference prediction values (RRPV).
///
/// Blocks are inserted with a *long* re-reference prediction (RRPV =
/// 2^M − 2), promoted to 0 on hit, and the victim is any block with the
/// *distant* prediction (RRPV = 2^M − 1), aging everyone when none exists.
#[derive(Debug, Clone)]
pub struct Srrip {
    /// `rrpv[set][way]`.
    rrpv: Vec<Vec<u8>>,
    max_rrpv: u8,
}

impl Srrip {
    /// Creates SRRIP with the standard 2-bit RRPVs.
    pub fn new(geom: CacheGeometry) -> Self {
        Srrip::with_bits(geom, 2)
    }

    /// Creates SRRIP with `bits`-bit RRPVs.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    pub fn with_bits(geom: CacheGeometry, bits: u32) -> Self {
        assert!((1..=7).contains(&bits), "RRPV width must be in 1..=7");
        let max_rrpv = ((1u32 << bits) - 1) as u8;
        Srrip {
            rrpv: vec![vec![max_rrpv; geom.ways()]; geom.sets()],
            max_rrpv,
        }
    }
}

impl ReplacementPolicy for Srrip {
    crate::snapshot_policy_via_clone!();

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set][way] = 0;
    }

    fn victim(&mut self, set: usize) -> usize {
        loop {
            if let Some(way) = self.rrpv[set].iter().position(|&r| r == self.max_rrpv) {
                return way;
            }
            for r in &mut self.rrpv[set] {
                *r += 1;
            }
        }
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        // "Long" re-reference interval: max - 1.
        self.rrpv[set][way] = self.max_rrpv - 1;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set][way] = self.max_rrpv;
    }

    fn name(&self) -> &str {
        "SRRIP"
    }

    // Per-set RRPV arrays, no shared state: sampling-safe.
    fn supports_set_sampling(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2, 4, 64).unwrap()
    }

    #[test]
    fn fresh_sets_have_distant_victims() {
        let mut p = Srrip::new(geom());
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn hit_block_survives_longer() {
        let mut p = Srrip::new(geom());
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 2);
        // Aging must reach way 2 last: first victim is not 2.
        assert_ne!(p.victim(0), 2);
    }

    #[test]
    fn aging_terminates() {
        let mut p = Srrip::new(geom());
        for w in 0..4 {
            p.on_fill(0, w);
            p.on_hit(0, w); // everyone at RRPV 0
        }
        let v = p.victim(0); // must age everyone up to max and pick one
        assert!(v < 4);
    }

    #[test]
    #[should_panic(expected = "RRPV width")]
    fn zero_bits_panics() {
        let _ = Srrip::with_bits(geom(), 0);
    }
}
