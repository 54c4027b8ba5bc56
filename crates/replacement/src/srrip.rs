//! Static Re-Reference Interval Prediction (Jaleel et al., ISCA'10).
//!
//! Included as an extra temporal baseline beyond the paper's five schemes:
//! it post-dates neither DIP nor PeLIFO conceptually and gives the
//! benchmark harness a sixth point of comparison.

use stem_sim_core::CacheGeometry;

use crate::ReplacementPolicy;

/// The *distant* re-reference prediction of a 2-bit RRPV (shared with
/// DRRIP).
pub(crate) const MAX_RRPV: u8 = 3;

/// SRRIP-HP with 2-bit re-reference prediction values (RRPV).
///
/// Blocks are inserted with a *long* re-reference prediction (RRPV = 2),
/// promoted to 0 on hit, and the victim is any block with the *distant*
/// prediction (RRPV = 3), aging everyone when none exists.
#[derive(Debug, Clone)]
pub struct Srrip {
    /// `rrpv[set][way]`.
    rrpv: Vec<Vec<u8>>,
}

impl Srrip {
    /// Creates SRRIP with every way at the distant prediction.
    pub fn new(geom: CacheGeometry) -> Self {
        Srrip {
            rrpv: vec![vec![MAX_RRPV; geom.ways()]; geom.sets()],
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set][way] = 0;
    }

    fn victim(&mut self, set: usize) -> usize {
        loop {
            if let Some(way) = self.rrpv[set].iter().position(|&r| r == MAX_RRPV) {
                return way;
            }
            for r in &mut self.rrpv[set] {
                *r += 1;
            }
        }
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        // "Long" re-reference interval: max - 1.
        self.rrpv[set][way] = MAX_RRPV - 1;
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
}
