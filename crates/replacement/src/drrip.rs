//! Dynamic Re-Reference Interval Prediction (Jaleel et al., ISCA'10):
//! SRRIP dueling against its bimodal variant BRRIP, with the same
//! complement-select leader sets and PSEL mechanism as DIP.
//!
//! Included as the strongest "modern temporal" baseline beyond the
//! paper's five schemes: it post-dates the paper by months and is the
//! natural question a reviewer would ask ("does STEM still win against
//! RRIP-class policies?").

use stem_sim_core::{CacheGeometry, SaturatingCounter, SplitMix64};

use crate::dip::{DuelAssignment, Duelists};
use crate::srrip::MAX_RRPV;
use crate::{ReplacementPolicy, BIP_THROTTLE_LOG2};

/// DRRIP: leader sets run SRRIP and BRRIP; followers take the PSEL winner.
///
/// # Examples
///
/// ```
/// use stem_replacement::{Drrip, SetAssocCache};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(1024, 16, 64)?;
/// let cache = SetAssocCache::new(geom, Drrip::new(geom));
/// assert_eq!(cache.name(), "DRRIP");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Drrip {
    /// `rrpv[set][way]`.
    rrpv: Vec<Vec<u8>>,
    duelists: Duelists,
    psel: SaturatingCounter,
    rng: SplitMix64,
}

impl Drrip {
    /// Creates DRRIP with 2-bit RRPVs, a 10-bit PSEL and the standard
    /// 1/32 BRRIP throttle.
    pub fn new(geom: CacheGeometry) -> Self {
        let mut psel = SaturatingCounter::new(10);
        psel.set(psel.midpoint() - 1);
        Drrip {
            rrpv: vec![vec![MAX_RRPV; geom.ways()]; geom.sets()],
            duelists: Duelists::new(geom.sets()),
            psel,
            rng: SplitMix64::new(0xD441_4950),
        }
    }

    /// Whether BRRIP currently wins the duel.
    pub fn brrip_winning(&self) -> bool {
        self.psel.msb()
    }

    fn uses_brrip(&self, set: usize) -> bool {
        match self.duelists.assignment(set) {
            DuelAssignment::LeaderLru => false, // SRRIP leader
            DuelAssignment::LeaderBip => true,  // BRRIP leader
            DuelAssignment::Follower => self.brrip_winning(),
        }
    }
}

impl ReplacementPolicy for Drrip {
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
        self.rrpv[set][way] = if self.uses_brrip(set) {
            // BRRIP: distant, with a long insertion once in 32 fills
            // (BIP's throttle).
            if self.rng.one_in_pow2(BIP_THROTTLE_LOG2) {
                MAX_RRPV - 1
            } else {
                MAX_RRPV
            }
        } else {
            // SRRIP: long.
            MAX_RRPV - 1
        };
    }

    fn on_miss(&mut self, set: usize) {
        match self.duelists.assignment(set) {
            DuelAssignment::LeaderLru => {
                self.psel.increment();
            }
            DuelAssignment::LeaderBip => {
                self.psel.decrement();
            }
            DuelAssignment::Follower => {}
        }
    }

    fn name(&self) -> &str {
        "DRRIP"
    }

    // NOT sampling-safe: global PSEL (leader-set duel) plus a global RNG on
    // the BRRIP fill path. Explicit refusal.
    fn supports_set_sampling(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lru, SetAssocCache};
    use stem_sim_core::{Access, CacheModel, DecodedTrace, Trace};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(1024, 4, 64).unwrap()
    }

    #[test]
    fn hit_promotes_to_zero() {
        let mut p = Drrip::new(geom());
        p.on_fill(100, 1);
        p.on_hit(100, 1);
        assert_eq!(p.rrpv[100][1], 0);
    }

    #[test]
    fn psel_moves_like_dip() {
        let mut p = Drrip::new(geom());
        let srrip_leader = (0..1024)
            .find(|&s| p.duelists.assignment(s) == DuelAssignment::LeaderLru)
            .unwrap();
        assert!(!p.brrip_winning());
        for _ in 0..600 {
            p.on_miss(srrip_leader);
        }
        assert!(p.brrip_winning());
    }

    #[test]
    fn drrip_resists_thrashing_better_than_lru() {
        let g = CacheGeometry::new(1024, 4, 64).unwrap();
        let mut trace = Trace::new();
        for _ in 0..60 {
            for set in 0..1024usize {
                for tag in 0..6u64 {
                    trace.push(Access::read(g.address_of(tag, set)));
                }
            }
        }
        let trace = DecodedTrace::decode(&trace, g);
        let mut lru = SetAssocCache::new(g, Lru::new(g));
        lru.run_decoded(&trace);
        let mut drrip = SetAssocCache::new(g, Drrip::new(g));
        drrip.run_decoded(&trace);
        assert!(
            drrip.stats().misses() < lru.stats().misses() * 9 / 10,
            "DRRIP {} should beat LRU {} on a uniform thrash",
            drrip.stats().misses(),
            lru.stats().misses()
        );
    }

    #[test]
    fn victim_always_in_range() {
        let mut p = Drrip::new(geom());
        for i in 0..200usize {
            p.on_fill(0, i % 4);
            assert!(p.victim(0) < 4);
        }
    }
}
