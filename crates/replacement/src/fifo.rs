//! First-in-first-out replacement.

use stem_sim_core::CacheGeometry;

use crate::{RecencyStack, ReplacementPolicy};

/// FIFO replacement: fills go to the top of the fill order, hits do not
/// promote, the oldest block is evicted.
///
/// Not evaluated in the paper, but useful as a locality-insensitive
/// baseline and as the degenerate escape position of
/// [`PeLifo`](crate::PeLifo).
#[derive(Debug, Clone)]
pub struct Fifo {
    sets: Vec<RecencyStack>,
}

impl Fifo {
    /// Creates FIFO state for every set of `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        Fifo {
            sets: vec![RecencyStack::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn on_hit(&mut self, _set: usize, _way: usize) {
        // FIFO ignores hits.
    }

    fn victim(&mut self, set: usize) -> usize {
        self.sets[set].lru_way()
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn name(&self) -> &str {
        "FIFO"
    }

    // One fill stack per set, nothing shared: sampling-safe.
    fn supports_set_sampling(&self) -> bool {
        true
    }

    fn audit_set(&self, set: usize) -> Result<(), String> {
        if self.sets[set].is_permutation() {
            Ok(())
        } else {
            Err(format!("FIFO fill stack of set {set} is not a permutation"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_do_not_save_blocks() {
        let geom = CacheGeometry::new(2, 2, 64).unwrap();
        let mut p = Fifo::new(geom);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_hit(0, 0); // would save way 0 under LRU
        assert_eq!(p.victim(0), 0); // still the oldest fill
    }

    #[test]
    fn evicts_in_fill_order() {
        let geom = CacheGeometry::new(1, 3, 64).unwrap();
        let mut p = Fifo::new(geom);
        for w in [2usize, 0, 1] {
            p.on_fill(0, w);
        }
        assert_eq!(p.victim(0), 2);
    }
}
