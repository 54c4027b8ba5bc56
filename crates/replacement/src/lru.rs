//! Least-recently-used replacement.

use stem_sim_core::CacheGeometry;

use crate::{RecencyStack, ReplacementPolicy};

/// Classic LRU: promote to MRU on every hit and fill, evict the LRU way.
///
/// The paper's baseline. "It performs quite well when a working set exhibits
/// excellent temporal locality but can thrash an LLC set when the locality
/// is poor" (§2.2).
///
/// # Examples
///
/// ```
/// use stem_replacement::{Lru, ReplacementPolicy};
/// use stem_sim_core::CacheGeometry;
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let mut lru = Lru::new(CacheGeometry::new(2, 4, 64)?);
/// lru.on_fill(0, 1);
/// lru.on_hit(0, 2);
/// assert_ne!(lru.victim(0), 2); // the just-hit way is MRU, not the victim
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    sets: Vec<RecencyStack>,
}

impl Lru {
    /// Creates LRU state for every set of `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        Lru {
            sets: vec![RecencyStack::new(geom.ways()); geom.sets()],
        }
    }

    /// Read-only view of one set's recency stack (used by tests and the
    /// analysis crate).
    pub fn stack(&self, set: usize) -> &RecencyStack {
        &self.sets[set]
    }
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.sets[set].lru_way()
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn name(&self) -> &str {
        "LRU"
    }

    // One RecencyStack per set, nothing shared: a set sample replays
    // exactly what the kept sets see serially.
    fn supports_set_sampling(&self) -> bool {
        true
    }

    fn audit_set(&self, set: usize) -> Result<(), String> {
        if self.sets[set].is_permutation() {
            Ok(())
        } else {
            Err(format!(
                "LRU recency stack of set {set} is not a permutation"
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
    fn evicts_least_recently_used() {
        let mut p = Lru::new(geom());
        for w in 0..4 {
            p.on_fill(0, w);
        }
        assert_eq!(p.victim(0), 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = Lru::new(geom());
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 0);
        // Set 1 untouched: victim is its initial LRU way.
        assert_eq!(p.victim(1), 3);
    }

    #[test]
    fn name_is_lru() {
        assert_eq!(Lru::new(geom()).name(), "LRU");
    }
}
