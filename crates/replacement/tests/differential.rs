//! Differential testing: the simulator's LRU cache against an independent,
//! obviously-correct reference model (vector-of-queues), over random
//! traces. Any divergence in per-access hit/miss behaviour is a bug in
//! the set/rank machinery every other policy builds on.

use stem_replacement::{Lru, SetAssocCache};
use stem_sim_core::{
    prop, AccessKind, Address, CacheGeometry, CacheModel, InvariantAuditor, LineAddr,
};

/// The reference: per-set Vec of lines ordered most-recent-first.
struct RefLru {
    geom: CacheGeometry,
    sets: Vec<Vec<LineAddr>>,
}

impl RefLru {
    fn new(geom: CacheGeometry) -> Self {
        RefLru {
            geom,
            sets: vec![Vec::new(); geom.sets()],
        }
    }

    /// Returns `true` on hit.
    fn access(&mut self, addr: Address) -> bool {
        let line = addr.line(self.geom.line_bytes());
        let set = self.geom.set_index_of_line(line);
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&l| l == line) {
            let l = entries.remove(pos);
            entries.insert(0, l);
            true
        } else {
            entries.insert(0, line);
            entries.truncate(self.geom.ways());
            false
        }
    }
}

/// Per-access hit/miss parity between the simulator's LRU and the
/// reference model, across random geometries and traces.
#[test]
fn lru_matches_reference_model() {
    prop::check(64, |g| {
        let sets_pow = g.u32(0, 5);
        let ways = g.usize(1, 9);
        let addrs = g.vec_u64(1, 500, 0, 4096);
        let geom = CacheGeometry::new(1 << sets_pow, ways, 64).expect("valid geometry");
        let mut sim = SetAssocCache::new(geom, Lru::new(geom));
        let mut reference = RefLru::new(geom);
        for (i, &a) in addrs.iter().enumerate() {
            let addr = Address::new(a * 64);
            let sim_hit = sim.access(addr, AccessKind::Read).is_hit();
            let ref_hit = reference.access(addr);
            assert_eq!(
                sim_hit,
                ref_hit,
                "divergence at access {} (addr {:#x}, {} sets x {} ways)",
                i,
                a * 64,
                geom.sets(),
                ways
            );
        }
        sim.audit().expect("audited LRU state stays consistent");
    });
}
