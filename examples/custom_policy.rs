//! Plug a user-defined replacement policy into the simulator: implement
//! [`ReplacementPolicy`] and hand it to [`SetAssocCache`], then race it
//! against the built-in policies.
//!
//! The toy policy here is "MRU eviction" (evict the most recently used
//! block) — terrible on recency-friendly workloads, surprisingly decent on
//! cyclic thrash, which makes for an instructive comparison.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use stem::replacement::{Lru, RecencyStack, ReplacementPolicy, SetAssocCache};
use stem::sim_core::{Access, CacheGeometry, CacheModel, DecodedTrace};

/// Evict the *most* recently used block. Policies are `Clone` so the
/// caches they drive can be checkpointed.
#[derive(Clone)]
struct MruEvict {
    sets: Vec<RecencyStack>,
}

impl MruEvict {
    fn new(geom: CacheGeometry) -> Self {
        MruEvict {
            sets: vec![RecencyStack::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for MruEvict {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.sets[set].mru_way()
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn name(&self) -> &str {
        "MRU-evict"
    }
}

fn miss_rate(cache: &mut dyn CacheModel, trace: &DecodedTrace) -> f64 {
    cache.run_decoded(trace);
    cache.stats().miss_rate()
}

fn main() {
    let geom = CacheGeometry::new(64, 4, 64).expect("valid geometry");

    // A cyclic pattern one block larger than the associativity in every
    // set: the LRU worst case.
    let mut thrash = DecodedTrace::with_capacity(geom, 0);
    for _ in 0..500 {
        for set in 0..geom.sets() {
            for tag in 0..(geom.ways() as u64 + 1) {
                thrash.push(Access::read(geom.address_of(tag, set)));
            }
        }
    }

    let mut lru = SetAssocCache::new(geom, Box::new(Lru::new(geom)));
    let mut custom = SetAssocCache::new(geom, Box::new(MruEvict::new(geom)));

    println!(
        "cyclic (ways + 1) thrash pattern, {} accesses:",
        thrash.len()
    );
    println!(
        "  LRU        miss rate {:.3} (thrashes completely)",
        miss_rate(&mut lru, &thrash)
    );
    println!(
        "  MRU-evict  miss rate {:.3} (retains most of the cycle)",
        miss_rate(&mut custom, &thrash)
    );
}
