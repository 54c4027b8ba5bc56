//! Scenario tests of the STEM controller against hand-analysable
//! workloads, exercising the §4 mechanisms end to end.

use stem_llc::{PolicyKind, StemCache, StemConfig};
use stem_sim_core::{Access, AccessKind, CacheGeometry, CacheModel, DecodedTrace};

fn cyclic(geom: CacheGeometry, set: usize, blocks: u64, rounds: usize) -> DecodedTrace {
    let mut t = DecodedTrace::with_capacity(geom, 0);
    for _ in 0..rounds {
        for tag in 0..blocks {
            t.push(Access::read(geom.address_of(tag, set)));
        }
    }
    t
}

/// §4.4: a thrashing set's shadow (running BIP) out-hits it, SC_T
/// saturates, and the set swaps to BIP — after which its hit rate rises
/// close to (ways-1)/blocks.
#[test]
fn thrashing_set_converges_to_bip_hit_rate() {
    let geom = CacheGeometry::new(2, 8, 64).unwrap();
    let blocks = 12u64;
    let mut stem = StemCache::new(geom);
    stem.run_decoded(&cyclic(geom, 0, blocks, 200));
    assert_eq!(
        stem.policy_of(0),
        PolicyKind::Bip,
        "set 0 should have swapped"
    );
    stem.reset_stats();
    stem.run_decoded(&cyclic(geom, 0, blocks, 200));
    let hit_rate = 1.0 - stem.stats().miss_rate();
    let bip_bound = (geom.ways() as f64 - 1.0) / blocks as f64;
    assert!(
        hit_rate > bip_bound * 0.7,
        "steady-state hit rate {hit_rate:.3} far below the BIP bound {bip_bound:.3}"
    );
}

/// §4.5–§4.7 full lifecycle on two sets: couple, cooperate, then — when
/// the giver's own demand explodes — stop receiving and eventually
/// decouple.
#[test]
fn coupling_lifecycle_with_role_change() {
    let geom = CacheGeometry::new(2, 4, 64).unwrap();
    let mut stem = StemCache::new(geom);

    // Phase 1: set 0 cycles 6 blocks (taker), set 1 holds one block
    // (giver). Expect coupling and cooperative hits.
    let mut phase1 = DecodedTrace::with_capacity(geom, 0);
    for round in 0..3000u64 {
        phase1.push(Access::read(geom.address_of(round % 6, 0)));
        phase1.push(Access::read(geom.address_of(0, 1)));
    }
    stem.run_decoded(&phase1);
    assert!(stem.stats().couplings() > 0, "no coupling in phase 1");
    assert!(stem.stats().coop_hits() > 0, "no cooperation in phase 1");

    // Phase 2: set 1's own working set explodes; receiving must stop
    // (§4.6 feedback) and the pair eventually dissolves (§4.7).
    let mut phase2 = DecodedTrace::with_capacity(geom, 0);
    for round in 0..4000u64 {
        phase2.push(Access::read(geom.address_of(round % 6, 0)));
        phase2.push(Access::read(geom.address_of(round % 7, 1)));
    }
    stem.run_decoded(&phase2);
    assert!(
        stem.stats().decouplings() > 0,
        "the overwhelmed giver never decoupled"
    );
}

/// Write traffic: dirty blocks spilled to a giver and later evicted must
/// be written back exactly once.
#[test]
fn dirty_spills_write_back() {
    let geom = CacheGeometry::new(2, 4, 64).unwrap();
    let mut stem = StemCache::new(geom);
    let mut t = DecodedTrace::with_capacity(geom, 0);
    for round in 0..3000u64 {
        t.push(Access::write(geom.address_of(round % 6, 0)));
        t.push(Access::read(geom.address_of(0, 1)));
    }
    stem.run_decoded(&t);
    assert!(
        stem.stats().writebacks() > 0,
        "dirty evictions must write back"
    );
    // Writebacks can never exceed evictions.
    assert!(stem.stats().writebacks() <= stem.stats().evictions());
}

/// The ablated configurations degrade gracefully: full STEM is at least
/// as good as the worse of its two halves on a mixed workload.
#[test]
fn full_stem_not_worse_than_both_halves() {
    let geom = CacheGeometry::new(8, 4, 64).unwrap();
    let mut trace = DecodedTrace::with_capacity(geom, 0);
    for round in 0..2000u64 {
        // Sets 0-3 thrash (temporal territory); set 4 idles (giver);
        // sets 5-7 moderate.
        for set in 0..4usize {
            trace.push(Access::read(geom.address_of(round % 6, set)));
        }
        trace.push(Access::read(geom.address_of(0, 4)));
        for set in 5..8usize {
            trace.push(Access::read(geom.address_of(round % 3, set)));
        }
    }
    let run = |cfg: StemConfig| {
        let mut c = StemCache::with_config(geom, cfg);
        c.run_decoded(&trace);
        c.stats().misses()
    };
    let full = run(StemConfig::micro2010());
    let temporal_only = run(StemConfig::micro2010().with_spatial_coupling(false));
    let spatial_only = run(StemConfig::micro2010().with_temporal_adaptation(false));
    assert!(
        full <= temporal_only.max(spatial_only),
        "full {full} vs temporal-only {temporal_only} / spatial-only {spatial_only}"
    );
}

/// Reads and writes follow the same lookup path: interleaving kinds never
/// changes hit/miss behaviour, only dirty bits.
#[test]
fn kind_does_not_change_placement() {
    let geom = CacheGeometry::new(4, 2, 64).unwrap();
    let tags: Vec<u64> = (0..200).map(|i| (i * 7) % 12).collect();
    let run = |kinds_alternate: bool| {
        let mut c = StemCache::new(geom);
        let mut results = Vec::new();
        for (i, &t) in tags.iter().enumerate() {
            let kind = if kinds_alternate && i % 2 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            results.push(
                c.access(geom.address_of(t, (t % 4) as usize), kind)
                    .is_hit(),
            );
        }
        results
    };
    assert_eq!(run(false), run(true));
}
