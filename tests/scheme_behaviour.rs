//! Cross-crate integration tests: the qualitative claims of the paper's
//! motivation (§3) and evaluation (§5) hold end-to-end on the public API.

use stem::analysis::Scheme;
use stem::llc::StemCache;
use stem::replacement::{Bip, Lru, OptCache, SetAssocCache};
use stem::sim_core::{Access, AccessKind, CacheGeometry, CacheModel, DecodedTrace, Trace};
use stem::spatial::{SbcCache, VWayCache};
use stem::workloads::synthetic;
use stem_bench::engine::RunPlan;

/// Bare-LLC MPKI of `scheme` over `trace` after a `warmup` fraction.
fn warmed_mpki(scheme: Scheme, geom: CacheGeometry, trace: &DecodedTrace, warmup: f64) -> f64 {
    RunPlan::serial(scheme, geom, warmup)
        .run(trace)
        .expect("serial replay")
        .mpki()
}

/// The Fig. 2 example stream of `rounds` rounds, decoded.
fn fig2_stream(example: u8, rounds: usize) -> DecodedTrace {
    let geom = synthetic::fig2_geometry().unwrap();
    DecodedTrace::decode(&synthetic::fig2_example(example, rounds), geom)
}

/// Steady-state miss rate after a warm-up replay.
fn steady_miss_rate(cache: &mut dyn CacheModel, warm: &DecodedTrace, trace: &DecodedTrace) -> f64 {
    cache.run_decoded(warm);
    cache.reset_stats();
    cache.run_decoded(trace);
    cache.stats().miss_rate()
}

/// Fig. 2 Example #1: complementary demands. Spatial schemes approach zero
/// misses; LRU stays at 1/2.
#[test]
fn fig2_example1_spatial_schemes_win() {
    let geom = synthetic::fig2_geometry().unwrap();
    let warm = fig2_stream(1, 100);
    let trace = fig2_stream(1, 1000);

    let lru = steady_miss_rate(
        &mut SetAssocCache::new(geom, Box::new(Lru::new(geom))),
        &warm,
        &trace,
    );
    assert!((lru - 0.5).abs() < 0.02, "LRU should miss 1/2: {lru}");

    let sbc = steady_miss_rate(&mut SbcCache::new(geom), &warm, &trace);
    assert!(sbc < 0.05, "SBC should approach the paper's 0: {sbc}");

    let stem = steady_miss_rate(&mut StemCache::new(geom), &warm, &trace);
    assert!(stem < 0.10, "STEM should also exploit the pairing: {stem}");
}

/// Fig. 2 Example #3: both sets thrash — no spatial cooperation possible,
/// only insertion-policy adaptation helps.
#[test]
fn fig2_example3_only_temporal_helps() {
    let geom = synthetic::fig2_geometry().unwrap();
    let warm = fig2_stream(3, 100);
    let trace = fig2_stream(3, 1000);

    let lru = steady_miss_rate(
        &mut SetAssocCache::new(geom, Box::new(Lru::new(geom))),
        &warm,
        &trace,
    );
    assert!(lru > 0.98, "both working sets must thrash LRU: {lru}");

    let sbc = steady_miss_rate(&mut SbcCache::new(geom), &warm, &trace);
    assert!(sbc > 0.9, "SBC has no underutilized sets to exploit: {sbc}");

    let bip = steady_miss_rate(
        &mut SetAssocCache::new(geom, Box::new(Bip::new(geom))),
        &warm,
        &trace,
    );
    assert!(bip < 0.6, "BIP retains part of both cycles: {bip}");

    let stem = steady_miss_rate(&mut StemCache::new(geom), &warm, &trace);
    assert!(
        stem < lru - 0.2,
        "STEM's per-set policy swap must rescue the thrash: {stem} vs {lru}"
    );
}

/// OPT lower-bounds every online scheme on the same trace.
#[test]
fn opt_is_a_lower_bound_for_all_schemes() {
    let geom = CacheGeometry::new(32, 4, 64).unwrap();
    // A mixed workload: thrash + reuse + streaming across sets.
    let mut trace = Trace::new();
    for round in 0..200u64 {
        for set in 0..32usize {
            let tag = match set % 3 {
                0 => round % 6, // cyclic 6 > 4 ways
                1 => round % 3, // fits
                _ => round,     // stream
            };
            trace.push(Access::read(geom.address_of(tag, set)));
        }
    }
    let trace = DecodedTrace::decode(&trace, geom);
    let opt = OptCache::min_misses(geom, &trace);
    for scheme in Scheme::PAPER {
        let mpki = warmed_mpki(scheme, geom, &trace, 0.0);
        let misses = mpki * trace.instructions() as f64 / 1000.0;
        assert!(
            opt as f64 <= misses + 0.5,
            "{scheme} beat OPT: {misses} < {opt}"
        );
    }
}

/// V-Way's headline property: a hot set can exceed its nominal
/// associativity while idle sets shrink.
#[test]
fn vway_variable_associativity_end_to_end() {
    let geom = CacheGeometry::new(8, 2, 64).unwrap();
    let mut vway = VWayCache::new(geom);
    // Set 0 needs 4 lines, the rest are idle.
    let mut trace = Trace::new();
    for round in 0..200u64 {
        trace.push(Access::read(geom.address_of(round % 4, 0)));
    }
    vway.run_decoded(&DecodedTrace::decode(&trace, geom));
    assert!(
        vway.data_lines_of(0) >= 4,
        "hot set holds {} lines",
        vway.data_lines_of(0)
    );
    assert!(vway.pointers_consistent());
    // The last full cycle must have been all hits.
    vway.reset_stats();
    for tag in 0..4u64 {
        vway.access(geom.address_of(tag, 0), AccessKind::Read);
    }
    assert_eq!(vway.stats().misses(), 0);
}

/// Deterministic replay: the same trace through the same scheme yields
/// bit-identical statistics (the whole simulator is seed-stable).
#[test]
fn simulation_is_deterministic() {
    let geom = CacheGeometry::new(64, 4, 64).unwrap();
    let bench = stem::workloads::BenchmarkProfile::by_name("omnetpp").unwrap();
    let trace = bench.decoded(geom, 30_000);
    for scheme in Scheme::PAPER {
        let a = warmed_mpki(scheme, geom, &trace, 0.1);
        let b = warmed_mpki(scheme, geom, &trace, 0.1);
        assert_eq!(a, b, "{scheme} is not deterministic");
    }
}
