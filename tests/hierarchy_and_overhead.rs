//! Integration tests of the timing model (§5.1), the hardware-overhead
//! model (Table 3) and the capacity-demand profiler (§3.1) through the
//! facade crate.

use stem::analysis::{geomean, CapacityDemandProfiler};
use stem::hierarchy::{System, SystemConfig};
use stem::llc::{overhead, StemCache, StemConfig};
use stem::replacement::{Lru, SetAssocCache};
use stem::sim_core::{
    Access, AccessResult, Address, CacheGeometry, DecodedTrace, TimingParams, Trace,
};
use stem::workloads::BenchmarkProfile;

/// §5.1's latency table drives AMAT exactly.
#[test]
fn latency_algebra_matches_section_5_1() {
    let t = TimingParams::micro2010();
    assert_eq!(t.l2_latency(AccessResult::HitLocal), 14);
    assert_eq!(t.l2_latency(AccessResult::MissLocal), 6);
    assert_eq!(t.l2_latency(AccessResult::MissCooperative), 12);
    assert_eq!(t.l2_latency(AccessResult::HitCooperative), 20);
}

/// Cooperative hits are slower than local hits but far faster than misses,
/// so an AMAT ordering holds end-to-end: all-local-hit < all-coop-hit <
/// all-miss systems.
#[test]
fn amat_orders_hit_classes() {
    let geom = CacheGeometry::new(16, 2, 64).unwrap();
    let cfg = SystemConfig::micro2010();

    // All-miss: streaming workload.
    let stream: Trace = (0..5000u64)
        .map(|i| Access::read(Address::new(i * 64)))
        .collect();
    let mut sys = System::new(cfg, Box::new(SetAssocCache::new(geom, Lru::new(geom))));
    let stream = DecodedTrace::decode(&stream, geom);
    let miss_amat = sys.warm_then_run_decoded(&stream, 0).amat;

    // All-L2-hit: two blocks per set, revisited (but L1-evicted via many
    // sets? keep it simple: alternate 64 lines > L1 set capacity of 2).
    let geom_big = CacheGeometry::new(2048, 16, 64).unwrap();
    let lines: Vec<Address> = (0..2048u64)
        .map(|i| geom_big.address_of(7, i as usize % 2048))
        .collect();
    // One warm pass over the lines, then five measured passes.
    let hit_trace: Trace = (0..6)
        .flat_map(|_| &lines)
        .map(|&a| Access::read(a))
        .collect();
    let mut sys2 = System::new(
        cfg,
        Box::new(SetAssocCache::new(geom_big, Lru::new(geom_big))),
    );
    let hit_trace = DecodedTrace::decode(&hit_trace, geom_big);
    let hit_amat = sys2.warm_then_run_decoded(&hit_trace, lines.len()).amat;

    assert!(
        hit_amat < 25.0,
        "L2-hit AMAT should be near 16 cycles: {hit_amat}"
    );
    assert!(
        miss_amat > 250.0,
        "all-miss AMAT should be near 308: {miss_amat}"
    );
}

/// Table 3: STEM's storage overhead lands on the paper's 3.1%.
#[test]
fn stem_overhead_is_3_percent() {
    let geom = CacheGeometry::micro2010_l2();
    let base = overhead::lru_baseline(geom);
    let s = overhead::stem(geom, &StemConfig::micro2010());
    let oh = s.overhead_vs(&base);
    assert!(
        (oh - 0.031).abs() < 0.005,
        "overhead {oh:.4} should be ~3.1%"
    );
}

/// The Fig. 1 claim for the ammp analog: about half the sets need at most
/// 4 ways.
#[test]
fn ammp_demand_distribution_matches_fig1b() {
    let geom = CacheGeometry::micro2010_l2();
    let trace = BenchmarkProfile::by_name("ammp")
        .unwrap()
        .decoded(geom, 200_000);
    let periods = CapacityDemandProfiler::micro2010(geom).profile_decoded(&trace);
    let agg = CapacityDemandProfiler::aggregate(&periods);
    let le4 = agg.fraction_at_most(4);
    assert!(
        (0.35..=0.75).contains(&le4),
        "about half of ammp's sets should need <= 4 ways: {le4:.3}"
    );
}

/// The omnetpp analog's demands are far more spread out than ammp's
/// (Fig. 1a vs 1b).
#[test]
fn omnetpp_demands_spread_wider_than_ammp() {
    let geom = CacheGeometry::micro2010_l2();
    let profiler = CapacityDemandProfiler::micro2010(geom);
    let frac_le4 = |name: &str| {
        let trace = BenchmarkProfile::by_name(name)
            .unwrap()
            .decoded(geom, 200_000);
        let agg = CapacityDemandProfiler::aggregate(&profiler.profile_decoded(&trace));
        agg.fraction_at_most(4)
    };
    assert!(frac_le4("ammp") > frac_le4("omnetpp") + 0.2);
}

/// Warm-up protocol: measured statistics exclude the warm-up accesses.
#[test]
fn warmup_is_excluded_from_metrics() {
    let geom = CacheGeometry::new(64, 4, 64).unwrap();
    let cfg = SystemConfig::micro2010();
    let mut sys = System::new(cfg, Box::new(StemCache::new(geom)));
    // The same 1000 accesses twice: the first pass warms, the second is
    // measured.
    let trace: Trace = (0..2000u64)
        .map(|i| Access::read(Address::new(i % 1000 % 256 * 64)))
        .collect();
    let m = sys.warm_then_run_decoded(&DecodedTrace::decode(&trace, geom), 1000);
    assert_eq!(m.accesses, 1000);
    // After warming all 256 lines, the measured pass should mostly hit.
    assert!(m.l2.miss_rate() < 0.1);
}

/// geomean sanity on a realistic vector.
#[test]
fn geomean_is_between_min_and_max() {
    let v = [0.5, 0.9, 1.3];
    let g = geomean(&v);
    assert!(g > 0.5 && g < 1.3);
}
