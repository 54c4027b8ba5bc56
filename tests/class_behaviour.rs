//! Integration tests of the workload-class claims (Fig. 6 / §5.2): each
//! class rewards the management dimension the paper says it should.

use stem::analysis::Scheme;
use stem::sim_core::{CacheGeometry, DecodedTrace};
use stem::workloads::BenchmarkProfile;
use stem_bench::engine::RunPlan;

const ACCESSES: usize = 400_000;

/// Bare-LLC MPKI of `scheme` over `trace` after the standard 20% warm-up.
fn warmed_mpki(scheme: Scheme, geom: CacheGeometry, trace: &DecodedTrace) -> f64 {
    RunPlan::serial(scheme, geom, 0.2)
        .run(trace)
        .expect("serial replay")
        .mpki()
}

fn mpki(scheme: Scheme, bench: &str, geom: CacheGeometry) -> f64 {
    let trace = BenchmarkProfile::by_name(bench)
        .expect("suite benchmark")
        .decoded(geom, ACCESSES);
    warmed_mpki(scheme, geom, &trace)
}

/// Class II (poor temporal locality): DIP beats LRU; the spatial schemes
/// cannot help much because there are no underutilized sets to borrow
/// from.
#[test]
fn class2_temporal_schemes_win() {
    let geom = CacheGeometry::micro2010_l2();
    for bench in ["cactusADM", "mcf"] {
        let lru = mpki(Scheme::Lru, bench, geom);
        let dip = mpki(Scheme::Dip, bench, geom);
        let sbc = mpki(Scheme::Sbc, bench, geom);
        assert!(dip < lru * 0.95, "{bench}: DIP {dip} should beat LRU {lru}");
        assert!(
            sbc > lru * 0.9,
            "{bench}: SBC {sbc} should be near LRU {lru}"
        );
        assert!(dip < sbc, "{bench}: temporal must beat spatial");
    }
}

/// Class III (uniform demands, good locality): LRU is sufficient — nobody
/// improves on it meaningfully, and STEM must not lose to it.
#[test]
fn class3_lru_is_sufficient() {
    let geom = CacheGeometry::micro2010_l2();
    for bench in ["twolf", "vpr", "gromacs"] {
        let lru = mpki(Scheme::Lru, bench, geom);
        let stem = mpki(Scheme::Stem, bench, geom);
        assert!(
            stem <= lru * 1.03,
            "{bench}: STEM {stem} must stay within 3% of LRU {lru}"
        );
    }
}

/// Class I (non-uniform demands): STEM beats LRU clearly, exploiting the
/// underutilized sets.
#[test]
fn class1_stem_beats_lru() {
    let geom = CacheGeometry::micro2010_l2();
    for bench in ["ammp", "omnetpp"] {
        let lru = mpki(Scheme::Lru, bench, geom);
        let stem = mpki(Scheme::Stem, bench, geom);
        assert!(
            stem < lru * 0.95,
            "{bench}: STEM {stem} should clearly beat LRU {lru}"
        );
    }
}

/// The astar pathology (§5.2): application-level dueling picks a policy
/// that harms the non-sample sets, so DIP *degrades* astar while STEM's
/// per-set decisions do not.
#[test]
fn astar_pathology_dip_degrades_stem_does_not() {
    let geom = CacheGeometry::micro2010_l2();
    let lru = mpki(Scheme::Lru, "astar", geom);
    let dip = mpki(Scheme::Dip, "astar", geom);
    let stem = mpki(Scheme::Stem, "astar", geom);
    assert!(dip > lru * 1.05, "DIP should degrade astar: {dip} vs {lru}");
    assert!(stem < lru * 1.02, "STEM must not: {stem} vs {lru}");
}

/// art at the 2MB configuration: no scheme improves over LRU (the paper's
/// observation that art is only improvable below 1MB).
#[test]
fn art_is_unimprovable_at_2mb() {
    let geom = CacheGeometry::micro2010_l2();
    let lru = mpki(Scheme::Lru, "art", geom);
    for scheme in [Scheme::Dip, Scheme::PeLifo, Scheme::Stem] {
        let m = mpki(scheme, "art", geom);
        assert!(
            (m - lru).abs() < lru * 0.05,
            "{scheme} should be within 5% of LRU on art: {m} vs {lru}"
        );
    }
}

/// The Fig. 3(b) crossover: at low associativity (8 ways, same 2048 sets)
/// the ammp analog rewards spatial management much more than at 16 ways.
#[test]
fn ammp_spatial_gain_grows_at_low_associativity() {
    let geom16 = CacheGeometry::micro2010_l2();
    let geom8 = CacheGeometry::new(2048, 8, 64).unwrap();
    let trace = BenchmarkProfile::by_name("ammp")
        .unwrap()
        .decoded(geom16, ACCESSES);
    let gain = |geom| {
        let lru = warmed_mpki(Scheme::Lru, geom, &trace);
        let stem = warmed_mpki(Scheme::Stem, geom, &trace);
        lru / stem
    };
    let gain8 = gain(geom8);
    let gain16 = gain(geom16);
    assert!(
        gain8 > gain16,
        "spatial benefit should be larger at 8 ways: {gain8:.3} vs {gain16:.3}"
    );
    assert!(
        gain8 > 1.3,
        "the [4,10] range is ammp's spatial comfort zone: {gain8:.3}"
    );
}
