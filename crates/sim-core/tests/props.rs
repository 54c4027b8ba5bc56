//! Property tests for the sim-core substrate, driven by the in-repo
//! deterministic harness (`stem_sim_core::prop`).

use stem_sim_core::{prop, Access, Address, CacheGeometry, SaturatingCounter, Trace};

/// Tag/index/offset decomposition is a bijection on line addresses.
#[test]
fn geometry_roundtrip() {
    prop::check(256, |g| {
        let sets_pow = g.u32(1, 12);
        let ways = g.usize(1, 32);
        let addr = g.u64(0, 1 << 44);
        let geom = CacheGeometry::new(1 << sets_pow, ways, 64).expect("valid geometry");
        let line = Address::new(addr).line(64);
        let tag = geom.tag_of_line(line);
        let set = geom.set_index_of_line(line);
        assert_eq!(geom.line_of(tag, set), line);
        assert!(set < geom.sets());
    });
}

/// Saturating counters never escape their range and saturate monotonically.
#[test]
fn counter_stays_in_range() {
    prop::check(128, |g| {
        let bits = g.u32(1, 16);
        let mut c = SaturatingCounter::new(bits);
        for _ in 0..g.usize(0, 500) {
            if g.bool() {
                c.increment();
            } else {
                c.decrement();
            }
            assert!(c.value() <= c.max());
            assert_eq!(c.is_saturated(), c.value() == c.max());
            assert_eq!(c.msb(), c.value() >= c.midpoint());
        }
    });
}

/// Trace statistics are consistent: accesses match the trace length and
/// sets_touched is bounded by the geometry.
#[test]
fn trace_stats_consistent() {
    prop::check(128, |g| {
        let geom = CacheGeometry::new(64, 4, 64).expect("valid geometry");
        let trace: Trace = (0..g.usize(1, 300))
            .map(|_| Access::read(Address::new(g.u64(0, 1_000_000))))
            .collect();
        let stats = trace.stats(geom);
        assert_eq!(stats.accesses, trace.len() as u64);
        assert!(stats.instructions >= stats.accesses);
        assert!(stats.sets_touched <= geom.sets());
        assert!(stats.sets_touched >= 1);
    });
}
