//! The fused generator is a pure representation change: generating
//! straight into `DecodedTrace` columns must equal generating the
//! array-of-structs `Trace` and decoding it afterwards, for every suite
//! benchmark, at lengths around the 64-access write-word boundary and
//! across phase boundaries, at both the paper geometry and a small one.

use stem_sim_core::{CacheGeometry, DecodedTrace};
use stem_workloads::spec2010_suite;

const LENGTHS: [usize; 6] = [1, 63, 64, 65, 10_000, 100_300];

#[test]
fn decoded_generation_equals_decoding_the_generated_trace() {
    let geoms = [
        CacheGeometry::micro2010_l2(),
        CacheGeometry::new(64, 4, 64).expect("valid geometry"),
    ];
    let suite = spec2010_suite();
    assert_eq!(suite.len(), 15);
    for bench in &suite {
        for geom in geoms {
            for n in LENGTHS {
                let case = format!("{} at {}x{}, n={n}", bench.name(), geom.sets(), geom.ways());
                let fused = bench.decoded(geom, n);
                let reference = DecodedTrace::decode(&bench.trace(geom, n), geom);
                assert_eq!(fused.len(), n, "{case}");
                assert_eq!(fused.geometry(), reference.geometry(), "{case}");
                assert_eq!(fused.set_indices(), reference.set_indices(), "{case}: sets");
                assert_eq!(fused.line_addrs(), reference.line_addrs(), "{case}: lines");
                assert!(
                    (0..n).all(|i| fused.is_write(i) == reference.is_write(i)),
                    "{case}: write bits"
                );
                assert_eq!(fused.inst_gaps(), reference.inst_gaps(), "{case}: gaps");
                assert_eq!(fused.instructions(), reference.instructions(), "{case}");
                assert_eq!(fused, reference, "{case}: whole stream");
            }
        }
    }
}
