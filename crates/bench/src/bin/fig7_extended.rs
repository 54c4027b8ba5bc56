//! Extended Fig. 7: normalized MPKI over the 15-benchmark suite for
//! *every* scheme in the workspace — the paper's six plus BIP, SRRIP,
//! PLRU, NRU, static SBC and the victim-cache baseline. Each trace goes
//! through the L1 once; all 13 schemes replay its LLC stream.
//!
//! Run with `cargo run --release -p stem-bench --bin fig7_extended`.

use stem_analysis::{build_cache, geomean, Scheme, Table};
use stem_bench::harness::{accesses_per_benchmark, prepare_llc_stream};
use stem_sim_core::CacheGeometry;
use stem_workloads::spec2010_suite;

fn main() {
    let geom = CacheGeometry::micro2010_l2();
    let accesses = accesses_per_benchmark();
    let schemes: Vec<Scheme> = Scheme::ALL
        .iter()
        .copied()
        .filter(|&s| s != Scheme::Lru)
        .collect();

    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(schemes.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new(headers);
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];

    for bench in spec2010_suite() {
        let stream = prepare_llc_stream(&bench, geom, accesses).stream;
        let run = |scheme| stream.replay(build_cache(scheme, geom).as_mut());
        let lru = run(Scheme::Lru);
        let mut values = Vec::new();
        for (i, &s) in schemes.iter().enumerate() {
            let m = run(s);
            let (nm, _, _) = m.normalized_to(&lru);
            values.push(nm);
            per_scheme[i].push(nm);
        }
        eprintln!("  {:<10} done", bench.name());
        t.row_f64(bench.name(), &values);
    }
    let means: Vec<f64> = per_scheme.iter().map(|v| geomean(v)).collect();
    t.row_f64("Geomean", &means);
    println!("\nExtended Fig. 7 — normalized MPKI, all implemented schemes\n");
    println!("{t}");
}
