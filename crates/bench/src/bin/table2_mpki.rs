//! Regenerates **Table 2**: LRU MPKI of the 15 benchmarks with their class
//! assignment, at the paper's 2MB 16-way L2.
//!
//! Run with `cargo run --release -p stem-bench --bin table2_mpki`.

use stem_analysis::{run_system, Scheme, Table};
use stem_bench::harness::{accesses_per_benchmark, prepare_trace, WARMUP_FRACTION};
use stem_hierarchy::SystemConfig;
use stem_sim_core::CacheGeometry;
use stem_workloads::spec2010_suite;

/// The paper's Table 2 reference MPKIs, for side-by-side comparison.
fn paper_mpki(name: &str) -> f64 {
    match name {
        "ammp" => 2.535,
        "apsi" => 5.453,
        "astar" => 2.622,
        "omnetpp" => 11.553,
        "xalancbmk" => 14.789,
        "art" => 16.769,
        "cactusADM" => 3.459,
        "galgel" => 1.426,
        "mcf" => 59.993,
        "sphinx3" => 10.969,
        "gobmk" => 2.236,
        "gromacs" => 1.099,
        "soplex" => 24.298,
        "twolf" => 3.793,
        "vpr" => 3.306,
        _ => f64::NAN,
    }
}

fn main() {
    let geom = CacheGeometry::micro2010_l2();
    let cfg = SystemConfig::micro2010();
    let accesses = accesses_per_benchmark();
    eprintln!("Table 2: LRU MPKI characteristics, {accesses} accesses per benchmark");

    let mut table = Table::new(vec![
        "benchmark".into(),
        "class".into(),
        "MPKI (paper)".into(),
        "MPKI (measured)".into(),
    ]);
    for bench in spec2010_suite() {
        let trace = prepare_trace(&bench, geom, accesses).trace;
        let m = run_system(Scheme::Lru, geom, cfg, &trace, WARMUP_FRACTION);
        table.row(vec![
            bench.name().into(),
            bench.class().to_string(),
            format!("{:.3}", paper_mpki(bench.name())),
            format!("{:.3}", m.mpki),
        ]);
        eprintln!("  {:<10} {:.3}", bench.name(), m.mpki);
    }
    println!("\nTable 2 — MPKI characteristics of the benchmarks (under LRU)\n");
    println!("{table}");
}
