//! Regenerates **Fig. 10**: the sensitivity study — MPKI of all six
//! schemes (including STEM) for the omnetpp and ammp analogs across
//! associativities 1–32 with the 2048-set organisation of Fig. 1.
//!
//! Run with `cargo run --release -p stem-bench --bin fig10_sensitivity`.

use stem_analysis::{Scheme, Table};
use stem_bench::engine::RunPlan;
use stem_bench::harness::{
    accesses_per_benchmark, prepare_trace, sensitivity_benchmarks, sweep_ways, WARMUP_FRACTION,
};
use stem_sim_core::CacheGeometry;

fn main() {
    let base = CacheGeometry::micro2010_l2();
    let accesses = accesses_per_benchmark();
    let ways = sweep_ways();

    for bench in sensitivity_benchmarks() {
        let trace = prepare_trace(&bench, base, accesses).trace;
        eprintln!(
            "Fig. 10 ({}) sweeping {} points x 6 schemes...",
            bench.name(),
            ways.len()
        );
        let mut headers = vec!["assoc".to_owned()];
        headers.extend(Scheme::PAPER.iter().map(|s| s.label().to_owned()));
        let mut t = Table::new(headers);
        for &w in &ways {
            let geom = CacheGeometry::new(base.sets(), w, base.line_bytes())
                .expect("sweep geometry is valid");
            let values: Vec<f64> = Scheme::PAPER
                .iter()
                .map(|&scheme| {
                    RunPlan::serial(scheme, geom, WARMUP_FRACTION)
                        .run(&trace)
                        .expect("serial replay always succeeds")
                        .mpki()
                })
                .collect();
            t.row_f64(&w.to_string(), &values);
        }
        println!(
            "\nFigure 10 ({}) — MPKI vs associativity, 2048 sets (with STEM)\n",
            bench.name()
        );
        println!("{t}");
    }
}
