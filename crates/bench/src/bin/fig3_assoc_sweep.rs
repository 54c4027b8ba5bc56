//! Regenerates **Fig. 3**: MPKI of LRU, DIP, PeLIFO, V-Way and SBC for the
//! omnetpp and ammp analogs across associativities 1–32 with the 2048-set
//! organisation of Fig. 1 (the motivation study — STEM excluded; see
//! `fig10_sensitivity` for the version with STEM).
//!
//! Each benchmark's trace is generated and decoded once; the (scheme,
//! ways) points then fan out over `STEM_THREADS` workers sharing the
//! decoded stream, with results assembled in input order so the tables are
//! byte-identical at any thread count.
//!
//! Run with `cargo run --release -p stem-bench --bin fig3_assoc_sweep`.

use stem_analysis::{Scheme, Table};
use stem_bench::engine::RunPlan;
use stem_bench::harness::{
    accesses_per_benchmark, prepare_trace, sensitivity_benchmarks, sweep_ways, WARMUP_FRACTION,
};
use stem_bench::pool;
use stem_sim_core::CacheGeometry;

fn main() {
    let base = CacheGeometry::micro2010_l2();
    let accesses = accesses_per_benchmark();
    let schemes = [
        Scheme::Lru,
        Scheme::Dip,
        Scheme::PeLifo,
        Scheme::VWay,
        Scheme::Sbc,
    ];
    let ways = sweep_ways();

    for bench in sensitivity_benchmarks() {
        let trace = prepare_trace(&bench, base, accesses).trace;
        eprintln!(
            "Fig. 3 ({}) sweeping {} points on {} thread(s)...",
            bench.name(),
            schemes.len() * ways.len(),
            pool::configured_threads()
        );
        let jobs: Vec<_> = schemes
            .iter()
            .flat_map(|&s| {
                let trace = &trace;
                let ways = &ways;
                ways.iter().map(move |&w| {
                    move || {
                        let geom = CacheGeometry::new(base.sets(), w, base.line_bytes())
                            .expect("sweep geometry is valid");
                        RunPlan::serial(s, geom, WARMUP_FRACTION)
                            .run(trace)
                            .expect("serial replay always succeeds")
                            .mpki()
                    }
                })
            })
            .collect();
        let mpki = pool::map_ordered(jobs);
        let mut headers = vec!["assoc".to_owned()];
        headers.extend(schemes.iter().map(|s| s.label().to_owned()));
        let mut t = Table::new(headers);
        for (wi, &w) in ways.iter().enumerate() {
            let values: Vec<f64> = (0..schemes.len())
                .map(|si| mpki[si * ways.len() + wi])
                .collect();
            t.row_f64(&w.to_string(), &values);
        }
        println!(
            "\nFigure 3 ({}) — MPKI vs associativity (2048 sets)\n",
            bench.name()
        );
        println!("{t}");
    }
}
