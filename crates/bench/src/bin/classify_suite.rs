//! Runs the Fig. 6 classifier over the whole Table 2 suite and compares
//! against the paper's class assignments.
//!
//! Run with `cargo run --release -p stem-bench --bin classify_suite`.

use stem_analysis::{classify_workload, Table};
use stem_sim_core::CacheGeometry;
use stem_workloads::spec2010_suite;

fn main() {
    let geom = CacheGeometry::micro2010_l2();
    let accesses = stem_bench::config::Config::from_env_or_panic()
        .accesses
        .unwrap_or(400_000);
    let mut t = Table::new(vec![
        "benchmark".into(),
        "paper class".into(),
        "detected".into(),
        "need".into(),
        "slack".into(),
        "BIP ratio".into(),
    ]);
    let mut agree = 0;
    let suite = spec2010_suite();
    for bench in &suite {
        let trace = bench.decoded(geom, accesses);
        let r = classify_workload(geom, &trace);
        if r.class == bench.class() {
            agree += 1;
        }
        t.row(vec![
            bench.name().into(),
            bench.class().to_string(),
            r.class.to_string(),
            format!("{:.2}", r.need),
            format!("{:.2}", r.slack),
            format!("{:.3}", r.bip_ratio),
        ]);
    }
    println!("Fig. 6 classifier over the Table 2 suite ({accesses} accesses)\n");
    println!("{t}");
    println!("agreement with the paper: {agree}/{}", suite.len());
}
