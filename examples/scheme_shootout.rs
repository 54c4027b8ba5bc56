//! Compare all six LLC management schemes on one benchmark analog and
//! print the paper-style normalized metric table.
//!
//! ```sh
//! cargo run --release --example scheme_shootout [benchmark] [accesses]
//! ```
//!
//! Defaults to `ammp` with 500k accesses. Valid benchmark names are the 15
//! of Table 2 (`stem::workloads::spec2010_suite`).

use stem::analysis::{run_system, Scheme, Table};
use stem::hierarchy::SystemConfig;
use stem::sim_core::CacheGeometry;
use stem::workloads::BenchmarkProfile;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "ammp".to_owned());
    let accesses: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500_000);

    let Some(bench) = BenchmarkProfile::by_name(&name) else {
        eprintln!("unknown benchmark {name:?}; pick one of the Table 2 names");
        std::process::exit(1);
    };

    let geom = CacheGeometry::micro2010_l2();
    let trace = bench.decoded(geom, accesses);
    let cfg = SystemConfig::micro2010();

    println!(
        "{} ({}) — {} accesses, 2MB 16-way L2\n",
        bench.name(),
        bench.class(),
        accesses
    );
    let mut t = Table::new(vec![
        "scheme".into(),
        "MPKI".into(),
        "AMAT".into(),
        "CPI".into(),
        "norm MPKI".into(),
    ]);
    let lru = run_system(Scheme::Lru, geom, cfg, &trace, 0.2);
    for scheme in Scheme::PAPER {
        let m = run_system(scheme, geom, cfg, &trace, 0.2);
        let (nm, _, _) = m.normalized_to(&lru);
        t.row(vec![
            scheme.label().into(),
            format!("{:.3}", m.mpki),
            format!("{:.2}", m.amat),
            format!("{:.3}", m.cpi),
            format!("{nm:.3}"),
        ]);
    }
    println!("{t}");
}
