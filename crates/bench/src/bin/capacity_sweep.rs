//! Capacity sweep: MPKI of every paper scheme as the LLC grows from 256KB
//! to 8MB at a fixed 16-way associativity.
//!
//! This validates the paper's side claims that are about *capacity* rather
//! than associativity — most prominently that `art` "is improvable by
//! advanced temporal schemes only when its capacity is no greater than
//! 1MB" (§5.2), which is why no scheme beats LRU on art at the standard
//! 2MB configuration.
//!
//! Run with `cargo run --release -p stem-bench --bin capacity_sweep`.

use stem_analysis::{Scheme, Table};
use stem_bench::engine::RunPlan;
use stem_sim_core::CacheGeometry;
use stem_workloads::BenchmarkProfile;

fn main() {
    let accesses = stem_bench::config::Config::from_env_or_panic()
        .accesses
        .unwrap_or(1_000_000);
    let benches = ["art", "omnetpp"];
    // 16 ways fixed; sets 256..8192 → 256KB..8MB.
    let set_points = [256usize, 512, 1024, 2048, 4096, 8192];

    for name in benches {
        let bench = BenchmarkProfile::by_name(name).expect("suite benchmark");
        // One stream, generated once, replays at every set count.
        let trace = bench.decoded(CacheGeometry::micro2010_l2(), accesses);
        eprintln!("capacity sweep for {name}...");

        let mut headers = vec!["capacity".to_owned()];
        headers.extend(Scheme::PAPER.iter().map(|s| s.label().to_owned()));
        let mut t = Table::new(headers);
        for &sets in &set_points {
            let geom = CacheGeometry::new(sets, 16, 64).expect("valid geometry");
            let values: Vec<f64> = Scheme::PAPER
                .iter()
                .map(|&scheme| {
                    RunPlan::serial(scheme, geom, 0.2)
                        .run(&trace)
                        .expect("serial replay always succeeds")
                        .mpki()
                })
                .collect();
            let label = format!("{}KB", geom.capacity_bytes() / 1024);
            t.row_f64(&label, &values);
        }
        println!("\nCapacity sweep ({name}) — MPKI at 16 ways\n");
        println!("{t}");
    }
    println!(
        "Reference claim (§5.2): art's temporal improvability disappears\n\
         above 1MB — DIP/PeLIFO should beat LRU at 256-1024KB and converge\n\
         to it from 2MB upward."
    );
}
