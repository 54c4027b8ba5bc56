//! Quickstart: build a STEM LLC, run a workload through the full memory
//! hierarchy, and read out the paper's three metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stem::hierarchy::{System, SystemConfig};
use stem::llc::{StemCache, StemConfig};
use stem::sim_core::CacheGeometry;
use stem::workloads::BenchmarkProfile;

fn main() {
    // The paper's L2: 2MB, 16-way, 64-byte lines (Table 1).
    let geom = CacheGeometry::micro2010_l2();

    // The paper's primary contribution, with Table 3 parameters.
    let stem = StemCache::with_config(geom, StemConfig::micro2010());

    // A synthetic analog of the omnetpp benchmark (Class I: non-uniform
    // set-level capacity demands).
    let bench = BenchmarkProfile::by_name("omnetpp").expect("known benchmark");
    let trace = bench.decoded(geom, 500_000);

    // Core + L1 + STEM L2 + memory, with the §5.1 latency algebra: the
    // first 100k accesses warm the caches, the rest are measured.
    let mut system = System::new(SystemConfig::micro2010(), Box::new(stem));
    let metrics = system.warm_then_run_decoded(&trace, 100_000);

    println!("workload : {} ({})", bench.name(), bench.class());
    println!("scheme   : STEM");
    println!("metrics  : {metrics}");
    println!();
    println!(
        "cooperation: {} couplings, {} spills, {} cooperative hits",
        metrics.l2.couplings(),
        metrics.l2.spills(),
        metrics.l2.coop_hits()
    );
    println!(
        "adaptation : {} per-set policy swaps",
        metrics.l2.policy_swaps()
    );
}
