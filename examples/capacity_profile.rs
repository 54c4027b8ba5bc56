//! Profile the set-level capacity demands of a workload with the paper's
//! §3.1 methodology (Fig. 1): per sampling period, each set's demand is
//! the minimum number of ways that resolves all of its conflict misses.
//!
//! ```sh
//! cargo run --release --example capacity_profile [benchmark]
//! ```

use stem::analysis::CapacityDemandProfiler;
use stem::sim_core::CacheGeometry;
use stem::workloads::BenchmarkProfile;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ammp".to_owned());
    let Some(bench) = BenchmarkProfile::by_name(&name) else {
        eprintln!("unknown benchmark {name:?}; pick one of the Table 2 names");
        std::process::exit(1);
    };

    let geom = CacheGeometry::micro2010_l2();
    let trace = bench.decoded(geom, 500_000);
    let profiler = CapacityDemandProfiler::micro2010(geom);
    let periods = profiler.profile_decoded(&trace);
    let agg = CapacityDemandProfiler::aggregate(&periods);

    println!(
        "{} ({}): set-level capacity demands over {} sampling periods\n",
        bench.name(),
        bench.class(),
        periods.len()
    );
    println!("demand band   fraction of sets");
    let banded = agg.banded();
    let labels: Vec<String> = std::iter::once("0 (stream)".to_owned())
        .chain((0..16).map(|i| format!("{:>2}-{:<2} ways", 2 * i + 1, 2 * i + 2)))
        .collect();
    for (label, frac) in labels.iter().zip(&banded) {
        let bar = "#".repeat((frac * 50.0).round() as usize);
        println!("{label:>11}   {frac:>6.3}  {bar}");
    }
    println!(
        "\ncumulative: <= 4 ways {:.1}%, <= 16 ways {:.1}%",
        agg.fraction_at_most(4) * 100.0,
        agg.fraction_at_most(16) * 100.0
    );
}
