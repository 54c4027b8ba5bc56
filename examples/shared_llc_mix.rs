//! Beyond the paper: co-run a multiprogrammed mix on a shared LLC and
//! report the co-scheduling metrics — per-core MPKI under sharing vs
//! solo, per-core speedup, weighted speedup, and fairness.
//!
//! Each program lives in a private region of the 44-bit address space
//! (no sharing of data), so all interference is capacity contention in
//! the shared L2. See `DESIGN.md` §16 for the determinism model.
//!
//! ```sh
//! cargo run --release --example shared_llc_mix
//! ```

use stem::analysis::{run_mix_decoded, Scheme};
use stem::hierarchy::SystemConfig;
use stem::sim_core::CacheGeometry;
use stem::workloads::{BenchmarkProfile, WorkloadMix};

fn main() {
    let geom = CacheGeometry::micro2010_l2();
    let mix = WorkloadMix::new(vec![
        (BenchmarkProfile::by_name("omnetpp").expect("suite"), 1.0),
        (BenchmarkProfile::by_name("gromacs").expect("suite"), 1.0),
    ]);
    let names = ["omnetpp", "gromacs"];
    let streams = mix.core_traces(geom, 600_000);

    println!("shared-LLC mix: omnetpp + gromacs, 2MB 16-way L2\n");
    for scheme in [Scheme::Lru, Scheme::Stem] {
        let out = run_mix_decoded(
            scheme,
            geom,
            SystemConfig::micro2010(),
            &streams,
            &mix.weights(),
            42,
            0.2,
        );
        println!("{}:", scheme.label());
        for (i, name) in names.iter().enumerate() {
            println!(
                "  core {i} ({name:<8}) solo MPKI {:7.3}  shared MPKI {:7.3}  speedup {:.4}",
                out.solo[i].mpki, out.mix.per_core[i].mpki, out.speedups[i]
            );
        }
        println!(
            "  weighted speedup {:.4} (of {} cores)  fairness {:.4}\n",
            out.weighted_speedup,
            streams.len(),
            out.fairness
        );
    }
    println!(
        "(The paper studies a private LLC; this example drives the same\n\
         schemes through the shared-LLC mix subsystem with solo baselines.)"
    );
}
