//! Ablation study of STEM's design choices (the five knobs called out in
//! `DESIGN.md` §5): receive constraint, per-set policy swapping, set
//! coupling, shadow-tag width `m`, spatial ratio `n`, and giver-heap
//! capacity. For each configuration the binary reports MPKI on three
//! probe workloads (one per paper class).
//!
//! Run with `cargo run --release -p stem-bench --bin ablation_stem`.

use stem_analysis::Table;
use stem_llc::{StemCache, StemConfig};
use stem_sim_core::{CacheGeometry, CacheModel, DecodedTrace};
use stem_workloads::BenchmarkProfile;

/// MPKI of STEM under `cfg` on `trace`: warm on the first fifth, then
/// measure the rest.
fn mpki(cfg: StemConfig, geom: CacheGeometry, trace: &DecodedTrace) -> f64 {
    let mut cache = StemCache::with_config(geom, cfg);
    let warm = trace.len() / 5;
    cache.replay_decoded(trace, 0..warm);
    cache.reset_stats();
    cache.replay_decoded(trace, warm..trace.len());
    cache
        .stats()
        .mpki(trace.instructions_in(warm..trace.len()).max(1))
}

fn main() {
    let geom = CacheGeometry::micro2010_l2();
    let accesses = stem_bench::config::Config::from_env_or_panic()
        .accesses
        .unwrap_or(1_000_000);
    let probes = ["omnetpp", "cactusADM", "twolf"]; // Class I / II / III
    let traces: Vec<DecodedTrace> = probes
        .iter()
        .map(|n| {
            BenchmarkProfile::by_name(n)
                .expect("suite benchmark")
                .decoded(geom, accesses)
        })
        .collect();

    let base = StemConfig::micro2010();
    let variants: Vec<(&str, StemConfig)> = vec![
        ("full STEM (Table 3)", base),
        ("no receive constraint", base.with_receive_constraint(false)),
        (
            "no temporal adaptation",
            base.with_temporal_adaptation(false),
        ),
        ("no spatial coupling", base.with_spatial_coupling(false)),
        ("m = 6 (narrow shadow tags)", base.with_shadow_tag_bits(6)),
        ("m = 14 (wide shadow tags)", base.with_shadow_tag_bits(14)),
        ("n = 1 (eager SC_S decay)", base.with_spatial_ratio_log2(1)),
        ("n = 5 (lazy SC_S decay)", base.with_spatial_ratio_log2(5)),
        ("heap capacity 4", base.with_heap_capacity(4)),
        ("heap capacity 64", base.with_heap_capacity(64)),
        ("k = 3 (narrow counters)", base.with_counter_bits(3)),
        ("k = 6 (wide counters)", base.with_counter_bits(6)),
    ];

    let mut headers = vec!["configuration".to_owned()];
    headers.extend(probes.iter().map(|p| format!("{p} MPKI")));
    let mut t = Table::new(headers);
    for (name, cfg) in &variants {
        eprintln!("running {name}...");
        let values: Vec<f64> = traces.iter().map(|tr| mpki(*cfg, geom, tr)).collect();
        t.row_f64(name, &values);
    }
    println!("\nSTEM ablations ({accesses} accesses per probe; lower is better)\n");
    println!("{t}");
}
