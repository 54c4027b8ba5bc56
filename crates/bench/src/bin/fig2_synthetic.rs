//! Regenerates **Fig. 2**: the three synthetic two-set workloads, their
//! analytical miss rates (LRU / oracle-DIP / SBC), and the measured miss
//! rates of the simulated schemes including STEM's spatiotemporal
//! extension (the paper's "extensional example": miss rate ≤ 1/6 on
//! Example #2).
//!
//! As in the paper, DIP is given oracle knowledge of the working-set
//! patterns (no sampling monitors): we run pure LRU and pure BIP caches
//! and take the better, which is what a converged DIP achieves.
//!
//! Run with `cargo run --release -p stem-bench --bin fig2_synthetic`.

use stem_analysis::Table;
use stem_llc::{StemCache, StemConfig};
use stem_replacement::{Bip, Lru, SetAssocCache};
use stem_sim_core::{CacheModel, DecodedTrace};
use stem_spatial::SbcCache;
use stem_workloads::synthetic;

/// Steady-state miss rate: warm with `warm`, measure on `trace`.
fn miss_rate(cache: &mut dyn CacheModel, warm: &DecodedTrace, trace: &DecodedTrace) -> f64 {
    cache.run_decoded(warm);
    cache.reset_stats();
    cache.run_decoded(trace);
    cache.stats().miss_rate()
}

fn main() {
    let geom = synthetic::fig2_geometry().expect("fig2 geometry is valid");
    let rounds = 2000;

    println!("Figure 2 — synthetic two-set, 4-way workloads (steady-state miss rates)\n");
    let mut t = Table::new(vec![
        "example".into(),
        "LRU paper".into(),
        "LRU".into(),
        "DIP paper".into(),
        "DIP(oracle)".into(),
        "SBC paper".into(),
        "SBC".into(),
        "STEM".into(),
    ]);

    for ex in 1u8..=3 {
        let warm = DecodedTrace::decode(&synthetic::fig2_example(ex, 50), geom);
        let trace = DecodedTrace::decode(&synthetic::fig2_example(ex, rounds), geom);
        let expect = synthetic::fig2_expectation(ex);

        let lru = miss_rate(&mut SetAssocCache::new(geom, Lru::new(geom)), &warm, &trace);
        // Oracle DIP: the better of pure LRU and pure BIP.
        let bip = miss_rate(&mut SetAssocCache::new(geom, Bip::new(geom)), &warm, &trace);
        let dip = lru.min(bip);
        let sbc = miss_rate(&mut SbcCache::new(geom), &warm, &trace);
        let stem = miss_rate(
            &mut StemCache::with_config(geom, StemConfig::micro2010()),
            &warm,
            &trace,
        );

        t.row(vec![
            format!("#{ex}"),
            format!("{:.3}", expect.lru),
            format!("{lru:.3}"),
            format!("{:.3}", expect.dip),
            format!("{dip:.3}"),
            format!("{:.3}", expect.sbc),
            format!("{sbc:.3}"),
            format!("{stem:.3}"),
        ]);
    }
    println!("{t}");
    println!(
        "Paper reference points: Ex.#1 SBC = 0 (perfect pairing); Ex.#2 a\n\
         spatiotemporal scheme can reach <= 1/6 = 0.167 (the extensional\n\
         example); Ex.#3 no inter-set cooperation is possible, so only\n\
         temporal adaptation helps."
    );
}
