//! Replay the paper's Fig. 2 synthetic workloads: three cyclic two-set
//! patterns that tease apart temporal (DIP) and spatial (SBC) management,
//! plus STEM's spatiotemporal combination.
//!
//! ```sh
//! cargo run --release --example synthetic_duel
//! ```

use stem::llc::StemCache;
use stem::replacement::{Bip, Lru, SetAssocCache};
use stem::sim_core::{CacheModel, DecodedTrace};
use stem::spatial::SbcCache;
use stem::workloads::synthetic;

fn steady_state_miss_rate(cache: &mut dyn CacheModel, example: u8) -> f64 {
    let stream =
        |rounds| DecodedTrace::decode(&synthetic::fig2_example(example, rounds), cache.geometry());
    let (warm, measured) = (stream(100), stream(1000));
    cache.run_decoded(&warm);
    cache.reset_stats();
    cache.run_decoded(&measured);
    cache.stats().miss_rate()
}

fn main() {
    let geom = synthetic::fig2_geometry().expect("fig2 geometry is valid");
    println!("Fig. 2 synthetic duels (4-way LLC with two sets)\n");
    for example in 1u8..=3 {
        let expect = synthetic::fig2_expectation(example);
        let (ws0, ws1) = synthetic::fig2_working_sets(example);
        println!(
            "Example #{example}: working set 0 = {} blocks (cyclic), working set 1 = {} blocks",
            ws0.len(),
            ws1.len()
        );
        let lru = steady_state_miss_rate(
            &mut SetAssocCache::new(geom, Box::new(Lru::new(geom))),
            example,
        );
        let bip = steady_state_miss_rate(
            &mut SetAssocCache::new(geom, Box::new(Bip::new(geom))),
            example,
        );
        let sbc = steady_state_miss_rate(&mut SbcCache::new(geom), example);
        let stem = steady_state_miss_rate(&mut StemCache::new(geom), example);
        println!("  LRU  measured {lru:.3}  (paper {:.3})", expect.lru);
        println!(
            "  DIP* measured {:.3}  (paper {:.3})",
            lru.min(bip),
            expect.dip
        );
        println!("  SBC  measured {sbc:.3}  (paper {:.3})", expect.sbc);
        println!("  STEM measured {stem:.3}  (paper's extensional target for #2: <= 0.167)");
        println!("  (* oracle DIP = better of pure LRU / pure BIP, as the paper assumes)\n");
    }
}
