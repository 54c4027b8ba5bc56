//! Microbenchmarks of STEM's hardware components: the H3 hash, the shadow
//! set, the SCDM counters, and the recency stack — the pieces whose area
//! Table 3 budgets and whose latency sits on the miss path.
//!
//! A plain `harness = false` binary timed with `std::time` — the
//! workspace builds offline with no benchmarking dependency. Run with
//! `cargo bench -p stem-bench --bench stem_components`.

use stem_bench::timing::{best_of, throughput_line};
use stem_llc::{PolicyKind, SetMonitor, ShadowSet, TagHasher};
use stem_replacement::RecencyStack;
use stem_sim_core::SplitMix64;

fn main() {
    println!("# stem_components (best of 20)");

    let hasher = TagHasher::new(10, 42);
    let d = best_of(20, || {
        let mut acc = 0u16;
        for t in 0..1024u64 {
            acc ^= hasher.hash(std::hint::black_box(t));
        }
        acc
    });
    println!("{}", throughput_line("h3_hash_1k_tags", 1024, d));

    let d = best_of(20, || {
        let mut shadow = ShadowSet::new(16);
        let mut rng = SplitMix64::new(7);
        for sig in 0..256u16 {
            shadow.insert(sig & 0x3ff, PolicyKind::Bip, 5, &mut rng);
            shadow.probe_invalidate((sig.wrapping_mul(7)) & 0x3ff);
        }
        shadow.valid_entries()
    });
    println!("{}", throughput_line("shadow_insert_probe_256", 256, d));

    let d = best_of(20, || {
        let mut m = SetMonitor::new(16, 4, 3);
        let mut rng = SplitMix64::new(9);
        for i in 0..1024u32 {
            if i % 3 == 0 {
                m.on_shadow_hit();
            } else {
                m.on_llc_hit(&mut rng);
            }
        }
        m.saturation_level()
    });
    println!("{}", throughput_line("scdm_update_1k", 1024, d));

    let d = best_of(20, || {
        let mut s = RecencyStack::new(16);
        for i in 0..1024usize {
            s.touch_mru(i % 16);
        }
        s.lru_way()
    });
    println!("{}", throughput_line("recency_touch_1k", 1024, d));
}
