//! Differential test of the trace synthesizer against a reference model.
//!
//! `reference` below is the generator as it stood before the guide-table
//! set draw, the per-bucket Zipf samplers and the wrapping cycle cursors:
//! a binary search over the activity CDF per access, one Zipf sampler per
//! set per phase, and `%` cycle positions. The tests require
//! `BenchmarkProfile::trace`, `BenchmarkProfile::decoded` and
//! `WorkloadMix::core_traces` to emit exactly the reference stream — every
//! archived result depends on it.

use stem::sim_core::prop;
use stem::sim_core::{Access, CacheGeometry, DecodedTrace, SplitMix64, Trace};
use stem::workloads::{
    offset_trace_into_region, pro_rata_shares, spec2010_suite, BenchmarkProfile, DemandBucket,
    SetPattern, WorkloadClass, WorkloadMix, Zipf, REFERENCE_SETS,
};

/// The reference generator, kept verbatim apart from reading the profile
/// through its accessors.
mod reference {
    use super::*;

    struct PatternState {
        zipf: Option<Zipf>,
        position: u64,
        toggle: bool,
        window: Vec<u64>,
    }

    fn state(pattern: &SetPattern) -> PatternState {
        PatternState {
            zipf: match pattern {
                SetPattern::Friendly { blocks, theta } => Some(Zipf::new(*blocks as usize, *theta)),
                _ => None,
            },
            position: 0,
            toggle: false,
            window: Vec::new(),
        }
    }

    fn next_tag(pattern: &SetPattern, state: &mut PatternState, rng: &mut SplitMix64) -> u64 {
        match pattern {
            SetPattern::Friendly { .. } => {
                let z = state.zipf.as_ref().expect("friendly state has a sampler");
                z.sample(rng) as u64
            }
            SetPattern::Cyclic { blocks } => {
                let t = state.position % blocks;
                state.position += 1;
                t
            }
            SetPattern::Stream => {
                let t = state.position;
                state.position += 1;
                t
            }
            SetPattern::Mixed { hot, scan } => {
                state.toggle = !state.toggle;
                if state.toggle {
                    rng.next_below(*hot)
                } else {
                    let t = hot + (state.position % scan);
                    state.position += 1;
                    t
                }
            }
            SetPattern::NoisyCyclic {
                blocks,
                jump_permille,
            } => {
                if rng.chance(*jump_permille, 1000) {
                    state.position = rng.next_below(*blocks);
                }
                let t = state.position % blocks;
                state.position += 1;
                t
            }
            SetPattern::Recency {
                blocks,
                window,
                reuse_permille,
            } => {
                let reuse = !state.window.is_empty() && rng.chance(*reuse_permille, 1000);
                let tag = if reuse {
                    let i = rng.next_below(state.window.len() as u64) as usize;
                    state.window.remove(i)
                } else {
                    rng.next_below(*blocks)
                };
                state.window.retain(|&t| t != tag);
                state.window.insert(0, tag);
                state.window.truncate(*window as usize);
                tag
            }
        }
    }

    pub fn trace(p: &BenchmarkProfile, geom: CacheGeometry, accesses: usize) -> Trace {
        let mut trace = Trace::with_capacity(accesses);
        let ref_geom = CacheGeometry::new(REFERENCE_SETS, 16, geom.line_bytes())
            .expect("reference geometry is valid");
        let per_phase = (accesses / p.phases()).max(1);
        let mut emitted = 0usize;
        let mut phase = 0usize;
        while emitted < accesses {
            let n = per_phase.min(accesses - emitted);
            generate_phase(p, &ref_geom, phase, n, &mut |a| trace.push(a));
            emitted += n;
            phase += 1;
        }
        trace
    }

    fn generate_phase(
        p: &BenchmarkProfile,
        ref_geom: &CacheGeometry,
        phase: usize,
        accesses: usize,
        push: &mut impl FnMut(Access),
    ) {
        let buckets = p.buckets();
        let mut rng = SplitMix64::new(p.seed() ^ (phase as u64).wrapping_mul(0x9E37_79B9));
        let sets = REFERENCE_SETS;

        let total_weight: f64 = buckets.iter().map(|b| b.weight).sum();
        let mut assignment: Vec<usize> = Vec::with_capacity(sets);
        let mut acc = 0.0;
        let mut boundaries = Vec::with_capacity(buckets.len());
        for b in buckets {
            acc += b.weight / total_weight;
            boundaries.push(acc);
        }
        for s in 0..sets {
            let u = {
                let mut h = SplitMix64::new(
                    p.seed()
                        ^ 0xA55A
                        ^ (s as u64)
                        ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                (h.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            };
            let bucket = boundaries
                .iter()
                .position(|&b| u < b)
                .unwrap_or(buckets.len() - 1);
            assignment.push(bucket);
        }

        let mut cdf: Vec<f64> = Vec::with_capacity(sets);
        let mut total_act = 0.0;
        for &b in &assignment {
            total_act += buckets[b].activity;
            cdf.push(total_act);
        }

        let mut states: Vec<PatternState> = assignment
            .iter()
            .map(|&b| state(&buckets[b].pattern))
            .collect();
        let tag_base = (phase as u64) << 24;

        let gap_mean = 1000.0 / p.apki();
        let gap_floor = gap_mean.floor() as u32;
        let gap_frac = gap_mean - gap_mean.floor();

        for _ in 0..accesses {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total_act;
            let set = match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
                Ok(i) => i,
                Err(i) => i.min(sets - 1),
            };
            let bucket = &buckets[assignment[set]];
            let tag = next_tag(&bucket.pattern, &mut states[set], &mut rng);
            let addr = ref_geom.address_of(tag_base | tag, set);
            let gap = gap_floor + u32::from(rng.chance((gap_frac * 1000.0) as u64, 1000));
            push(Access::read(addr).with_inst_gap(gap.max(1)));
        }
    }
}

/// Asserts that both production paths emit the reference stream.
fn assert_matches_reference(p: &BenchmarkProfile, line_bytes: u64, accesses: usize) {
    let geom = CacheGeometry::new(REFERENCE_SETS, 16, line_bytes).expect("valid geometry");
    let want = reference::trace(p, geom, accesses);
    let got = p.trace(geom, accesses);
    assert!(
        got == want,
        "{}: trace() diverges from the reference at {accesses} accesses, {line_bytes} B lines \
         (first differing access {:?})",
        p.name(),
        got.iter().zip(want.iter()).position(|(a, b)| a != b)
    );
    assert!(
        p.decoded(geom, accesses) == DecodedTrace::decode(&want, geom),
        "{}: decoded() diverges from the reference at {accesses} accesses, {line_bytes} B lines",
        p.name()
    );
}

#[test]
fn suite_profiles_match_the_reference() {
    // 100 037 is not a multiple of any profile's phase count above 1, so
    // it covers the trailing partial phase.
    for p in spec2010_suite() {
        for line_bytes in [32, 64, 128] {
            for accesses in [1, 2, 20_000, 100_037] {
                assert_matches_reference(&p, line_bytes, accesses);
            }
        }
    }
}

#[test]
fn run_all_mixes_match_the_reference() {
    let geom = CacheGeometry::micro2010_l2();
    for (a, b) in [("omnetpp", "gromacs"), ("mcf", "ammp")] {
        let profiles = [a, b].map(|n| BenchmarkProfile::by_name(n).expect("suite benchmark"));
        let mix = WorkloadMix::new(profiles.iter().map(|p| (p.clone(), 1.0)).collect());
        let accesses = 30_001;
        let want: Vec<Trace> = profiles
            .iter()
            .zip(pro_rata_shares(&[1.0, 1.0], accesses))
            .enumerate()
            .map(|(i, (p, share))| offset_trace_into_region(reference::trace(p, geom, share), i))
            .collect();
        assert!(
            mix.core_traces(geom, accesses) == want,
            "{a}+{b}: core_traces diverge from the reference"
        );
    }
}

/// A random valid pattern: all six shapes, sizes from 1.
fn random_pattern(g: &mut prop::Gen) -> SetPattern {
    match g.usize(0, 6) {
        0 => SetPattern::Friendly {
            blocks: g.u64(1, 40),
            theta: g.u64(0, 2001) as f64 / 1000.0,
        },
        1 => SetPattern::Cyclic {
            blocks: g.u64(1, 48),
        },
        2 => SetPattern::Stream,
        3 => SetPattern::Mixed {
            hot: g.u64(1, 16),
            scan: g.u64(1, 40),
        },
        4 => SetPattern::NoisyCyclic {
            blocks: g.u64(1, 48),
            jump_permille: g.u64(0, 1001),
        },
        _ => SetPattern::Recency {
            blocks: g.u64(1, 64),
            window: g.u64(1, 20),
            reuse_permille: g.u64(0, 1001),
        },
    }
}

/// Random profiles well beyond the suite's shapes: activities spanning six
/// decades (10^-3 to 10^3, where the suite stays within 0.5–2.1), so a
/// guide slot can span many sets.
#[test]
fn random_profiles_match_the_reference() {
    prop::check(40, |g| {
        let buckets = g.vec_with(1, 8, |g| {
            let weight = g.u64(1, 1001) as f64 / 1000.0;
            let activity = 10f64.powf(g.u64(0, 6001) as f64 / 1000.0 - 3.0);
            DemandBucket::new(weight, random_pattern(g), activity)
        });
        let apki = g.u64(1, 1000) as f64 / 10.0;
        let phases = g.usize(1, 6);
        let seed = g.rng().next_u64();
        let p = BenchmarkProfile::new("fuzz", WorkloadClass::I, buckets, apki, phases, seed);
        let line_bytes = [32, 64, 128][g.usize(0, 3)];
        assert_matches_reference(&p, line_bytes, g.usize(1, 6_000));
    });
}
