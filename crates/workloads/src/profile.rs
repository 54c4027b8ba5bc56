//! The 15 SPEC-like benchmark analogs (Table 2 / Fig. 6).
//!
//! Each analog is defined against a *reference geometry* (the paper's 2048
//! L2 sets): every reference set draws a [`SetPattern`] from the profile's
//! demand distribution, and the trace interleaves the sets weighted by
//! their activity. Because addresses are real 44-bit physical addresses,
//! replaying the same trace against a different geometry (the Fig. 3 /
//! Fig. 10 associativity sweeps) redistributes the working sets exactly
//! the way real hardware would.

use stem_sim_core::{Access, CacheGeometry, DecodedTrace, SplitMix64, Trace};

use crate::{PatternState, SetPattern, WorkloadClass};

/// Number of reference sets the profiles are written against (the paper's
/// L2 has 2048 sets, Table 1).
pub const REFERENCE_SETS: usize = 2048;

/// One bucket of a profile's per-set demand distribution: a fraction of
/// sets sharing a pattern shape and an activity level.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandBucket {
    /// Fraction of reference sets in this bucket (weights are normalised).
    pub weight: f64,
    /// The temporal pattern of these sets.
    pub pattern: SetPattern,
    /// Relative access frequency of each set in this bucket.
    pub activity: f64,
}

impl DemandBucket {
    /// Creates a bucket.
    pub fn new(weight: f64, pattern: SetPattern, activity: f64) -> Self {
        DemandBucket {
            weight,
            pattern,
            activity,
        }
    }
}

/// A statistical analog of one SPEC benchmark.
///
/// # Examples
///
/// ```
/// use stem_workloads::{spec2010_suite, BenchmarkProfile};
/// use stem_sim_core::CacheGeometry;
///
/// let omnetpp = BenchmarkProfile::by_name("omnetpp").unwrap();
/// let trace = omnetpp.trace(CacheGeometry::micro2010_l2(), 50_000);
/// assert_eq!(trace.len(), 50_000);
/// assert!(trace.instructions() > 50_000.try_into().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct BenchmarkProfile {
    name: &'static str,
    class: WorkloadClass,
    buckets: Vec<DemandBucket>,
    /// Accesses per kilo-instruction (sets the instruction gap).
    apki: f64,
    /// Number of phases; patterns are re-drawn at phase boundaries.
    phases: usize,
    seed: u64,
}

impl BenchmarkProfile {
    /// Creates a profile from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty, `apki` is not positive, or `phases`
    /// is zero.
    pub fn new(
        name: &'static str,
        class: WorkloadClass,
        buckets: Vec<DemandBucket>,
        apki: f64,
        phases: usize,
        seed: u64,
    ) -> Self {
        assert!(!buckets.is_empty(), "a profile needs at least one bucket");
        assert!(apki > 0.0, "APKI must be positive");
        assert!(phases >= 1, "at least one phase required");
        BenchmarkProfile {
            name,
            class,
            buckets,
            apki,
            phases,
            seed,
        }
    }

    /// The benchmark's name (e.g. `"omnetpp"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The paper's class for this benchmark (Table 2).
    pub fn class(&self) -> WorkloadClass {
        self.class
    }

    /// Accesses per kilo-instruction.
    pub fn apki(&self) -> f64 {
        self.apki
    }

    /// The demand buckets (analysis hook).
    pub fn buckets(&self) -> &[DemandBucket] {
        &self.buckets
    }

    /// Looks a profile up in [`spec2010_suite`] by name.
    pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
        spec2010_suite().into_iter().find(|b| b.name == name)
    }

    /// Generates a trace of `accesses` memory references. Addresses are
    /// laid out against [`REFERENCE_SETS`] reference sets; `geom` supplies
    /// the line size (64 bytes in all experiments).
    pub fn trace(&self, geom: CacheGeometry, accesses: usize) -> Trace {
        let mut trace = Trace::with_capacity(accesses);
        self.generate(geom, accesses, &mut |a| trace.push(a));
        trace
    }

    /// Generates the same stream as [`trace`](Self::trace), decoded against
    /// `geom` as it is produced: equal to
    /// `DecodedTrace::decode(&self.trace(geom, accesses), geom)`, without
    /// ever materializing the array-of-structs [`Trace`].
    pub fn decoded(&self, geom: CacheGeometry, accesses: usize) -> DecodedTrace {
        let mut decoded = DecodedTrace::with_capacity(geom, accesses);
        self.generate(geom, accesses, &mut |a| decoded.push(a));
        decoded
    }

    /// Hands all `accesses` references, phase by phase, to `push` — the one
    /// generator behind both [`trace`](Self::trace) and
    /// [`decoded`](Self::decoded).
    fn generate(&self, geom: CacheGeometry, accesses: usize, push: &mut impl FnMut(Access)) {
        let ref_geom = CacheGeometry::new(REFERENCE_SETS, 16, geom.line_bytes())
            .expect("reference geometry is valid");
        let per_phase = (accesses / self.phases).max(1);
        let mut emitted = 0usize;
        let mut phase = 0usize;
        while emitted < accesses {
            let n = per_phase.min(accesses - emitted);
            self.generate_phase(&ref_geom, phase, n, push);
            emitted += n;
            phase += 1;
        }
    }

    /// Hands one phase worth of accesses to `push`.
    fn generate_phase(
        &self,
        ref_geom: &CacheGeometry,
        phase: usize,
        accesses: usize,
        push: &mut impl FnMut(Access),
    ) {
        let mut rng = SplitMix64::new(self.seed ^ (phase as u64).wrapping_mul(0x9E37_79B9));
        let sets = REFERENCE_SETS;

        // Assign each reference set a bucket (deterministically shuffled so
        // buckets interleave across the index space) and build the
        // activity CDF.
        let total_weight: f64 = self.buckets.iter().map(|b| b.weight).sum();
        let mut assignment: Vec<usize> = Vec::with_capacity(sets);
        let mut acc = 0.0;
        let mut boundaries = Vec::with_capacity(self.buckets.len());
        for b in &self.buckets {
            acc += b.weight / total_weight;
            boundaries.push(acc);
        }
        for s in 0..sets {
            // Hash the set index to a uniform [0,1) so buckets spread over
            // the whole index space (deterministic per profile).
            let u = {
                // Per-phase reassignment models the paper's observation
                // that set-level demands are "highly non-uniform AND
                // dynamic" (§1): a set's pattern changes across phases.
                let mut h = SplitMix64::new(
                    self.seed
                        ^ 0xA55A
                        ^ (s as u64)
                        ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                (h.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            };
            let bucket = boundaries
                .iter()
                .position(|&b| u < b)
                .unwrap_or(self.buckets.len() - 1);
            assignment.push(bucket);
        }

        // Activity CDF over sets.
        let mut cdf: Vec<f64> = Vec::with_capacity(sets);
        let mut total_act = 0.0;
        for &b in &assignment {
            total_act += self.buckets[b].activity;
            cdf.push(total_act);
        }

        // Per-set pattern state; tags are offset per phase so phases touch
        // fresh lines.
        let mut states: Vec<PatternState> = assignment
            .iter()
            .map(|&b| self.buckets[b].pattern.state())
            .collect();
        let tag_base = (phase as u64) << 24;

        // Instruction gap: probabilistic rounding of 1000/apki.
        let gap_mean = 1000.0 / self.apki;
        let gap_floor = gap_mean.floor() as u32;
        let gap_frac = gap_mean - gap_mean.floor();

        for _ in 0..accesses {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total_act;
            let set = match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
                Ok(i) => i,
                Err(i) => i.min(sets - 1),
            };
            let bucket = &self.buckets[assignment[set]];
            let tag = bucket.pattern.next_tag(&mut states[set], &mut rng);
            let addr = ref_geom.address_of(tag_base | tag, set);
            let gap = gap_floor + u32::from(rng.chance((gap_frac * 1000.0) as u64, 1000));
            push(Access::read(addr).with_inst_gap(gap.max(1)));
        }
    }
}

/// The 15-benchmark suite of Table 2, as statistical analogs.
///
/// Classes and MPKI intensities follow Table 2; the per-set demand shapes
/// follow Fig. 1 (for omnetpp and ammp) and the class definitions of
/// Fig. 6 for the rest. See `DESIGN.md` §1 for the substitution rationale.
pub fn spec2010_suite() -> Vec<BenchmarkProfile> {
    use SetPattern::{Cyclic, Friendly, Mixed, NoisyCyclic, Recency, Stream};
    use WorkloadClass as C;
    let b = DemandBucket::new;
    vec![
        // ---- Class I: set-level non-uniform capacity demands ----------
        // ammp: ~50% of sets need <= 4 lines (Fig. 1b); moderate sets fit
        // 16 ways, a cyclic band thrashes only below ~12 ways (so, like
        // the paper's Fig. 3b, gains at 16 ways are modest and the
        // spatial win lives in the [4,10] sweep range).
        BenchmarkProfile::new(
            "ammp",
            C::I,
            vec![
                b(
                    0.50,
                    Friendly {
                        blocks: 4,
                        theta: 0.7,
                    },
                    0.6,
                ),
                b(
                    0.24,
                    Friendly {
                        blocks: 12,
                        theta: 0.8,
                    },
                    1.0,
                ),
                b(0.12, Cyclic { blocks: 12 }, 1.0),
                b(0.07, Mixed { hot: 8, scan: 10 }, 1.1),
                b(0.07, Stream, 0.8),
            ],
            18.0,
            1,
            0xA339,
        ),
        // apsi: moderate non-uniformity with a thrashy band fixable by
        // either dimension.
        BenchmarkProfile::new(
            "apsi",
            C::I,
            vec![
                b(
                    0.40,
                    Friendly {
                        blocks: 6,
                        theta: 0.8,
                    },
                    0.7,
                ),
                b(0.20, Mixed { hot: 9, scan: 11 }, 1.1),
                b(0.07, Cyclic { blocks: 36 }, 1.1),
                b(
                    0.18,
                    Friendly {
                        blocks: 14,
                        theta: 0.7,
                    },
                    1.0,
                ),
                b(0.15, Stream, 0.8),
            ],
            14.0,
            3,
            0xA851,
        ),
        // astar: non-uniform demands but GOOD temporal locality in the
        // majority of sets - the pathological case for application-level
        // dueling (S5.2): the thrashy minority wins the duel and BIP then
        // pollutes the LRU-friendly majority.
        BenchmarkProfile::new(
            "astar",
            C::I,
            vec![
                b(
                    0.65,
                    Recency {
                        blocks: 60,
                        window: 14,
                        reuse_permille: 840,
                    },
                    1.0,
                ),
                b(
                    0.20,
                    Friendly {
                        blocks: 5,
                        theta: 0.7,
                    },
                    0.5,
                ),
                b(
                    0.15,
                    NoisyCyclic {
                        blocks: 28,
                        jump_permille: 25,
                    },
                    1.0,
                ),
            ],
            7.5,
            3,
            0xA57A,
        ),
        // omnetpp: demands spread ~10..34 lines (Fig. 1a); total demand
        // roughly equals capacity, so only a scheme that manages both
        // dimensions can harvest all the slack.
        BenchmarkProfile::new(
            "omnetpp",
            C::I,
            vec![
                b(
                    0.25,
                    Friendly {
                        blocks: 10,
                        theta: 0.6,
                    },
                    0.8,
                ),
                b(
                    0.25,
                    Friendly {
                        blocks: 15,
                        theta: 0.5,
                    },
                    1.0,
                ),
                b(0.26, Mixed { hot: 10, scan: 12 }, 1.2),
                b(
                    0.14,
                    NoisyCyclic {
                        blocks: 34,
                        jump_permille: 25,
                    },
                    1.2,
                ),
                b(0.10, Stream, 1.0),
            ],
            21.0,
            2,
            0x0377,
        ),
        // xalancbmk: like omnetpp with heavier streaming.
        BenchmarkProfile::new(
            "xalancbmk",
            C::I,
            vec![
                b(
                    0.28,
                    Friendly {
                        blocks: 8,
                        theta: 0.6,
                    },
                    0.7,
                ),
                b(0.22, Mixed { hot: 10, scan: 11 }, 1.2),
                b(0.08, Cyclic { blocks: 34 }, 1.2),
                b(
                    0.22,
                    Friendly {
                        blocks: 14,
                        theta: 0.5,
                    },
                    1.0,
                ),
                b(0.20, Stream, 1.2),
            ],
            25.0,
            2,
            0x3A1A,
        ),
        // ---- Class II: poor temporal locality ---------------------------
        // art: "improvable by advanced temporal schemes only when its
        // capacity is no greater than 1MB" - at the 2MB config nothing
        // helps, so the analog is dominated by streaming.
        BenchmarkProfile::new(
            "art",
            C::II,
            vec![
                b(0.62, Stream, 1.7),
                // Fits the 2MB/16-way L2 exactly (14 <= 16 lines per set)
                // but thrashes at 1MB and below, where two reference sets
                // fold into one 28-line cycle — reproducing "improvable by
                // advanced temporal schemes only when its capacity is no
                // greater than 1MB" (S5.2).
                b(0.38, Cyclic { blocks: 13 }, 0.9),
            ],
            23.0,
            1,
            0xA127,
        ),
        // cactusADM: uniform cyclic sets above the associativity with
        // total demand beyond capacity: BIP retains a fraction, spatial
        // schemes find no free space.
        BenchmarkProfile::new(
            "cactusADM",
            C::II,
            vec![
                b(
                    0.72,
                    NoisyCyclic {
                        blocks: 34,
                        jump_permille: 40,
                    },
                    1.0,
                ),
                b(
                    0.13,
                    Recency {
                        blocks: 36,
                        window: 14,
                        reuse_permille: 930,
                    },
                    0.6,
                ),
                b(0.15, Stream, 1.0),
            ],
            4.3,
            1,
            0xCAC7,
        ),
        // galgel: mild uniform thrashing, again demand > capacity.
        BenchmarkProfile::new(
            "galgel",
            C::II,
            vec![
                b(
                    0.60,
                    NoisyCyclic {
                        blocks: 30,
                        jump_permille: 40,
                    },
                    1.0,
                ),
                b(
                    0.40,
                    Recency {
                        blocks: 40,
                        window: 14,
                        reuse_permille: 930,
                    },
                    0.8,
                ),
            ],
            2.2,
            1,
            0x6A16,
        ),
        // mcf: the heaviest workload (Table 2: 60 MPKI) - large cyclic
        // working sets everywhere plus scans and streams.
        BenchmarkProfile::new(
            "mcf",
            C::II,
            vec![
                b(
                    0.55,
                    NoisyCyclic {
                        blocks: 40,
                        jump_permille: 40,
                    },
                    1.4,
                ),
                b(0.25, Mixed { hot: 6, scan: 36 }, 1.2),
                b(0.20, Stream, 1.0),
            ],
            68.0,
            1,
            0x3CF1,
        ),
        // sphinx3: uniform moderate thrashing diluted by streams.
        BenchmarkProfile::new(
            "sphinx3",
            C::II,
            vec![
                b(
                    0.55,
                    NoisyCyclic {
                        blocks: 33,
                        jump_permille: 40,
                    },
                    1.2,
                ),
                b(
                    0.25,
                    Recency {
                        blocks: 40,
                        window: 14,
                        reuse_permille: 920,
                    },
                    0.8,
                ),
                b(0.20, Stream, 1.0),
            ],
            15.0,
            3,
            0x5F13,
        ),
        // ---- Class III: uniform demands, good locality ------------------
        // gobmk: uniform friendly sets with real slack (so SBC's
        // unconditional receiving does no harm), plus light streaming.
        BenchmarkProfile::new(
            "gobmk",
            C::III,
            vec![
                b(
                    0.90,
                    Recency {
                        blocks: 40,
                        window: 12,
                        reuse_permille: 940,
                    },
                    1.0,
                ),
                b(0.05, Stream, 1.6),
            ],
            21.0,
            4,
            0x60B3,
        ),
        // gromacs: smallest footprint of the suite.
        BenchmarkProfile::new(
            "gromacs",
            C::III,
            vec![
                b(
                    0.92,
                    Friendly {
                        blocks: 6,
                        theta: 0.9,
                    },
                    1.0,
                ),
                b(0.04, Stream, 1.4),
            ],
            20.0,
            1,
            0x6307,
        ),
        // soplex: Class III despite high MPKI (Table 2: 24.3) - uniform
        // demands dominated by streaming, so no scheme beats LRU.
        BenchmarkProfile::new(
            "soplex",
            C::III,
            vec![
                b(0.45, Stream, 2.1),
                b(
                    0.55,
                    Friendly {
                        blocks: 8,
                        theta: 0.8,
                    },
                    0.9,
                ),
            ],
            33.0,
            1,
            0x50FE,
        ),
        // twolf: uniform friendly with light pressure.
        BenchmarkProfile::new(
            "twolf",
            C::III,
            vec![
                b(
                    0.88,
                    Recency {
                        blocks: 44,
                        window: 13,
                        reuse_permille: 935,
                    },
                    1.0,
                ),
                b(0.06, Stream, 2.0),
            ],
            24.0,
            4,
            0x7701,
        ),
        // vpr: like twolf.
        BenchmarkProfile::new(
            "vpr",
            C::III,
            vec![
                b(
                    0.90,
                    Recency {
                        blocks: 40,
                        window: 12,
                        reuse_permille: 940,
                    },
                    1.0,
                ),
                b(0.05, Stream, 1.8),
            ],
            22.0,
            4,
            0x0EE2,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_table2_names_and_classes() {
        let suite = spec2010_suite();
        assert_eq!(suite.len(), 15);
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        for expected in [
            "ammp",
            "apsi",
            "astar",
            "omnetpp",
            "xalancbmk", // Class I
            "art",
            "cactusADM",
            "galgel",
            "mcf",
            "sphinx3", // Class II
            "gobmk",
            "gromacs",
            "soplex",
            "twolf",
            "vpr", // Class III
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        for class in WorkloadClass::ALL {
            assert_eq!(
                suite.iter().filter(|b| b.class() == class).count(),
                5,
                "each class has 5 benchmarks"
            );
        }
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(BenchmarkProfile::by_name("mcf").is_some());
        assert!(BenchmarkProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn trace_is_deterministic() {
        let geom = CacheGeometry::micro2010_l2();
        let p = BenchmarkProfile::by_name("ammp").unwrap();
        let a = p.trace(geom, 5_000);
        let b = p.trace(geom, 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_length_and_instruction_rate() {
        let geom = CacheGeometry::micro2010_l2();
        let p = BenchmarkProfile::by_name("mcf").unwrap();
        let t = p.trace(geom, 20_000);
        assert_eq!(t.len(), 20_000);
        // Instructions should give roughly apki accesses per 1000 insts.
        let apki = t.len() as f64 * 1000.0 / t.instructions() as f64;
        assert!(
            (apki - p.apki()).abs() / p.apki() < 0.15,
            "APKI calibration off: {apki} vs {}",
            p.apki()
        );
    }

    #[test]
    fn every_benchmark_apki_is_calibrated() {
        // The instruction-gap machinery must deliver each profile's APKI
        // within 15% for every benchmark, not just one.
        let geom = CacheGeometry::micro2010_l2();
        for p in spec2010_suite() {
            let t = p.trace(geom, 30_000);
            let apki = t.len() as f64 * 1000.0 / t.instructions() as f64;
            assert!(
                (apki - p.apki()).abs() / p.apki() < 0.15,
                "{}: APKI {apki:.2} vs configured {:.2}",
                p.name(),
                p.apki()
            );
        }
    }

    #[test]
    fn every_benchmark_trace_is_deterministic_and_spread() {
        let geom = CacheGeometry::micro2010_l2();
        for p in spec2010_suite() {
            let a = p.trace(geom, 20_000);
            let b = p.trace(geom, 20_000);
            assert_eq!(a, b, "{} trace not deterministic", p.name());
            let touched = a.stats(geom).sets_touched;
            assert!(touched > 1000, "{} touches only {touched} sets", p.name());
        }
    }

    #[test]
    fn traces_touch_many_sets() {
        let geom = CacheGeometry::micro2010_l2();
        let p = BenchmarkProfile::by_name("omnetpp").unwrap();
        let t = p.trace(geom, 100_000);
        let stats = t.stats(geom);
        assert!(
            stats.sets_touched > 1500,
            "workload should spread over most sets: {}",
            stats.sets_touched
        );
    }

    #[test]
    fn ammp_demand_is_bimodal() {
        // ~half the buckets' weight sits on tiny (≤4 line) sets (Fig. 1b).
        let p = BenchmarkProfile::by_name("ammp").unwrap();
        let tiny: f64 = p
            .buckets()
            .iter()
            .filter(|b| b.pattern.footprint() <= 4)
            .map(|b| b.weight)
            .sum();
        assert!((tiny - 0.5).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "APKI")]
    fn zero_apki_panics() {
        let _ = BenchmarkProfile::new(
            "bad",
            WorkloadClass::I,
            vec![DemandBucket::new(1.0, SetPattern::Stream, 1.0)],
            0.0,
            1,
            1,
        );
    }
}
