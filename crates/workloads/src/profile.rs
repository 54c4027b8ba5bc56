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
    /// is zero. Also panics, naming the bucket's index, if a bucket's
    /// weight or activity is not finite and positive, or its pattern is
    /// degenerate: a `blocks`, `hot`, `scan` or `window` of zero, a `theta`
    /// that is not finite and non-negative, or a permille above 1000.
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
        for (i, b) in buckets.iter().enumerate() {
            assert!(
                b.weight.is_finite() && b.weight > 0.0,
                "bucket {i}: weight must be finite and positive"
            );
            assert!(
                b.activity.is_finite() && b.activity > 0.0,
                "bucket {i}: activity must be finite and positive"
            );
            if let Err(why) = b.pattern.validate() {
                panic!("bucket {i}: {why}");
            }
        }
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

    /// Number of phases; the set assignment and tags are re-drawn at each
    /// phase boundary.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// The seed every phase's draws derive from.
    pub fn seed(&self) -> u64 {
        self.seed
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

    /// Generates the same stream as [`decoded`](Self::decoded), handed to
    /// `each` in consecutive chunks of `chunk` accesses (the last may be
    /// shorter): a consumer that processes the stream in order holds one
    /// chunk, never the whole stream.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn decoded_chunks(
        &self,
        geom: CacheGeometry,
        accesses: usize,
        chunk: usize,
        mut each: impl FnMut(&DecodedTrace),
    ) {
        assert!(chunk > 0, "chunks hold at least one access");
        let mut buf = DecodedTrace::with_capacity(geom, chunk.min(accesses));
        self.generate(geom, accesses, &mut |a| {
            buf.push(a);
            if buf.len() == chunk {
                each(&buf);
                buf.clear();
            }
        });
        if !buf.is_empty() {
            each(&buf);
        }
    }

    /// Hands all `accesses` references, phase by phase, to `push` — the one
    /// generator behind [`trace`](Self::trace), [`decoded`](Self::decoded)
    /// and [`decoded_chunks`](Self::decoded_chunks).
    ///
    /// Each phase gets `accesses / phases` references (at least one). When
    /// that does not divide evenly, the remainder is emitted as one more,
    /// shorter phase whose index equals `phases`: it draws a fresh set
    /// assignment and fresh tags like any other phase.
    fn generate(&self, geom: CacheGeometry, accesses: usize, push: &mut impl FnMut(Access)) {
        let ref_geom = CacheGeometry::new(REFERENCE_SETS, 16, geom.line_bytes())
            .expect("reference geometry is valid");
        // One fresh state per bucket; every set starts from a clone of its
        // bucket's, so each Friendly bucket builds its Zipf table once.
        let fresh: Vec<PatternState> = self.buckets.iter().map(|b| b.pattern.state()).collect();
        let per_phase = (accesses / self.phases).max(1);
        let mut emitted = 0usize;
        let mut phase = 0usize;
        while emitted < accesses {
            let n = per_phase.min(accesses - emitted);
            self.generate_phase(&ref_geom, &fresh, phase, n, push);
            emitted += n;
            phase += 1;
        }
    }

    /// Hands one phase worth of accesses to `push`.
    fn generate_phase(
        &self,
        ref_geom: &CacheGeometry,
        fresh: &[PatternState],
        phase: usize,
        accesses: usize,
        push: &mut impl FnMut(Access),
    ) {
        let mut rng = SplitMix64::new(self.seed ^ (phase as u64).wrapping_mul(0x9E37_79B9));
        let assignment = self.assign_buckets(phase);

        // Per-set pattern and state; tags are offset per phase so phases
        // touch fresh lines.
        let mut sets: Vec<(&SetPattern, PatternState)> = assignment
            .iter()
            .map(|&b| (&self.buckets[b].pattern, fresh[b].clone()))
            .collect();
        let draw = SetDraw::new(assignment.iter().map(|&b| self.buckets[b].activity));
        let tag_base = (phase as u64) << 24;

        // Instruction gap: probabilistic rounding of 1000/apki.
        let gap_mean = 1000.0 / self.apki;
        let gap_floor = gap_mean.floor() as u32;
        let gap_permille = ((gap_mean - gap_mean.floor()) * 1000.0) as u64;

        for _ in 0..accesses {
            let set = draw.set(rng.next_u64());
            let (pattern, state) = &mut sets[set];
            let tag = pattern.next_tag(state, &mut rng);
            let addr = ref_geom.address_of(tag_base | tag, set);
            let gap = gap_floor + u32::from(rng.chance(gap_permille, 1000));
            push(Access::read(addr).with_inst_gap(gap.max(1)));
        }
    }

    /// Assigns each reference set a bucket for `phase`, by hashing the set
    /// index to a uniform [0,1) so buckets spread over the whole index
    /// space (deterministic per profile). Per-phase reassignment models the
    /// paper's observation that set-level demands are "highly non-uniform
    /// AND dynamic" (§1): a set's pattern changes across phases.
    fn assign_buckets(&self, phase: usize) -> Vec<usize> {
        let total_weight: f64 = self.buckets.iter().map(|b| b.weight).sum();
        let mut acc = 0.0;
        let boundaries: Vec<f64> = self
            .buckets
            .iter()
            .map(|b| {
                acc += b.weight / total_weight;
                acc
            })
            .collect();
        (0..REFERENCE_SETS)
            .map(|s| {
                let mut h = SplitMix64::new(
                    self.seed
                        ^ 0xA55A
                        ^ (s as u64)
                        ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let u = unit(h.next_u64() >> 11);
                boundaries
                    .iter()
                    .position(|&b| u < b)
                    .unwrap_or(self.buckets.len() - 1)
            })
            .collect()
    }
}

/// Maps a 53-bit draw to [0,1): the one expression every set and bucket
/// draw uses. It is exact (a 53-bit integer over a power of two) and
/// monotone in the draw.
#[inline]
fn unit(draw: u64) -> f64 {
    draw as f64 / (1u64 << 53) as f64
}

/// Bits of the draw that index [`SetDraw`]'s guide table.
const GUIDE_BITS: u32 = 12;

/// The per-access set draw: inverse-CDF sampling over the sets' cumulative
/// activity, answered by a guide table plus a short forward scan instead
/// of a binary search.
///
/// A draw `d` (53 bits) maps to `u = unit(d) * total`, and its set is the
/// first one whose cumulative activity reaches `u`. `guide[k]` holds that
/// set for the smallest draw of slot `k` (the draws sharing their top
/// [`GUIDE_BITS`] bits), computed with the same float expression. The
/// expression is monotone in `d`, so every draw of slot `k` lands at or
/// after `guide[k]`, and the forward scan finds the first set reaching
/// `u` — the set a binary search returns whenever activities are strictly
/// positive.
struct SetDraw {
    cdf: Vec<f64>,
    guide: Vec<u32>,
    total: f64,
}

impl SetDraw {
    /// Builds the draw from each set's activity, in set order.
    fn new(activities: impl Iterator<Item = f64>) -> Self {
        let mut total = 0.0;
        let cdf: Vec<f64> = activities
            .map(|a| {
                total += a;
                total
            })
            .collect();
        let mut set = 0;
        let guide = (0..1u64 << GUIDE_BITS)
            .map(|k| {
                let u = unit(k << (53 - GUIDE_BITS)) * total;
                while cdf[set] < u {
                    set += 1;
                }
                set as u32
            })
            .collect();
        SetDraw { cdf, guide, total }
    }

    /// The set chosen by one raw 64-bit RNG output.
    #[inline]
    fn set(&self, bits: u64) -> usize {
        let draw = bits >> 11;
        let u = unit(draw) * self.total;
        let mut set = self.guide[(draw >> (53 - GUIDE_BITS)) as usize] as usize;
        // Terminates in bounds: u <= total, the last cdf entry.
        while self.cdf[set] < u {
            set += 1;
        }
        set
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
    fn decoded_chunks_concatenate_to_the_decoded_stream() {
        let geom = CacheGeometry::micro2010_l2();
        let p = BenchmarkProfile::by_name("omnetpp").unwrap();
        for (n, chunk) in [(0, 7), (1, 7), (5_000, 64), (5_000, 4_999), (5_000, 9_000)] {
            let mut joined = DecodedTrace::with_capacity(geom, n);
            let mut lens = Vec::new();
            p.decoded_chunks(geom, n, chunk, |c| {
                lens.push(c.len());
                for a in c.iter() {
                    joined.push(Access {
                        addr: a.line.to_address(geom.line_bytes()),
                        kind: a.kind(),
                        inst_gap: a.inst_gap,
                    });
                }
            });
            assert_eq!(
                joined,
                p.decoded(geom, n),
                "{n} accesses in chunks of {chunk}"
            );
            assert!(lens.iter().all(|&l| l > 0 && l <= chunk));
            assert!(lens.iter().rev().skip(1).all(|&l| l == chunk));
        }
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
    fn trailing_remainder_is_an_extra_phase() {
        // 100 037 accesses over 3 phases: three phases of 33 345, then the
        // 2 left over as phase 3, with phase 3's own set assignment and
        // tags (the tag's bits from 24 up carry the phase).
        let p = BenchmarkProfile::by_name("apsi").unwrap();
        assert_eq!(p.phases(), 3);
        let geom = CacheGeometry::micro2010_l2();
        let ref_geom = CacheGeometry::new(REFERENCE_SETS, 16, geom.line_bytes()).unwrap();
        let t = p.trace(geom, 100_037);
        let phase_of = |a: &Access| ref_geom.tag_of_line(a.addr.line(geom.line_bytes())) >> 24;
        let phases: Vec<u64> = t.iter().map(phase_of).collect();
        for (phase, run) in [(0, 0..33_345), (1, 33_345..66_690), (2, 66_690..100_035)] {
            assert!(phases[run].iter().all(|&x| x == phase));
        }
        assert_eq!(phases[100_035..], [3, 3]);

        let fresh: Vec<PatternState> = p.buckets.iter().map(|b| b.pattern.state()).collect();
        let mut tail = Vec::new();
        p.generate_phase(&ref_geom, &fresh, 3, 2, &mut |a| tail.push(a));
        assert_eq!(t.as_slice()[100_035..], tail[..]);
    }

    /// Builds a profile whose bucket 1 is `bad` (bucket 0 is valid).
    fn with_bucket(bad: DemandBucket) -> BenchmarkProfile {
        let ok = DemandBucket::new(1.0, SetPattern::Stream, 1.0);
        BenchmarkProfile::new("bad", WorkloadClass::I, vec![ok, bad], 10.0, 1, 1)
    }

    fn cyclic(blocks: u64) -> SetPattern {
        SetPattern::Cyclic { blocks }
    }

    #[test]
    #[should_panic(expected = "bucket 1: weight must be finite and positive")]
    fn zero_weight_panics() {
        with_bucket(DemandBucket::new(0.0, cyclic(4), 1.0));
    }

    #[test]
    #[should_panic(expected = "bucket 1: weight must be finite and positive")]
    fn infinite_weight_panics() {
        with_bucket(DemandBucket::new(f64::INFINITY, cyclic(4), 1.0));
    }

    #[test]
    #[should_panic(expected = "bucket 1: activity must be finite and positive")]
    fn nan_activity_panics() {
        with_bucket(DemandBucket::new(1.0, cyclic(4), f64::NAN));
    }

    #[test]
    #[should_panic(expected = "bucket 1: activity must be finite and positive")]
    fn negative_activity_panics() {
        with_bucket(DemandBucket::new(1.0, cyclic(4), -0.5));
    }

    #[test]
    #[should_panic(expected = "bucket 1: Cyclic blocks must be at least 1")]
    fn zero_blocks_panics() {
        with_bucket(DemandBucket::new(1.0, cyclic(0), 1.0));
    }

    #[test]
    #[should_panic(expected = "bucket 1: Mixed hot must be at least 1")]
    fn zero_hot_panics() {
        with_bucket(DemandBucket::new(
            1.0,
            SetPattern::Mixed { hot: 0, scan: 4 },
            1.0,
        ));
    }

    #[test]
    #[should_panic(expected = "bucket 1: Mixed scan must be at least 1")]
    fn zero_scan_panics() {
        with_bucket(DemandBucket::new(
            1.0,
            SetPattern::Mixed { hot: 4, scan: 0 },
            1.0,
        ));
    }

    #[test]
    #[should_panic(expected = "bucket 1: Recency window must be at least 1")]
    fn zero_window_panics() {
        let pattern = SetPattern::Recency {
            blocks: 8,
            window: 0,
            reuse_permille: 500,
        };
        with_bucket(DemandBucket::new(1.0, pattern, 1.0));
    }

    #[test]
    #[should_panic(expected = "bucket 1: Friendly theta must be finite and non-negative")]
    fn negative_theta_panics() {
        let pattern = SetPattern::Friendly {
            blocks: 8,
            theta: -1.0,
        };
        with_bucket(DemandBucket::new(1.0, pattern, 1.0));
    }

    #[test]
    #[should_panic(expected = "bucket 1: NoisyCyclic jump_permille must be at most 1000")]
    fn jump_permille_above_1000_panics() {
        let pattern = SetPattern::NoisyCyclic {
            blocks: 8,
            jump_permille: 1001,
        };
        with_bucket(DemandBucket::new(1.0, pattern, 1.0));
    }

    #[test]
    #[should_panic(expected = "bucket 1: Recency reuse_permille must be at most 1000")]
    fn reuse_permille_above_1000_panics() {
        let pattern = SetPattern::Recency {
            blocks: 8,
            window: 4,
            reuse_permille: 1001,
        };
        with_bucket(DemandBucket::new(1.0, pattern, 1.0));
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
