//! Multiprogrammed workload mixes: per-program streams of several
//! benchmark analogs, ready to interleave into one LLC-visible access
//! stream.
//!
//! The paper studies an *intra-core* LLC (one program at a time), but any
//! downstream user of the simulator will want to study shared-LLC mixes;
//! this utility builds them while keeping each component program's
//! address space disjoint (a per-program offset in the upper tag bits, the
//! way physical allocation separates processes).

use stem_sim_core::{Address, CacheGeometry, DecodedTrace, Trace};

use crate::BenchmarkProfile;

/// The most programs a mix can hold: one per private 2GB address region
/// (bits 41..43 of the 44-bit physical space).
pub const MAX_MIX_PROGRAMS: usize = 8;

/// Splits `total` into integer shares proportional to `weights`, summing
/// exactly to `total` (floor division plus largest-remainder rounding, so
/// no access is lost or invented by rounding).
///
/// # Panics
///
/// Panics if `weights` is empty or any weight is not positive.
pub fn pro_rata_shares(weights: &[f64], total: usize) -> Vec<usize> {
    assert!(!weights.is_empty(), "a mix needs at least one component");
    assert!(
        weights.iter().all(|&w| w > 0.0),
        "mix weights must be positive"
    );
    let total_w: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| (w / total_w) * total as f64)
        .collect();
    let mut shares: Vec<usize> = exact.iter().map(|&e| e as usize).collect();
    let short = total - shares.iter().sum::<usize>();
    // Hand the leftover accesses (always fewer than the component count)
    // to the largest fractional remainders, index order breaking ties —
    // deterministic.
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().take(short) {
        shares[i] += 1;
    }
    shares
}

/// A weighted mix of benchmark analogs sharing one cache.
///
/// # Examples
///
/// ```
/// use stem_workloads::{BenchmarkProfile, WorkloadMix};
/// use stem_sim_core::CacheGeometry;
///
/// let mix = WorkloadMix::new(vec![
///     (BenchmarkProfile::by_name("ammp").unwrap(), 1.0),
///     (BenchmarkProfile::by_name("mcf").unwrap(), 1.0),
/// ]);
/// let geom = CacheGeometry::new(256, 8, 64).unwrap();
/// let streams = mix.core_traces(geom, 10_000);
/// assert_eq!(streams.len(), 2);
/// assert_eq!(streams[0].len() + streams[1].len(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    components: Vec<(BenchmarkProfile, f64)>,
}

impl WorkloadMix {
    /// Creates a mix from `(profile, weight)` pairs; weights set each
    /// component's share of the accesses and of the interleave.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any weight is not positive.
    pub fn new(components: Vec<(BenchmarkProfile, f64)>) -> Self {
        assert!(!components.is_empty(), "a mix needs at least one component");
        assert!(
            components.iter().all(|&(_, w)| w > 0.0),
            "mix weights must be positive"
        );
        WorkloadMix { components }
    }

    /// The component profiles.
    pub fn components(&self) -> &[(BenchmarkProfile, f64)] {
        &self.components
    }

    /// The component weights, in component order.
    pub fn weights(&self) -> Vec<f64> {
        self.components.iter().map(|&(_, w)| w).collect()
    }

    /// Generates one decoded stream per component (core), for the
    /// shared-LLC mix subsystem: component `i` receives its pro-rata share
    /// of `accesses` (see [`pro_rata_shares`]; the shares sum exactly to
    /// `accesses`) and its addresses are shifted into private region `i`
    /// of the 44-bit physical space, so programs never alias in the shared
    /// cache. Each stream is generated straight into its decoded columns
    /// ([`BenchmarkProfile::decoded_in_region`]); no [`Trace`] is built.
    ///
    /// The streams are *not* interleaved here — interleaving is the mix
    /// system's job (see `stem_hierarchy::interleave_schedule`), which
    /// keeps per-core attribution exact.
    ///
    /// # Panics
    ///
    /// Panics if the mix has more than [`MAX_MIX_PROGRAMS`] components
    /// (the private-region encoding runs out of bits).
    pub fn core_traces(&self, geom: CacheGeometry, accesses: usize) -> Vec<DecodedTrace> {
        assert!(
            self.components.len() <= MAX_MIX_PROGRAMS,
            "at most {MAX_MIX_PROGRAMS} programs fit in private regions"
        );
        let shares = pro_rata_shares(&self.weights(), accesses);
        self.components
            .iter()
            .zip(shares)
            .enumerate()
            .map(|(i, ((profile, _), share))| profile.decoded_in_region(geom, share, i))
            .collect()
    }
}

/// Shifts every address of `trace` into the private region of `program`,
/// for callers assembling per-core streams from sources other than a
/// [`WorkloadMix`] (e.g. ingested trace files mixed with profile
/// analogs). Same folding semantics as [`WorkloadMix::core_traces`] — see
/// `region_fold`.
///
/// # Panics
///
/// Panics if `program` is not below [`MAX_MIX_PROGRAMS`].
pub fn offset_trace_into_region(trace: Trace, program: usize) -> Trace {
    let fold = region_fold(program);
    trace
        .into_iter()
        .map(|mut a| {
            a.addr = fold(a.addr);
            a
        })
        .collect()
}

/// The shift of an address into the private region of `program` (bits
/// 41..43 of the 44-bit physical space). Addresses are folded into the
/// region (low 41 bits kept, region bits replaced) rather than OR-ed: a
/// generator that wanders above bit 41 must not leak into another
/// program's region, or "private" streams would alias in a shared cache.
/// The fold preserves the set-index and line-offset bits, so per-set
/// behavior is unchanged.
///
/// # Panics
///
/// Panics if `program` is not below [`MAX_MIX_PROGRAMS`].
pub(crate) fn region_fold(program: usize) -> impl Fn(Address) -> Address {
    assert!(
        program < MAX_MIX_PROGRAMS,
        "at most {MAX_MIX_PROGRAMS} programs fit in private regions"
    );
    let offset = (program as u64) << 41;
    let low_bits = (1u64 << 41) - 1;
    move |addr| Address::new((addr.raw() & low_bits) | offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> WorkloadMix {
        WorkloadMix::new(vec![
            (BenchmarkProfile::by_name("ammp").expect("suite"), 2.0),
            (BenchmarkProfile::by_name("mcf").expect("suite"), 1.0),
        ])
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mix_panics() {
        let _ = WorkloadMix::new(vec![]);
    }

    #[test]
    fn pro_rata_shares_sum_exactly_and_follow_weights() {
        let shares = pro_rata_shares(&[2.0, 1.0], 9_000);
        assert_eq!(shares.iter().sum::<usize>(), 9_000);
        assert_eq!(shares, vec![6_000, 3_000]);

        // Awkward ratios still sum exactly, with no access lost to
        // rounding.
        let shares = pro_rata_shares(&[1.0, 1.0, 1.0], 10_000);
        assert_eq!(shares.iter().sum::<usize>(), 10_000);
        assert!(shares.iter().all(|&s| s == 3_333 || s == 3_334));

        let shares = pro_rata_shares(&[0.3, 0.3, 0.4], 7);
        assert_eq!(shares.iter().sum::<usize>(), 7);
    }

    #[test]
    fn core_traces_are_per_program_disjoint_and_exact() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let streams = mix().core_traces(geom, 9_000);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].len() + streams[1].len(), 9_000);
        assert_eq!(streams[0].len(), 6_000, "2:1 weighting");
        for (i, s) in streams.iter().enumerate() {
            assert!(
                s.iter()
                    .all(|a| a.line.to_address(64).raw() >> 41 == i as u64),
                "core {i} must stay in its private region"
            );
        }
        // Deterministic: same mix, same geometry, same streams.
        assert_eq!(mix().core_traces(geom, 9_000)[0], streams[0]);
    }
}
