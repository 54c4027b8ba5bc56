//! UMON-style sampled views of a [`DecodedTrace`] for reduced-fidelity
//! replay.
//!
//! The utility-monitor insight (Qureshi & Patt's UMON, carried through the
//! sampling literature PAPERS.md surveys) is that per-set cache behaviour is
//! statistically homogeneous enough that replaying a *strided subset* of the
//! sets predicts whole-cache miss counts with small, quantifiable error — at
//! a fraction of the work. A [`SampledTrace`] keeps only `1/rate` of the
//! set space and drops the rest, an *algorithmic* reduction that pays off
//! on any hardware.
//!
//! Selection is deterministic and strided at **pair-domain** granularity:
//! with `sets = 2h` the domain of set `s` is `s & (h - 1)`, so SBC-static's
//! spill partners `(s, s ^ h)` are always co-sampled and the same selection
//! is valid for pair-coupled schemes. A seeded offset (`SplitMix64`-mixed, reduced mod
//! the stride) picks which residue class survives: domain `d` is selected
//! iff `d % rate == offset`. The choice is a pure function of
//! `(seed, sets, rate)` — no clocks, no global state — so a sampled result
//! is reproducible across processes and thread counts.
//!
//! Scaling back up is the consumer's job (see `stem-analysis`): measured
//! miss/writeback counts multiply by [`scale_factor`], and MPKI denominators
//! come from the *source* trace's measured range. Which schemes may replay a
//! sample at all is a per-scheme capability
//! ([`CacheModel::supports_set_sampling`]): per-set schemes sample without
//! distortion, while schemes whose global state observes all sets either
//! refuse or document an approximation.
//!
//! [`scale_factor`]: SampledTrace::scale_factor
//! [`CacheModel::supports_set_sampling`]: crate::CacheModel::supports_set_sampling

use crate::{CacheGeometry, DecodedTrace, SplitMix64};

/// A deterministic strided-set sample of a [`DecodedTrace`]: the compacted
/// access stream of the selected pair domains, plus the bookkeeping needed
/// to translate global positions and scale measured counts back up.
///
/// # Examples
///
/// ```
/// use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, SampledTrace, Trace};
///
/// let geom = CacheGeometry::new(64, 4, 64).unwrap();
/// let trace: Trace = (0..1000u64).map(|i| Access::read(Address::new(i * 64))).collect();
/// let decoded = DecodedTrace::decode(&trace, geom);
/// let sample = SampledTrace::select(&decoded, 8, 42);
/// assert_eq!(sample.domain_count(), 32);
/// assert_eq!(sample.selected_domains().len(), 4); // 32 domains / stride 8
/// assert!((sample.scale_factor() - 8.0).abs() < 1e-12);
/// // Same inputs, same sample: selection is a pure function.
/// let again = SampledTrace::select(&decoded, 8, 42);
/// assert_eq!(sample.orig_indices(), again.orig_indices());
/// ```
#[derive(Debug, Clone)]
pub struct SampledTrace {
    trace: DecodedTrace,
    orig: Vec<u32>,
    selected: Vec<usize>,
    domains: usize,
    rate: u32,
    stride: u32,
    seed: u64,
}

/// The pair-domain count of `geom`: `max(sets / 2, 1)`.
#[inline]
fn domain_count(geom: CacheGeometry) -> usize {
    (geom.sets() / 2).max(1)
}

/// The pair domain of `line`: `line & (sets/2 - 1)`, which is the domain
/// of its set `line & (sets - 1)` (set counts are powers of two), folding
/// partner pairs `(s, s ^ sets/2)` onto one domain.
#[inline]
fn domain_of(line: u64, domains: usize) -> usize {
    (line as usize) & (domains - 1)
}

impl SampledTrace {
    /// Selects the strided pair-domain sample of `source` for
    /// `(rate, seed)` and compacts the selected domains' accesses (in
    /// source order) into a replayable [`DecodedTrace`].
    ///
    /// `rate` is the nominal stride (keep ~`1/rate` of the set space); it
    /// is clamped to at least 1 and to at most the domain count, so a
    /// sample always selects at least one domain. `rate == 1` selects
    /// *everything* — the compacted trace is column-identical to `source`
    /// and [`scale_factor`](SampledTrace::scale_factor) is exactly 1.0,
    /// which is what makes the full-rate differential against exact replay
    /// meaningful.
    ///
    /// The surviving residue class is `SplitMix64(seed)`'s first output
    /// reduced mod the clamped stride: domain `d` is selected iff
    /// `d % stride == offset`. Purely arithmetic in
    /// `(seed, sets, rate)` — repeated calls yield identical samples.
    ///
    /// # Panics
    ///
    /// Panics if `source` has more than `u32::MAX` accesses (original
    /// indices are stored as `u32`).
    pub fn select(source: &DecodedTrace, rate: u32, seed: u64) -> Self {
        let n = source.len();
        assert!(
            n as u64 <= u64::from(u32::MAX),
            "sample original indices are stored as u32"
        );
        let geom = source.geometry();
        let domains = domain_count(geom);
        let rate = rate.max(1);
        let stride = rate.min(domains as u32).max(1);
        let offset = (SplitMix64::new(seed).next_u64() % u64::from(stride)) as usize;

        let mut selected_mask = vec![false; domains];
        let mut selected = Vec::with_capacity(domains / stride as usize + 1);
        let mut d = offset;
        while d < domains {
            selected_mask[d] = true;
            selected.push(d);
            d += stride as usize;
        }

        // Size exactly, then scatter in one stable pass through a keep/drop
        // mask.
        let lines = source.lines_for(geom);
        let gaps = source.inst_gaps();
        let count = lines
            .iter()
            .filter(|&&l| selected_mask[domain_of(l, domains)])
            .count();
        let mut b_lines = Vec::with_capacity(count);
        let mut b_write_words = vec![0u64; count.div_ceil(64)];
        let mut b_gaps = gaps.map(|_| Vec::with_capacity(count));
        let mut orig = Vec::with_capacity(count);
        for i in 0..n {
            if !selected_mask[domain_of(lines[i], domains)] {
                continue;
            }
            let local = b_lines.len();
            if source.is_write(i) {
                b_write_words[local >> 6] |= 1u64 << (local & 63);
            }
            b_lines.push(lines[i]);
            if let (Some(b_gaps), Some(gaps)) = (&mut b_gaps, gaps) {
                b_gaps.push(gaps[i]);
            }
            orig.push(i as u32);
        }
        SampledTrace {
            trace: DecodedTrace::from_parts(geom, b_lines, b_write_words, b_gaps),
            orig,
            selected,
            domains,
            rate,
            stride,
            seed,
        }
    }

    /// The compacted sampled access stream (full source geometry; only the
    /// selected domains' sets ever appear, so a fresh cache instance's
    /// unselected sets stay cold and contribute nothing).
    #[inline]
    pub fn trace(&self) -> &DecodedTrace {
        &self.trace
    }

    /// Ascending original indices: `orig_indices()[j]` is the position in
    /// the source trace of the sample's access `j`.
    #[inline]
    pub fn orig_indices(&self) -> &[u32] {
        &self.orig
    }

    /// The selected pair domains, ascending.
    #[inline]
    pub fn selected_domains(&self) -> &[usize] {
        &self.selected
    }

    /// Iterates over the set indices the sample covers (each selected
    /// domain `d` contributes `d` and its partner `d + sets/2` when
    /// `sets >= 2`).
    pub fn selected_sets(&self) -> impl Iterator<Item = usize> + '_ {
        let sets = self.trace.geometry().sets();
        let half = sets / 2;
        self.selected.iter().flat_map(move |&d| {
            [d, d + half]
                .into_iter()
                .take(if half == 0 { 1 } else { 2 })
        })
    }

    /// Total pair domains of the source geometry (`max(sets / 2, 1)`).
    #[inline]
    pub fn domain_count(&self) -> usize {
        self.domains
    }

    /// The nominal sampling rate as requested (before clamping).
    #[inline]
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// The effective stride after clamping to `1..=domain_count`.
    #[inline]
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// The selection seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of accesses in the sample.
    #[inline]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the sample holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// The extrapolation factor for measured counts:
    /// `domain_count / selected_domains`. Exactly 1.0 at rate 1 (every
    /// domain selected), so full-rate sampled replay scales by identity.
    pub fn scale_factor(&self) -> f64 {
        self.domains as f64 / self.selected.len() as f64
    }

    /// How many of the sample's accesses have original index
    /// `< global_idx`: the local position where a global boundary (e.g.
    /// the warmup split) falls in the sample. Binary search over the
    /// ascending `orig` column.
    pub fn split_before(&self, global_idx: usize) -> usize {
        self.orig.partition_point(|&o| (o as usize) < global_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, Address, Trace};

    fn mixed_decoded(n: usize, sets: usize) -> DecodedTrace {
        let geom = CacheGeometry::new(sets, 4, 64).unwrap();
        let mut rng = SplitMix64::new(23);
        let mut t = Trace::with_capacity(n);
        for i in 0..n {
            let addr = Address::new(rng.next_u64() % (1 << 22));
            let a = if i % 3 == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            t.push(a.with_inst_gap((i % 7 + 1) as u32));
        }
        DecodedTrace::decode(&t, geom)
    }

    #[test]
    fn selection_is_a_pure_function_of_seed_sets_rate() {
        let d = mixed_decoded(400, 64);
        for rate in [1u32, 4, 8, 16] {
            for seed in [0u64, 1, 42, u64::MAX] {
                let a = SampledTrace::select(&d, rate, seed);
                let b = SampledTrace::select(&d, rate, seed);
                assert_eq!(a.selected_domains(), b.selected_domains());
                assert_eq!(a.orig_indices(), b.orig_indices());
                assert_eq!(a.trace(), b.trace());
            }
        }
    }

    #[test]
    fn different_seeds_can_select_different_strata() {
        let d = mixed_decoded(100, 64);
        let picks: std::collections::BTreeSet<usize> = (0..64u64)
            .map(|seed| SampledTrace::select(&d, 8, seed).selected_domains()[0])
            .collect();
        assert!(picks.len() > 1, "offset never varied across 64 seeds");
        for p in picks {
            assert!(p < 8, "first selected domain is the offset");
        }
    }

    #[test]
    fn rate_one_selects_everything_and_scale_is_identity() {
        let d = mixed_decoded(300, 64);
        let s = SampledTrace::select(&d, 1, 9);
        assert_eq!(s.len(), d.len());
        assert_eq!(s.selected_domains().len(), s.domain_count());
        assert_eq!(s.scale_factor().to_bits(), 1.0f64.to_bits());
        assert_eq!(s.trace(), &d);
        for i in 0..d.len() {
            assert_eq!(s.orig_indices()[i] as usize, i);
        }
    }

    #[test]
    fn sample_keeps_exactly_the_selected_domains_in_source_order() {
        let d = mixed_decoded(500, 64);
        let s = SampledTrace::select(&d, 8, 7);
        let domains = s.domain_count();
        let mask: Vec<bool> = (0..domains)
            .map(|dm| s.selected_domains().contains(&dm))
            .collect();
        // Every selected-domain access survives; none else do.
        let expected: Vec<usize> = (0..d.len())
            .filter(|&i| mask[domain_of(d.get(i).line.raw(), domains)])
            .collect();
        assert_eq!(
            s.orig_indices()
                .iter()
                .map(|&o| o as usize)
                .collect::<Vec<_>>(),
            expected
        );
        for (j, &o) in s.orig_indices().iter().enumerate() {
            let o = o as usize;
            assert_eq!(s.trace().get(j), d.get(o));
        }
    }

    #[test]
    fn pair_partners_are_co_sampled() {
        let d = mixed_decoded(400, 64);
        let half = 32u32;
        for seed in [0u64, 3, 99] {
            let s = SampledTrace::select(&d, 8, seed);
            let covered: std::collections::BTreeSet<usize> = s.selected_sets().collect();
            for a in s.trace().iter() {
                let set = d.geometry().set_index_of_line(a.line) as u32;
                assert!(covered.contains(&(set as usize)));
                assert!(
                    covered.contains(&((set ^ half) as usize)),
                    "partner of set {set} missing from the sample"
                );
            }
        }
    }

    #[test]
    fn rate_above_domain_count_clamps_to_one_domain() {
        let d = mixed_decoded(200, 8); // 4 pair domains
        let s = SampledTrace::select(&d, 64, 5);
        assert_eq!(s.rate(), 64);
        assert_eq!(s.stride(), 4);
        assert_eq!(s.selected_domains().len(), 1);
        assert!((s.scale_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_set_geometry_always_selects_its_only_domain() {
        let d = mixed_decoded(100, 1);
        let s = SampledTrace::select(&d, 16, 11);
        assert_eq!(s.domain_count(), 1);
        assert_eq!(s.selected_domains(), &[0]);
        assert_eq!(s.len(), 100);
        assert_eq!(s.scale_factor().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn split_before_matches_linear_scan() {
        let d = mixed_decoded(350, 64);
        let s = SampledTrace::select(&d, 4, 2);
        for boundary in [0usize, 1, 70, 349, 350] {
            let linear = s
                .orig_indices()
                .iter()
                .filter(|&&o| (o as usize) < boundary)
                .count();
            assert_eq!(s.split_before(boundary), linear);
        }
    }

    #[test]
    fn scale_factor_is_domains_over_selected() {
        let d = mixed_decoded(100, 64); // 32 domains
        for (rate, expected_selected) in [(2u32, 16usize), (4, 8), (8, 4), (16, 2), (32, 1)] {
            let s = SampledTrace::select(&d, rate, 1);
            assert_eq!(s.selected_domains().len(), expected_selected);
            assert!((s.scale_factor() - 32.0 / expected_selected as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn write_flags_survive_compaction_across_word_boundaries() {
        // 400 accesses at rate 2 keeps ~200: flags cross the 64-access
        // packing boundaries of the compacted bitmap.
        let d = mixed_decoded(400, 64);
        let s = SampledTrace::select(&d, 2, 13);
        assert!(s.len() > 64, "sample too small to cross a word boundary");
        let writes: usize = (0..s.len()).filter(|&j| s.trace().is_write(j)).count();
        let expected: usize = s
            .orig_indices()
            .iter()
            .filter(|&&o| d.is_write(o as usize))
            .count();
        assert_eq!(writes, expected);
        assert!(writes > 0);
    }
}
