//! The scheme zoo and experiment drivers.

use std::fmt;
use std::str::FromStr;

use stem_hierarchy::{System, SystemConfig, SystemMetrics};
use stem_llc::{StemCache, StemConfig};
use stem_replacement::{Bip, Dip, Drrip, Lru, Nru, PeLifo, Plru, SetAssocCache, Srrip};
use stem_sim_core::{
    AuditedCacheModel, CacheGeometry, CacheModel, CacheStats, DecodedTrace, SampledTrace,
    ShardedTrace, Snapshot, SnapshotError, Trace, TraceShard,
};
use stem_spatial::{SbcCache, StaticSbcCache, VWayCache, VictimCache};

/// Every LLC scheme the workspace can evaluate.
///
/// The first six are the paper's (§5.1 evaluates LRU, DIP, PeLIFO, V-Way,
/// SBC and STEM); BIP and SRRIP are extra baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Baseline least-recently-used.
    Lru,
    /// Dynamic Insertion Policy (temporal).
    Dip,
    /// Pseudo-LIFO (temporal).
    PeLifo,
    /// V-Way cache (spatial).
    VWay,
    /// Set Balancing Cache (spatial).
    Sbc,
    /// The paper's contribution (spatiotemporal).
    Stem,
    /// Bimodal insertion (extra temporal baseline).
    Bip,
    /// Static RRIP (extra temporal baseline).
    Srrip,
    /// Tree pseudo-LRU (hardware-realistic baseline).
    Plru,
    /// Not-recently-used (hardware-realistic baseline).
    Nru,
    /// Dynamic RRIP (SRRIP/BRRIP set dueling; extra temporal baseline).
    Drrip,
    /// Static set-balancing (design-time index-complement pairs).
    SbcStatic,
    /// LRU with a 16-entry fully-associative victim buffer.
    VictimCache,
}

impl Scheme {
    /// The five schemes of the paper's comparison figures plus STEM, in
    /// figure order.
    pub const PAPER: [Scheme; 6] = [
        Scheme::Lru,
        Scheme::Dip,
        Scheme::PeLifo,
        Scheme::VWay,
        Scheme::Sbc,
        Scheme::Stem,
    ];

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Lru => "LRU",
            Scheme::Dip => "DIP",
            Scheme::PeLifo => "PELIFO",
            Scheme::VWay => "VWAY",
            Scheme::Sbc => "SBC",
            Scheme::Stem => "STEM",
            Scheme::Bip => "BIP",
            Scheme::Srrip => "SRRIP",
            Scheme::Drrip => "DRRIP",
            Scheme::Plru => "PLRU",
            Scheme::Nru => "NRU",
            Scheme::SbcStatic => "SBC-static",
            Scheme::VictimCache => "LRU+VC",
        }
    }

    /// Every scheme the workspace implements (the paper's six plus the
    /// extra baselines).
    pub const ALL: [Scheme; 13] = [
        Scheme::Lru,
        Scheme::Dip,
        Scheme::PeLifo,
        Scheme::VWay,
        Scheme::Sbc,
        Scheme::Stem,
        Scheme::Bip,
        Scheme::Srrip,
        Scheme::Drrip,
        Scheme::Plru,
        Scheme::Nru,
        Scheme::SbcStatic,
        Scheme::VictimCache,
    ];
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Scheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(Scheme::Lru),
            "dip" => Ok(Scheme::Dip),
            "pelifo" => Ok(Scheme::PeLifo),
            "vway" | "v-way" => Ok(Scheme::VWay),
            "sbc" => Ok(Scheme::Sbc),
            "stem" => Ok(Scheme::Stem),
            "bip" => Ok(Scheme::Bip),
            "srrip" => Ok(Scheme::Srrip),
            "drrip" => Ok(Scheme::Drrip),
            "plru" => Ok(Scheme::Plru),
            "nru" => Ok(Scheme::Nru),
            "sbc-static" | "sbcstatic" => Ok(Scheme::SbcStatic),
            "lru+vc" | "victim" | "vc" => Ok(Scheme::VictimCache),
            other => Err(format!("unknown scheme name: {other}")),
        }
    }
}

/// Constructs an LLC of the given scheme and geometry.
pub fn build_cache(scheme: Scheme, geom: CacheGeometry) -> Box<dyn CacheModel> {
    match scheme {
        Scheme::Lru => Box::new(SetAssocCache::new(geom, Box::new(Lru::new(geom)))),
        Scheme::Dip => Box::new(SetAssocCache::new(geom, Box::new(Dip::new(geom)))),
        Scheme::PeLifo => Box::new(SetAssocCache::new(geom, Box::new(PeLifo::new(geom)))),
        Scheme::VWay => Box::new(VWayCache::new(geom)),
        Scheme::Sbc => Box::new(SbcCache::new(geom)),
        Scheme::Stem => Box::new(StemCache::with_config(geom, StemConfig::micro2010())),
        Scheme::Bip => Box::new(SetAssocCache::new(geom, Box::new(Bip::new(geom)))),
        Scheme::Srrip => Box::new(SetAssocCache::new(geom, Box::new(Srrip::new(geom)))),
        Scheme::Drrip => Box::new(SetAssocCache::new(geom, Box::new(Drrip::new(geom)))),
        Scheme::Plru => Box::new(SetAssocCache::new(geom, Box::new(Plru::new(geom)))),
        Scheme::Nru => Box::new(SetAssocCache::new(geom, Box::new(Nru::new(geom)))),
        Scheme::SbcStatic => Box::new(StaticSbcCache::new(geom)),
        Scheme::VictimCache => Box::new(VictimCache::new(geom, 16)),
    }
}

/// Constructs an LLC of the given scheme with the checked-mode surface:
/// the returned cache exposes
/// [`InvariantAuditor`](stem_sim_core::InvariantAuditor) so callers can run
/// it under [`run_audited`](stem_sim_core::run_audited), auditing its
/// internal structures at a configurable stride. Every scheme in
/// [`Scheme::ALL`] is covered.
pub fn build_audited_cache(scheme: Scheme, geom: CacheGeometry) -> Box<dyn AuditedCacheModel> {
    match scheme {
        Scheme::Lru => Box::new(SetAssocCache::new(geom, Box::new(Lru::new(geom)))),
        Scheme::Dip => Box::new(SetAssocCache::new(geom, Box::new(Dip::new(geom)))),
        Scheme::PeLifo => Box::new(SetAssocCache::new(geom, Box::new(PeLifo::new(geom)))),
        Scheme::VWay => Box::new(VWayCache::new(geom)),
        Scheme::Sbc => Box::new(SbcCache::new(geom)),
        Scheme::Stem => Box::new(StemCache::with_config(geom, StemConfig::micro2010())),
        Scheme::Bip => Box::new(SetAssocCache::new(geom, Box::new(Bip::new(geom)))),
        Scheme::Srrip => Box::new(SetAssocCache::new(geom, Box::new(Srrip::new(geom)))),
        Scheme::Drrip => Box::new(SetAssocCache::new(geom, Box::new(Drrip::new(geom)))),
        Scheme::Plru => Box::new(SetAssocCache::new(geom, Box::new(Plru::new(geom)))),
        Scheme::Nru => Box::new(SetAssocCache::new(geom, Box::new(Nru::new(geom)))),
        Scheme::SbcStatic => Box::new(StaticSbcCache::new(geom)),
        Scheme::VictimCache => Box::new(VictimCache::new(geom, 16)),
    }
}

/// The warm-up boundary every warmed runner uses: the first
/// `warmup_fraction` (clamped to `[0, 0.9]`) of `len` accesses replay
/// unmeasured. Centralised so the serial and sharded paths compute the
/// *same* boundary from the same arithmetic.
pub fn warm_split(len: usize, warmup_fraction: f64) -> usize {
    ((len as f64) * warmup_fraction.clamp(0.0, 0.9)) as usize
}

/// The warm/reset/measure protocol every warmed replay follows: the first
/// `warm_len` accesses replay unmeasured, the counters reset at the
/// boundary, and the remainder replays measured. Returns the measured
/// [`CacheStats`].
///
/// This is the single definition of the warm boundary's *mechanics* — the
/// serial, sharded, and sampled runners all funnel through it (each after
/// translating the global boundary onto its own stream), so the protocol
/// cannot drift between paths.
pub fn replay_warmed(
    cache: &mut dyn CacheModel,
    trace: &DecodedTrace,
    warm_len: usize,
) -> CacheStats {
    cache.replay_decoded(trace, 0..warm_len);
    cache.reset_stats();
    cache.replay_decoded(trace, warm_len..trace.len());
    *cache.stats()
}

/// Whether `scheme` (as built for `geom`) opts into set-sharded replay —
/// the scheme-level view of
/// [`CacheModel::supports_set_sharding`](stem_sim_core::CacheModel::supports_set_sharding).
/// Dispatchers consult this capability instead of matching on scheme names,
/// so the boundary lives with each scheme's own state declaration.
pub fn scheme_supports_set_sharding(scheme: Scheme, geom: CacheGeometry) -> bool {
    build_cache(scheme, geom).supports_set_sharding()
}

/// Replays one shard of a pair-folded partition under the standard warm-up
/// protocol and returns the measured [`CacheStats`].
///
/// A *fresh* full-geometry cache instance backs the shard: only the shard's
/// own sets are ever touched, so the untouched sets stay cold and contribute
/// nothing. The global warm boundary `warm_before` (a source-trace index) is
/// translated onto the shard with [`TraceShard::split_before`], giving every
/// set exactly the warm/measured split it sees serially. Summing the
/// returned stats across a plan's shards reproduces the serial totals
/// bit-for-bit for any scheme whose
/// [`supports_set_sharding`](stem_sim_core::CacheModel::supports_set_sharding)
/// contract holds.
pub fn replay_shard_warmed(
    scheme: Scheme,
    geom: CacheGeometry,
    shard: &TraceShard,
    warm_before: usize,
) -> CacheStats {
    let mut cache = build_cache(scheme, geom);
    debug_assert!(
        cache.supports_set_sharding(),
        "{scheme} declined set sharding; route it through the serial path"
    );
    let local_warm = shard.split_before(warm_before);
    replay_warmed(cache.as_mut(), shard.trace(), local_warm)
}

/// MPKI of merged shard stats: the instruction denominator comes from the
/// *source* trace's measured range, exactly the number the serial runner
/// divides by, so a correctly merged shard replay yields a bit-identical
/// MPKI.
pub fn sharded_mpki(stats: &CacheStats, source: &DecodedTrace, warm_len: usize) -> f64 {
    stats.mpki(source.instructions_in(warm_len..source.len()).max(1))
}

/// Sharded twin of [`run_scheme_warmed_decoded`]: replays every shard of
/// `plan` (serially, in domain order — callers wanting parallelism fan
/// [`replay_shard_warmed`] out themselves), merges the per-shard stats, and
/// returns the MPKI. Bit-identical to the serial runner for any scheme that
/// reports [`scheme_supports_set_sharding`].
pub fn run_scheme_warmed_sharded(
    scheme: Scheme,
    geom: CacheGeometry,
    source: &DecodedTrace,
    plan: &ShardedTrace,
    warmup_fraction: f64,
) -> f64 {
    let warm_len = warm_split(source.len(), warmup_fraction);
    let stats = plan
        .shards()
        .iter()
        .map(|s| replay_shard_warmed(scheme, geom, s, warm_len))
        .fold(CacheStats::default(), |acc, s| acc + s);
    sharded_mpki(&stats, source, warm_len)
}

/// Sharded twin of [`assoc_point_decoded`]: one sweep point evaluated by
/// shard-merged replay. The plan is partitioned at the decode geometry,
/// whose set count and line size every sweep point shares, so one partition
/// serves the whole sweep just as one decode does.
///
/// # Panics
///
/// Panics if `ways` is zero (no valid cache geometry).
pub fn assoc_point_sharded(
    scheme: Scheme,
    base: CacheGeometry,
    ways: usize,
    source: &DecodedTrace,
    plan: &ShardedTrace,
) -> f64 {
    let geom =
        CacheGeometry::new(base.sets(), ways, base.line_bytes()).expect("sweep geometry is valid");
    run_scheme_warmed_sharded(scheme, geom, source, plan, 0.2)
}

/// Whether `scheme` (as built for `geom`) opts into sampled replay — the
/// scheme-level view of
/// [`CacheModel::supports_set_sampling`](stem_sim_core::CacheModel::supports_set_sampling).
/// The surface is the sharding set (per-set state ⇒ zero per-set
/// distortion) plus DIP, whose set-dueling duel is itself a sampling
/// estimator and opts in as a documented approximation.
pub fn scheme_supports_set_sampling(scheme: Scheme, geom: CacheGeometry) -> bool {
    build_cache(scheme, geom).supports_set_sampling()
}

/// Replays a strided-set sample under the standard warm-up protocol and
/// returns the *raw* (unscaled) measured [`CacheStats`].
///
/// A fresh full-geometry cache instance backs the sample: only the selected
/// domains' sets are ever touched, so the dropped sets stay cold and
/// contribute nothing. The global warm boundary `warm_before` (a
/// source-trace index) is translated onto the sample with
/// [`SampledTrace::split_before`], so every selected set sees exactly the
/// warm/measured split it would see serially. Replay is serial by
/// construction — the result is a pure function of `(scheme, geom,
/// sample)`, independent of thread and shard counts.
///
/// Callers scale the counts up with
/// [`SampledTrace::scale_factor`](stem_sim_core::SampledTrace::scale_factor)
/// (or take the MPKI shortcut, [`sampled_mpki`]).
pub fn replay_sample_warmed(
    scheme: Scheme,
    geom: CacheGeometry,
    sample: &SampledTrace,
    warm_before: usize,
) -> CacheStats {
    let mut cache = build_cache(scheme, geom);
    debug_assert!(
        cache.supports_set_sampling(),
        "{scheme} declined set sampling; route it through the exact path"
    );
    let local_warm = sample.split_before(warm_before);
    replay_warmed(cache.as_mut(), sample.trace(), local_warm)
}

/// Scales a sampled measurement up to a whole-cache MPKI estimate: the
/// sample's misses are multiplied by its
/// [`scale_factor`](stem_sim_core::SampledTrace::scale_factor)
/// (`domains / selected`), while the instruction denominator comes from the
/// **source** trace's measured range — the estimate answers "what would the
/// full cache's MPKI be over the full measured stream", so both numerator
/// and denominator are extrapolated to full scale. At rate 1 the scale is
/// exactly 1.0 and the sample's measured range covers the source's, so the
/// estimate degenerates to the exact MPKI bit-for-bit.
pub fn sampled_mpki(
    stats: &CacheStats,
    sample: &SampledTrace,
    source: &DecodedTrace,
    warm_len: usize,
) -> f64 {
    let instructions = source.instructions_in(warm_len..source.len()).max(1);
    stats.mpki(instructions) * sample.scale_factor()
}

/// Sampled twin of [`run_scheme_warmed_decoded`]: replays the sample under
/// the standard warm-up protocol and returns the scaled whole-cache MPKI
/// estimate. For any scheme reporting [`scheme_supports_set_sampling`],
/// a rate-1 sample reproduces the exact runner's MPKI bit-for-bit; at
/// higher rates the estimate's relative error is measured per
/// (scheme, benchmark, rate) in `BENCH_sampling.json` / EXPERIMENTS.md.
pub fn run_scheme_warmed_sampled(
    scheme: Scheme,
    geom: CacheGeometry,
    source: &DecodedTrace,
    sample: &SampledTrace,
    warmup_fraction: f64,
) -> f64 {
    let warm_len = warm_split(source.len(), warmup_fraction);
    let stats = replay_sample_warmed(scheme, geom, sample, warm_len);
    sampled_mpki(&stats, sample, source, warm_len)
}

/// Whether `scheme` (as built for `geom`) opts into checkpoint/restore —
/// the scheme-level view of
/// [`CacheModel::supports_snapshot`](stem_sim_core::CacheModel::supports_snapshot).
/// The surface is every scheme whose complete replay state is a cheap,
/// exact clone: the eleven `SetAssocCache` policies plus SBC-static and
/// the victim cache. V-Way (global decoupled tag/data store), dynamic SBC
/// (association/DSS machinery), and STEM (shadow sets, SCDM counters,
/// coupling heap mid-epoch) decline and always run cold.
pub fn scheme_supports_snapshot(scheme: Scheme, geom: CacheGeometry) -> bool {
    build_cache(scheme, geom).supports_snapshot()
}

/// Warms a fresh cache of `scheme` on the first `warm_len` accesses of
/// `trace`, zeroes its counters at the boundary, and checkpoints — the
/// warm-once half of warm-prefix reuse. Returns `None` when the scheme
/// declines the capability ([`scheme_supports_snapshot`]), in which case
/// callers run each consumer cold, exactly as before snapshots existed.
///
/// The snapshot captures post-reset state, so a restored cache measures
/// from zeroed counters just like the cold run does after its own warm-up.
pub fn warm_scheme_snapshot(
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &DecodedTrace,
    warm_len: usize,
) -> Option<Snapshot> {
    let mut cache = build_cache(scheme, geom);
    if !cache.supports_snapshot() {
        return None;
    }
    cache.replay_decoded(trace, 0..warm_len);
    cache.reset_stats();
    cache.snapshot()
}

/// The restore half of warm-prefix reuse: builds a fresh cache of
/// `scheme`, restores the warm checkpoint into it, measures the suffix
/// from `warm_len`, and returns the MPKI. Bit-identical to
/// [`run_scheme_warmed_decoded`] at the same boundary — the tentpole
/// invariant, enforced by the differential suite and the
/// `STEM_SNAPSHOTS={0,1}` determinism gate.
///
/// # Errors
///
/// Any [`SnapshotError`] the restore reports (capability refusal, or a
/// snapshot from a different scheme/geometry).
pub fn run_scheme_from_snapshot(
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &DecodedTrace,
    snapshot: &Snapshot,
    warm_len: usize,
) -> Result<f64, SnapshotError> {
    let mut cache = build_cache(scheme, geom);
    cache.restore(snapshot)?;
    cache.replay_decoded(trace, warm_len..trace.len());
    let instructions = trace.instructions_in(warm_len..trace.len());
    Ok(cache.stats().mpki(instructions.max(1)))
}

/// Runs a trace directly against a bare LLC (no L1 filtering) and returns
/// its MPKI. Used by the associativity sweeps, which study the LLC in
/// isolation like the paper's Fig. 3.
pub fn run_scheme(scheme: Scheme, geom: CacheGeometry, trace: &Trace) -> f64 {
    run_scheme_warmed(scheme, geom, trace, 0.0)
}

/// Like [`run_scheme`], but replays the first `warmup_fraction` of the
/// trace unmeasured first (the paper's cache-warming protocol).
pub fn run_scheme_warmed(
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &Trace,
    warmup_fraction: f64,
) -> f64 {
    let mut cache = build_cache(scheme, geom);
    let warm_len = warm_split(trace.len(), warmup_fraction);
    let mut instructions = 0u64;
    for (i, a) in trace.iter().enumerate() {
        if i == warm_len {
            cache.reset_stats();
        }
        if i >= warm_len {
            instructions += u64::from(a.inst_gap);
        }
        cache.access(a.addr, a.kind);
    }
    cache.stats().mpki(instructions.max(1))
}

/// Decoded-stream twin of [`run_scheme_warmed`]: replays a pre-decoded
/// trace against a bare LLC with the same warm-up protocol and returns the
/// same MPKI, without re-deriving set indices and tags per access. Callers
/// decode once per `(trace, set count, line size)` and fan the
/// [`DecodedTrace`] out across schemes and associativity points.
pub fn run_scheme_warmed_decoded(
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &DecodedTrace,
    warmup_fraction: f64,
) -> f64 {
    let mut cache = build_cache(scheme, geom);
    let warm_len = warm_split(trace.len(), warmup_fraction);
    let stats = replay_warmed(cache.as_mut(), trace, warm_len);
    let instructions = trace.instructions_in(warm_len..trace.len());
    stats.mpki(instructions.max(1))
}

/// Runs a trace through the full system (core + L1 + LLC) with a warm-up
/// prefix and returns end-to-end metrics. `warmup_fraction` of the trace
/// (from the front) is replayed unmeasured first, mirroring the paper's
/// fast-forward + cache-warming protocol (§5.1).
pub fn run_system(
    scheme: Scheme,
    geom: CacheGeometry,
    cfg: SystemConfig,
    trace: &Trace,
    warmup_fraction: f64,
) -> SystemMetrics {
    let mut system = System::new(cfg, build_cache(scheme, geom));
    let warm_len = warm_split(trace.len(), warmup_fraction);
    let warm: Trace = trace.iter().take(warm_len).copied().collect();
    let measured: Trace = trace.iter().skip(warm_len).copied().collect();
    system.warm_then_run(&warm, &measured)
}

/// Decoded-stream twin of [`run_system`]: runs a pre-decoded trace through
/// the full system with the same warm-up split and returns identical
/// metrics, without materialising warm/measured trace copies.
pub fn run_system_decoded(
    scheme: Scheme,
    geom: CacheGeometry,
    cfg: SystemConfig,
    trace: &DecodedTrace,
    warmup_fraction: f64,
) -> SystemMetrics {
    let mut system = System::new(cfg, build_cache(scheme, geom));
    let warm_len = warm_split(trace.len(), warmup_fraction);
    system.warm_then_run_decoded(trace, warm_len)
}

/// One point of the Fig. 3 / Fig. 10 associativity sweep: the MPKI of
/// `scheme` at `ways` ways with `base`'s set count and line size, after
/// the standard 20% warm-up. The trace is taken by shared reference so
/// callers can fan points out across threads over one generated trace
/// (e.g. via `Arc<Trace>`).
///
/// # Panics
///
/// Panics if `ways` is zero (no valid cache geometry).
pub fn assoc_point(scheme: Scheme, base: CacheGeometry, ways: usize, trace: &Trace) -> f64 {
    let geom =
        CacheGeometry::new(base.sets(), ways, base.line_bytes()).expect("sweep geometry is valid");
    run_scheme_warmed(scheme, geom, trace, 0.2)
}

/// Decoded-stream twin of [`assoc_point`]: evaluates one associativity
/// point from a shared [`DecodedTrace`]. The sweeps keep the set count and
/// line size fixed while varying ways, so one decode (against `base`)
/// stays compatible with every point geometry.
///
/// # Panics
///
/// Panics if `ways` is zero (no valid cache geometry).
pub fn assoc_point_decoded(
    scheme: Scheme,
    base: CacheGeometry,
    ways: usize,
    trace: &DecodedTrace,
) -> f64 {
    let geom =
        CacheGeometry::new(base.sets(), ways, base.line_bytes()).expect("sweep geometry is valid");
    run_scheme_warmed_decoded(scheme, geom, trace, 0.2)
}

/// Sweeps associativity with a fixed set count (the Fig. 3 / Fig. 10
/// protocol: the paper keeps the 2048-set organisation of Fig. 1 and
/// varies the ways per set) and returns `(ways, mpki)` per point.
///
/// # Panics
///
/// Panics if any entry of `ways_points` is zero.
pub fn assoc_sweep(
    scheme: Scheme,
    base: CacheGeometry,
    ways_points: &[usize],
    trace: &Trace,
) -> Vec<(usize, f64)> {
    ways_points
        .iter()
        .map(|&w| (w, assoc_point(scheme, base, w, trace)))
        .collect()
}

/// Decoded-stream twin of [`assoc_sweep`]: every point replays the shared
/// pre-decoded trace.
///
/// # Panics
///
/// Panics if any entry of `ways_points` is zero.
pub fn assoc_sweep_decoded(
    scheme: Scheme,
    base: CacheGeometry,
    ways_points: &[usize],
    trace: &DecodedTrace,
) -> Vec<(usize, f64)> {
    ways_points
        .iter()
        .map(|&w| (w, assoc_point_decoded(scheme, base, w, trace)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::{Access, Address};
    use stem_workloads::BenchmarkProfile;

    fn small() -> CacheGeometry {
        CacheGeometry::new(64, 4, 64).unwrap()
    }

    #[test]
    fn all_schemes_build_and_run() {
        let geom = small();
        let trace: Trace = (0..500u64)
            .map(|i| Access::read(Address::new(i % 128 * 64)))
            .collect();
        for scheme in Scheme::ALL {
            let mut c = build_cache(scheme, geom);
            c.run(&trace);
            assert_eq!(c.stats().accesses(), 500, "{scheme} lost accesses");
        }
    }

    #[test]
    fn all_schemes_pass_audits_under_traffic() {
        use stem_sim_core::run_audited;
        let geom = small();
        let trace: Trace = (0..2_000u64)
            .map(|i| Access::read(Address::new(i % 300 * 64)))
            .collect();
        for scheme in Scheme::ALL {
            let mut c = build_audited_cache(scheme, geom);
            run_audited(c.as_mut(), &trace, 256)
                .unwrap_or_else(|e| panic!("{scheme} failed its audit: {e}"));
            assert_eq!(c.stats().accesses(), 2_000, "{scheme} lost accesses");
        }
    }

    #[test]
    fn scheme_parsing_round_trips() {
        for s in Scheme::PAPER {
            assert_eq!(s.label().parse::<Scheme>().unwrap(), s);
        }
        assert_eq!("v-way".parse::<Scheme>().unwrap(), Scheme::VWay);
        assert!("bogus".parse::<Scheme>().is_err());
    }

    #[test]
    fn run_scheme_returns_mpki() {
        let geom = small();
        // Streaming trace: every access misses → MPKI == 1000 (gap 1).
        let trace: Trace = (0..1000u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let mpki = run_scheme(Scheme::Lru, geom, &trace);
        assert!((mpki - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn assoc_sweep_covers_points() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("gromacs")
            .unwrap()
            .trace(geom, 5_000);
        let sweep = assoc_sweep(Scheme::Lru, geom, &[1, 2, 4, 8], &trace);
        assert_eq!(sweep.len(), 4);
        for (w, mpki) in sweep {
            assert!(mpki >= 0.0, "ways {w}");
        }
    }

    #[test]
    fn decoded_runners_match_access_path_exactly() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("omnetpp")
            .unwrap()
            .trace(geom, 20_000);
        let decoded = DecodedTrace::decode(&trace, geom);
        for scheme in Scheme::PAPER {
            let reference = run_scheme_warmed(scheme, geom, &trace, 0.2);
            let fast = run_scheme_warmed_decoded(scheme, geom, &decoded, 0.2);
            assert_eq!(
                reference.to_bits(),
                fast.to_bits(),
                "{scheme} bare-LLC MPKI diverged"
            );
            // One decode serves every point of an associativity sweep.
            for ways in [2usize, 8] {
                let reference = assoc_point(scheme, geom, ways, &trace);
                let fast = assoc_point_decoded(scheme, geom, ways, &decoded);
                assert_eq!(
                    reference.to_bits(),
                    fast.to_bits(),
                    "{scheme} sweep point at {ways} ways diverged"
                );
            }
            let cfg = SystemConfig::micro2010();
            let reference = run_system(scheme, geom, cfg, &trace, 0.2);
            let fast = run_system_decoded(scheme, geom, cfg, &decoded, 0.2);
            assert_eq!(reference.accesses, fast.accesses, "{scheme} accesses");
            assert_eq!(reference.l2, fast.l2, "{scheme} L2 stats diverged");
            assert_eq!(
                reference.cpi.to_bits(),
                fast.cpi.to_bits(),
                "{scheme} CPI diverged"
            );
            assert_eq!(
                reference.mpki.to_bits(),
                fast.mpki.to_bits(),
                "{scheme} system MPKI diverged"
            );
        }
    }

    #[test]
    fn sharding_capability_surface_is_exactly_the_per_set_schemes() {
        let geom = small();
        for scheme in Scheme::ALL {
            let expected = matches!(
                scheme,
                Scheme::Lru | Scheme::Srrip | Scheme::Plru | Scheme::SbcStatic
            );
            assert_eq!(
                scheme_supports_set_sharding(scheme, geom),
                expected,
                "{scheme}: sharding capability drifted from the documented boundary \
                 (DESIGN.md §13) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn sharded_runner_matches_serial_for_shardable_schemes() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("omnetpp")
            .unwrap()
            .trace(geom, 20_000);
        let decoded = DecodedTrace::decode(&trace, geom);
        for scheme in Scheme::ALL {
            if !scheme_supports_set_sharding(scheme, geom) {
                continue;
            }
            let serial = run_scheme_warmed_decoded(scheme, geom, &decoded, 0.2);
            for shards in [1, 2, 4, 7] {
                let plan = ShardedTrace::partition(&decoded, shards);
                let sharded = run_scheme_warmed_sharded(scheme, geom, &decoded, &plan, 0.2);
                assert_eq!(
                    serial.to_bits(),
                    sharded.to_bits(),
                    "{scheme} diverged at {shards} shards"
                );
                for ways in [2usize, 8] {
                    let point = assoc_point_decoded(scheme, geom, ways, &decoded);
                    let point_sharded = assoc_point_sharded(scheme, geom, ways, &decoded, &plan);
                    assert_eq!(
                        point.to_bits(),
                        point_sharded.to_bits(),
                        "{scheme} sweep point at {ways} ways diverged at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_capability_surface_is_sharding_plus_dip() {
        let geom = small();
        for scheme in Scheme::ALL {
            let expected = matches!(
                scheme,
                Scheme::Lru | Scheme::Srrip | Scheme::Plru | Scheme::SbcStatic | Scheme::Dip
            );
            assert_eq!(
                scheme_supports_set_sampling(scheme, geom),
                expected,
                "{scheme}: sampling capability drifted from the documented boundary \
                 (DESIGN.md §14) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn full_rate_sample_reproduces_exact_replay_bit_for_bit() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("omnetpp")
            .unwrap()
            .trace(geom, 20_000);
        let decoded = DecodedTrace::decode(&trace, geom);
        let sample = SampledTrace::select(&decoded, 1, 99);
        for scheme in Scheme::ALL {
            if !scheme_supports_set_sampling(scheme, geom) {
                continue;
            }
            let exact = run_scheme_warmed_decoded(scheme, geom, &decoded, 0.2);
            let sampled = run_scheme_warmed_sampled(scheme, geom, &decoded, &sample, 0.2);
            assert_eq!(
                exact.to_bits(),
                sampled.to_bits(),
                "{scheme} full-rate sample diverged from exact replay"
            );
        }
    }

    #[test]
    fn sampled_estimates_are_deterministic_and_in_the_right_ballpark() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("omnetpp")
            .unwrap()
            .trace(geom, 40_000);
        let decoded = DecodedTrace::decode(&trace, geom);
        let sample = SampledTrace::select(&decoded, 8, 1);
        for scheme in Scheme::ALL {
            if !scheme_supports_set_sampling(scheme, geom) {
                continue;
            }
            let exact = run_scheme_warmed_decoded(scheme, geom, &decoded, 0.2);
            let a = run_scheme_warmed_sampled(scheme, geom, &decoded, &sample, 0.2);
            let b = run_scheme_warmed_sampled(scheme, geom, &decoded, &sample, 0.2);
            assert_eq!(a.to_bits(), b.to_bits(), "{scheme} sampled MPKI not pure");
            assert!(a.is_finite() && a >= 0.0, "{scheme} sampled MPKI = {a}");
            // Not a tight bound — just that the estimator isn't nonsense.
            if exact > 1.0 {
                let rel = (a - exact).abs() / exact;
                assert!(
                    rel < 1.0,
                    "{scheme} sampled MPKI {a} is off exact {exact} by {rel:.2}"
                );
            }
        }
    }

    #[test]
    fn snapshot_capability_surface_is_all_but_the_entangled_schemes() {
        let geom = small();
        for scheme in Scheme::ALL {
            let expected = !matches!(scheme, Scheme::VWay | Scheme::Sbc | Scheme::Stem);
            assert_eq!(
                scheme_supports_snapshot(scheme, geom),
                expected,
                "{scheme}: snapshot capability drifted from the documented boundary \
                 (DESIGN.md §15) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn restored_runner_matches_cold_for_snapshottable_schemes() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("omnetpp")
            .unwrap()
            .trace(geom, 20_000);
        let decoded = DecodedTrace::decode(&trace, geom);
        let warm_len = warm_split(decoded.len(), 0.2);
        for scheme in Scheme::ALL {
            let snap = warm_scheme_snapshot(scheme, geom, &decoded, warm_len);
            if !scheme_supports_snapshot(scheme, geom) {
                assert!(snap.is_none(), "{scheme} refused yet produced a snapshot");
                continue;
            }
            let snap = snap.unwrap_or_else(|| panic!("{scheme} opted in but returned None"));
            let cold = run_scheme_warmed_decoded(scheme, geom, &decoded, 0.2);
            let restored = run_scheme_from_snapshot(scheme, geom, &decoded, &snap, warm_len)
                .unwrap_or_else(|e| panic!("{scheme} restore failed: {e}"));
            assert_eq!(
                cold.to_bits(),
                restored.to_bits(),
                "{scheme} restored MPKI diverged from cold"
            );
            // The snapshot is reusable: a second restore must agree too.
            let again = run_scheme_from_snapshot(scheme, geom, &decoded, &snap, warm_len).unwrap();
            assert_eq!(
                restored.to_bits(),
                again.to_bits(),
                "{scheme} reuse drifted"
            );
        }
    }

    #[test]
    fn snapshot_restore_rejects_the_wrong_target() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("gromacs")
            .unwrap()
            .trace(geom, 5_000);
        let decoded = DecodedTrace::decode(&trace, geom);
        let warm_len = warm_split(decoded.len(), 0.2);
        let snap = warm_scheme_snapshot(Scheme::Lru, geom, &decoded, warm_len).unwrap();
        assert!(matches!(
            run_scheme_from_snapshot(Scheme::Dip, geom, &decoded, &snap, warm_len),
            Err(stem_sim_core::SnapshotError::SchemeMismatch { .. })
        ));
        let other = CacheGeometry::new(64, 8, 64).unwrap();
        assert!(matches!(
            run_scheme_from_snapshot(Scheme::Lru, other, &decoded, &snap, warm_len),
            Err(stem_sim_core::SnapshotError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn run_system_with_warmup() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("gromacs")
            .unwrap()
            .trace(geom, 10_000);
        let m = run_system(Scheme::Stem, geom, SystemConfig::micro2010(), &trace, 0.2);
        assert!(m.accesses > 0);
        assert!(m.cpi > 0.0);
    }
}
