//! The scheme zoo: construction by name, the warm-up boundary, and the
//! whole-system runner. Bare-LLC replay lives in
//! `stem_bench::engine`.

use std::fmt;
use std::str::FromStr;

use stem_hierarchy::{System, SystemConfig, SystemMetrics};
use stem_llc::{StemCache, StemConfig};
use stem_replacement::{Bip, Dip, Drrip, Lru, Nru, PeLifo, Plru, SetAssocCache, Srrip};
use stem_sim_core::{AuditedCacheModel, CacheGeometry, CacheModel, DecodedTrace};
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
    build_audited_cache(scheme, geom)
}

/// Constructs an LLC of the given scheme with the checked-mode surface:
/// the returned cache exposes
/// [`InvariantAuditor`](stem_sim_core::InvariantAuditor) so callers can run
/// it under [`run_audited`](stem_sim_core::run_audited), auditing its
/// internal structures at a configurable stride. Every scheme in
/// [`Scheme::ALL`] is covered.
pub fn build_audited_cache(scheme: Scheme, geom: CacheGeometry) -> Box<dyn AuditedCacheModel> {
    match scheme {
        Scheme::Lru => Box::new(SetAssocCache::new(geom, Lru::new(geom))),
        Scheme::Dip => Box::new(SetAssocCache::new(geom, Dip::new(geom))),
        Scheme::PeLifo => Box::new(SetAssocCache::new(geom, PeLifo::new(geom))),
        Scheme::VWay => Box::new(VWayCache::new(geom)),
        Scheme::Sbc => Box::new(SbcCache::new(geom)),
        Scheme::Stem => Box::new(StemCache::with_config(geom, StemConfig::micro2010())),
        Scheme::Bip => Box::new(SetAssocCache::new(geom, Bip::new(geom))),
        Scheme::Srrip => Box::new(SetAssocCache::new(geom, Srrip::new(geom))),
        Scheme::Drrip => Box::new(SetAssocCache::new(geom, Drrip::new(geom))),
        Scheme::Plru => Box::new(SetAssocCache::new(geom, Plru::new(geom))),
        Scheme::Nru => Box::new(SetAssocCache::new(geom, Nru::new(geom))),
        Scheme::SbcStatic => Box::new(StaticSbcCache::new(geom)),
        Scheme::VictimCache => Box::new(VictimCache::new(geom, 16)),
    }
}

/// The warm-up boundary every warmed run uses: the first
/// `warmup_fraction` (clamped to `[0, 0.9]`) of `len` accesses replay
/// unmeasured. Centralised so every replay path, and every warm-state
/// snapshot, computes the *same* boundary from the same arithmetic.
pub fn warm_split(len: usize, warmup_fraction: f64) -> usize {
    ((len as f64) * warmup_fraction.clamp(0.0, 0.9)) as usize
}

/// Runs a pre-decoded trace through the full system (core + L1 + LLC) and
/// returns end-to-end metrics. `warmup_fraction` of the trace (from the
/// front) is replayed unmeasured first, mirroring the paper's
/// fast-forward + cache-warming protocol (§5.1).
///
/// One scheme's run filters and replays a chunk at a time ([`System`]);
/// drivers comparing several schemes on one trace build its L1-miss
/// stream once ([`stem_hierarchy::LlcStream::solo`]) and replay that per
/// scheme.
pub fn run_system(
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

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::{Access, Address, Trace};
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
        let trace = DecodedTrace::decode(&trace, geom);
        for scheme in Scheme::ALL {
            let mut c = build_cache(scheme, geom);
            c.run_decoded(&trace);
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
        let trace = DecodedTrace::decode(&trace, geom);
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
    fn sampling_capability_surface_is_the_per_set_schemes_plus_dip() {
        let geom = small();
        for scheme in Scheme::ALL {
            let expected = matches!(
                scheme,
                Scheme::Lru | Scheme::Srrip | Scheme::Plru | Scheme::SbcStatic | Scheme::Dip
            );
            assert_eq!(
                build_cache(scheme, geom).supports_set_sampling(),
                expected,
                "{scheme}: sampling capability drifted from the documented boundary \
                 (DESIGN.md §14) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn run_system_with_warmup() {
        let geom = small();
        let trace = BenchmarkProfile::by_name("gromacs")
            .unwrap()
            .decoded(geom, 10_000);
        let m = run_system(Scheme::Stem, geom, SystemConfig::micro2010(), &trace, 0.2);
        assert!(m.accesses > 0);
        assert!(m.cpi > 0.0);
    }
}
