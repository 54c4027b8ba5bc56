//! The simulated system: analytical core + L1D + pluggable L2 + memory.

use std::ops::Range;

use stem_sim_core::{CacheGeometry, CacheModel, CacheStats, DecodedTrace, TimingParams};

use crate::{L1Cache, SystemMetrics};

/// System-level configuration: the paper's Table 1 system, the one
/// configuration the evaluation uses and this crate validates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// L1 data cache geometry (Table 1: 2-way, 32KB, 64B lines).
    l1_geometry: CacheGeometry,
    /// L1 data hit latency in cycles (Table 1: 2).
    l1_hit_cycles: u64,
    /// L2/memory latency parameters (§5.1).
    timing: TimingParams,
    /// Base CPI of the core with a perfect memory system. The simulated
    /// 8-wide Alpha-like core retires well above 1 IPC when not stalled.
    base_cpi: f64,
    /// Fraction of memory stall cycles hidden by the out-of-order core
    /// (MLP/ILP overlap). 0 = in-order blocking, 1 = perfect hiding.
    overlap: f64,
}

impl SystemConfig {
    /// The paper's configuration (Table 1), with the analytical core model
    /// parameters documented in `DESIGN.md` §1.
    pub fn micro2010() -> Self {
        SystemConfig {
            l1_geometry: CacheGeometry::new(256, 2, 64).expect("32KB 2-way L1 is valid"),
            l1_hit_cycles: 2,
            timing: TimingParams::micro2010(),
            base_cpi: 0.6,
            overlap: 0.4,
        }
    }

    /// The L1 data cache geometry; its line size is the line size every
    /// stream driven through the hierarchy must be decoded at.
    pub fn l1_geometry(&self) -> CacheGeometry {
        self.l1_geometry
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::micro2010()
    }
}

/// Accesses filtered through the L1 per LLC replay call.
///
/// Nothing the LLC does reaches the L1 (a private LRU that nothing
/// back-invalidates), so a hierarchy run filters each chunk of the stream
/// through the L1 and then replays the chunk's L1 misses through the LLC's
/// own [`replay_decoded`](CacheModel::replay_decoded) kernel, in order.
/// Replay composes over ranges, so the chunk size changes no result; it
/// only bounds the miss buffer, whatever the stream length.
pub const FILTER_CHUNK: usize = 4096;

/// A core + L1D + L2 + memory system driving any
/// [`CacheModel`](stem_sim_core::CacheModel) as its LLC.
///
/// The L1 is the Table 1 2-way LRU ([`L1Cache`]); accesses that miss it are
/// forwarded to the L2 (see [`FILTER_CHUNK`]), and the L2's outcome counts
/// are priced by the §5.1 latency algebra
/// ([`TimingParams::l2_cycles`](stem_sim_core::TimingParams::l2_cycles)).
/// L1 write-back traffic to the L2 is not modelled (it does not change L2
/// *miss* counts under the paper's allocate-on-write L2s, and all reported
/// metrics are LRU-normalized).
///
/// A `System` is `Clone`: a clone of a warmed system is an exact
/// checkpoint of both cache levels, so a clone replays exactly like the
/// original from that point on.
#[derive(Clone)]
pub struct System {
    cfg: SystemConfig,
    l1: L1Cache,
    l2: Box<dyn CacheModel>,
}

impl System {
    /// Creates a system around an LLC.
    pub fn new(cfg: SystemConfig, l2: Box<dyn CacheModel>) -> Self {
        let l1 = L1Cache::new(cfg.l1_geometry);
        System { cfg, l1, l2 }
    }

    /// The LLC being driven (e.g. to inspect scheme-specific state).
    pub fn l2(&self) -> &dyn CacheModel {
        self.l2.as_ref()
    }

    /// Warms on the first `warm_len` accesses of `trace` (statistics
    /// discarded), mirroring the paper's cache-warming phase, then
    /// measures the remainder. The warm-up phase drives the hierarchy
    /// exactly as the measured phase does.
    ///
    /// # Panics
    ///
    /// Panics if `warm_len` exceeds the trace length or the trace's line
    /// size differs from the L1's.
    pub fn warm_then_run_decoded(
        &mut self,
        trace: &DecodedTrace,
        warm_len: usize,
    ) -> SystemMetrics {
        self.warm_decoded(trace, warm_len);
        self.reset_stats();
        self.run_decoded_range(trace, warm_len..trace.len())
    }

    /// The warm half of [`warm_then_run_decoded`](System::warm_then_run_decoded):
    /// drives the first `warm_len` accesses through the full hierarchy
    /// and stops, leaving statistics dirty. Callers that intend to
    /// measure afterwards call [`reset_stats`](System::reset_stats) —
    /// and may clone the system after that, capturing the warm state
    /// with zeroed counters so the clone measures exactly like this one.
    ///
    /// # Panics
    ///
    /// Panics if `warm_len` exceeds the trace length or the trace's line
    /// size differs from the L1's.
    pub fn warm_decoded(&mut self, trace: &DecodedTrace, warm_len: usize) {
        self.drive(trace, 0..warm_len);
    }

    /// Zeroes both cache levels' statistics counters (the boundary between
    /// a warm-up phase and a measured phase).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Runs the accesses in `range` of `trace` and returns the end-to-end
    /// metrics of that range.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or the trace's line size differs
    /// from the L1's.
    pub fn run_decoded_range(
        &mut self,
        trace: &DecodedTrace,
        range: Range<usize>,
    ) -> SystemMetrics {
        // Outcomes of *this* run (the caller may not have reset the
        // counters between phases).
        let before = *self.l2.stats();
        self.drive(trace, range.clone());
        let l2 = *self.l2.stats();
        metrics(
            &self.cfg,
            range.len() as u64,
            trace.instructions_in(range),
            l2.outcomes_since(&before),
            self.l1.stats().miss_rate(),
            l2,
        )
    }

    /// Filters `range` through the L1 a [`FILTER_CHUNK`] at a time and
    /// replays each chunk's L1 misses through the LLC.
    fn drive(&mut self, trace: &DecodedTrace, range: Range<usize>) {
        let mut misses =
            DecodedTrace::gap_free(self.cfg.l1_geometry, range.len().min(FILTER_CHUNK));
        for start in range.clone().step_by(FILTER_CHUNK) {
            misses.clear();
            let chunk = start..(start + FILTER_CHUNK).min(range.end);
            filter_range(&mut self.l1, &mut misses, trace, chunk);
            self.l2.run_decoded(&misses);
        }
    }
}

/// Issues `range` of `trace` through a core's L1, appending each L1 miss
/// to `misses`, the LLC stream being built.
///
/// # Panics
///
/// Panics if `range` is out of bounds or the trace's line size differs
/// from the L1's.
#[inline]
pub(crate) fn filter_range(
    l1: &mut L1Cache,
    misses: &mut DecodedTrace,
    trace: &DecodedTrace,
    range: Range<usize>,
) {
    let lines = &trace.lines_for(misses.geometry())[range.clone()];
    for (i, &line) in range.zip(lines) {
        filter(l1, misses, line, trace.is_write(i));
    }
}

/// Probes a core's L1 with one demand access and, on a miss, appends its
/// line and write flag to `misses`, the LLC stream being built. Returns
/// whether it missed.
#[inline]
pub(crate) fn filter(l1: &mut L1Cache, misses: &mut DecodedTrace, line: u64, write: bool) -> bool {
    let missed = !l1.access_line(line, write);
    if missed {
        misses.push_line(line, write);
    }
    missed
}

/// The one metric algebra of every hierarchy run, over `accesses`
/// core-issued accesses representing `instructions` instructions, whose L1
/// misses produced the LLC outcome counts `outcomes`. Memory cycles are
/// an L1 hit per access plus the §5.1 L2 and memory cycles of the
/// outcomes; MPKI counts the outcome misses; AMAT is cycles per access;
/// CPI is base CPI plus the stall cycles beyond L1 hits, discounted by the
/// overlap factor. A zero instruction count is taken as one. `l2` is
/// reported as the run's LLC statistics.
pub(crate) fn metrics(
    cfg: &SystemConfig,
    accesses: u64,
    instructions: u64,
    outcomes: CacheStats,
    l1_miss_rate: f64,
    l2: CacheStats,
) -> SystemMetrics {
    let stall_cycles = cfg.timing.l2_cycles(&outcomes);
    let cycles = accesses * cfg.l1_hit_cycles + stall_cycles;
    let instructions = instructions.max(1);
    SystemMetrics {
        mpki: outcomes.misses() as f64 * 1000.0 / instructions as f64,
        amat: if accesses == 0 {
            0.0
        } else {
            cycles as f64 / accesses as f64
        },
        cpi: cfg.base_cpi + stall_cycles as f64 * (1.0 - cfg.overlap) / instructions as f64,
        l1_miss_rate,
        l2,
        instructions,
        accesses,
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cfg", &self.cfg)
            .field("l2", &self.l2.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_replacement::{Lru, SetAssocCache};
    use stem_sim_core::{Access, Address, Trace};

    fn l2_geom() -> CacheGeometry {
        CacheGeometry::new(64, 4, 64).unwrap()
    }

    fn lru_l2() -> Box<dyn CacheModel> {
        let geom = l2_geom();
        Box::new(SetAssocCache::new(geom, Lru::new(geom)))
    }

    fn system() -> System {
        System::new(SystemConfig::micro2010(), lru_l2())
    }

    fn decode(trace: &Trace) -> DecodedTrace {
        DecodedTrace::decode(trace, l2_geom())
    }

    /// Measures a whole trace, counting from the system's current state.
    fn run(sys: &mut System, trace: &Trace) -> SystemMetrics {
        let d = decode(trace);
        sys.run_decoded_range(&d, 0..d.len())
    }

    #[test]
    fn all_l1_hits_cost_l1_latency_only() {
        let mut sys = system();
        // One address accessed repeatedly: 1 cold path, then L1 hits.
        let trace: Trace = (0..100).map(|_| Access::read(Address::new(0))).collect();
        let m = run(&mut sys, &trace);
        assert!(
            m.amat < 10.0,
            "AMAT {} should be near the L1 hit time",
            m.amat
        );
        assert_eq!(m.l2.accesses(), 1); // only the cold miss reached L2
    }

    #[test]
    fn streaming_pays_memory_latency() {
        let mut sys = system();
        let trace: Trace = (0..1000u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let m = run(&mut sys, &trace);
        // Every access: L1 miss, L2 miss, memory: AMAT ≈ 2 + 6 + 300.
        assert!((m.amat - 308.0).abs() < 1.0, "AMAT {}", m.amat);
        assert!(m.l1_miss_rate > 0.99);
        assert_eq!(m.l2.misses(), 1000);
    }

    #[test]
    fn mpki_uses_instructions() {
        let mut sys = system();
        let trace: Trace = (0..100u64)
            .map(|i| Access::read(Address::new(i * 64)).with_inst_gap(10))
            .collect();
        let m = run(&mut sys, &trace);
        assert_eq!(m.instructions, 1000);
        assert!((m.mpki - 100.0).abs() < 1e-9); // 100 misses / 1k insts
    }

    #[test]
    fn cpi_increases_with_misses() {
        let mut hit_sys = system();
        let hit_trace: Trace = (0..500).map(|_| Access::read(Address::new(0))).collect();
        let hits = run(&mut hit_sys, &hit_trace);
        let mut miss_sys = system();
        let miss_trace: Trace = (0..500u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let misses = run(&mut miss_sys, &miss_trace);
        assert!(misses.cpi > hits.cpi * 5.0);
    }

    #[test]
    fn warmup_discards_statistics() {
        let mut sys = system();
        let warm: Trace = (0..64u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let twice: Trace = warm.iter().chain(&warm).copied().collect();
        let m = sys.warm_then_run_decoded(&decode(&twice), 64);
        // All 64 lines were warmed: the measured pass hits in L1 or L2.
        assert_eq!(m.l2.misses(), 0);
    }

    #[test]
    fn warm_phase_and_run_phase_produce_the_same_state() {
        // Warming with X then measuring Y must equal running X measured
        // (stats discarded) then measuring Y: the warm path and the run
        // path drive the identical hierarchy.
        let cfg = SystemConfig::micro2010();
        let xy: Trace = (0..600u64)
            .map(|i| Access::read(Address::new((i % 97) * 192)))
            .chain((0..400u64).map(|i| Access::read(Address::new((i % 61) * 256))))
            .collect();
        let xy = decode(&xy);

        let mut warmed = System::new(cfg, lru_l2());
        let via_warm = warmed.warm_then_run_decoded(&xy, 600);

        let mut ran = System::new(cfg, lru_l2());
        ran.run_decoded_range(&xy, 0..600);
        ran.reset_stats();
        let via_run = ran.run_decoded_range(&xy, 600..xy.len());
        assert_eq!(via_warm.l2, via_run.l2);
        assert_eq!(via_warm.mpki, via_run.mpki);
        assert_eq!(via_warm.amat, via_run.amat);
        assert_eq!(via_warm.cpi, via_run.cpi);
    }

    #[test]
    fn warmed_clone_resumes_the_cold_trajectory_exactly() {
        // Warm a system, clone it at the warm boundary, measure. The clone
        // must produce bit-identical metrics on the measured suffix, even
        // after the original has moved on.
        let cfg = SystemConfig::micro2010();
        let trace: Trace = (0..3000u64)
            .map(|i| {
                let a = Address::new((i % 413) * 192 + i % 64);
                if i % 5 == 0 {
                    Access::write(a).with_inst_gap((i % 7 + 1) as u32)
                } else {
                    Access::read(a).with_inst_gap((i % 7 + 1) as u32)
                }
            })
            .collect();
        let l2_geom = CacheGeometry::new(64, 4, 64).unwrap();
        let decoded = DecodedTrace::decode(&trace, l2_geom);
        let warm_len = trace.len() / 5;

        let mut cold = System::new(cfg, lru_l2());
        cold.warm_decoded(&decoded, warm_len);
        cold.reset_stats();
        let mut restored = cold.clone();
        let expect = cold.run_decoded_range(&decoded, warm_len..decoded.len());
        let got = restored.run_decoded_range(&decoded, warm_len..decoded.len());

        assert_eq!(got.l2, expect.l2);
        assert_eq!(got.mpki, expect.mpki);
        assert_eq!(got.amat, expect.amat);
        assert_eq!(got.cpi, expect.cpi);
        assert_eq!(got.l1_miss_rate, expect.l1_miss_rate);
        assert_eq!(got.instructions, expect.instructions);
        assert_eq!(got.accesses, expect.accesses);
    }

    #[test]
    fn overlap_reduces_cpi() {
        let trace: Trace = (0..500u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let config = |overlap| SystemConfig {
            overlap,
            ..SystemConfig::micro2010()
        };
        let mut blocking = System::new(config(0.0), lru_l2());
        let mut hiding = System::new(config(0.9), lru_l2());
        assert!(run(&mut blocking, &trace).cpi > run(&mut hiding, &trace).cpi);
    }
}
