//! The simulated system: analytical core + L1D + pluggable L2 + memory.

use std::ops::Range;

use stem_replacement::{Lru, SetAssocCache};
use stem_sim_core::{CacheGeometry, CacheModel, DecodedTrace, TimingParams, Trace};

use crate::{NextLinePrefetcher, SystemMetrics};

/// System-level configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// L1 data cache geometry (Table 1: 2-way, 32KB, 64B lines).
    pub l1_geometry: CacheGeometry,
    /// L1 data hit latency in cycles (Table 1: 2).
    pub l1_hit_cycles: u64,
    /// L2/memory latency parameters (§5.1).
    pub timing: TimingParams,
    /// Base CPI of the core with a perfect memory system. The simulated
    /// 8-wide Alpha-like core retires well above 1 IPC when not stalled.
    pub base_cpi: f64,
    /// Fraction of memory stall cycles hidden by the out-of-order core
    /// (MLP/ILP overlap). 0 = in-order blocking, 1 = perfect hiding.
    pub overlap: f64,
    /// Optional next-line prefetcher between L1 and L2 (disabled by
    /// default; prefetch fills do not count as demand accesses).
    pub prefetcher: NextLinePrefetcher,
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
            prefetcher: NextLinePrefetcher::default(),
        }
    }

    /// Sets the base CPI.
    #[must_use]
    pub fn with_base_cpi(mut self, cpi: f64) -> Self {
        self.base_cpi = cpi;
        self
    }

    /// Sets the stall overlap factor (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        self.overlap = overlap.clamp(0.0, 1.0);
        self
    }

    /// Sets the timing parameters.
    #[must_use]
    pub fn with_timing(mut self, timing: TimingParams) -> Self {
        self.timing = timing;
        self
    }

    /// Enables a next-line prefetcher of the given degree.
    #[must_use]
    pub fn with_prefetcher(mut self, degree: usize) -> Self {
        self.prefetcher = NextLinePrefetcher::new(degree);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::micro2010()
    }
}

/// A core + L1D + L2 + memory system driving any
/// [`CacheModel`](stem_sim_core::CacheModel) as its LLC.
///
/// The L1 is a conventional LRU cache (Table 1); accesses that miss it are
/// forwarded to the L2, whose [`AccessResult`](stem_sim_core::AccessResult)
/// is priced by the §5.1 latency rules. L1 write-back traffic to the L2 is
/// not modelled (it does not change L2 *miss* counts under the paper's
/// allocate-on-write L2s, and all reported metrics are LRU-normalized).
///
/// A `System` is `Clone`: a clone of a warmed system is an exact
/// checkpoint of both cache levels (the prefetcher holds no replay state),
/// so a clone replays exactly like the original from that point on.
#[derive(Clone)]
pub struct System {
    cfg: SystemConfig,
    l1: SetAssocCache,
    l2: Box<dyn CacheModel>,
}

impl System {
    /// Creates a system around an LLC.
    pub fn new(cfg: SystemConfig, l2: Box<dyn CacheModel>) -> Self {
        let l1 = SetAssocCache::new(cfg.l1_geometry, Box::new(Lru::new(cfg.l1_geometry)));
        System { cfg, l1, l2 }
    }

    /// The LLC being driven (e.g. to inspect scheme-specific state).
    pub fn l2(&self) -> &dyn CacheModel {
        self.l2.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs `warmup` accesses (statistics discarded), mirroring the
    /// paper's cache-warming phase, then measures `trace`.
    ///
    /// The warm-up phase drives exactly the same hierarchy as the measured
    /// phase — including the configured prefetcher — so measurement starts
    /// from the cache state *this* system would have produced, not the
    /// state of a prefetcher-less twin.
    pub fn warm_then_run(&mut self, warmup: &Trace, trace: &Trace) -> SystemMetrics {
        let l2_geom = self.l2.geometry();
        for a in warmup {
            let r = self.l1.access(a.addr, a.kind);
            if r.is_miss() && self.l2.access(a.addr, a.kind).is_miss() {
                self.cfg
                    .prefetcher
                    .on_l1_miss(a.addr, l2_geom, self.l2.as_mut());
            }
        }
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.run(trace)
    }

    /// Runs a trace and returns the end-to-end metrics.
    ///
    /// Prefetch fills go through the L2's non-demand access path, so the
    /// raw L2 counters are already demand-only and are reported as-is.
    pub fn run(&mut self, trace: &Trace) -> SystemMetrics {
        let t = self.cfg.timing;
        let mut total_cycles: u64 = 0; // memory access cycles
        let mut accesses: u64 = 0;
        let l2_geom = self.l2.geometry();
        let stats_base = *self.l2.stats();

        for a in trace {
            accesses += 1;
            let l1_result = self.l1.access(a.addr, a.kind);
            let mut cycles = self.cfg.l1_hit_cycles;
            if l1_result.is_miss() {
                let l2_result = self.l2.access(a.addr, a.kind);
                cycles += t.l2_latency(l2_result);
                if l2_result.is_miss() {
                    cycles += t.memory();
                    self.cfg
                        .prefetcher
                        .on_l1_miss(a.addr, l2_geom, self.l2.as_mut());
                }
            }
            total_cycles += cycles;
        }

        let instructions = trace.instructions().max(1);
        let l2_stats = *self.l2.stats();
        // Misses accumulated by *this* run (the caller may not have reset
        // the counters between phases).
        let run_misses = l2_stats.misses() - stats_base.misses();
        let stall_cycles = total_cycles.saturating_sub(accesses * self.cfg.l1_hit_cycles) as f64;
        let cpi = self.cfg.base_cpi + stall_cycles * (1.0 - self.cfg.overlap) / instructions as f64;

        SystemMetrics {
            mpki: run_misses as f64 * 1000.0 / instructions as f64,
            amat: if accesses == 0 {
                0.0
            } else {
                total_cycles as f64 / accesses as f64
            },
            cpi,
            l1_miss_rate: self.l1.stats().miss_rate(),
            l2: l2_stats,
            instructions,
            accesses,
        }
    }

    /// Decoded-stream twin of [`warm_then_run`](System::warm_then_run):
    /// warms on the first `warm_len` accesses of `trace` (statistics
    /// discarded), then measures the remainder. Produces metrics identical
    /// to splitting the source trace at `warm_len` and calling
    /// `warm_then_run` — without materializing either sub-trace.
    ///
    /// # Panics
    ///
    /// Panics if `warm_len` exceeds the trace length or the trace's line
    /// size differs from the L1's (the decoded line addresses would be at
    /// the wrong granularity).
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
    /// (prefetcher included) and stops, leaving statistics dirty. Callers
    /// that intend to measure afterwards call
    /// [`reset_stats`](System::reset_stats) — and may clone the system
    /// after that, capturing the warm state with zeroed counters so the
    /// clone measures exactly like this one.
    ///
    /// # Panics
    ///
    /// Panics if `warm_len` exceeds the trace length or the trace's line
    /// size differs from the L1's.
    pub fn warm_decoded(&mut self, trace: &DecodedTrace, warm_len: usize) {
        assert!(warm_len <= trace.len());
        assert_eq!(
            trace.geometry().line_bytes(),
            self.cfg.l1_geometry.line_bytes(),
            "decoded line granularity must match the hierarchy's"
        );
        let l2_geom = self.l2.geometry();
        let l2_decoded = trace.compatible_with(l2_geom);
        let line_bytes = trace.geometry().line_bytes();
        for a in trace.iter_range(0..warm_len) {
            if self.l1.access_line(a.line, a.write).is_miss() {
                let l2_r = if l2_decoded {
                    self.l2.access_decoded(a)
                } else {
                    self.l2.access(a.address(line_bytes), a.kind())
                };
                if l2_r.is_miss() {
                    self.cfg.prefetcher.on_l1_miss(
                        a.address(line_bytes),
                        l2_geom,
                        self.l2.as_mut(),
                    );
                }
            }
        }
    }

    /// Zeroes both cache levels' statistics counters (the boundary between
    /// a warm-up phase and a measured phase).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Decoded-stream twin of [`run`](System::run) over a sub-range of the
    /// trace. The per-access event stream reaching the L1, L2, and
    /// prefetcher is identical to the byte-address path (every consumer is
    /// line-granular), so all metrics match exactly.
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
        assert_eq!(
            trace.geometry().line_bytes(),
            self.cfg.l1_geometry.line_bytes(),
            "decoded line granularity must match the hierarchy's"
        );
        let t = self.cfg.timing;
        let mut total_cycles: u64 = 0; // memory access cycles
        let mut accesses: u64 = 0;
        let l2_geom = self.l2.geometry();
        let l2_decoded = trace.compatible_with(l2_geom);
        let line_bytes = trace.geometry().line_bytes();
        let stats_base = *self.l2.stats();
        let instructions = trace.instructions_in(range.clone()).max(1);

        for a in trace.iter_range(range) {
            accesses += 1;
            let l1_result = self.l1.access_line(a.line, a.write);
            let mut cycles = self.cfg.l1_hit_cycles;
            if l1_result.is_miss() {
                let l2_result = if l2_decoded {
                    self.l2.access_decoded(a)
                } else {
                    self.l2.access(a.address(line_bytes), a.kind())
                };
                cycles += t.l2_latency(l2_result);
                if l2_result.is_miss() {
                    cycles += t.memory();
                    self.cfg.prefetcher.on_l1_miss(
                        a.address(line_bytes),
                        l2_geom,
                        self.l2.as_mut(),
                    );
                }
            }
            total_cycles += cycles;
        }

        let l2_stats = *self.l2.stats();
        let run_misses = l2_stats.misses() - stats_base.misses();
        let stall_cycles = total_cycles.saturating_sub(accesses * self.cfg.l1_hit_cycles) as f64;
        let cpi = self.cfg.base_cpi + stall_cycles * (1.0 - self.cfg.overlap) / instructions as f64;

        SystemMetrics {
            mpki: run_misses as f64 * 1000.0 / instructions as f64,
            amat: if accesses == 0 {
                0.0
            } else {
                total_cycles as f64 / accesses as f64
            },
            cpi,
            l1_miss_rate: self.l1.stats().miss_rate(),
            l2: l2_stats,
            instructions,
            accesses,
        }
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
    use stem_sim_core::{Access, Address};

    fn lru_l2() -> Box<dyn CacheModel> {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        Box::new(SetAssocCache::new(geom, Box::new(Lru::new(geom))))
    }

    fn system() -> System {
        System::new(SystemConfig::micro2010(), lru_l2())
    }

    #[test]
    fn all_l1_hits_cost_l1_latency_only() {
        let mut sys = system();
        // One address accessed repeatedly: 1 cold path, then L1 hits.
        let trace: Trace = (0..100).map(|_| Access::read(Address::new(0))).collect();
        let m = sys.run(&trace);
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
        let m = sys.run(&trace);
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
        let m = sys.run(&trace);
        assert_eq!(m.instructions, 1000);
        assert!((m.mpki - 100.0).abs() < 1e-9); // 100 misses / 1k insts
    }

    #[test]
    fn cpi_increases_with_misses() {
        let mut hit_sys = system();
        let hit_trace: Trace = (0..500).map(|_| Access::read(Address::new(0))).collect();
        let hits = hit_sys.run(&hit_trace);
        let mut miss_sys = system();
        let miss_trace: Trace = (0..500u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let misses = miss_sys.run(&miss_trace);
        assert!(misses.cpi > hits.cpi * 5.0);
    }

    #[test]
    fn warmup_discards_statistics() {
        let mut sys = system();
        let warm: Trace = (0..64u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let m = sys.warm_then_run(&warm, &warm);
        // All 64 lines were warmed: the measured pass hits in L1 or L2.
        assert_eq!(m.l2.misses(), 0);
    }

    #[test]
    fn warmup_drives_the_prefetcher_like_the_measured_phase() {
        // Warm with line 0 only: with a degree-1 prefetcher, warm-up must
        // also bring line 1 into the L2, exactly as the measured phase
        // would. Measuring line 1 then hits the L2 (it misses the L1).
        let cfg = SystemConfig::micro2010().with_prefetcher(1);
        let mut sys = System::new(cfg, lru_l2());
        let warm: Trace = [Access::read(Address::new(0))].into_iter().collect();
        let measured: Trace = [Access::read(Address::new(64))].into_iter().collect();
        let m = sys.warm_then_run(&warm, &measured);
        assert_eq!(m.l2.misses(), 0, "warm-up must have prefetched line 1");
        assert_eq!(m.l2.hits(), 1);
    }

    #[test]
    fn warm_phase_and_run_phase_produce_the_same_state() {
        // Warming with X then measuring Y must equal running X measured
        // (stats discarded) then measuring Y: the warm path and the run
        // path drive the identical hierarchy, prefetcher included.
        let cfg = SystemConfig::micro2010().with_prefetcher(2);
        let x: Trace = (0..600u64)
            .map(|i| Access::read(Address::new((i % 97) * 192)))
            .collect();
        let y: Trace = (0..400u64)
            .map(|i| Access::read(Address::new((i % 61) * 256)))
            .collect();

        let mut warmed = System::new(cfg, lru_l2());
        let via_warm = warmed.warm_then_run(&x, &y);

        let mut ran = System::new(cfg, lru_l2());
        ran.run(&x);
        let empty = Trace::new();
        let via_run = ran.warm_then_run(&empty, &y); // resets stats, measures y
        assert_eq!(via_warm.l2, via_run.l2);
        assert_eq!(via_warm.mpki, via_run.mpki);
        assert_eq!(via_warm.amat, via_run.amat);
        assert_eq!(via_warm.cpi, via_run.cpi);
    }

    #[test]
    fn raw_l2_counters_stay_demand_only_with_prefetcher() {
        let cfg = SystemConfig::micro2010().with_prefetcher(4);
        let mut sys = System::new(cfg, lru_l2());
        let trace: Trace = (0..200u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let m = sys.run(&trace);
        // Every trace access misses L1; the L2 sees exactly those 200
        // demand accesses even though 4 prefetches fired per L2 miss.
        assert_eq!(m.l2.accesses(), 200);
        assert_eq!(*sys.l2().stats(), m.l2);
    }

    #[test]
    fn decoded_run_matches_access_path_exactly() {
        // Same trace, same config (prefetcher on), split at 1/5 for warmup:
        // decoded and byte-address paths must agree on every metric bit.
        let cfg = SystemConfig::micro2010().with_prefetcher(2);
        let trace: Trace = (0..2000u64)
            .map(|i| {
                let a = Address::new((i % 371) * 192 + i % 64); // unaligned
                if i % 7 == 0 {
                    Access::write(a).with_inst_gap((i % 9 + 1) as u32)
                } else {
                    Access::read(a).with_inst_gap((i % 9 + 1) as u32)
                }
            })
            .collect();
        let warm_len = trace.len() / 5;
        let warm: Trace = trace.iter().take(warm_len).copied().collect();
        let measured: Trace = trace.iter().skip(warm_len).copied().collect();

        let l2_geom = CacheGeometry::new(64, 4, 64).unwrap();
        let decoded = DecodedTrace::decode(&trace, l2_geom);

        let l2 = || -> Box<dyn CacheModel> {
            Box::new(SetAssocCache::new(l2_geom, Box::new(Lru::new(l2_geom))))
        };
        let mut reference = System::new(cfg, l2());
        let expect = reference.warm_then_run(&warm, &measured);
        let mut fast = System::new(cfg, l2());
        let got = fast.warm_then_run_decoded(&decoded, warm_len);

        assert_eq!(got.l2, expect.l2);
        assert_eq!(got.mpki, expect.mpki);
        assert_eq!(got.amat, expect.amat);
        assert_eq!(got.cpi, expect.cpi);
        assert_eq!(got.l1_miss_rate, expect.l1_miss_rate);
        assert_eq!(got.instructions, expect.instructions);
        assert_eq!(got.accesses, expect.accesses);

        // An L2 with an incompatible set count takes the fallback arm and
        // must still agree.
        let other_geom = CacheGeometry::new(32, 8, 64).unwrap();
        let other = || -> Box<dyn CacheModel> {
            Box::new(SetAssocCache::new(
                other_geom,
                Box::new(Lru::new(other_geom)),
            ))
        };
        let mut reference = System::new(cfg, other());
        let expect = reference.warm_then_run(&warm, &measured);
        let mut fast = System::new(cfg, other());
        assert!(!decoded.compatible_with(other_geom));
        let got = fast.warm_then_run_decoded(&decoded, warm_len);
        assert_eq!(got.l2, expect.l2);
        assert_eq!(got.cpi, expect.cpi);
    }

    #[test]
    fn warmed_clone_resumes_the_cold_trajectory_exactly() {
        // Warm a system, clone it at the warm boundary, measure. The clone
        // must produce bit-identical metrics on the measured suffix, even
        // after the original has moved on.
        let cfg = SystemConfig::micro2010().with_prefetcher(2);
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
        let mut blocking = System::new(SystemConfig::micro2010().with_overlap(0.0), lru_l2());
        let mut hiding = System::new(SystemConfig::micro2010().with_overlap(0.9), lru_l2());
        assert!(blocking.run(&trace).cpi > hiding.run(&trace).cpi);
    }
}
