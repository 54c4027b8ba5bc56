//! Differential test of the hierarchy against a reference model.
//!
//! `reference` below is `System` and the mix system as they stood when
//! every access went through one per-access step: the L1 probe, then, on
//! an L1 miss, a byte-address `CacheModel::access` on the LLC, with the
//! access's cycles priced from its own `AccessResult` and, in a mix, that
//! result credited to the issuing core. The tests require `System` and a
//! shared `LlcStream` — one L1 pass, replayed into every scheme — to
//! produce bit-equal metrics, solo and mixed: every `f64` compared by its
//! bits, every `CacheStats` equal, for all 13 schemes, on suite traces at
//! three geometries and on fuzzed streams, schedules and warm boundaries.
//! Every archived AMAT, CPI and mix result depends on it.

use stem::analysis::{build_cache, warm_split, Scheme};
use stem::hierarchy::{
    interleave_schedule, LlcStream, MixMetrics, System, SystemConfig, SystemMetrics, FILTER_CHUNK,
};
use stem::sim_core::prop;
use stem::sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
use stem::workloads::{BenchmarkProfile, WorkloadMix};
use stem_bench::harness::{prepare_llc_stream, WARMUP_FRACTION};

/// The reference hierarchy, kept verbatim apart from reading the Table-1
/// system constants from [`reference::Config`] (`SystemConfig`'s fields
/// are private).
mod reference {
    use std::ops::Range;

    use stem::hierarchy::{MixMetrics, SystemConfig, SystemMetrics};
    use stem::replacement::{Lru, SetAssocCache};
    use stem::sim_core::{
        AccessKind, AccessResult, CacheGeometry, CacheModel, CacheStats, DecodedTrace, LineAddr,
        TimingParams,
    };

    /// `SystemConfig::micro2010()`'s values.
    pub struct Config {
        l1_geometry: CacheGeometry,
        l1_hit_cycles: u64,
        timing: TimingParams,
        base_cpi: f64,
        overlap: f64,
    }

    impl Config {
        pub fn micro2010() -> Self {
            Config {
                l1_geometry: SystemConfig::micro2010().l1_geometry(),
                l1_hit_cycles: 2,
                timing: TimingParams::micro2010(),
                base_cpi: 0.6,
                overlap: 0.4,
            }
        }
    }

    fn l1(cfg: &Config) -> SetAssocCache<Lru> {
        SetAssocCache::new(cfg.l1_geometry, Lru::new(cfg.l1_geometry))
    }

    fn step(
        cfg: &Config,
        l1: &mut SetAssocCache<Lru>,
        l2: &mut dyn CacheModel,
        line: u64,
        write: bool,
    ) -> (u64, Option<AccessResult>) {
        let line = LineAddr::new(line);
        if l1.access_line(line, write).is_hit() {
            return (cfg.l1_hit_cycles, None);
        }
        let addr = line.to_address(cfg.l1_geometry.line_bytes());
        let r = l2.access(addr, AccessKind::from_write(write));
        let mut cycles = cfg.l1_hit_cycles + cfg.timing.l2_latency(r);
        if r.is_miss() {
            cycles += cfg.timing.memory();
        }
        (cycles, Some(r))
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct Tally {
        cycles: u64,
        accesses: u64,
        instructions: u64,
    }

    fn metrics(
        cfg: &Config,
        tally: Tally,
        misses: u64,
        l1_miss_rate: f64,
        l2: CacheStats,
    ) -> SystemMetrics {
        let Tally {
            cycles,
            accesses,
            instructions,
        } = tally;
        let instructions = instructions.max(1);
        let stall_cycles = cycles.saturating_sub(accesses * cfg.l1_hit_cycles) as f64;
        SystemMetrics {
            mpki: misses as f64 * 1000.0 / instructions as f64,
            amat: if accesses == 0 {
                0.0
            } else {
                cycles as f64 / accesses as f64
            },
            cpi: cfg.base_cpi + stall_cycles * (1.0 - cfg.overlap) / instructions as f64,
            l1_miss_rate,
            l2,
            instructions,
            accesses,
        }
    }

    pub struct System {
        cfg: Config,
        l1: SetAssocCache<Lru>,
        l2: Box<dyn CacheModel>,
    }

    impl System {
        pub fn new(l2: Box<dyn CacheModel>) -> Self {
            let cfg = Config::micro2010();
            System {
                l1: l1(&cfg),
                cfg,
                l2,
            }
        }

        pub fn warm_then_run_decoded(
            &mut self,
            trace: &DecodedTrace,
            warm_len: usize,
        ) -> SystemMetrics {
            self.warm_decoded(trace, warm_len);
            self.reset_stats();
            self.run_decoded_range(trace, warm_len..trace.len())
        }

        pub fn warm_decoded(&mut self, trace: &DecodedTrace, warm_len: usize) {
            let lines = &trace.lines_for(self.cfg.l1_geometry)[..warm_len];
            for (i, &line) in lines.iter().enumerate() {
                let write = trace.is_write(i);
                step(&self.cfg, &mut self.l1, self.l2.as_mut(), line, write);
            }
        }

        pub fn reset_stats(&mut self) {
            self.l1.reset_stats();
            self.l2.reset_stats();
        }

        pub fn run_decoded_range(
            &mut self,
            trace: &DecodedTrace,
            range: Range<usize>,
        ) -> SystemMetrics {
            let lines = &trace.lines_for(self.cfg.l1_geometry)[range.clone()];
            let misses_before = self.l2.stats().misses();
            let mut tally = Tally {
                instructions: trace.instructions_in(range.clone()),
                accesses: lines.len() as u64,
                ..Tally::default()
            };
            for (i, &line) in range.zip(lines) {
                let write = trace.is_write(i);
                tally.cycles += step(&self.cfg, &mut self.l1, self.l2.as_mut(), line, write).0;
            }
            let l2 = *self.l2.stats();
            metrics(
                &self.cfg,
                tally,
                l2.misses() - misses_before,
                self.l1.stats().miss_rate(),
                l2,
            )
        }
    }

    pub struct MixSystem {
        cfg: Config,
        l1s: Vec<SetAssocCache<Lru>>,
        l2: Box<dyn CacheModel>,
    }

    impl MixSystem {
        pub fn new(l2: Box<dyn CacheModel>, cores: usize) -> Self {
            let cfg = Config::micro2010();
            let l1s = (0..cores).map(|_| l1(&cfg)).collect();
            MixSystem { cfg, l1s, l2 }
        }

        pub fn run_mix(
            &mut self,
            streams: &[DecodedTrace],
            schedule: &[u32],
            warm_steps: usize,
        ) -> MixMetrics {
            let cores = self.l1s.len();
            assert_eq!(streams.len(), cores, "one stream per core");
            assert!(warm_steps <= schedule.len());
            let lines: Vec<&[u64]> = streams
                .iter()
                .map(|s| s.lines_for(self.cfg.l1_geometry))
                .collect();
            let mut cursors = vec![0usize; cores];

            for &entry in &schedule[..warm_steps] {
                let core = entry as usize;
                let i = cursors[core];
                cursors[core] += 1;
                let write = streams[core].is_write(i);
                step(
                    &self.cfg,
                    &mut self.l1s[core],
                    self.l2.as_mut(),
                    lines[core][i],
                    write,
                );
            }
            for l1 in &mut self.l1s {
                l1.reset_stats();
            }
            self.l2.reset_stats();

            let mut tallies = vec![Tally::default(); cores];
            let mut core_l2 = vec![CacheStats::new(); cores];
            for &entry in &schedule[warm_steps..] {
                let core = entry as usize;
                let i = cursors[core];
                cursors[core] += 1;
                let write = streams[core].is_write(i);
                let (cycles, l2_r) = step(
                    &self.cfg,
                    &mut self.l1s[core],
                    self.l2.as_mut(),
                    lines[core][i],
                    write,
                );
                let tally = &mut tallies[core];
                tally.cycles += cycles;
                tally.accesses += 1;
                tally.instructions += u64::from(streams[core].inst_gaps()[i]);
                if let Some(r) = l2_r {
                    match (r.is_hit(), r.probed_cooperative()) {
                        (true, false) => core_l2[core].record_local_hit(),
                        (true, true) => core_l2[core].record_coop_hit(),
                        (false, false) => core_l2[core].record_local_miss(),
                        (false, true) => core_l2[core].record_coop_miss(),
                    }
                }
            }

            let per_core: Vec<SystemMetrics> = (0..cores)
                .map(|i| {
                    let l1_miss_rate = self.l1s[i].stats().miss_rate();
                    let l2 = core_l2[i];
                    metrics(&self.cfg, tallies[i], l2.misses(), l1_miss_rate, l2)
                })
                .collect();

            let total = tallies.iter().fold(Tally::default(), |t, c| Tally {
                cycles: t.cycles + c.cycles,
                accesses: t.accesses + c.accesses,
                instructions: t.instructions + c.instructions,
            });
            let l1_accesses: u64 = self.l1s.iter().map(|l1| l1.stats().accesses()).sum();
            let l1_misses: u64 = self.l1s.iter().map(|l1| l1.stats().misses()).sum();
            let l1_miss_rate = if l1_accesses == 0 {
                0.0
            } else {
                l1_misses as f64 / l1_accesses as f64
            };
            let l2 = *self.l2.stats();
            let combined = metrics(&self.cfg, total, l2.misses(), l1_miss_rate, l2);

            MixMetrics { per_core, combined }
        }
    }
}

/// Requires bit-equal metrics: every `f64` by its bits, so a change in
/// summation order that moves the last ulp fails too.
fn assert_bit_equal(got: &SystemMetrics, want: &SystemMetrics, what: &str) {
    let floats = [
        ("mpki", got.mpki, want.mpki),
        ("amat", got.amat, want.amat),
        ("cpi", got.cpi, want.cpi),
        ("l1_miss_rate", got.l1_miss_rate, want.l1_miss_rate),
    ];
    for (name, g, w) in floats {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name} {g} vs {w}");
    }
    assert_eq!(got.l2, want.l2, "{what}: LLC CacheStats");
    assert_eq!(got.instructions, want.instructions, "{what}: instructions");
    assert_eq!(got.accesses, want.accesses, "{what}: accesses");
}

fn assert_mix_bit_equal(got: &MixMetrics, want: &MixMetrics, what: &str) {
    assert_eq!(got.per_core.len(), want.per_core.len(), "{what}: cores");
    for (core, (g, w)) in got.per_core.iter().zip(&want.per_core).enumerate() {
        assert_bit_equal(g, w, &format!("{what}: core {core}"));
    }
    assert_bit_equal(&got.combined, &want.combined, &format!("{what}: combined"));
}

/// Checks `System` and a replay of `stream` (the L1 pass of `trace` with
/// warm boundary `warm`) against the reference, for one scheme.
fn check_system(
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &DecodedTrace,
    warm: usize,
    stream: &LlcStream,
    what: &str,
) {
    let what = format!("{what} {scheme} warm {warm}");
    let want = reference::System::new(build_cache(scheme, geom)).warm_then_run_decoded(trace, warm);
    let got = System::new(SystemConfig::micro2010(), build_cache(scheme, geom))
        .warm_then_run_decoded(trace, warm);
    assert_bit_equal(&got, &want, &format!("{what} System"));
    let shared = stream.replay(build_cache(scheme, geom).as_mut());
    assert_bit_equal(&shared, &want, &format!("{what} shared stream"));
}

fn check_mix(
    scheme: Scheme,
    geom: CacheGeometry,
    streams: &[DecodedTrace],
    schedule: &[u32],
    warm_steps: usize,
    stream: &LlcStream,
    what: &str,
) {
    let cores = streams.len();
    let want = reference::MixSystem::new(build_cache(scheme, geom), cores)
        .run_mix(streams, schedule, warm_steps);
    let what = format!("{what} {scheme} warm {warm_steps}");
    let shared = stream.replay_mix(build_cache(scheme, geom).as_mut());
    assert_mix_bit_equal(&shared, &want, &format!("{what} shared stream"));
}

const GEOMETRIES: [(usize, usize); 3] = [(2048, 16), (256, 8), (64, 4)];

#[test]
fn suite_systems_match_the_reference() {
    let accesses = 3 * FILTER_CHUNK / 2;
    for (sets, ways) in GEOMETRIES {
        let geom = CacheGeometry::new(sets, ways, 64).expect("valid geometry");
        for bench in ["omnetpp", "mcf", "ammp", "art"] {
            let trace = BenchmarkProfile::by_name(bench)
                .expect("suite benchmark")
                .decoded(geom, accesses);
            // One L1 pass, shared by all 13 schemes as in run_all's matrix.
            let warm = accesses / 5;
            let stream = LlcStream::solo(SystemConfig::micro2010(), &trace, warm);
            for scheme in Scheme::ALL {
                check_system(
                    scheme,
                    geom,
                    &trace,
                    warm,
                    &stream,
                    &format!("{bench} {sets}x{ways}"),
                );
            }
        }
    }
}

#[test]
fn suite_mixes_match_the_reference() {
    for (sets, ways) in GEOMETRIES {
        let geom = CacheGeometry::new(sets, ways, 64).expect("valid geometry");
        let mix = WorkloadMix::new(
            ["mcf", "gromacs"]
                .map(|n| (BenchmarkProfile::by_name(n).expect("suite benchmark"), 1.0))
                .to_vec(),
        );
        let streams: Vec<DecodedTrace> = mix
            .core_traces(geom, FILTER_CHUNK + 1000)
            .iter()
            .map(|t| DecodedTrace::decode(t, geom))
            .collect();
        let lens: Vec<usize> = streams.iter().map(DecodedTrace::len).collect();
        let schedule = interleave_schedule(&lens, &mix.weights(), 7);
        let warm = schedule.len() / 5;
        let stream = LlcStream::mix(SystemConfig::micro2010(), &streams, &schedule, warm);
        for scheme in Scheme::ALL {
            check_mix(
                scheme,
                geom,
                &streams,
                &schedule,
                warm,
                &stream,
                &format!("mcf+gromacs {sets}x{ways}"),
            );
        }
    }
}

/// A random stream over a small footprint, so the L1 both hits and misses
/// and every LLC scheme evicts: a random number of distinct lines, touched
/// at unaligned offsets, with random writes and instruction gaps.
fn random_stream(g: &mut prop::Gen, len: usize, region: u64, geom: CacheGeometry) -> DecodedTrace {
    let lines = g.u64(64, 4096);
    let trace: Trace = (0..len)
        .map(|_| {
            let addr = Address::new((region << 40) | (g.u64(0, lines) * 64 + g.u64(0, 64)));
            let a = if g.u32(0, 4) == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            a.with_inst_gap(g.u32(0, 9))
        })
        .collect();
    DecodedTrace::decode(&trace, geom)
}

/// A length near the filter's chunk boundaries, or anywhere below it.
fn random_len(g: &mut prop::Gen) -> usize {
    match g.u32(0, 4) {
        0 => g.usize(0, FILTER_CHUNK),
        1 => FILTER_CHUNK - 1 + g.usize(0, 3),
        2 => 2 * FILTER_CHUNK - 1 + g.usize(0, 3),
        _ => g.usize(FILTER_CHUNK, 2 * FILTER_CHUNK + 2),
    }
}

/// A warm boundary in `0..=len`: the ends, one either side of a chunk
/// boundary, or uniform.
fn random_warm(g: &mut prop::Gen, len: usize) -> usize {
    let warm = match g.u32(0, 5) {
        0 => 0,
        1 => len,
        2 => FILTER_CHUNK - 1 + g.usize(0, 3),
        3 => 2 * FILTER_CHUNK - 1 + g.usize(0, 3),
        _ => g.usize(0, len + 1),
    };
    warm.min(len)
}

fn random_scheme_and_geometry(g: &mut prop::Gen) -> (Scheme, CacheGeometry) {
    let scheme = Scheme::ALL[g.usize(0, Scheme::ALL.len())];
    let (sets, ways) = GEOMETRIES[g.usize(0, GEOMETRIES.len())];
    (
        scheme,
        CacheGeometry::new(sets, ways, 64).expect("valid geometry"),
    )
}

#[test]
fn random_systems_match_the_reference() {
    prop::check(48, |g| {
        let (scheme, geom) = random_scheme_and_geometry(g);
        let len = random_len(g);
        let trace = random_stream(g, len, 0, geom);
        let warm = random_warm(g, len);
        let stream = LlcStream::solo(SystemConfig::micro2010(), &trace, warm);
        check_system(scheme, geom, &trace, warm, &stream, &format!("len {len}"));
    });
}

#[test]
fn random_mixes_match_the_reference() {
    prop::check(48, |g| {
        let (scheme, geom) = random_scheme_and_geometry(g);
        let cores = g.usize(1, 4);
        let total = random_len(g);
        let streams: Vec<DecodedTrace> = (0..cores)
            .map(|c| {
                let len = total / cores + usize::from(c < total % cores);
                random_stream(g, len, c as u64, geom)
            })
            .collect();
        let weights: Vec<f64> = (0..cores).map(|_| f64::from(g.u32(1, 8)) / 2.0).collect();
        let lens: Vec<usize> = streams.iter().map(DecodedTrace::len).collect();
        let schedule = interleave_schedule(&lens, &weights, g.u64(0, u64::MAX));
        let warm = random_warm(g, schedule.len());
        let stream = LlcStream::mix(SystemConfig::micro2010(), &streams, &schedule, warm);
        check_mix(
            scheme,
            geom,
            &streams,
            &schedule,
            warm,
            &stream,
            &format!("{cores} cores, {total} steps"),
        );
    });
}

/// One line, touched over and over: after its first access the L1 hits
/// every time, so once that access is warmed the measured LLC stream is
/// empty, solo and in a mix.
#[test]
fn an_l1_absorbed_stream_matches_the_reference() {
    let geom = CacheGeometry::new(64, 4, 64).expect("valid geometry");
    let cfg = SystemConfig::micro2010();
    let one_line = |core: u64, len: usize| {
        let trace: Trace = (0..len as u64)
            .map(|i| Access::read(Address::new((core << 41) | (i % 64))).with_inst_gap(3))
            .collect();
        DecodedTrace::decode(&trace, geom)
    };
    let len = FILTER_CHUNK + 7;
    let trace = one_line(0, len);
    for warm in [0, 1, FILTER_CHUNK, len] {
        let stream = LlcStream::solo(cfg, &trace, warm);
        assert_eq!(stream.len(), 1, "only the first access reaches the LLC");
        assert_eq!(stream.warm_len(), usize::from(warm > 0));
        for scheme in Scheme::ALL {
            check_system(scheme, geom, &trace, warm, &stream, "one line");
        }
    }

    let streams = [one_line(0, len), one_line(1, len / 2)];
    let schedule = interleave_schedule(&[len, len / 2], &[1.0, 1.0], 3);
    // Both cores have issued their first access well before step 64.
    for warm in [64, schedule.len()] {
        let stream = LlcStream::mix(cfg, &streams, &schedule, warm);
        assert_eq!((stream.len(), stream.warm_len()), (2, 2));
        for scheme in Scheme::ALL {
            check_mix(
                scheme,
                geom,
                &streams,
                &schedule,
                warm,
                &stream,
                "one line each",
            );
        }
    }
}

/// run_all's matrix generates each trace straight through the L1, never
/// holding it whole: that must give the very stream an L1 pass over the
/// generated trace gives, at lengths either side of the chunk size and
/// with the warm boundary inside a chunk or on a chunk edge (at
/// `5 * FILTER_CHUNK` accesses the 20 % boundary is `FILTER_CHUNK`).
#[test]
fn generating_through_the_l1_matches_filtering_the_decoded_trace() {
    let geom = CacheGeometry::micro2010_l2();
    for bench in ["omnetpp", "mcf", "ammp", "art"] {
        let profile = BenchmarkProfile::by_name(bench).expect("suite benchmark");
        for n in [
            0,
            1,
            FILTER_CHUNK - 1,
            FILTER_CHUNK,
            2 * FILTER_CHUNK + 1,
            5 * FILTER_CHUNK,
            30_000,
        ] {
            let want = LlcStream::solo(
                SystemConfig::micro2010(),
                &profile.decoded(geom, n),
                warm_split(n, WARMUP_FRACTION),
            );
            let got = prepare_llc_stream(&profile, geom, n).stream;
            assert!(*got == want, "{bench} at {n} accesses: streams differ");
        }
    }
}
