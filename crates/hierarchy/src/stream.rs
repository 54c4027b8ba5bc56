//! The scheme-independent half of a hierarchy run: the L1-miss stream.
//!
//! Nothing the LLC does reaches a core's L1 (a private LRU that nothing
//! back-invalidates), so the stream of L1 misses, the warm boundary in
//! that stream and the measured phase's access, instruction and L1 counts
//! depend only on the trace — or, for a mix, on the per-core streams and
//! the schedule. An [`LlcStream`] holds exactly that, built by one L1 pass.
//! A scheme's run is then a bare replay of it through the LLC's own
//! kernel: the warm prefix, a statistics reset, and the rest. Every scheme
//! compared on one trace replays the same stream, so the L1 is filtered
//! once per trace instead of once per scheme.

use std::ops::Range;

use stem_sim_core::{CacheModel, CacheStats, DecodedTrace};

use crate::system::{filter, filter_range, metrics};
use crate::{L1Cache, MixMetrics, SystemConfig, SystemMetrics};

/// One core's share of an [`LlcStream`]'s measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CoreTally {
    /// Instructions the core's accesses represent.
    instructions: u64,
    /// The core's L1 statistics: one L1 access per issued access.
    l1: CacheStats,
}

/// The L1-miss stream of a solo trace or of a multi-core mix, with
/// everything else a hierarchy run needs that does not depend on the LLC
/// scheme.
///
/// Replaying it ([`replay`](LlcStream::replay),
/// [`replay_mix`](LlcStream::replay_mix)) into a fresh LLC gives exactly
/// the metrics a fresh [`System`](crate::System) gives over the trace, or
/// a fresh mix run over the schedule: the same LLC accesses in the same
/// order, priced by the same metric algebra.
///
/// # Examples
///
/// ```
/// use stem_hierarchy::{LlcStream, System, SystemConfig};
/// use stem_replacement::{Lru, SetAssocCache};
/// use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
///
/// let geom = CacheGeometry::new(64, 4, 64).unwrap();
/// let trace: Trace = (0..3000u64)
///     .map(|i| Access::read(Address::new((i % 700) * 64)).with_inst_gap(4))
///     .collect();
/// let trace = DecodedTrace::decode(&trace, geom);
/// let cfg = SystemConfig::micro2010();
/// let stream = LlcStream::solo(cfg, &trace, 600);
/// let shared = stream.replay(&mut SetAssocCache::new(geom, Lru::new(geom)));
/// let direct = System::new(cfg, Box::new(SetAssocCache::new(geom, Lru::new(geom))))
///     .warm_then_run_decoded(&trace, 600);
/// assert_eq!(shared, direct);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LlcStream {
    cfg: SystemConfig,
    /// Every L1 miss, warm and measured, in issue order: a gap-free
    /// stream (the run's instructions are tallied per core).
    misses: DecodedTrace,
    /// The number of leading `misses` issued in the warm phase.
    warm: usize,
    /// The issuing core of each measured miss; empty for one core.
    owners: Vec<u32>,
    /// The measured phase, per core.
    cores: Vec<CoreTally>,
}

impl LlcStream {
    /// The L1 pass of a solo trace whose first `warm_len` accesses warm
    /// the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `warm_len` exceeds the trace length or the trace's line
    /// size differs from the L1's.
    pub fn solo(cfg: SystemConfig, trace: &DecodedTrace, warm_len: usize) -> Self {
        let mut builder = LlcStreamBuilder::new(cfg, warm_len, trace.len());
        builder.push_stream(trace);
        builder.finish()
    }

    /// The L1 pass of a mix: each `schedule` entry names the core that
    /// issues its next access (a per-core cursor into `streams`), through
    /// that core's private L1, and the first `warm_steps` entries warm the
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, a schedule entry names a core out of
    /// range, a core is scheduled more often than its stream is long,
    /// `warm_steps` exceeds the schedule length, or a stream's line size
    /// differs from the L1's.
    pub fn mix(
        cfg: SystemConfig,
        streams: &[DecodedTrace],
        schedule: &[u32],
        warm_steps: usize,
    ) -> Self {
        assert!(
            schedule.iter().all(|&core| (core as usize) < streams.len()),
            "a schedule entry names a core past the {} streams",
            streams.len()
        );
        let (warm, measured) = schedule.split_at(warm_steps);
        let mut builder =
            LlcStreamBuilder::with_cores(cfg, streams.len(), warm_steps, schedule.len());
        let mut cursors = vec![0usize; streams.len()];
        builder.issue_schedule::<false>(streams, warm, &mut cursors);
        builder.end_warm_phase();
        let warm_cursors = cursors.clone();
        builder.issue_schedule::<true>(streams, measured, &mut cursors);
        for (core, tally) in builder.stream.cores.iter_mut().enumerate() {
            tally.instructions = streams[core].instructions_in(warm_cursors[core]..cursors[core]);
        }
        builder.finish()
    }

    /// The number of LLC accesses, warm and measured.
    pub fn len(&self) -> usize {
        self.misses.len()
    }

    /// Whether no access reached the LLC.
    pub fn is_empty(&self) -> bool {
        self.misses.is_empty()
    }

    /// The number of leading LLC accesses issued in the warm phase.
    pub fn warm_len(&self) -> usize {
        self.warm
    }

    /// The LLC accesses, warm and measured, in issue order: a
    /// [`gap_free`](DecodedTrace::gap_free) stream of lines and write
    /// flags.
    pub fn misses(&self) -> &DecodedTrace {
        &self.misses
    }

    /// Replays the stream into `l2` and returns the whole-system metrics
    /// of the measured phase (for a mix, the combined view of
    /// [`replay_mix`](LlcStream::replay_mix)).
    ///
    /// # Panics
    ///
    /// Panics if `l2`'s line size differs from the L1's.
    pub fn replay(&self, l2: &mut dyn CacheModel) -> SystemMetrics {
        self.replay_mix(l2).combined
    }

    /// Replays the stream into `l2`: the warm prefix, a statistics reset,
    /// then the measured rest, crediting each core with the LLC outcomes
    /// of its own accesses. Each maximal run of one core's misses is
    /// replayed in one call and its core credited with the outcome counts
    /// the run added; capacity events with no single owner (evictions,
    /// writebacks, spills) appear only in the combined stats.
    ///
    /// # Panics
    ///
    /// Panics if `l2`'s line size differs from the L1's.
    pub fn replay_mix(&self, l2: &mut dyn CacheModel) -> MixMetrics {
        l2.replay_decoded(&self.misses, 0..self.warm);
        l2.reset_stats();
        let mut core_l2 = vec![CacheStats::new(); self.cores.len()];
        let mut before = CacheStats::new();
        let mut start = self.warm;
        let mut credit = |core: usize, len: usize| {
            l2.replay_decoded(&self.misses, start..start + len);
            let after = *l2.stats();
            core_l2[core] += after.outcomes_since(&before);
            before = after;
            start += len;
        };
        if self.owners.is_empty() {
            credit(0, self.misses.len() - self.warm);
        } else {
            for run in self.owners.chunk_by(|a, b| a == b) {
                credit(run[0] as usize, run.len());
            }
        }

        let cfg = &self.cfg;
        let per_core: Vec<SystemMetrics> = self
            .cores
            .iter()
            .zip(&core_l2)
            .map(|(tally, &outcomes)| {
                metrics(
                    cfg,
                    tally.l1.accesses(),
                    tally.instructions,
                    outcomes,
                    tally.l1.miss_rate(),
                    outcomes,
                )
            })
            .collect();
        let l1 = self
            .cores
            .iter()
            .fold(CacheStats::new(), |sum, tally| sum + tally.l1);
        let l2 = *l2.stats();
        let combined = metrics(
            cfg,
            l1.accesses(),
            self.cores.iter().map(|t| t.instructions).sum(),
            l2,
            l1.miss_rate(),
            l2,
        );
        MixMetrics { per_core, combined }
    }
}

/// Builds a solo [`LlcStream`] chunk by chunk, so a generator can feed
/// the L1 pass directly and the trace never exists whole.
///
/// Each issued access probes the L1 and, on a miss, is appended to the
/// LLC stream. The first `warm_steps` accesses form the warm phase; at
/// the boundary the L1 statistics reset and the measured tallies start.
/// [`LlcStream::mix`] drives the same builder with one L1 per core.
#[derive(Debug)]
pub struct LlcStreamBuilder {
    l1s: Vec<L1Cache>,
    issued: usize,
    warm_steps: usize,
    measuring: bool,
    stream: LlcStream,
}

impl LlcStreamBuilder {
    /// A builder for a solo trace whose first `warm_steps` accesses warm
    /// the hierarchy. `capacity` is the expected trace length: the LLC
    /// stream reserves room for that many misses.
    pub fn new(cfg: SystemConfig, warm_steps: usize, capacity: usize) -> Self {
        LlcStreamBuilder::with_cores(cfg, 1, warm_steps, capacity)
    }

    /// A builder with one private L1 per core.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    fn with_cores(cfg: SystemConfig, cores: usize, warm_steps: usize, capacity: usize) -> Self {
        assert!(cores > 0, "a hierarchy needs at least one core");
        let geom = cfg.l1_geometry();
        LlcStreamBuilder {
            l1s: vec![L1Cache::new(geom); cores],
            issued: 0,
            warm_steps,
            measuring: false,
            stream: LlcStream {
                cfg,
                misses: DecodedTrace::gap_free(geom, capacity),
                warm: 0,
                owners: Vec::new(),
                cores: vec![CoreTally::default(); cores],
            },
        }
    }

    /// Issues `schedule` from the per-core `cursors`; a measured pass
    /// records each miss's core.
    fn issue_schedule<const MEASURED: bool>(
        &mut self,
        streams: &[DecodedTrace],
        schedule: &[u32],
        cursors: &mut [usize],
    ) {
        let geom = self.stream.cfg.l1_geometry();
        let lines: Vec<&[u64]> = streams.iter().map(|s| s.lines_for(geom)).collect();
        let misses = &mut self.stream.misses;
        let owners = &mut self.stream.owners;
        for &entry in schedule {
            let core = entry as usize;
            let i = cursors[core];
            cursors[core] += 1;
            let write = streams[core].is_write(i);
            if filter(&mut self.l1s[core], misses, lines[core][i], write) && MEASURED {
                owners.push(entry);
            }
        }
        self.issued += schedule.len();
    }

    /// Issues every access of `stream`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the stream's line size differs from the L1's.
    pub fn push_stream(&mut self, stream: &DecodedTrace) {
        let split = self
            .warm_steps
            .saturating_sub(self.issued)
            .min(stream.len());
        self.issue_solo(stream, 0..split);
        if split < stream.len() {
            if !self.measuring {
                self.end_warm_phase();
            }
            self.issue_solo(stream, split..stream.len());
            self.stream.cores[0].instructions += stream.instructions_in(split..stream.len());
        }
    }

    /// Issues `range` of `stream` through the one core's L1.
    fn issue_solo(&mut self, stream: &DecodedTrace, range: Range<usize>) {
        self.issued += range.len();
        filter_range(&mut self.l1s[0], &mut self.stream.misses, stream, range);
    }

    /// The warm/measured boundary: the LLC accesses so far are the warm
    /// prefix, and the L1 counters restart.
    fn end_warm_phase(&mut self) {
        self.measuring = true;
        self.stream.warm = self.stream.misses.len();
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
    }

    /// Closes the pass and returns the stream.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `warm_steps` accesses were issued.
    pub fn finish(mut self) -> LlcStream {
        assert!(
            self.issued >= self.warm_steps,
            "warm boundary {} past the {} issued accesses",
            self.warm_steps,
            self.issued
        );
        if !self.measuring {
            self.end_warm_phase();
        }
        for (tally, l1) in self.stream.cores.iter_mut().zip(&self.l1s) {
            tally.l1 = *l1.stats();
        }
        self.stream
    }
}
