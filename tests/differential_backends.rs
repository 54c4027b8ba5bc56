//! Randomized old-vs-new backend equivalence suite.
//!
//! The flat-SoA refactor replaced every scheme's `Vec<Vec<Option<Line>>>`
//! tag nests with the shared [`stem::sim_core::SetFrames`] backend and gave
//! `RecencyStack` a packed-u64 fast path. Both changes are *layout only*:
//! simulated behaviour must be bit-identical. This suite keeps the previous
//! generation alive as test-only reference models (verbatim ports of the
//! pre-refactor sources, nested `Vec`s, `Option` boxing, `Vec<u8>` ranks and
//! all) and replays identical SplitMix64-seeded traces through both
//! generations, asserting
//!
//! * the per-access [`AccessResult`] stream is identical, and
//! * the final [`CacheStats`] are identical,
//!
//! for all six paper schemes (LRU, DIP, PeLIFO, V-Way, SBC, STEM), the five
//! other `SetAssocCache` policies (BIP, SRRIP, DRRIP, PLRU, NRU) and the
//! two auxiliary spatial baselines (static SBC, LRU+VC). The primitives the
//! schemes share — the recency stack, the shadow set, the destination-set
//! selector and the H3 tag hasher — additionally get direct random-op
//! differentials, since a compensating pair of bugs at the scheme level
//! could otherwise hide a primitive-level divergence. SBC and STEM replay
//! against the reference selector (and STEM against the reference hasher),
//! so their scheme-level differentials check those components too.
//!
//! Each paper-scheme run replays 1 000 000 accesses at the paper's 16-way
//! associativity — the packed-recency boundary case — plus a high-pressure
//! pass on a tiny geometry where every eviction/spill/couple/decouple path
//! fires constantly. SBC and STEM add a round-robin pass over four times
//! more sets than their selector holds, where saturation levels tie and
//! which tied entry a full selector replaces changes later couplings.

use stem::hierarchy::{L1Cache, SystemConfig};
use stem::llc::{PolicyKind, SetMonitor, ShadowSet, StemCache, StemConfig, TagHasher};
use stem::replacement::{
    Bip, Dip, Drrip, Lru, Nru, PeLifo, Plru, RecencyStack, ReplacementPolicy, SetAssocCache, Srrip,
};
use stem::sim_core::{
    prop, Access, AccessKind, AccessResult, Address, CacheGeometry, CacheModel, CacheStats,
    DecodedTrace, LineAddr, SplitMix64, Trace,
};
use stem::spatial::{
    AssociationTable, DestinationSetSelector, SbcCache, SbcConfig, StaticSbcCache, VWayCache,
    VWayConfig, VictimCache,
};

/// Accesses per paper-scheme differential: the acceptance bar is >= 1M per
/// scheme.
const DIFF_ACCESSES: usize = 1_000_000;

// ---------------------------------------------------------------------------
// Reference primitive: the pre-refactor `RecencyStack` (rank vector).
// ---------------------------------------------------------------------------

/// The old `Vec<u8>` recency stack: `rank[way]` = position, ops are O(ways)
/// loops. Used both directly (differential against the packed stack) and as
/// the ranking inside every reference scheme model below.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefRecency {
    rank: Vec<u8>,
}

impl RefRecency {
    fn new(ways: usize) -> Self {
        assert!((1..=255).contains(&ways), "ways must be in 1..=255");
        RefRecency {
            rank: (0..ways as u8).collect(),
        }
    }

    fn ways(&self) -> usize {
        self.rank.len()
    }

    fn rank(&self, way: usize) -> u8 {
        self.rank[way]
    }

    fn touch_mru(&mut self, way: usize) {
        let old = self.rank[way];
        for r in &mut self.rank {
            if *r < old {
                *r += 1;
            }
        }
        self.rank[way] = 0;
    }

    fn demote_lru(&mut self, way: usize) {
        let old = self.rank[way];
        for r in &mut self.rank {
            if *r > old {
                *r -= 1;
            }
        }
        self.rank[way] = (self.ways() - 1) as u8;
    }

    fn lru_way(&self) -> usize {
        self.way_at((self.ways() - 1) as u8)
    }

    fn mru_way(&self) -> usize {
        self.way_at(0)
    }

    fn way_at(&self, pos: u8) -> usize {
        self.rank
            .iter()
            .position(|&r| r == pos)
            .expect("recency stack invariant violated: rank not a permutation")
    }
}

/// Minimum steps between full rank comparisons in the recency
/// differential. The complete rank vector costs O(ways²) on the wide path,
/// so it runs every `max(RANK_STRIDE, ways)` steps while the O(ways)
/// observers run every step.
const RANK_STRIDE: usize = 16;

/// Direct differential: the packed/wide `RecencyStack` against the old rank
/// vector under a long random op stream at every width from 1 to 64 (1..=16
/// packed, the rest wide: V-Way's 32-way sweep point has 64 tag ways and
/// serve's result cache has 64 slots) plus 128 and the 255 maximum.
#[test]
fn recency_stack_matches_reference() {
    let mut rng = SplitMix64::new(0xD1FF_0001);
    for ways in (1..=64usize).chain([128, 255]) {
        let mut new = RecencyStack::new(ways);
        let mut old = RefRecency::new(ways);
        let steps = if ways <= 24 { 40_000 } else { 12_000 };
        for step in 0..steps {
            let way = rng.next_below(ways as u64) as usize;
            if rng.chance(1, 2) {
                new.touch_mru(way);
                old.touch_mru(way);
            } else {
                new.demote_lru(way);
                old.demote_lru(way);
            }
            assert_eq!(new.lru_way(), old.lru_way(), "ways={ways} step={step}");
            assert_eq!(new.mru_way(), old.mru_way(), "ways={ways} step={step}");
            let pos = rng.next_below(ways as u64) as u8;
            assert_eq!(new.way_at(pos), old.way_at(pos), "ways={ways} step={step}");
            if step % RANK_STRIDE.max(ways) == 0 || step + 1 == steps {
                for w in 0..ways {
                    assert_eq!(new.rank(w), old.rank(w), "ways={ways} step={step} way={w}");
                }
                assert!(new.is_permutation(), "ways={ways} step={step}");
            }
        }
    }
}

/// Long one-sided runs exhaust a wide stack's 16-bit clocks, so its
/// renumbering runs under the same differential: 80k mostly-touch steps
/// and then 80k mostly-demote steps run each clock out at least twice.
#[test]
fn recency_stack_clock_exhaustion_matches_reference() {
    let mut rng = SplitMix64::new(0xD1FF_0004);
    for ways in [17usize, 64] {
        let mut new = RecencyStack::new(ways);
        let mut old = RefRecency::new(ways);
        for step in 0..160_000 {
            let way = rng.next_below(ways as u64) as usize;
            if rng.chance(15, 16) == (step < 80_000) {
                new.touch_mru(way);
                old.touch_mru(way);
            } else {
                new.demote_lru(way);
                old.demote_lru(way);
            }
            assert_eq!(new.lru_way(), old.lru_way(), "ways={ways} step={step}");
            assert_eq!(new.mru_way(), old.mru_way(), "ways={ways} step={step}");
            let pos = rng.next_below(ways as u64) as u8;
            assert_eq!(new.way_at(pos), old.way_at(pos), "ways={ways} step={step}");
            if step % 4096 == 0 {
                for w in 0..ways {
                    assert_eq!(new.rank(w), old.rank(w), "ways={ways} step={step} way={w}");
                }
                assert!(new.is_permutation(), "ways={ways} step={step}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference primitive: the pre-refactor `ShadowSet` (Vec<Option<u16>>).
// ---------------------------------------------------------------------------

struct RefShadow {
    entries: Vec<Option<u16>>,
    ranks: RefRecency,
}

impl RefShadow {
    fn new(ways: usize) -> Self {
        RefShadow {
            entries: vec![None; ways],
            ranks: RefRecency::new(ways),
        }
    }

    fn valid_entries(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    fn contains(&self, sig: u16) -> bool {
        self.entries.contains(&Some(sig))
    }

    fn insert(
        &mut self,
        sig: u16,
        policy: PolicyKind,
        bip_throttle_log2: u32,
        rng: &mut SplitMix64,
    ) {
        let way = if let Some(w) = self.entries.iter().position(|e| *e == Some(sig)) {
            w
        } else if let Some(w) = self.entries.iter().position(Option::is_none) {
            self.entries[w] = Some(sig);
            w
        } else {
            let w = self.ranks.lru_way();
            self.entries[w] = Some(sig);
            w
        };
        match policy {
            PolicyKind::Lru => self.ranks.touch_mru(way),
            PolicyKind::Bip => {
                if rng.one_in_pow2(bip_throttle_log2) {
                    self.ranks.touch_mru(way);
                } else {
                    self.ranks.demote_lru(way);
                }
            }
        }
    }

    fn probe_invalidate(&mut self, sig: u16) -> bool {
        match self.entries.iter().position(|e| *e == Some(sig)) {
            Some(w) => {
                self.entries[w] = None;
                true
            }
            None => false,
        }
    }

    fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }
}

/// Direct differential: the flat `ShadowSet` against the old option-boxed
/// one. Both consume their own (identically seeded) RNG so the BIP insertion
/// coin flips line up; returns and observable contents must match exactly.
#[test]
fn shadow_set_matches_reference() {
    let mut op_rng = SplitMix64::new(0xD1FF_0002);
    for ways in [1usize, 2, 3, 4, 8, 16] {
        let mut new = ShadowSet::new(ways);
        let mut old = RefShadow::new(ways);
        let mut new_rng = SplitMix64::new(0x5EED ^ ways as u64);
        let mut old_rng = SplitMix64::new(0x5EED ^ ways as u64);
        for step in 0..60_000 {
            let sig = op_rng.next_below(3 * ways as u64 + 2) as u16;
            match op_rng.next_below(8) {
                0..=4 => {
                    let policy = if op_rng.chance(1, 2) {
                        PolicyKind::Lru
                    } else {
                        PolicyKind::Bip
                    };
                    new.insert(sig, policy, 5, &mut new_rng);
                    old.insert(sig, policy, 5, &mut old_rng);
                }
                5 | 6 => {
                    assert_eq!(
                        new.probe_invalidate(sig),
                        old.probe_invalidate(sig),
                        "ways={ways} step={step}"
                    );
                }
                _ => {
                    new.clear();
                    old.clear();
                }
            }
            assert_eq!(
                new.valid_entries(),
                old.valid_entries(),
                "ways={ways} step={step}"
            );
            assert_eq!(
                new.contains(sig),
                old.contains(sig),
                "ways={ways} step={step}"
            );
            new.audit().expect("flat shadow invariants hold");
        }
    }
}

// ---------------------------------------------------------------------------
// Reference primitive: the linear-scan `DestinationSetSelector`.
// ---------------------------------------------------------------------------

/// The selector as first written: every operation scans the entry vector,
/// and a full `post` takes the last maximum with `max_by_key`. Used directly
/// (differential against the indexed selector) and as the giver heap / DSS
/// inside the STEM and SBC reference models.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefDss {
    entries: Vec<(usize, u32)>,
    capacity: usize,
}

impl RefDss {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "selector capacity must be positive");
        RefDss {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn contains(&self, set: usize) -> bool {
        self.entries.iter().any(|&(s, _)| s == set)
    }

    fn post(&mut self, set: usize, level: u32) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == set) {
            e.1 = level;
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((set, level));
            return true;
        }
        let (worst_idx, &(_, worst_level)) = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|&(_, &(_, l))| l)
            .expect("selector is non-empty when full");
        if level < worst_level {
            self.entries[worst_idx] = (set, level);
            true
        } else {
            false
        }
    }

    fn pop_least(&mut self) -> Option<usize> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(_, l))| l)?
            .0;
        Some(self.entries.swap_remove(idx).0)
    }

    fn remove(&mut self, set: usize) -> bool {
        match self.entries.iter().position(|&(s, _)| s == set) {
            Some(i) => {
                self.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

/// Direct differential: the indexed selector against the linear scan under
/// fuzzed op streams. Few distinct levels force ties, so which maximum a
/// full `post` replaces and which minimum `pop_least` takes both show.
#[test]
fn destination_set_selector_matches_reference() {
    prop::check(64, |g| {
        for capacity in [1usize, 4, 16] {
            let mut new = DestinationSetSelector::new(capacity);
            let mut old = RefDss::new(capacity);
            let sets = g.usize(capacity + 1, 4 * capacity + 8);
            let levels = g.u32(1, 5);
            for step in 0..g.usize(0, 600) {
                let set = g.usize(0, sets);
                match g.u8(0, 10) {
                    0..=5 => {
                        let level = g.u32(0, levels);
                        assert_eq!(
                            new.post(set, level),
                            old.post(set, level),
                            "cap={capacity} step={step} post({set}, {level})"
                        );
                    }
                    6 => assert_eq!(
                        new.pop_least(),
                        old.pop_least(),
                        "cap={capacity} step={step}"
                    ),
                    7 | 8 => assert_eq!(
                        new.remove(set),
                        old.remove(set),
                        "cap={capacity} step={step}"
                    ),
                    _ => assert_eq!(
                        new.contains(set),
                        old.contains(set),
                        "cap={capacity} step={step}"
                    ),
                }
                assert_eq!(new.len(), old.len(), "cap={capacity} step={step}");
                assert_eq!(new.is_empty(), old.len() == 0, "cap={capacity} step={step}");
            }
            // Draining pins the complete final contents, order included.
            while let Some(set) = old.pop_least() {
                assert_eq!(new.pop_least(), Some(set), "cap={capacity} drain");
            }
            assert_eq!(new.pop_least(), None, "cap={capacity} drain");
        }
    });
}

// ---------------------------------------------------------------------------
// Reference primitive: the row-by-row `TagHasher`.
// ---------------------------------------------------------------------------

/// The H3 hasher as first written: one AND-and-popcount round per output
/// bit. Used directly (differential against the table-driven hasher) and
/// inside the STEM reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefHasher {
    rows: Vec<u64>,
}

impl RefHasher {
    fn new(m: u32, seed: u64) -> Self {
        assert!((1..=16).contains(&m), "shadow tag width must be in 1..=16");
        let mut rng = SplitMix64::new(seed);
        let rows = (0..m)
            .map(|_| loop {
                let r = rng.next_u64();
                if r != 0 {
                    break r;
                }
            })
            .collect();
        RefHasher { rows }
    }

    fn width(&self) -> u32 {
        self.rows.len() as u32
    }

    fn hash(&self, tag: u64) -> u16 {
        let mut out = 0u16;
        for (i, &row) in self.rows.iter().enumerate() {
            let parity = ((tag & row).count_ones() & 1) as u16;
            out |= parity << i;
        }
        out
    }
}

/// Direct differential: the table-driven hasher against the row-by-row one
/// at every width, over random 64-bit tags, single set bits and the
/// all-zero and all-one tags, for several seeds.
#[test]
fn tag_hasher_matches_reference() {
    let mut tags = SplitMix64::new(0xD1FF_0003);
    for seed in [0u64, 1, 42, 0x4A5B_13D7, 0x4343, u64::MAX] {
        for m in 1..=16u32 {
            let new = TagHasher::new(m, seed);
            let old = RefHasher::new(m, seed);
            assert_eq!(new.width(), old.width(), "m={m} seed={seed:#x}");
            let edges = [0u64, u64::MAX]
                .into_iter()
                .chain((0..64).map(|b| 1u64 << b));
            for tag in edges.chain((0..4_000).map(|_| tags.next_u64())) {
                assert_eq!(
                    new.hash(tag),
                    old.hash(tag),
                    "m={m} seed={seed:#x} tag={tag:#x}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared scheme-model plumbing.
// ---------------------------------------------------------------------------

/// The observable surface the differentials compare: one result per access
/// plus the accumulated statistics.
trait RefModel {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult;
    fn stats(&self) -> &CacheStats;
}

/// One synthetic access: three set populations (thrashers whose working set
/// exceeds the associativity, comfortable reusers, and near-idle sets) so
/// complementary demand drives SBC/STEM coupling, spilling, draining and
/// decoupling; ~25% writes exercise every dirty/writeback path; working sets
/// drift every 200k accesses so demand roles flip and pairs dissolve.
fn synth_access(rng: &mut SplitMix64, geom: CacheGeometry, i: usize) -> (Address, AccessKind) {
    let sets = geom.sets() as u64;
    let ways = geom.ways() as u64;
    let quarter = (sets / 4).max(1);
    let phase = (i / 200_000) as u64;
    let (set, span) = match rng.next_below(100) {
        0..=54 => (rng.next_below(quarter), ways + ways / 2 + 1),
        55..=79 => (
            (quarter + rng.next_below(quarter)) % sets,
            (ways / 2).max(1),
        ),
        _ => (
            (2 * quarter + rng.next_below(sets - (2 * quarter).min(sets - 1))) % sets,
            2,
        ),
    };
    let tag = phase * span + rng.next_below(span);
    let kind = if rng.chance(1, 4) {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    (geom.address_of(tag, set as usize), kind)
}

/// Round-robin accesses: access `i` goes to set `i % sets`, so every set
/// sees the same rate and many saturation counters tie. Each set draws from
/// its own working set of 1..=2·ways+2 lines, redrawn every 5003 accesses,
/// so sets keep crossing between giver and taker while more candidates
/// than the selector holds compete for it. A full selector must then pick
/// which of several tied maxima a better candidate replaces.
fn round_robin_stream(
    geom: CacheGeometry,
    seed: u64,
) -> impl FnMut(usize) -> (Address, AccessKind) {
    let mut rng = SplitMix64::new(seed);
    let mut span = vec![1u64; geom.sets()];
    move |i| {
        const DRIFT: usize = 5003;
        if i % DRIFT == 0 {
            for s in &mut span {
                *s = 1 + rng.next_below(2 * geom.ways() as u64 + 2);
            }
        }
        let set = i % geom.sets();
        let tag = (i / DRIFT) as u64 * 64 + rng.next_below(span[set]);
        let kind = if rng.chance(1, 4) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        (geom.address_of(tag, set), kind)
    }
}

/// Replays `accesses` synthetic accesses through both generations and
/// asserts stream and stats equality.
fn assert_equivalent<R: RefModel>(
    name: &str,
    reference: R,
    cache: &mut dyn CacheModel,
    geom: CacheGeometry,
    seed: u64,
    accesses: usize,
) {
    let mut rng = SplitMix64::new(seed);
    let stream = |i| synth_access(&mut rng, geom, i);
    assert_equivalent_on(name, reference, cache, accesses, stream);
}

/// [`assert_equivalent`] over any access stream.
fn assert_equivalent_on<R: RefModel>(
    name: &str,
    mut reference: R,
    cache: &mut dyn CacheModel,
    accesses: usize,
    mut stream: impl FnMut(usize) -> (Address, AccessKind),
) {
    for i in 0..accesses {
        let (addr, kind) = stream(i);
        let new = cache.access(addr, kind);
        let old = reference.access(addr, kind);
        assert_eq!(
            old, new,
            "{name}: access #{i} ({addr:?}, {kind:?}) diverged (old layout vs SetFrames)"
        );
    }
    assert_eq!(
        reference.stats(),
        cache.stats(),
        "{name}: final CacheStats diverged after {accesses} accesses"
    );
}

/// The paper's 16-way associativity (the packed-recency boundary) at a set
/// count small enough that 1M accesses stress every set.
fn paper_geom() -> CacheGeometry {
    CacheGeometry::new(256, 16, 64).unwrap()
}

/// A tiny geometry where every set overflows constantly: maximum pressure on
/// eviction, spill, couple and decouple paths.
fn pressure_geom() -> CacheGeometry {
    CacheGeometry::new(16, 4, 64).unwrap()
}

/// Four times more sets than the 16-entry giver heap / DSS holds, for the
/// [`round_robin_stream`] tie runs.
fn tie_geom() -> CacheGeometry {
    CacheGeometry::new(64, 4, 64).unwrap()
}

// ---------------------------------------------------------------------------
// Reference scheme: SetAssocCache (every ReplacementPolicy).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefSaLine {
    tag: u64,
    dirty: bool,
}

/// The old `SetAssocCache`: nested option-boxed lines, shared (current)
/// policy objects. Policies are deterministic, so the reference and the new
/// cache each own an identically constructed instance.
struct RefSetAssoc {
    geom: CacheGeometry,
    lines: Vec<Vec<Option<RefSaLine>>>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl RefSetAssoc {
    fn new(geom: CacheGeometry, policy: Box<dyn ReplacementPolicy>) -> Self {
        RefSetAssoc {
            geom,
            lines: vec![vec![None; geom.ways()]; geom.sets()],
            policy,
            stats: CacheStats::default(),
        }
    }

    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        self.lines[set]
            .iter()
            .position(|l| matches!(l, Some(line) if line.tag == tag))
    }

    fn find_free_way(&self, set: usize) -> Option<usize> {
        self.lines[set].iter().position(Option::is_none)
    }
}

impl RefModel for RefSetAssoc {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line: LineAddr = addr.line(self.geom.line_bytes());
        let set = self.geom.set_index_of_line(line);
        let tag = self.geom.tag_of_line(line);
        if let Some(way) = self.find_way(set, tag) {
            self.stats.record_local_hit();
            self.policy.on_hit(set, way);
            if kind.is_write() {
                if let Some(line) = &mut self.lines[set][way] {
                    line.dirty = true;
                }
            }
            return AccessResult::HitLocal;
        }

        self.stats.record_local_miss();
        self.policy.on_miss(set);

        let way = match self.find_free_way(set) {
            Some(w) => w,
            None => {
                let victim = self.policy.victim(set);
                let old = self.lines[set][victim]
                    .take()
                    .expect("victim way must be valid");
                self.stats.record_eviction();
                if old.dirty {
                    self.stats.record_writeback();
                }
                victim
            }
        };
        self.lines[set][way] = Some(RefSaLine {
            tag,
            dirty: kind.is_write(),
        });
        self.policy.on_fill(set, way);
        AccessResult::MissLocal
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

fn run_setassoc_diff<P: ReplacementPolicy + Clone + 'static>(
    name: &str,
    make_policy: impl Fn(CacheGeometry) -> P,
    seed: u64,
) {
    let geom = paper_geom();
    let mut new = SetAssocCache::new(geom, make_policy(geom));
    assert_equivalent(
        name,
        RefSetAssoc::new(geom, Box::new(make_policy(geom))),
        &mut new,
        geom,
        seed,
        DIFF_ACCESSES,
    );
    let geom = pressure_geom();
    let mut new = SetAssocCache::new(geom, make_policy(geom));
    assert_equivalent(
        name,
        RefSetAssoc::new(geom, Box::new(make_policy(geom))),
        &mut new,
        geom,
        seed ^ 0xFF,
        DIFF_ACCESSES / 10,
    );
}

#[test]
fn lru_matches_reference() {
    run_setassoc_diff("LRU", Lru::new, 0xD1FF_1001);
}

#[test]
fn dip_matches_reference() {
    run_setassoc_diff("DIP", Dip::new, 0xD1FF_1002);
}

#[test]
fn pelifo_matches_reference() {
    run_setassoc_diff("PeLIFO", PeLifo::new, 0xD1FF_1003);
}

#[test]
fn bip_matches_reference() {
    run_setassoc_diff("BIP", Bip::new, 0xD1FF_1004);
}

#[test]
fn srrip_matches_reference() {
    run_setassoc_diff("SRRIP", Srrip::new, 0xD1FF_1005);
}

#[test]
fn drrip_matches_reference() {
    run_setassoc_diff("DRRIP", Drrip::new, 0xD1FF_1006);
}

#[test]
fn plru_matches_reference() {
    run_setassoc_diff("PLRU", Plru::new, 0xD1FF_1007);
}

#[test]
fn nru_matches_reference() {
    run_setassoc_diff("NRU", Nru::new, 0xD1FF_1008);
}

// ---------------------------------------------------------------------------
// Reference scheme: dynamic SBC.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefSbcLine {
    line: LineAddr,
    dirty: bool,
    foreign: bool,
}

struct RefSbc {
    geom: CacheGeometry,
    lines: Vec<Vec<Option<RefSbcLine>>>,
    ranks: Vec<RefRecency>,
    sat: Vec<u32>,
    sat_max: u32,
    assoc: AssociationTable,
    is_source: Vec<bool>,
    foreign_count: Vec<u32>,
    dss: RefDss,
    stats: CacheStats,
}

impl RefSbc {
    fn new(geom: CacheGeometry, cfg: SbcConfig) -> Self {
        let sat_max = cfg.sat_max_factor * geom.ways() as u32;
        RefSbc {
            geom,
            lines: vec![vec![None; geom.ways()]; geom.sets()],
            ranks: vec![RefRecency::new(geom.ways()); geom.sets()],
            sat: vec![0; geom.sets()],
            sat_max,
            assoc: AssociationTable::new(geom.sets()),
            is_source: vec![false; geom.sets()],
            foreign_count: vec![0; geom.sets()],
            dss: RefDss::new(cfg.dss_capacity),
            stats: CacheStats::default(),
        }
    }

    fn sat_inc(&mut self, set: usize) {
        self.sat[set] = (self.sat[set] + 1).min(self.sat_max);
        if self.sat[set] == self.sat_max && self.assoc.is_coupled(set) && !self.is_source[set] {
            self.force_decouple(set);
        }
    }

    fn force_decouple(&mut self, dest: usize) {
        for way in 0..self.geom.ways() {
            if self.lines[dest][way].is_some_and(|l| l.foreign) {
                self.evict_off_chip(dest, way, false);
            }
        }
        if let Some(p) = self.assoc.partner(dest) {
            self.is_source[p] = false;
            self.is_source[dest] = false;
            self.assoc.decouple(dest);
            self.stats.record_decoupling();
        }
    }

    fn sat_dec(&mut self, set: usize) {
        self.sat[set] = self.sat[set].saturating_sub(1);
        if self.sat[set] < self.sat_max / 2 && !self.assoc.is_coupled(set) {
            self.dss.post(set, self.sat[set]);
        }
    }

    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.lines[set]
            .iter()
            .position(|l| matches!(l, Some(e) if e.line == line))
    }

    fn find_free_way(&self, set: usize) -> Option<usize> {
        self.lines[set].iter().position(Option::is_none)
    }

    fn evict_off_chip(&mut self, set: usize, way: usize, allow_decouple: bool) {
        let old = self.lines[set][way]
            .take()
            .expect("eviction of invalid way");
        self.stats.record_eviction();
        if old.dirty {
            self.stats.record_writeback();
        }
        if old.foreign {
            self.foreign_count[set] -= 1;
            if allow_decouple && self.foreign_count[set] == 0 {
                if let Some(p) = self.assoc.partner(set) {
                    self.is_source[p] = false;
                    self.is_source[set] = false;
                    self.assoc.decouple(set);
                    self.stats.record_decoupling();
                }
            }
        }
    }

    fn receive(&mut self, dest: usize, line: LineAddr, dirty: bool) {
        let way = match self.find_free_way(dest) {
            Some(w) => w,
            None => {
                let victim = self.ranks[dest].lru_way();
                self.evict_off_chip(dest, victim, false);
                victim
            }
        };
        self.lines[dest][way] = Some(RefSbcLine {
            line,
            dirty,
            foreign: true,
        });
        self.ranks[dest].touch_mru(way);
        self.foreign_count[dest] += 1;
        self.stats.record_receive();
    }

    fn dispose_victim(&mut self, set: usize, way: usize) {
        let victim = self.lines[set][way].expect("victim way must be valid");
        if victim.foreign {
            self.evict_off_chip(set, way, true);
            return;
        }
        match self.assoc.partner(set) {
            Some(dest) if self.is_source[set] => {
                self.lines[set][way] = None;
                self.stats.record_spill();
                self.receive(dest, victim.line, victim.dirty);
            }
            _ => self.evict_off_chip(set, way, true),
        }
    }

    fn try_couple(&mut self, set: usize) {
        if self.assoc.is_coupled(set) || self.sat[set] < self.sat_max {
            return;
        }
        self.dss.remove(set);
        while let Some(cand) = self.dss.pop_least() {
            if cand != set && !self.assoc.is_coupled(cand) && self.sat[cand] < self.sat_max / 2 {
                self.assoc.couple(set, cand);
                self.is_source[set] = true;
                self.is_source[cand] = false;
                self.stats.record_coupling();
                return;
            }
        }
    }
}

impl RefModel for RefSbc {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line = addr.line(self.geom.line_bytes());
        let home = self.geom.set_index_of_line(line);

        if let Some(way) = self.find_way(home, line) {
            self.stats.record_local_hit();
            self.ranks[home].touch_mru(way);
            if kind.is_write() {
                if let Some(l) = &mut self.lines[home][way] {
                    l.dirty = true;
                }
            }
            self.sat_dec(home);
            return AccessResult::HitLocal;
        }

        let partner = self.assoc.partner(home).filter(|_| self.is_source[home]);
        if let Some(dest) = partner {
            if let Some(way) = self.find_way(dest, line) {
                self.stats.record_coop_hit();
                self.ranks[dest].touch_mru(way);
                if kind.is_write() {
                    if let Some(l) = &mut self.lines[dest][way] {
                        l.dirty = true;
                    }
                }
                self.sat_dec(home);
                return AccessResult::HitCooperative;
            }
        }

        if partner.is_some() {
            self.stats.record_coop_miss();
        } else {
            self.stats.record_local_miss();
        }
        self.sat_inc(home);
        self.try_couple(home);

        let way = match self.find_free_way(home) {
            Some(w) => w,
            None => {
                let victim = self.ranks[home].lru_way();
                self.dispose_victim(home, victim);
                victim
            }
        };
        self.lines[home][way] = Some(RefSbcLine {
            line,
            dirty: kind.is_write(),
            foreign: false,
        });
        self.ranks[home].touch_mru(way);

        if partner.is_some() {
            AccessResult::MissCooperative
        } else {
            AccessResult::MissLocal
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[test]
fn sbc_matches_reference() {
    let geom = paper_geom();
    let mut new = SbcCache::new(geom);
    assert_equivalent(
        "SBC",
        RefSbc::new(geom, SbcConfig::default()),
        &mut new,
        geom,
        0xD1FF_2001,
        DIFF_ACCESSES,
    );
    let geom = pressure_geom();
    let mut new = SbcCache::new(geom);
    assert_equivalent(
        "SBC",
        RefSbc::new(geom, SbcConfig::default()),
        &mut new,
        geom,
        0xD1FF_2002,
        DIFF_ACCESSES / 10,
    );
    // Which of tied maxima a full DSS replaces decides later couplings.
    let geom = tie_geom();
    let mut new = SbcCache::new(geom);
    assert_equivalent_on(
        "SBC-ties",
        RefSbc::new(geom, SbcConfig::default()),
        &mut new,
        DIFF_ACCESSES / 10,
        round_robin_stream(geom, 0xD1FF_2003),
    );
}

// ---------------------------------------------------------------------------
// Reference scheme: static SBC.
// ---------------------------------------------------------------------------

struct RefStaticSbc {
    geom: CacheGeometry,
    lines: Vec<Vec<Option<RefSbcLine>>>,
    ranks: Vec<RefRecency>,
    sat: Vec<u32>,
    sat_max: u32,
    stats: CacheStats,
}

impl RefStaticSbc {
    fn new(geom: CacheGeometry) -> Self {
        RefStaticSbc {
            geom,
            lines: vec![vec![None; geom.ways()]; geom.sets()],
            ranks: vec![RefRecency::new(geom.ways()); geom.sets()],
            sat: vec![0; geom.sets()],
            sat_max: 2 * geom.ways() as u32,
            stats: CacheStats::default(),
        }
    }

    fn partner_of(&self, set: usize) -> usize {
        set ^ (self.geom.sets() / 2)
    }

    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.lines[set]
            .iter()
            .position(|l| matches!(l, Some(e) if e.line == line))
    }

    fn find_free_way(&self, set: usize) -> Option<usize> {
        self.lines[set].iter().position(Option::is_none)
    }

    fn spills(&self, set: usize) -> bool {
        let p = self.partner_of(set);
        self.sat[set] == self.sat_max && self.sat[p] < self.sat_max / 2
    }

    fn evict_off_chip(&mut self, set: usize, way: usize) {
        let old = self.lines[set][way]
            .take()
            .expect("eviction of invalid way");
        self.stats.record_eviction();
        if old.dirty {
            self.stats.record_writeback();
        }
    }
}

impl RefModel for RefStaticSbc {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line = addr.line(self.geom.line_bytes());
        let home = self.geom.set_index_of_line(line);
        let partner = self.partner_of(home);

        if let Some(way) = self.find_way(home, line) {
            self.stats.record_local_hit();
            self.ranks[home].touch_mru(way);
            if kind.is_write() {
                if let Some(l) = &mut self.lines[home][way] {
                    l.dirty = true;
                }
            }
            self.sat[home] = self.sat[home].saturating_sub(1);
            return AccessResult::HitLocal;
        }

        let probes_partner = self.spills(home);
        if probes_partner {
            if let Some(way) = self.find_way(partner, line) {
                self.stats.record_coop_hit();
                self.ranks[partner].touch_mru(way);
                if kind.is_write() {
                    if let Some(l) = &mut self.lines[partner][way] {
                        l.dirty = true;
                    }
                }
                self.sat[home] = self.sat[home].saturating_sub(1);
                return AccessResult::HitCooperative;
            }
        }

        if probes_partner {
            self.stats.record_coop_miss();
        } else {
            self.stats.record_local_miss();
        }
        self.sat[home] = (self.sat[home] + 1).min(self.sat_max);

        let way = match self.find_free_way(home) {
            Some(w) => w,
            None => {
                let victim_way = self.ranks[home].lru_way();
                let victim = self.lines[home][victim_way].expect("victim way valid");
                if !victim.foreign && self.spills(home) {
                    self.lines[home][victim_way] = None;
                    self.stats.record_spill();
                    let pway = match self.find_free_way(partner) {
                        Some(w) => w,
                        None => {
                            let pv = self.ranks[partner].lru_way();
                            self.evict_off_chip(partner, pv);
                            pv
                        }
                    };
                    self.lines[partner][pway] = Some(RefSbcLine {
                        line: victim.line,
                        dirty: victim.dirty,
                        foreign: true,
                    });
                    self.ranks[partner].touch_mru(pway);
                    self.stats.record_receive();
                } else {
                    self.evict_off_chip(home, victim_way);
                }
                victim_way
            }
        };
        self.lines[home][way] = Some(RefSbcLine {
            line,
            dirty: kind.is_write(),
            foreign: false,
        });
        self.ranks[home].touch_mru(way);
        if probes_partner {
            AccessResult::MissCooperative
        } else {
            AccessResult::MissLocal
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[test]
fn static_sbc_matches_reference() {
    let geom = paper_geom();
    let mut new = StaticSbcCache::new(geom);
    assert_equivalent(
        "SBC-static",
        RefStaticSbc::new(geom),
        &mut new,
        geom,
        0xD1FF_3001,
        DIFF_ACCESSES / 2,
    );
    let geom = pressure_geom();
    let mut new = StaticSbcCache::new(geom);
    assert_equivalent(
        "SBC-static",
        RefStaticSbc::new(geom),
        &mut new,
        geom,
        0xD1FF_3002,
        DIFF_ACCESSES / 10,
    );
}

// ---------------------------------------------------------------------------
// Reference scheme: LRU + victim cache.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefVcLine {
    line: LineAddr,
    dirty: bool,
}

struct RefVictim {
    geom: CacheGeometry,
    lines: Vec<Vec<Option<RefVcLine>>>,
    ranks: Vec<RefRecency>,
    victims: Vec<RefVcLine>,
    capacity: usize,
    stats: CacheStats,
}

impl RefVictim {
    fn new(geom: CacheGeometry, capacity: usize) -> Self {
        RefVictim {
            geom,
            lines: vec![vec![None; geom.ways()]; geom.sets()],
            ranks: vec![RefRecency::new(geom.ways()); geom.sets()],
            victims: Vec::with_capacity(capacity),
            capacity,
            stats: CacheStats::default(),
        }
    }

    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.lines[set]
            .iter()
            .position(|l| matches!(l, Some(e) if e.line == line))
    }

    fn buffer_victim(&mut self, v: RefVcLine) {
        if self.victims.len() == self.capacity {
            let old = self.victims.pop().expect("buffer is full");
            self.stats.record_eviction();
            if old.dirty {
                self.stats.record_writeback();
            }
        }
        self.victims.insert(0, v);
    }

    fn install(&mut self, set: usize, incoming: RefVcLine) {
        let way = match self.lines[set].iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let victim_way = self.ranks[set].lru_way();
                let victim = self.lines[set][victim_way].take().expect("victim valid");
                self.stats.record_spill();
                self.buffer_victim(victim);
                victim_way
            }
        };
        self.lines[set][way] = Some(incoming);
        self.ranks[set].touch_mru(way);
    }
}

impl RefModel for RefVictim {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line = addr.line(self.geom.line_bytes());
        let set = self.geom.set_index_of_line(line);

        if let Some(way) = self.find_way(set, line) {
            self.stats.record_local_hit();
            self.ranks[set].touch_mru(way);
            if kind.is_write() {
                if let Some(l) = &mut self.lines[set][way] {
                    l.dirty = true;
                }
            }
            return AccessResult::HitLocal;
        }

        if let Some(pos) = self.victims.iter().position(|v| v.line == line) {
            let mut hit = self.victims.remove(pos);
            self.stats.record_coop_hit();
            self.stats.record_receive();
            if kind.is_write() {
                hit.dirty = true;
            }
            self.install(set, hit);
            return AccessResult::HitCooperative;
        }

        self.stats.record_coop_miss();
        self.install(
            set,
            RefVcLine {
                line,
                dirty: kind.is_write(),
            },
        );
        AccessResult::MissCooperative
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[test]
fn victim_cache_matches_reference() {
    let geom = paper_geom();
    let mut new = VictimCache::new(geom, 16);
    assert_equivalent(
        "LRU+VC",
        RefVictim::new(geom, 16),
        &mut new,
        geom,
        0xD1FF_4001,
        DIFF_ACCESSES / 2,
    );
    let geom = pressure_geom();
    let mut new = VictimCache::new(geom, 4);
    assert_equivalent(
        "LRU+VC",
        RefVictim::new(geom, 4),
        &mut new,
        geom,
        0xD1FF_4002,
        DIFF_ACCESSES / 10,
    );
}

// ---------------------------------------------------------------------------
// Reference scheme: V-Way.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefTagEntry {
    line: LineAddr,
    data: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefDataEntry {
    rptr_set: u32,
    rptr_way: u16,
    reuse: u8,
    dirty: bool,
}

struct RefVWay {
    geom: CacheGeometry,
    tags: Vec<Vec<Option<RefTagEntry>>>,
    tag_ranks: Vec<RefRecency>,
    data: Vec<Option<RefDataEntry>>,
    free_data: Vec<usize>,
    clock: usize,
    max_reuse: u8,
    stats: CacheStats,
}

impl RefVWay {
    fn new(geom: CacheGeometry) -> Self {
        let cfg = VWayConfig::default();
        let tag_ways = cfg.tag_data_ratio * geom.ways();
        let total = geom.total_lines();
        RefVWay {
            geom,
            tags: vec![vec![None; tag_ways]; geom.sets()],
            tag_ranks: vec![RefRecency::new(tag_ways); geom.sets()],
            data: vec![None; total],
            free_data: (0..total).rev().collect(),
            clock: 0,
            max_reuse: ((1u32 << cfg.reuse_bits) - 1) as u8,
            stats: CacheStats::default(),
        }
    }

    fn find_tag_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.tags[set]
            .iter()
            .position(|t| matches!(t, Some(e) if e.line == line))
    }

    fn find_free_tag_way(&self, set: usize) -> Option<usize> {
        self.tags[set].iter().position(Option::is_none)
    }

    fn global_data_victim(&mut self) -> usize {
        let total = self.data.len();
        let max_steps = total * (usize::from(self.max_reuse) + 2);
        for _ in 0..max_steps {
            let idx = self.clock;
            self.clock = (self.clock + 1) % total;
            if let Some(d) = &mut self.data[idx] {
                if d.reuse == 0 {
                    let d = *d;
                    self.tags[d.rptr_set as usize][d.rptr_way as usize] = None;
                    self.data[idx] = None;
                    self.stats.record_eviction();
                    if d.dirty {
                        self.stats.record_writeback();
                    }
                    return idx;
                }
                d.reuse -= 1;
            }
        }
        panic!("reference V-Way found no global victim");
    }
}

impl RefModel for RefVWay {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line = addr.line(self.geom.line_bytes());
        let set = self.geom.set_index_of_line(line);

        if let Some(way) = self.find_tag_way(set, line) {
            self.stats.record_local_hit();
            self.tag_ranks[set].touch_mru(way);
            let data_idx = self.tags[set][way]
                .expect("find_tag_way returned a valid way")
                .data;
            let d = self.data[data_idx].as_mut().expect("hit tag has data");
            d.reuse = (d.reuse + 1).min(self.max_reuse);
            if kind.is_write() {
                d.dirty = true;
            }
            return AccessResult::HitLocal;
        }

        self.stats.record_local_miss();

        let (tag_way, data_idx) = match self.find_free_tag_way(set) {
            Some(w) => {
                let idx = match self.free_data.pop() {
                    Some(i) => i,
                    None => self.global_data_victim(),
                };
                (w, idx)
            }
            None => {
                let w = self.tag_ranks[set].lru_way();
                let victim = self.tags[set][w].expect("full set has only valid tags");
                let old = self.data[victim.data].expect("victim tag has data");
                self.stats.record_eviction();
                if old.dirty {
                    self.stats.record_writeback();
                }
                self.tags[set][w] = None;
                self.data[victim.data] = None;
                (w, victim.data)
            }
        };

        self.tags[set][tag_way] = Some(RefTagEntry {
            line,
            data: data_idx,
        });
        self.data[data_idx] = Some(RefDataEntry {
            rptr_set: set as u32,
            rptr_way: tag_way as u16,
            reuse: 0,
            dirty: kind.is_write(),
        });
        self.tag_ranks[set].touch_mru(tag_way);
        AccessResult::MissLocal
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[test]
fn vway_matches_reference() {
    let geom = paper_geom();
    let mut new = VWayCache::new(geom);
    assert_equivalent(
        "V-Way",
        RefVWay::new(geom),
        &mut new,
        geom,
        0xD1FF_5001,
        DIFF_ACCESSES,
    );
    let geom = pressure_geom();
    let mut new = VWayCache::new(geom);
    assert_equivalent(
        "V-Way",
        RefVWay::new(geom),
        &mut new,
        geom,
        0xD1FF_5002,
        DIFF_ACCESSES / 10,
    );
}

// ---------------------------------------------------------------------------
// Reference scheme: STEM.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefStemLine {
    line: LineAddr,
    dirty: bool,
    cc: bool,
}

/// The old `StemCache` data path. The monitors, association table and
/// config are the real public components; the tag store, recency ranking,
/// giver heap and H3 hasher are the reference copies above. The RNG is pulled in and out with `mem::replace`
/// exactly like the original, so the SplitMix64 stream consumption order is
/// identical call for call.
struct RefStem {
    geom: CacheGeometry,
    cfg: StemConfig,
    lines: Vec<Vec<Option<RefStemLine>>>,
    ranks: Vec<RefRecency>,
    set_policy: Vec<PolicyKind>,
    monitors: Vec<SetMonitor>,
    assoc: AssociationTable,
    is_taker: Vec<bool>,
    cc_count: Vec<u32>,
    heap: RefDss,
    hasher: RefHasher,
    rng: SplitMix64,
    stats: CacheStats,
}

impl RefStem {
    fn new(geom: CacheGeometry, cfg: StemConfig) -> Self {
        cfg.validate().expect("valid config");
        RefStem {
            geom,
            lines: vec![vec![None; geom.ways()]; geom.sets()],
            ranks: vec![RefRecency::new(geom.ways()); geom.sets()],
            set_policy: vec![PolicyKind::Lru; geom.sets()],
            monitors: (0..geom.sets())
                .map(|_| SetMonitor::new(geom.ways(), cfg.counter_bits, cfg.spatial_ratio_log2))
                .collect(),
            assoc: AssociationTable::new(geom.sets()),
            is_taker: vec![false; geom.sets()],
            cc_count: vec![0; geom.sets()],
            heap: RefDss::new(cfg.heap_capacity),
            hasher: RefHasher::new(cfg.shadow_tag_bits, cfg.seed ^ 0x4343),
            rng: SplitMix64::new(cfg.seed),
            stats: CacheStats::default(),
            cfg,
        }
    }

    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.lines[set]
            .iter()
            .position(|l| matches!(l, Some(e) if e.line == line))
    }

    fn find_free_way(&self, set: usize) -> Option<usize> {
        self.lines[set].iter().position(Option::is_none)
    }

    fn sig_of(&self, line: LineAddr) -> u16 {
        self.hasher.hash(self.geom.tag_of_line(line))
    }

    fn insert_rank(&mut self, set: usize, way: usize) {
        match self.set_policy[set] {
            PolicyKind::Lru => self.ranks[set].touch_mru(way),
            PolicyKind::Bip => {
                if self.rng.one_in_pow2(self.cfg.bip_throttle_log2) {
                    self.ranks[set].touch_mru(way);
                } else {
                    self.ranks[set].demote_lru(way);
                }
            }
        }
    }

    fn update_heap_status(&mut self, set: usize) {
        if self.cfg.spatial_coupling && !self.assoc.is_coupled(set) && self.monitors[set].is_giver()
        {
            self.heap.post(set, self.monitors[set].saturation_level());
        } else {
            self.heap.remove(set);
        }
    }

    fn monitor_hit(&mut self, home: usize) {
        self.monitors[home].on_llc_hit(&mut self.rng);
        self.update_heap_status(home);
    }

    fn probe_shadow(&mut self, home: usize, sig: u16) {
        if self.monitors[home].shadow_mut().probe_invalidate(sig) {
            let ev = self.monitors[home].on_shadow_hit();
            if ev.swap_policy {
                if self.cfg.temporal_adaptation {
                    self.set_policy[home] = self.set_policy[home].opposite();
                    self.stats.record_policy_swap();
                }
                self.monitors[home].acknowledge_swap();
            }
        } else {
            let mut rng = std::mem::replace(&mut self.rng, SplitMix64::new(0));
            self.monitors[home].on_shadow_miss(&mut rng);
            self.rng = rng;
        }
        self.update_heap_status(home);
    }

    fn try_couple(&mut self, taker: usize) {
        if !self.cfg.spatial_coupling || self.assoc.is_coupled(taker) {
            return;
        }
        self.heap.remove(taker);
        while let Some(cand) = self.heap.pop_least() {
            if cand != taker && !self.assoc.is_coupled(cand) && self.monitors[cand].is_giver() {
                self.assoc.couple(taker, cand);
                self.is_taker[taker] = true;
                self.is_taker[cand] = false;
                self.stats.record_coupling();
                return;
            }
        }
    }

    fn evict_off_chip(&mut self, set: usize, way: usize, allow_decouple: bool) {
        let old = self.lines[set][way].take().expect("eviction of valid way");
        self.stats.record_eviction();
        if old.dirty {
            self.stats.record_writeback();
        }
        if old.cc {
            self.cc_count[set] -= 1;
            if allow_decouple && self.cc_count[set] == 0 {
                if let Some(p) = self.assoc.partner(set) {
                    self.is_taker[p] = false;
                    self.is_taker[set] = false;
                    self.assoc.decouple(set);
                    self.stats.record_decoupling();
                }
            }
        } else {
            let sig = self.sig_of(old.line);
            let shadow_policy = self.set_policy[set].opposite();
            let throttle = self.cfg.bip_throttle_log2;
            let mut rng = std::mem::replace(&mut self.rng, SplitMix64::new(0));
            self.monitors[set]
                .shadow_mut()
                .insert(sig, shadow_policy, throttle, &mut rng);
            self.rng = rng;
        }
    }

    fn receive(&mut self, giver: usize, line: LineAddr, dirty: bool) -> bool {
        let way = match self.find_free_way(giver) {
            Some(w) => w,
            None => {
                let victim = self.ranks[giver].lru_way();
                let victim_is_native = !self.lines[giver][victim].is_some_and(|l| l.cc);
                if victim_is_native {
                    let native = self.lines[giver].iter().flatten().filter(|l| !l.cc).count();
                    if native + 3 > self.geom.ways() {
                        return false;
                    }
                }
                self.evict_off_chip(giver, victim, false);
                victim
            }
        };
        self.lines[giver][way] = Some(RefStemLine {
            line,
            dirty,
            cc: true,
        });
        self.insert_rank(giver, way);
        self.cc_count[giver] += 1;
        self.stats.record_receive();
        true
    }

    fn can_receive(&self, giver: usize) -> bool {
        !self.cfg.receive_constraint || self.monitors[giver].can_receive()
    }

    fn dispose_victim(&mut self, home: usize, way: usize) {
        let victim = self.lines[home][way].expect("victim way valid");
        if victim.cc {
            self.evict_off_chip(home, way, true);
            return;
        }

        if self.monitors[home].is_taker() {
            self.try_couple(home);
        }

        if let Some(giver) = self.assoc.partner(home) {
            if self.is_taker[home]
                && !self.monitors[home].is_giver()
                && self.can_receive(giver)
                && self.receive(giver, victim.line, victim.dirty)
            {
                let sig = self.sig_of(victim.line);
                let shadow_policy = self.set_policy[home].opposite();
                let throttle = self.cfg.bip_throttle_log2;
                let mut rng = std::mem::replace(&mut self.rng, SplitMix64::new(0));
                self.monitors[home]
                    .shadow_mut()
                    .insert(sig, shadow_policy, throttle, &mut rng);
                self.rng = rng;

                self.lines[home][way] = None;
                self.stats.record_spill();
                return;
            }
        }

        self.evict_off_chip(home, way, true);
    }
}

impl RefModel for RefStem {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line = addr.line(self.geom.line_bytes());
        let home = self.geom.set_index_of_line(line);

        if let Some(way) = self.find_way(home, line) {
            self.stats.record_local_hit();
            self.ranks[home].touch_mru(way);
            if kind.is_write() {
                if let Some(l) = &mut self.lines[home][way] {
                    l.dirty = true;
                }
            }
            self.monitor_hit(home);
            return AccessResult::HitLocal;
        }

        let probe_partner = self.assoc.partner(home).filter(|_| self.is_taker[home]);
        if let Some(giver) = probe_partner {
            if let Some(way) = self.find_way(giver, line) {
                self.stats.record_coop_hit();
                self.ranks[giver].touch_mru(way);
                if kind.is_write() {
                    if let Some(l) = &mut self.lines[giver][way] {
                        l.dirty = true;
                    }
                }
                self.monitor_hit(home);
                return AccessResult::HitCooperative;
            }
        }

        let sig = self.sig_of(line);
        self.probe_shadow(home, sig);
        if probe_partner.is_some() {
            self.stats.record_coop_miss();
        } else {
            self.stats.record_local_miss();
        }

        let way = match self.find_free_way(home) {
            Some(w) => w,
            None => {
                let victim = self.ranks[home].lru_way();
                self.dispose_victim(home, victim);
                victim
            }
        };
        self.lines[home][way] = Some(RefStemLine {
            line,
            dirty: kind.is_write(),
            cc: false,
        });
        self.insert_rank(home, way);

        if probe_partner.is_some() {
            AccessResult::MissCooperative
        } else {
            AccessResult::MissLocal
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[test]
fn stem_matches_reference() {
    let geom = paper_geom();
    let mut new = StemCache::with_config(geom, StemConfig::micro2010());
    assert_equivalent(
        "STEM",
        RefStem::new(geom, StemConfig::micro2010()),
        &mut new,
        geom,
        0xD1FF_6001,
        DIFF_ACCESSES,
    );
    let geom = pressure_geom();
    let mut new = StemCache::with_config(geom, StemConfig::micro2010());
    assert_equivalent(
        "STEM",
        RefStem::new(geom, StemConfig::micro2010()),
        &mut new,
        geom,
        0xD1FF_6002,
        DIFF_ACCESSES / 10,
    );
    // Which of tied maxima a full giver heap replaces decides later
    // couplings.
    let geom = tie_geom();
    let mut new = StemCache::with_config(geom, StemConfig::micro2010());
    assert_equivalent_on(
        "STEM-ties",
        RefStem::new(geom, StemConfig::micro2010()),
        &mut new,
        DIFF_ACCESSES / 10,
        round_robin_stream(geom, 0xD1FF_6003),
    );
    // The ablations ride the same data path with different branches taken;
    // a shorter pass each keeps the whole config surface covered.
    for (i, cfg) in [
        StemConfig::micro2010().with_receive_constraint(false),
        StemConfig::micro2010().with_temporal_adaptation(false),
        StemConfig::micro2010().with_spatial_coupling(false),
    ]
    .into_iter()
    .enumerate()
    {
        let geom = pressure_geom();
        let mut new = StemCache::with_config(geom, cfg);
        assert_equivalent(
            "STEM-ablated",
            RefStem::new(geom, cfg),
            &mut new,
            geom,
            0xD1FF_6100 + i as u64,
            DIFF_ACCESSES / 20,
        );
    }
}

/// Cross-scheme oracle: STEM with both halves switched off — no spatial
/// coupling, no temporal adaptation — is plain LRU, so it must equal
/// `SetAssocCache` + `Lru` in every `AccessResult` and in the final
/// `CacheStats`, on real benchmark streams at three geometries. The two
/// sides share no replacement code, so this guards any rewrite of STEM's
/// per-access bookkeeping.
#[test]
fn ablated_stem_equals_lru_access_for_access() {
    let cfg = StemConfig::micro2010()
        .with_spatial_coupling(false)
        .with_temporal_adaptation(false);
    let accesses = DIFF_ACCESSES / 5;
    for (sets, ways) in [(2048, 16), (64, 4), (256, 8)] {
        let geom = CacheGeometry::new(sets, ways, 64).expect("valid geometry");
        for bench in ["omnetpp", "mcf", "ammp", "gromacs"] {
            let decoded = stem::workloads::BenchmarkProfile::by_name(bench)
                .expect("suite benchmark")
                .decoded(geom, accesses);
            let mut stem = StemCache::with_config(geom, cfg);
            let mut lru = SetAssocCache::new(geom, Lru::new(geom));
            for i in 0..decoded.len() {
                assert_eq!(
                    replay_one(&mut stem, &decoded, i),
                    replay_one(&mut lru, &decoded, i),
                    "{bench} at {sets}x{ways}: access #{i} diverged"
                );
            }
            assert_eq!(
                stem.stats(),
                lru.stats(),
                "{bench} at {sets}x{ways}: final CacheStats diverged"
            );
        }
    }
}

/// The hierarchy's fixed 2-way L1 kernel against `SetAssocCache<Lru>` at
/// the Table 1 geometry (256×2): fuzzed line streams confined to a few
/// sets, so nearly every miss evicts, with random writes and statistics
/// resets mid-stream. Every access must agree on hit or miss, and the
/// final `CacheStats` (hits, misses, evictions, writebacks) must be equal.
#[test]
fn l1_kernel_matches_set_assoc_lru() {
    let geom = SystemConfig::micro2010().l1_geometry();
    assert_eq!((geom.sets(), geom.ways()), (256, 2));
    prop::check(96, |g| {
        let mut kernel = L1Cache::new(geom);
        let mut oracle = SetAssocCache::new(geom, Lru::new(geom));
        let sets: Vec<u64> = (0..g.usize(1, 4)).map(|_| g.u64(0, 256)).collect();
        let tags = g.u64(2, 7);
        let region = g.u64(0, 1 << 20) << 24;
        let write_odds = g.u32(0, 5);
        let len = g.usize(0, 3000);
        for i in 0..len {
            if g.u32(0, 400) == 0 {
                kernel.reset_stats();
                oracle.reset_stats();
            }
            let set = sets[g.usize(0, sets.len())];
            let line = region | (g.u64(0, tags) << 8) | set;
            let write = g.u32(0, 4) < write_odds;
            assert_eq!(
                kernel.access_line(line, write),
                oracle.access_line(LineAddr::new(line), write).is_hit(),
                "access #{i} (line {line:#x}, write {write}) diverged"
            );
        }
        assert_eq!(kernel.stats(), oracle.stats(), "final CacheStats diverged");
    });
}

// ---------------------------------------------------------------------------
// Decoded-stream differentials: each scheme's `replay_decoded` kernel vs
// the byte-address `access` call, for all six paper schemes (plus the two
// auxiliary spatial baselines). `access` replays a one-access stream
// decoded from the byte address, so the per-access `AccessResult` stream
// and the final `CacheStats` must be identical. Replay must also compose:
// one whole-stream replay and a replay split at random points reach the
// same final `CacheStats`, which the hierarchy's chunked L1 filter and the
// mix's per-core attribution rely on.
// ---------------------------------------------------------------------------

/// Replays access `i` of `stream` through the cache's own
/// `replay_decoded` kernel and reads the outcome off the one hit/miss
/// counter it moved.
fn replay_one<C: CacheModel + ?Sized>(
    cache: &mut C,
    stream: &DecodedTrace,
    i: usize,
) -> AccessResult {
    let before = *cache.stats();
    cache.replay_decoded(stream, i..i + 1);
    let after = cache.stats();
    assert_eq!(
        after.accesses(),
        before.accesses() + 1,
        "one access replayed"
    );
    if after.local_hits() > before.local_hits() {
        AccessResult::HitLocal
    } else if after.coop_hits() > before.coop_hits() {
        AccessResult::HitCooperative
    } else if after.local_misses() > before.local_misses() {
        AccessResult::MissLocal
    } else {
        AccessResult::MissCooperative
    }
}

/// Materializes the synthetic stream once, decodes it, and replays it
/// through four identically constructed caches: byte address by byte
/// address, access by access, as one whole-stream replay, and as ragged
/// ranges split at random points.
fn assert_decoded_equivalent<C: CacheModel>(
    name: &str,
    build: impl Fn() -> C,
    geom: CacheGeometry,
    seed: u64,
    accesses: usize,
) {
    let mut rng = SplitMix64::new(seed);
    let trace: Trace = (0..accesses)
        .map(|i| {
            let (addr, kind) = synth_access(&mut rng, geom, i);
            match kind {
                AccessKind::Write => Access::write(addr),
                AccessKind::Read => Access::read(addr),
            }
        })
        .collect();
    let decoded = DecodedTrace::decode(&trace, geom);
    let mut byte_path = build();
    let mut fast_path = build();
    for (i, a) in trace.iter().enumerate() {
        let old = byte_path.access(a.addr, a.kind);
        let new = replay_one(&mut fast_path, &decoded, i);
        assert_eq!(
            old, new,
            "{name}: access #{i} ({:?}, {:?}) diverged (Access path vs decoded path)",
            a.addr, a.kind
        );
    }
    assert_eq!(
        byte_path.stats(),
        fast_path.stats(),
        "{name}: final CacheStats diverged after {accesses} decoded accesses"
    );

    let mut whole = build();
    whole.run_decoded(&decoded);
    assert_eq!(
        whole.stats(),
        fast_path.stats(),
        "{name}: one whole-stream replay diverged from access-by-access replay"
    );

    let mut ragged = build();
    let mut start = 0;
    while start < decoded.len() {
        let end = (start + rng.next_below(2 * 4096) as usize).min(decoded.len());
        ragged.replay_decoded(&decoded, start..end);
        start = end;
    }
    assert_eq!(
        ragged.stats(),
        fast_path.stats(),
        "{name}: a replay split into ragged ranges diverged from one replay"
    );
}

#[test]
fn lru_decoded_matches_access_path() {
    let geom = paper_geom();
    assert_decoded_equivalent(
        "LRU/decoded",
        || SetAssocCache::new(geom, Lru::new(geom)),
        geom,
        0xDEC0_1001,
        DIFF_ACCESSES,
    );
}

#[test]
fn dip_decoded_matches_access_path() {
    let geom = paper_geom();
    assert_decoded_equivalent(
        "DIP/decoded",
        || SetAssocCache::new(geom, Dip::new(geom)),
        geom,
        0xDEC0_2001,
        DIFF_ACCESSES,
    );
}

#[test]
fn pelifo_decoded_matches_access_path() {
    let geom = paper_geom();
    assert_decoded_equivalent(
        "PeLIFO/decoded",
        || SetAssocCache::new(geom, PeLifo::new(geom)),
        geom,
        0xDEC0_3001,
        DIFF_ACCESSES,
    );
}

#[test]
fn vway_decoded_matches_access_path() {
    let geom = paper_geom();
    assert_decoded_equivalent(
        "VWAY/decoded",
        || VWayCache::new(geom),
        geom,
        0xDEC0_4001,
        DIFF_ACCESSES,
    );
}

#[test]
fn sbc_decoded_matches_access_path() {
    let geom = paper_geom();
    assert_decoded_equivalent(
        "SBC/decoded",
        || SbcCache::new(geom),
        geom,
        0xDEC0_5001,
        DIFF_ACCESSES,
    );
}

#[test]
fn stem_decoded_matches_access_path() {
    let geom = paper_geom();
    assert_decoded_equivalent(
        "STEM/decoded",
        || StemCache::with_config(geom, StemConfig::micro2010()),
        geom,
        0xDEC0_6001,
        DIFF_ACCESSES,
    );
}

#[test]
fn auxiliary_spatial_decoded_match_access_path() {
    let geom = pressure_geom();
    assert_decoded_equivalent(
        "SBC-static/decoded",
        || StaticSbcCache::new(geom),
        geom,
        0xDEC0_7001,
        DIFF_ACCESSES / 10,
    );
    assert_decoded_equivalent(
        "LRU+VC/decoded",
        || VictimCache::new(geom, 16),
        geom,
        0xDEC0_7002,
        DIFF_ACCESSES / 10,
    );
}

#[test]
fn one_stream_replays_at_any_set_count() {
    // A stream carries lines, not sets: one stream generated at the
    // paper's 2048 sets replays into every scheme at 512, 1024 and 4096
    // sets, each cache deriving its own set index, and must match that
    // cache's byte-address `access` path exactly. The stream is long
    // enough that every geometry evicts: a set derived from the wrong
    // mask only shows once sets overflow.
    let source_geom = CacheGeometry::micro2010_l2();
    let mut rng = SplitMix64::new(0xDEC0_8001);
    let trace: Trace = (0..DIFF_ACCESSES / 5)
        .map(|i| {
            let (addr, kind) = synth_access(&mut rng, source_geom, i);
            let a = match kind {
                AccessKind::Write => Access::write(addr),
                AccessKind::Read => Access::read(addr),
            };
            Access {
                addr: Address::new(addr.raw() | (i as u64 % 64)), // unaligned
                ..a
            }
        })
        .collect();
    let decoded = DecodedTrace::decode(&trace, source_geom);
    for sets in [512, 1024, 4096] {
        let geom = CacheGeometry::new(sets, 16, 64).expect("valid geometry");
        for scheme in Scheme::ALL {
            let mut byte_path = build_cache(scheme, geom);
            let mut stream_path = build_cache(scheme, geom);
            for (i, a) in trace.iter().enumerate() {
                assert_eq!(
                    byte_path.access(a.addr, a.kind),
                    replay_one(stream_path.as_mut(), &decoded, i),
                    "{scheme} at {sets} sets: access #{i} diverged"
                );
            }
            assert_eq!(
                byte_path.stats(),
                stream_path.stats(),
                "{scheme} at {sets} sets: final CacheStats diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sampled partitions vs serial replay (the set-locality boundary).
// ---------------------------------------------------------------------------
//
// At stride `k` the sampler keeps the pair domains of one residue class
// mod `k`, so the `k` offsets together partition the set space with every
// SBC-static partner pair kept whole. Replaying each class's compacted
// trace through its own fresh cache and summing the unscaled `CacheStats`
// must be *indistinguishable* from a serial replay for every scheme whose
// mutable state is per-set — the property that makes sampling
// zero-distortion. DIP opts into sampling as a documented approximation
// (its global PSEL only sees the kept leader sets), so it is the one
// sampling scheme this differential leaves out.

use stem::analysis::{build_cache, warm_split, Scheme};
use stem::sim_core::{SampledTrace, Snapshot};
use stem_bench::engine::{Exec, RunPlan};

/// Synthesizes and decodes one differential trace.
fn synth_decoded(geom: CacheGeometry, seed: u64, accesses: usize) -> DecodedTrace {
    let mut rng = SplitMix64::new(seed);
    let trace: Trace = (0..accesses)
        .map(|i| {
            let (addr, kind) = synth_access(&mut rng, geom, i);
            match kind {
                AccessKind::Write => Access::write(addr),
                AccessKind::Read => Access::read(addr),
            }
        })
        .collect();
    DecodedTrace::decode(&trace, geom)
}

/// One sample of `decoded` at `rate` per stride offset, found by scanning
/// seeds in order until every offset in `0..stride` has appeared as the
/// first selected domain: the residue classes partition the pair domains.
/// Selection depends only on `(seed, sets, rate)`, so the scan probes an
/// empty trace of the same geometry.
fn partition_samples(decoded: &DecodedTrace, rate: u32) -> Vec<SampledTrace> {
    let empty = DecodedTrace::decode(&Trace::new(), decoded.geometry());
    let stride = SampledTrace::select(&empty, rate, 0).stride() as usize;
    let mut seeds: Vec<Option<u64>> = vec![None; stride];
    for seed in 0u64..10_000 {
        let offset = SampledTrace::select(&empty, rate, seed).selected_domains()[0];
        seeds[offset].get_or_insert(seed);
    }
    seeds
        .into_iter()
        .enumerate()
        .map(|(offset, seed)| {
            let seed = seed.unwrap_or_else(|| panic!("no seed selects offset {offset}"));
            SampledTrace::select(decoded, rate, seed)
        })
        .collect()
}

/// The MPKI of an engine run of `scheme` over `decoded` after the
/// standard 20% warm-up.
fn warmed_mpki(scheme: Scheme, geom: CacheGeometry, decoded: &DecodedTrace, exec: Exec<'_>) -> f64 {
    RunPlan {
        exec,
        ..RunPlan::serial(scheme, geom, 0.2)
    }
    .run(decoded)
    .unwrap_or_else(|e| panic!("{scheme}: {e}"))
    .mpki()
}

/// Asks a freshly built cache of the scheme whether it opts into set
/// sampling.
fn can_sample(scheme: Scheme, geom: CacheGeometry) -> bool {
    build_cache(scheme, geom).supports_set_sampling()
}

/// Asserts that, for every exact sampling scheme (every sampling scheme but
/// DIP), the serial `CacheStats` over `decoded` equal the sum of each
/// partition's classes replayed through fresh caches; returns the schemes
/// it checked.
fn assert_partitions_sum_to_serial(
    decoded: &DecodedTrace,
    partitions: &[(u32, Vec<SampledTrace>)],
) -> Vec<Scheme> {
    let geom = decoded.geometry();
    for (rate, samples) in partitions {
        let covered: usize = samples.iter().map(SampledTrace::len).sum();
        assert_eq!(covered, decoded.len(), "rate {rate}: not a partition");
    }
    let mut exact = Vec::new();
    for scheme in Scheme::ALL {
        if scheme == Scheme::Dip || !can_sample(scheme, geom) {
            continue;
        }
        exact.push(scheme);
        let mut serial = build_cache(scheme, geom);
        serial.run_decoded(decoded);
        assert!(
            serial.stats().writebacks() > 0,
            "{scheme}: the dirty path must fire for the differential to mean anything"
        );
        for (rate, samples) in partitions {
            let summed = samples
                .iter()
                .map(|sample| {
                    let mut cache = build_cache(scheme, geom);
                    cache.run_decoded(sample.trace());
                    *cache.stats()
                })
                .fold(CacheStats::default(), |acc, s| acc + s);
            assert_eq!(
                *serial.stats(),
                summed,
                "{scheme}: {} sampled classes at rate {rate} diverged from serial \
                 at {} sets",
                samples.len(),
                geom.sets()
            );
        }
    }
    exact
}

// The three tests below keep the names of the set-sharded replay tests
// they replaced, so their IDs stay stable across the removal: a
// residue-class partition is the per-set split a shard plan was, and the
// properties they pin (set locality, empty classes, write-flag
// compaction) carry over unchanged.

#[test]
fn sharded_replay_matches_serial_for_every_shardable_scheme() {
    for (geom, seed, accesses) in [
        (paper_geom(), 0x5AAD_0001, DIFF_ACCESSES),
        (pressure_geom(), 0x5AAD_0002, DIFF_ACCESSES / 10),
    ] {
        let decoded = synth_decoded(geom, seed, accesses);
        let partitions: Vec<(u32, Vec<SampledTrace>)> = [2u32, 4, 7]
            .into_iter()
            .map(|rate| (rate, partition_samples(&decoded, rate)))
            .collect();
        assert_eq!(
            assert_partitions_sum_to_serial(&decoded, &partitions),
            [Scheme::Lru, Scheme::Srrip, Scheme::Plru, Scheme::SbcStatic],
            "the exact sampling surface drifted"
        );
    }
}

#[test]
fn surplus_shards_stay_empty_and_preserve_stats() {
    // 16 sets fold to 8 pair domains. The offset-0 class at rate 4 keeps
    // only domains {0, 4}; partitioning that class again at rate 32
    // clamps the stride to 8 (one domain per class), so at least six of
    // the eight classes hold no access. Empty classes must replay as
    // no-ops, and the summed stats must still match serial exactly.
    let geom = pressure_geom();
    let full = synth_decoded(geom, 0x5AAD_0002, DIFF_ACCESSES / 10);
    let decoded = partition_samples(&full, 4)[0].trace().clone();
    let samples = partition_samples(&decoded, 32);
    assert_eq!(samples.len(), 8, "a rate above the domain count must clamp");
    assert!(
        samples.iter().filter(|s| s.is_empty()).count() >= 6,
        "expected empty classes where the source touches no domain"
    );
    assert!(!assert_partitions_sum_to_serial(&decoded, &[(32, samples)]).is_empty());
}

#[test]
fn write_flags_survive_compaction_across_word_boundaries() {
    // The decoded write flags live in 64-access bitmap words; compaction
    // moves every surviving access to a new bit position, so any
    // off-by-one in the scatter shows up as a read/write swap. The
    // synthetic stream's writes straddle every word boundary of every
    // class at rates 2/4/7; the flags are checked access-by-access against
    // the source via the original indices, and the dirty/writeback path
    // is then exercised end to end.
    let geom = pressure_geom();
    let decoded = synth_decoded(geom, 0x5AAD_0003, 1_000);
    let writes: usize = (0..decoded.len()).filter(|&i| decoded.is_write(i)).count();
    assert!(writes > 0, "synthetic stream must contain writes");
    let mut partitions = Vec::new();
    for rate in [2u32, 4, 7] {
        let samples = partition_samples(&decoded, rate);
        for (ci, sample) in samples.iter().enumerate() {
            for (local, &orig) in sample.orig_indices().iter().enumerate() {
                assert_eq!(
                    sample.trace().is_write(local),
                    decoded.is_write(orig as usize),
                    "class {ci} access {local} (orig {orig}) write flag flipped at rate {rate}"
                );
            }
        }
        partitions.push((rate, samples));
    }
    assert!(!assert_partitions_sum_to_serial(&decoded, &partitions).is_empty());
}

// ---------------------------------------------------------------------------
// Checkpoint/restore vs cold replay.
// ---------------------------------------------------------------------------
//
// A `Snapshot` is a warmed clone of the cache with zeroed counters;
// restoring it into a fresh cache must be *invisible*: the post-restore
// per-access `AccessResult` stream and the final `CacheStats` must be
// bit-identical to a single uninterrupted replay of the same trace that
// zeroes its counters at the warm boundary — for every scheme.

/// Warms a fresh cache of `scheme` on `decoded[..warm_len]` and
/// checkpoints it.
fn warm_snapshot(
    scheme: Scheme,
    geom: CacheGeometry,
    decoded: &DecodedTrace,
    warm_len: usize,
) -> Snapshot {
    let mut cache = build_cache(scheme, geom);
    cache.replay_decoded(decoded, 0..warm_len);
    cache.snapshot().expect("every scheme snapshots")
}

#[test]
fn restored_replay_matches_cold_for_every_snapshottable_scheme() {
    let geom = paper_geom();
    let decoded = synth_decoded(geom, 0x5A4B_0001, DIFF_ACCESSES / 10);
    let warm_len = warm_split(decoded.len(), 0.2);
    for scheme in Scheme::ALL {
        // Cold: one cache, never interrupted. Restored: a second cache is
        // warmed identically, checkpointed, mutated further (the capture
        // must be deep), and the checkpoint lands in a *fresh* cache that
        // then replays the suffix side by side.
        let mut cold = build_cache(scheme, geom);
        assert!(cold.supports_snapshot(), "{scheme}");
        cold.replay_decoded(&decoded, 0..warm_len);
        cold.reset_stats();
        let snap = {
            let mut warmed = build_cache(scheme, geom);
            warmed.replay_decoded(&decoded, 0..warm_len);
            let snap = warmed.snapshot().expect("every scheme snapshots");
            warmed.replay_decoded(&decoded, warm_len..decoded.len());
            snap
        };
        let mut restored = build_cache(scheme, geom);
        restored
            .restore(&snap)
            .expect("matching scheme and geometry");
        for i in warm_len..decoded.len() {
            let want = replay_one(cold.as_mut(), &decoded, i);
            let got = replay_one(restored.as_mut(), &decoded, i);
            assert_eq!(want, got, "{scheme}: access #{i} diverged after restore");
        }
        assert_eq!(
            cold.stats(),
            restored.stats(),
            "{scheme}: final CacheStats diverged after restore"
        );
    }
}

#[test]
fn snapshot_of_restored_state_round_trips() {
    // Restore is a state *copy*, not a transformation: re-checkpointing a
    // just-restored cache must yield an equivalent snapshot, and the
    // measured suffix from either generation (or from no snapshot at all)
    // is bit-identical.
    let geom = pressure_geom();
    let decoded = synth_decoded(geom, 0x5A4B_0003, DIFF_ACCESSES / 20);
    let warm_len = warm_split(decoded.len(), 0.2);
    let measure = |scheme: Scheme, snap: &Snapshot| {
        let mut cache = build_cache(scheme, geom);
        cache.restore(snap).expect("matching scheme and geometry");
        cache.replay_decoded(&decoded, warm_len..decoded.len());
        *cache.stats()
    };
    for scheme in Scheme::ALL {
        let first = warm_snapshot(scheme, geom, &decoded, warm_len);
        let second = {
            let mut mid = build_cache(scheme, geom);
            mid.restore(&first).expect("first-generation restore");
            mid.snapshot().expect("a restored cache re-checkpoints")
        };
        assert_eq!(first.scheme(), second.scheme());
        assert_eq!(first.geometry(), second.geometry());
        let a = measure(scheme, &first);
        assert_eq!(
            a,
            measure(scheme, &second),
            "{scheme}: second-generation snapshot diverged"
        );
        let cold = RunPlan::serial(scheme, geom, 0.2)
            .run(&decoded)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(a, cold.stats, "{scheme}: snapshot path diverged from cold");
    }
}

#[test]
fn sampled_selection_is_a_pure_function_of_seed_sets_and_rate() {
    // The sampled tier's determinism contract: which pair domains get
    // selected depends on (seed, sets, rate) and on nothing else — not
    // the trace contents, not the access count, and (structurally) not
    // STEM_THREADS, which the selector never reads. Two different traces
    // over the same geometry must therefore agree on the selected domains
    // exactly, and repeated selection must agree on every compacted byte.
    let geom = paper_geom();
    let trace_a = synth_decoded(geom, 0x5A3D_0001, 20_000);
    let trace_b = synth_decoded(geom, 0x5A3D_0002, 7_000);
    for rate in [1u32, 8, 16, 32] {
        for seed in [0u64, 1, 0xFEED] {
            let sa = SampledTrace::select(&trace_a, rate, seed);
            let sb = SampledTrace::select(&trace_b, rate, seed);
            assert_eq!(
                sa.selected_domains(),
                sb.selected_domains(),
                "domain choice leaked trace contents at rate {rate} seed {seed}"
            );
            let sa2 = SampledTrace::select(&trace_a, rate, seed);
            assert_eq!(sa.orig_indices(), sa2.orig_indices());
            assert_eq!(sa.selected_domains(), sa2.selected_domains());
            // SBC-static pairing: a selected domain keeps both partners
            // s and s + sets/2 in the sample.
            let half = geom.sets() / 2;
            let sets: std::collections::BTreeSet<usize> = sa.selected_sets().collect();
            for &d in sa.selected_domains() {
                assert!(sets.contains(&d) && sets.contains(&(d + half)));
            }
        }
    }
    // Different seeds must be able to pick different strided offsets
    // (otherwise the seed is dead weight).
    let offsets: std::collections::BTreeSet<usize> = (0..8)
        .map(|seed| SampledTrace::select(&trace_a, 16, seed).selected_domains()[0])
        .collect();
    assert!(offsets.len() > 1, "seed never moved the stride offset");
}

#[test]
fn full_rate_sample_replays_exactly_for_every_sampling_scheme() {
    // The sampled differential: at rate 1 the sample keeps every domain
    // and the scale factor is exactly 1.0, so the sampled runner must
    // reproduce the exact decoded runner bit for bit — for every scheme
    // that opts into sampling, over a shared randomized trace.
    let geom = paper_geom();
    let decoded = synth_decoded(geom, 0x5A3D_0003, DIFF_ACCESSES / 10);
    let sample = SampledTrace::select(&decoded, 1, 0xFACE);
    assert_eq!(sample.scale_factor().to_bits(), 1.0f64.to_bits());
    let mut covered = 0;
    for scheme in Scheme::ALL {
        if !can_sample(scheme, geom) {
            continue;
        }
        covered += 1;
        let exact = warmed_mpki(scheme, geom, &decoded, Exec::Serial);
        let sampled = warmed_mpki(scheme, geom, &decoded, Exec::Sampled(&sample));
        assert_eq!(
            exact.to_bits(),
            sampled.to_bits(),
            "{scheme}: full-rate sample diverged from exact replay"
        );
    }
    assert!(covered >= 5, "sampling surface shrank to {covered} schemes");
}
