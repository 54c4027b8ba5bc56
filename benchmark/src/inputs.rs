//! Seeded inputs: the request streams of the three serve workloads and
//! the trace files the mix workload ingests.
//!
//! Everything here is a pure function of the seed, so the same seed sends
//! byte-identical requests and writes byte-identical files. The program
//! under test only ever sees the generated bodies and files.

use std::collections::HashSet;

use stem::analysis::{build_cache, Scheme};
use stem::sim_core::{Access, Address, CacheGeometry, Json, SplitMix64, Trace};
use stem::workloads::{spec2010_suite, BenchmarkProfile, Zipf};

/// Line size of every generated request and trace (the paper's 64 B).
pub const LINE_BYTES: u64 = 64;

/// Bits of the line-address XOR mask: the paper L2's 2048 sets.
const MASK_BITS: u32 = 11;

/// Warm-up fraction the service applies by default (the paper's 20 %).
pub const WARMUP_FRACTION: f64 = 0.2;

/// The paper geometry (2048 sets × 16 ways × 64 B).
pub fn paper_geometry() -> CacheGeometry {
    CacheGeometry::micro2010_l2()
}

/// The 15 suite benchmark names, in suite order.
pub fn suite_names() -> Vec<&'static str> {
    spec2010_suite().iter().map(|b| b.name()).collect()
}

/// The paper's six schemes as request labels.
pub fn paper_schemes() -> Vec<&'static str> {
    Scheme::PAPER.iter().map(|s| s.label()).collect()
}

/// The paper schemes whose LLC accepts sampled replay at `geom`.
pub fn sampling_schemes(geom: CacheGeometry) -> Vec<&'static str> {
    Scheme::PAPER
        .iter()
        .filter(|&&s| build_cache(s, geom).supports_set_sampling())
        .map(|s| s.label())
        .collect()
}

/// A generator for one purpose, so adding draws for one stream never
/// shifts another.
fn rng(seed: u64, purpose: u64) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(mixer.next_u64())
}

fn pick<T: Clone>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize].clone()
}

/// The 11-bit line-address mask for `seed`; seed 0 is the identity.
pub fn xor_mask(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        rng(seed, 1).next_u64() & ((1 << MASK_BITS) - 1)
    }
}

/// XORs every line address of `trace` with `mask`, keeping the offset
/// within the line, the access kind and the instruction gap. The map is
/// an involution on lines, so it is a bijection; at any set count up to
/// 2^11 it permutes whole sets, which keeps the per-set demand
/// distribution.
pub fn xor_lines(trace: &Trace, mask: u64) -> Trace {
    trace
        .iter()
        .map(|a| {
            let raw = a.addr.raw();
            let line = raw / LINE_BYTES;
            Access {
                addr: Address::new((line ^ mask) * LINE_BYTES + raw % LINE_BYTES),
                ..*a
            }
        })
        .collect()
}

/// One generated trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Plain file name (what a mix request names).
    pub name: String,
    /// File contents.
    pub bytes: Vec<u8>,
}

/// The mix workload's trace files: suite traces of `accesses` accesses at
/// the paper geometry, line addresses XORed with the seed's mask, written
/// twice in the binary `STEMTRC` form and twice in `stemtrace` text.
pub fn trace_files(seed: u64, accesses: usize) -> Vec<TraceFile> {
    let mut r = rng(seed, 2);
    let suite = spec2010_suite();
    let mask = xor_mask(seed);
    let mut chosen: Vec<usize> = Vec::new();
    while chosen.len() < 4 {
        let i = r.next_below(suite.len() as u64) as usize;
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let bench = &suite[i];
            let trace = xor_lines(&bench.trace(paper_geometry(), accesses), mask);
            let mut bytes = Vec::new();
            let name = if k % 2 == 0 {
                stem::trace_io::write_binary(&mut bytes, &trace).expect("write to memory");
                format!("{}-{k}.stemtrc", bench.name())
            } else {
                stem::trace_io::write_text(&mut bytes, &trace).expect("write to memory");
                format!("{}-{k}.trace", bench.name())
            };
            TraceFile { name, bytes }
        })
        .collect()
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn int(v: u64) -> Json {
    Json::Int(v as i64)
}

fn solo(
    bench: &str,
    scheme: &str,
    sets: u64,
    ways: u64,
    accesses: u64,
) -> Vec<(&'static str, Json)> {
    vec![
        ("benchmark", Json::str(bench)),
        ("scheme", Json::str(scheme)),
        ("sets", int(sets)),
        ("ways", int(ways)),
        ("accesses", int(accesses)),
    ]
}

/// Number of distinct requests in the `serve-hot` catalog (below the
/// service's 64-entry result cache, so every timed request can hit).
pub const HOT_CATALOG: usize = 48;

/// The `serve-hot` catalog: small exact requests covering every paper
/// scheme equally.
pub fn hot_catalog(seed: u64) -> Vec<String> {
    let mut r = rng(seed, 3);
    let suite = suite_names();
    let schemes = paper_schemes();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(HOT_CATALOG);
    while out.len() < HOT_CATALOG {
        let scheme = schemes[out.len() % schemes.len()];
        let body = obj(solo(
            pick(&mut r, &suite),
            scheme,
            pick(&mut r, &[256, 512, 1024]),
            pick(&mut r, &[4, 8, 16]),
            20_000 + 500 * r.next_below(40),
        ))
        .to_string();
        if seen.insert(body.clone()) {
            out.push(body);
        }
    }
    out
}

/// The timed `serve-hot` stream: `n` catalog indices drawn with Zipf(1.0)
/// popularity over a seeded ranking of the catalog.
pub fn hot_draws(seed: u64, n: usize) -> Vec<usize> {
    let mut r = rng(seed, 4);
    let mut ranking: Vec<usize> = (0..HOT_CATALOG).collect();
    for i in (1..ranking.len()).rev() {
        ranking.swap(i, r.next_below(i as u64 + 1) as usize);
    }
    let zipf = Zipf::new(HOT_CATALOG, 1.0);
    (0..n).map(|_| ranking[zipf.sample(&mut r)]).collect()
}

/// The `serve-cold` stream: `n` distinct exact solo requests at about
/// `accesses` accesses. About one in five is the `profile: true` twin of
/// a request sent at most eight requests earlier; the twin shares that
/// request's warm prefix.
pub fn cold_requests(seed: u64, n: usize, accesses: u64) -> Vec<String> {
    let mut r = rng(seed, 5);
    let suite = suite_names();
    let schemes = paper_schemes();
    let mut seen = HashSet::new();
    let mut out: Vec<String> = Vec::with_capacity(n);
    // Requests that may still get a twin: (position, fields).
    let mut open: Vec<(usize, Vec<(&'static str, Json)>)> = Vec::new();
    while out.len() < n {
        let pos = out.len();
        open.retain(|(p, _)| pos - p <= 8);
        if !open.is_empty() && r.chance(1, 5) {
            let (_, mut fields) = open.remove(r.next_below(open.len() as u64) as usize);
            fields.push(("profile", Json::Bool(true)));
            out.push(obj(fields).to_string());
            continue;
        }
        let fields = solo(
            pick(&mut r, &suite),
            pick(&mut r, &schemes),
            2048,
            pick(&mut r, &[4, 8, 16]),
            accesses + 100 * r.next_below(100),
        );
        let body = obj(fields.clone()).to_string();
        if seen.insert(body.clone()) {
            out.push(body);
            open.push((pos, fields));
        }
    }
    out
}

/// Sizes of one `serve-mix` stream.
#[derive(Debug, Clone, Copy)]
pub struct MixSizes {
    /// Accesses each benchmark component of a mix receives.
    pub per_core: u64,
    /// Accesses of a sampled solo request.
    pub sampled: u64,
}

/// The `serve-mix` stream: about 60 % `mix` requests of 2–4 cores whose
/// components are suite benchmarks or the given trace files, and 40 %
/// `fidelity: sampled` solo requests at rate 8, 16 or 32 with a seeded
/// sample seed. Every request is distinct.
pub fn mix_requests(seed: u64, n: usize, trace_names: &[String], sizes: MixSizes) -> Vec<String> {
    let mut r = rng(seed, 6);
    let suite = suite_names();
    let schemes = paper_schemes();
    let sampled = sampling_schemes(paper_geometry());
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut sampled_sent = 0usize;
    while out.len() < n {
        let body = if r.chance(3, 5) {
            let cores = 2 + r.next_below(3);
            let comps: Vec<Json> = (0..cores)
                .map(|_| {
                    if r.chance(1, 2) {
                        obj(vec![("benchmark", Json::str(pick(&mut r, &suite)))])
                    } else {
                        obj(vec![("trace", Json::str(pick(&mut r, trace_names)))])
                    }
                })
                .collect();
            obj(vec![
                ("mix", Json::Arr(comps)),
                ("mix_seed", int(r.next_below(1 << 31))),
                ("scheme", Json::str(pick(&mut r, &schemes))),
                ("sets", int(2048)),
                ("ways", int(16)),
                ("accesses", int(sizes.per_core * cores)),
            ])
        } else {
            // Benchmark, scheme and rate cycle so every seed sends the same
            // blend: the median error is then a property of the sampled
            // tier, not of which benchmarks a seed happened to draw.
            let rates = [8, 16, 32];
            let cycle = [suite.len(), sampled.len(), rates.len()];
            let k = sampled_sent;
            let mut fields = solo(
                suite[k % cycle[0]],
                sampled[k / cycle[0] % cycle[1]],
                2048,
                16,
                sizes.sampled,
            );
            fields.push(("fidelity", Json::str("sampled")));
            fields.push((
                "sample_rate",
                int(rates[k / (cycle[0] * cycle[1]) % cycle[2]]),
            ));
            fields.push(("sample_seed", int(r.next_below(1 << 20))));
            obj(fields)
        }
        .to_string();
        if seen.insert(body.clone()) {
            sampled_sent += usize::from(body.contains("\"sampled\""));
            out.push(body);
        }
    }
    out
}

/// The requests re-derived in-process: a seeded one in twenty, plus the
/// first request of each scheme so every scheme is checked (and timed by
/// the traced run) on every seed.
pub fn check_subset(seed: u64, bodies: &[String]) -> Vec<usize> {
    let mut r = rng(seed, 7);
    let mut schemes_seen = HashSet::new();
    bodies
        .iter()
        .enumerate()
        .filter(|(_, body)| {
            let scheme = Json::parse(body)
                .ok()
                .and_then(|j| j.get("scheme").and_then(Json::as_str).map(str::to_owned));
            let first_of_scheme = scheme.is_some_and(|s| schemes_seen.insert(s));
            r.chance(1, 20) | first_of_scheme
        })
        .map(|(i, _)| i)
        .collect()
}

/// The benchmark profile a request names.
pub fn profile(name: &str) -> BenchmarkProfile {
    BenchmarkProfile::by_name(name).expect("generated requests name suite benchmarks")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sizes() -> MixSizes {
        MixSizes {
            per_core: 2_000,
            sampled: 4_000,
        }
    }

    #[test]
    fn the_same_seed_gives_identical_streams_and_files() {
        let files = trace_files(1, 500);
        let names: Vec<String> = files.iter().map(|f| f.name.clone()).collect();
        assert_eq!(files, trace_files(1, 500));
        assert_eq!(hot_catalog(1), hot_catalog(1));
        assert_eq!(hot_draws(1, 300), hot_draws(1, 300));
        assert_eq!(cold_requests(1, 200, 10_000), cold_requests(1, 200, 10_000));
        assert_eq!(
            mix_requests(1, 200, &names, sizes()),
            mix_requests(1, 200, &names, sizes())
        );
        assert_eq!(
            check_subset(1, &hot_catalog(1)),
            check_subset(1, &hot_catalog(1))
        );
    }

    #[test]
    fn seeds_one_and_two_differ() {
        assert_ne!(trace_files(1, 500), trace_files(2, 500));
        assert_ne!(hot_catalog(1), hot_catalog(2));
        assert_ne!(hot_draws(1, 300), hot_draws(2, 300));
        assert_ne!(cold_requests(1, 200, 10_000), cold_requests(2, 200, 10_000));
        let names = vec!["a.trace".to_owned(), "b.stemtrc".to_owned()];
        assert_ne!(
            mix_requests(1, 200, &names, sizes()),
            mix_requests(2, 200, &names, sizes())
        );
        assert_ne!(xor_mask(1), xor_mask(2));
    }

    #[test]
    fn streams_have_the_promised_shape() {
        let cold = cold_requests(3, 1000, 100_000);
        let distinct: HashSet<&String> = cold.iter().collect();
        assert_eq!(distinct.len(), 1000, "every cold request is distinct");
        let twins = cold.iter().filter(|b| b.contains("\"profile\"")).count();
        assert!((150..=250).contains(&twins), "{twins} twins");

        let catalog = hot_catalog(3);
        assert_eq!(catalog.len(), HOT_CATALOG);
        assert_eq!(catalog.iter().collect::<HashSet<_>>().len(), HOT_CATALOG);
        assert!(hot_draws(3, 1000).iter().all(|&i| i < HOT_CATALOG));

        let names = vec!["a.trace".to_owned()];
        let mix = mix_requests(3, 1000, &names, sizes());
        let mixes = mix.iter().filter(|b| b.contains("\"mix\"")).count();
        assert!((550..=650).contains(&mixes), "{mixes} mix requests");
        assert_eq!(mix.iter().collect::<HashSet<_>>().len(), 1000);

        // Every scheme appears in the checked subset.
        let checked = check_subset(3, &cold);
        for scheme in paper_schemes() {
            assert!(
                checked
                    .iter()
                    .any(|&i| cold[i].contains(&format!("\"{scheme}\""))),
                "{scheme} unchecked"
            );
        }
        assert!(
            checked.len() >= 40 && checked.len() <= 90,
            "{}",
            checked.len()
        );
    }

    #[test]
    fn every_generated_request_is_valid() {
        let names: Vec<String> = trace_files(4, 300).into_iter().map(|f| f.name).collect();
        let bodies = hot_catalog(4)
            .into_iter()
            .chain(cold_requests(4, 100, 10_000))
            .chain(mix_requests(4, 100, &names, sizes()));
        for body in bodies {
            stem_serve::RunRequest::parse(body.as_bytes()).expect(&body);
        }
    }

    #[test]
    fn seed_zero_is_the_identity() {
        let trace = profile("mcf").trace(paper_geometry(), 2_000);
        assert_eq!(xor_mask(0), 0);
        assert_eq!(xor_lines(&trace, 0), trace);
    }

    #[test]
    fn xor_is_a_bijection_on_lines() {
        let trace = profile("omnetpp").trace(paper_geometry(), 20_000);
        let mask = xor_mask(9);
        assert_ne!(mask, 0);
        let moved = xor_lines(&trace, mask);
        // An involution: applying it twice restores every access.
        assert_eq!(xor_lines(&moved, mask), trace);
        let lines =
            |t: &Trace| -> HashSet<u64> { t.iter().map(|a| a.addr.raw() / LINE_BYTES).collect() };
        assert_eq!(
            lines(&trace).len(),
            lines(&moved).len(),
            "no two lines merge"
        );
        for (a, b) in trace.iter().zip(moved.iter()) {
            assert_eq!(a.addr.raw() % LINE_BYTES, b.addr.raw() % LINE_BYTES);
            assert_eq!((a.kind, a.inst_gap), (b.kind, b.inst_gap));
        }
    }

    #[test]
    fn xor_preserves_the_per_set_demand_histogram() {
        let trace = profile("ammp").trace(paper_geometry(), 30_000);
        let moved = xor_lines(&trace, xor_mask(5));
        for sets in [256usize, 1024, 2048] {
            // Per set: (accesses, distinct lines); compare the sorted
            // multiset over sets.
            let histogram = |t: &Trace| {
                let mut per_set: BTreeMap<u64, (u64, HashSet<u64>)> = BTreeMap::new();
                for a in t {
                    let line = a.addr.raw() / LINE_BYTES;
                    let e = per_set.entry(line % sets as u64).or_default();
                    e.0 += 1;
                    e.1.insert(line);
                }
                let mut h: Vec<(u64, usize)> =
                    per_set.values().map(|(n, l)| (*n, l.len())).collect();
                h.sort_unstable();
                h
            };
            assert_eq!(histogram(&trace), histogram(&moved), "{sets} sets");
        }
    }

    #[test]
    fn trace_files_round_trip_through_the_parser() {
        let mask = xor_mask(6);
        let files = trace_files(6, 700);
        assert_eq!(
            files
                .iter()
                .filter(|f| f.name.ends_with(".stemtrc"))
                .count(),
            2
        );
        assert_eq!(
            files.iter().filter(|f| f.name.ends_with(".trace")).count(),
            2
        );
        for f in &files {
            let bench = f
                .name
                .split('-')
                .next()
                .expect("name starts with the benchmark");
            let expected = xor_lines(&profile(bench).trace(paper_geometry(), 700), mask);
            let (format, parsed) = stem::trace_io::parse_bytes(&f.bytes).expect(&f.name);
            assert_eq!(parsed, expected, "{} ({format})", f.name);
        }
    }
}
