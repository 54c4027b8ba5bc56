//! Experiment request decoding, validation, and canonicalization.
//!
//! A `/run` body is strict JSON (see [`stem_sim_core::Json`]): two
//! required fields (`benchmark`, `scheme`), optional geometry and length
//! overrides, and nothing else — unknown fields are rejected so a typo'd
//! knob fails loudly instead of silently running the default experiment.
//!
//! Every accepted request has exactly one **canonical form**: the full
//! field set in a fixed order with defaults filled in. The canonical
//! serialization is what gets hashed (FNV-1a 64) for the result cache and
//! echoed back in the response, so two requests that *mean* the same
//! experiment — regardless of field order or omitted defaults — share one
//! cache entry and one byte-identical response body.

use stem_analysis::{build_cache, Scheme};
use stem_bench::config::Fidelity;
use stem_hierarchy::SystemConfig;
use stem_sim_core::{CacheGeometry, Json, SimError};
use stem_workloads::{spec2010_suite, BenchmarkProfile, MAX_MIX_PROGRAMS};

/// Hard ceiling on `accesses`: a service request is an interactive
/// experiment, not a batch reproduction run.
pub const MAX_ACCESSES: usize = 20_000_000;

/// Hard ceiling on `sample_rate` (a 1-in-`rate` strided set selection;
/// the selector clamps to the pair-domain count anyway, so anything
/// larger is a typo, not a request).
pub const MAX_SAMPLE_RATE: u64 = 65_536;

/// Hard ceiling on `ways`: the widest associativity sweep point.
pub const MAX_WAYS: usize = 64;

/// Hard ceiling on `sets × ways`: 2^18 lines, 8× the paper's 2 MB L2.
/// Every scheme allocates its tag store up front, and an allocation
/// failure aborts the whole process, so the bound is checked before any
/// cache is built.
pub const MAX_LINES: usize = 1 << 18;

/// Default trace length when the request does not override it.
pub const DEFAULT_ACCESSES: usize = 200_000;

/// Default warm-up fraction (the paper's 20% split).
pub const DEFAULT_WARMUP: f64 = 0.2;

/// Ceiling on the client-suppliable `deadline_ms` budget (one hour — the
/// service's own executor budget is the real long stop).
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Decimal places the canonical form keeps for fractional fields
/// (`warmup_fraction`, mix `weight`).
const CANONICAL_DECIMALS: u32 = 6;

/// Rounds `x` exactly as the canonical form serializes it. Parsing stores
/// this value, so a request runs with precisely the number its cache keys
/// name: two requests that share a key run the same experiment.
fn quantize(x: f64) -> f64 {
    let scale = 10f64.powi(CANONICAL_DECIMALS as i32);
    (x * scale).round() / scale
}

/// Ceiling on a mix component's trace file name length.
pub const MAX_TRACE_NAME_LEN: usize = 64;

/// Where one mix component's accesses come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixSource {
    /// A Table 2 benchmark analog, by suite name.
    Benchmark(String),
    /// An ingested trace file, by plain file name; the executor resolves
    /// it under the service's trace directory (`STEM_SERVE_TRACE_DIR`).
    Trace(String),
}

/// One component (core) of a multi-programmed mix request.
#[derive(Debug, Clone, PartialEq)]
pub struct MixComponent {
    /// The workload this core replays.
    pub source: MixSource,
    /// Interleave weight (validated positive, rounded to the canonical 6
    /// decimals; defaults to 1.0).
    pub weight: f64,
}

/// A validated experiment request in canonical form.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Benchmark analog name (Table 2 suite). Empty exactly when this is
    /// a mix request ([`mix`](Self::mix) is `Some`); the two forms are
    /// mutually exclusive on the wire.
    pub benchmark: String,
    /// Multi-programmed mix components, one per core, when this is a mix
    /// request. Mix requests replay a shared LLC under the full exact
    /// hierarchy; they exclude `profile` and sampled fidelity.
    pub mix: Option<Vec<MixComponent>>,
    /// Seed of the deterministic interleave lottery (only meaningful —
    /// and only accepted on the wire — with [`mix`](Self::mix); fixed to
    /// 0 otherwise).
    pub mix_seed: u64,
    /// Replacement/management scheme to evaluate.
    pub scheme: Scheme,
    /// LLC sets (default 2048 — the paper's L2).
    pub sets: usize,
    /// LLC ways (default 16).
    pub ways: usize,
    /// Line size in bytes (default 64).
    pub line_bytes: u64,
    /// Trace length in accesses.
    pub accesses: usize,
    /// Fraction of the trace used to warm the hierarchy before measuring,
    /// rounded to the canonical 6 decimals.
    pub warmup_fraction: f64,
    /// Whether to include the §3.1 per-set capacity-demand profile.
    pub profile: bool,
    /// Simulation fidelity tier: `exact` replays the whole trace through
    /// the full system model; `sampled` replays a UMON-style strided set
    /// sample through the bare LLC and scales the estimate back up.
    pub fidelity: Fidelity,
    /// Strided selection rate (1-in-`sample_rate` pair domains). Only
    /// meaningful — and only accepted on the wire — when `fidelity` is
    /// `sampled`; fixed to the default otherwise so the canonical form
    /// stays a pure function of the experiment.
    pub sample_rate: u32,
    /// Selection seed (offsets the stride). Same wire rules as
    /// [`sample_rate`](Self::sample_rate).
    pub sample_seed: u64,
    /// Client-supplied wall-clock budget for this request, if any.
    ///
    /// **Operational metadata, not experiment identity**: the deadline is
    /// validated here but deliberately excluded from [`canonical`](Self::canonical)
    /// and [`cache_key`](Self::cache_key), so two requests for the same
    /// experiment with different patience share one cache entry and one
    /// byte-identical response body — caching stays a pure function of
    /// *what* is asked, never *how long* the client will wait.
    pub deadline_ms: Option<u64>,
}

fn invalid(detail: impl Into<String>) -> SimError {
    SimError::config("serve", detail)
}

/// Validates the `mix` array: 1..=[`MAX_MIX_PROGRAMS`] component objects,
/// each naming exactly one of `benchmark` (a suite name) or `trace` (a
/// plain file name), with an optional positive `weight` defaulting to 1.
fn parse_mix(json: &Json) -> Result<Vec<MixComponent>, SimError> {
    let arr = json
        .as_arr()
        .ok_or_else(|| invalid("field \"mix\" must be an array of component objects"))?;
    if arr.is_empty() || arr.len() > MAX_MIX_PROGRAMS {
        return Err(invalid(format!(
            "field \"mix\" must hold 1..={MAX_MIX_PROGRAMS} components, got {}",
            arr.len()
        )));
    }
    arr.iter()
        .enumerate()
        .map(|(i, c)| parse_mix_component(i, c))
        .collect()
}

fn parse_mix_component(i: usize, json: &Json) -> Result<MixComponent, SimError> {
    let obj = json
        .as_obj()
        .ok_or_else(|| invalid(format!("mix[{i}] must be an object")))?;
    for (key, _) in obj {
        if !["benchmark", "trace", "weight"].contains(&key.as_str()) {
            return Err(invalid(format!(
                "unknown field {key:?} in mix[{i}] (accepted fields: benchmark, trace, weight)"
            )));
        }
    }
    let source = match (json.get("benchmark"), json.get("trace")) {
        (Some(b), None) => {
            let name = b
                .as_str()
                .ok_or_else(|| invalid(format!("mix[{i}].benchmark must be a string")))?;
            if BenchmarkProfile::by_name(name).is_none() {
                let known: Vec<&str> = spec2010_suite().iter().map(|b| b.name()).collect();
                return Err(invalid(format!(
                    "unknown benchmark {name:?} in mix[{i}] (suite: {})",
                    known.join(", ")
                )));
            }
            MixSource::Benchmark(name.to_owned())
        }
        (None, Some(t)) => {
            let name = t
                .as_str()
                .ok_or_else(|| invalid(format!("mix[{i}].trace must be a string")))?;
            validate_trace_name(i, name)?;
            MixSource::Trace(name.to_owned())
        }
        _ => {
            return Err(invalid(format!(
                "mix[{i}] must name exactly one of \"benchmark\" or \"trace\""
            )))
        }
    };
    let weight = match json.get("weight") {
        None => 1.0,
        Some(v) => v
            .as_f64()
            .map(quantize)
            .filter(|w| w.is_finite() && *w > 0.0)
            .ok_or_else(|| invalid(format!("mix[{i}].weight must be a positive number")))?,
    };
    Ok(MixComponent { source, weight })
}

/// A mix trace reference is a *name*, not a path: the executor joins it
/// to the configured trace directory, so anything that could climb out
/// of it (separators, a leading dot) is rejected at the door.
fn validate_trace_name(i: usize, name: &str) -> Result<(), SimError> {
    let ok = !name.is_empty()
        && name.len() <= MAX_TRACE_NAME_LEN
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(invalid(format!(
            "mix[{i}].trace must be a plain file name (ASCII letters, digits, '.', '_', '-'; \
             no leading '.'; at most {MAX_TRACE_NAME_LEN} chars), got {name:?}"
        )))
    }
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, SimError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("field {key:?} must be a non-negative integer"))),
    }
}

impl RunRequest {
    /// Field names the decoder accepts: the canonical experiment fields
    /// (including the fidelity tier and its sampling knobs) plus the
    /// operational `deadline_ms` (accepted and validated, but excluded
    /// from the canonical form — see [`deadline_ms`](Self::deadline_ms)).
    pub const FIELDS: [&'static str; 14] = [
        "benchmark",
        "mix",
        "mix_seed",
        "scheme",
        "sets",
        "ways",
        "line_bytes",
        "accesses",
        "warmup_fraction",
        "profile",
        "fidelity",
        "sample_rate",
        "sample_seed",
        "deadline_ms",
    ];

    /// Default sampling rate when a `sampled` request omits it: keep
    /// ~1/16 of the set space, the middle of the measured error/speedup
    /// table in EXPERIMENTS.md.
    pub const DEFAULT_SAMPLE_RATE: u32 = 16;

    /// Default sampling seed when a `sampled` request omits it (the seed
    /// `sampling_bench` measures with).
    pub const DEFAULT_SAMPLE_SEED: u64 = 0;

    /// Decodes and validates a request body.
    ///
    /// # Errors
    ///
    /// [`SimError::Json`] when the body is not valid JSON;
    /// [`SimError::Config`] when it is JSON but not a valid request
    /// (wrong shape, unknown field, unknown benchmark or scheme, invalid
    /// geometry or bounds).
    pub fn parse(body: &[u8]) -> Result<RunRequest, SimError> {
        let text = std::str::from_utf8(body).map_err(|_| invalid("request body is not UTF-8"))?;
        let json = Json::parse(text)?;
        RunRequest::from_json(&json)
    }

    /// Decodes an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] on any validation failure (see
    /// [`parse`](Self::parse)).
    pub fn from_json(json: &Json) -> Result<RunRequest, SimError> {
        let obj = json
            .as_obj()
            .ok_or_else(|| invalid("request body must be a JSON object"))?;
        for (key, _) in obj {
            if !Self::FIELDS.contains(&key.as_str()) {
                return Err(invalid(format!(
                    "unknown field {key:?} (accepted fields: {})",
                    Self::FIELDS.join(", ")
                )));
            }
        }

        let mix = json.get("mix").map(parse_mix).transpose()?;
        let benchmark = match (&mix, json.get("benchmark")) {
            (Some(_), Some(_)) => {
                return Err(invalid(
                    "fields \"benchmark\" and \"mix\" are mutually exclusive \
                     (a mix names its workloads inside \"mix\")",
                ))
            }
            (Some(_), None) => String::new(),
            (None, maybe) => {
                let benchmark = maybe
                    .ok_or_else(|| invalid("missing required field \"benchmark\" (or \"mix\")"))?
                    .as_str()
                    .ok_or_else(|| invalid("field \"benchmark\" must be a string"))?
                    .to_owned();
                if BenchmarkProfile::by_name(&benchmark).is_none() {
                    let known: Vec<&str> = spec2010_suite().iter().map(|b| b.name()).collect();
                    return Err(invalid(format!(
                        "unknown benchmark {benchmark:?} (suite: {})",
                        known.join(", ")
                    )));
                }
                benchmark
            }
        };

        let mix_seed = field_u64(json, "mix_seed")?;
        if mix.is_none() && mix_seed.is_some() {
            return Err(invalid("field \"mix_seed\" requires \"mix\""));
        }
        let mix_seed = match mix_seed {
            None => 0,
            Some(s) => {
                if s > i64::MAX as u64 {
                    return Err(invalid(format!(
                        "field \"mix_seed\" must fit in a signed 64-bit JSON integer, got {s}"
                    )));
                }
                s
            }
        };

        let scheme_name = json
            .get("scheme")
            .ok_or_else(|| invalid("missing required field \"scheme\""))?
            .as_str()
            .ok_or_else(|| invalid("field \"scheme\" must be a string"))?;
        let scheme: Scheme = scheme_name.parse().map_err(|_| {
            let known: Vec<&str> = Scheme::PAPER.iter().map(|s| s.label()).collect();
            invalid(format!(
                "unknown scheme {scheme_name:?} (schemes: {})",
                known.join(", ")
            ))
        })?;

        let sets = field_u64(json, "sets")?.unwrap_or(2048) as usize;
        let ways = field_u64(json, "ways")?.unwrap_or(16) as usize;
        let line_bytes = field_u64(json, "line_bytes")?.unwrap_or(64);
        // Geometry validation is delegated to the simulator's own rules
        // (power-of-two sets/lines, nonzero ways) so the service cannot
        // accept a geometry the backend would reject; the size bound on
        // top keeps a worker from allocating a tag store the process
        // cannot hold.
        CacheGeometry::new(sets, ways, line_bytes)?;
        if ways > MAX_WAYS || sets.checked_mul(ways).is_none_or(|lines| lines > MAX_LINES) {
            return Err(invalid(format!(
                "geometry {sets} sets x {ways} ways is too large: \"ways\" must be at most \
                 {MAX_WAYS} and \"sets\" x \"ways\" at most {MAX_LINES} lines"
            )));
        }

        let accesses = field_u64(json, "accesses")?.unwrap_or(DEFAULT_ACCESSES as u64) as usize;
        if accesses == 0 || accesses > MAX_ACCESSES {
            return Err(invalid(format!(
                "field \"accesses\" must be in 1..={MAX_ACCESSES}, got {accesses}"
            )));
        }

        let warmup_fraction = match json.get("warmup_fraction") {
            None => DEFAULT_WARMUP,
            Some(v) => v
                .as_f64()
                .filter(|w| (0.0..=0.9).contains(w))
                .map(quantize)
                .ok_or_else(|| {
                    invalid("field \"warmup_fraction\" must be a number in 0.0..=0.9")
                })?,
        };

        let profile = match json.get("profile") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("field \"profile\" must be a boolean"))?,
        };

        let fidelity = match json.get("fidelity") {
            None => Fidelity::Exact,
            Some(v) => v
                .as_str()
                .and_then(|s| s.parse::<Fidelity>().ok())
                .ok_or_else(|| invalid("field \"fidelity\" must be \"exact\" or \"sampled\""))?,
        };
        if mix.is_some() {
            if profile {
                return Err(invalid(
                    "field \"profile\" requires a single-benchmark request \
                     (the capacity profile ranks one program's sets)",
                ));
            }
            if fidelity == Fidelity::Sampled {
                return Err(invalid(
                    "\"fidelity\": \"sampled\" requires a single-benchmark request \
                     (a mix replays the full shared hierarchy, which set sampling cannot cover)",
                ));
            }
        }
        let l1_line_bytes = SystemConfig::micro2010().l1_geometry().line_bytes();
        if fidelity == Fidelity::Exact && line_bytes != l1_line_bytes {
            // Exact and mix requests replay the full hierarchy, whose L1
            // consumes the stream at its own line size; only the bare-LLC
            // sampled tier replays at any line size.
            return Err(invalid(format!(
                "field \"line_bytes\" must be {l1_line_bytes} for exact and mix requests \
                 (the hierarchy's L1 uses {l1_line_bytes}-byte lines; \
                 \"fidelity\": \"sampled\" accepts any power of two), got {line_bytes}"
            )));
        }
        let sample_rate = field_u64(json, "sample_rate")?;
        let sample_seed = field_u64(json, "sample_seed")?;
        if fidelity == Fidelity::Exact && (sample_rate.is_some() || sample_seed.is_some()) {
            return Err(invalid(
                "fields \"sample_rate\"/\"sample_seed\" require \"fidelity\": \"sampled\"",
            ));
        }
        if fidelity == Fidelity::Sampled {
            // Sampling replays the bare LLC over a strided subset of
            // sets; the §3.1 profile ranks *every* set's demand, so the
            // two are incompatible by construction.
            if profile {
                return Err(invalid(
                    "field \"profile\" requires \"fidelity\": \"exact\" \
                     (the capacity profile ranks every set; a sampled replay drops most of them)",
                ));
            }
            let geom = CacheGeometry::new(sets, ways, line_bytes)?;
            if !build_cache(scheme, geom).supports_set_sampling() {
                let eligible: Vec<&str> = Scheme::ALL
                    .iter()
                    .filter(|&&s| build_cache(s, geom).supports_set_sampling())
                    .map(|s| s.label())
                    .collect();
                return Err(invalid(format!(
                    "scheme {:?} holds cross-set state and does not support sampled \
                     fidelity (eligible schemes: {})",
                    scheme.label(),
                    eligible.join(", ")
                )));
            }
        }
        let sample_rate = match sample_rate {
            None => Self::DEFAULT_SAMPLE_RATE,
            Some(r) => {
                if r == 0 || r > MAX_SAMPLE_RATE {
                    return Err(invalid(format!(
                        "field \"sample_rate\" must be in 1..={MAX_SAMPLE_RATE}, got {r}"
                    )));
                }
                r as u32
            }
        };
        let sample_seed = match sample_seed {
            None => Self::DEFAULT_SAMPLE_SEED,
            Some(s) => {
                if s > i64::MAX as u64 {
                    return Err(invalid(format!(
                        "field \"sample_seed\" must fit in a signed 64-bit JSON integer, got {s}"
                    )));
                }
                s
            }
        };

        let deadline_ms = field_u64(json, "deadline_ms")?;
        if let Some(d) = deadline_ms {
            if d == 0 || d > MAX_DEADLINE_MS {
                return Err(invalid(format!(
                    "field \"deadline_ms\" must be in 1..={MAX_DEADLINE_MS}, got {d}"
                )));
            }
        }

        Ok(RunRequest {
            benchmark,
            mix,
            mix_seed,
            scheme,
            sets,
            ways,
            line_bytes,
            accesses,
            warmup_fraction,
            profile,
            fidelity,
            sample_rate,
            sample_seed,
            deadline_ms,
        })
    }

    /// The validated geometry.
    ///
    /// # Panics
    ///
    /// Never for a request produced by [`parse`](Self::parse), which
    /// validated the geometry already.
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.sets, self.ways, self.line_bytes)
            .expect("request geometry was validated at parse time")
    }

    /// The canonical JSON form of a mix array: each component as its
    /// source key plus an always-explicit rounded weight, in wire order.
    /// Defaults filled in, so an omitted weight and an explicit 1.0 share
    /// one serialization.
    fn mix_canonical(mix: &[MixComponent]) -> Json {
        Json::Arr(
            mix.iter()
                .map(|c| {
                    let (key, name) = match &c.source {
                        MixSource::Benchmark(n) => ("benchmark", n),
                        MixSource::Trace(n) => ("trace", n),
                    };
                    Json::Obj(vec![
                        (key.to_owned(), Json::str(name.clone())),
                        (
                            "weight".to_owned(),
                            Json::float_rounded(c.weight, CANONICAL_DECIMALS),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// The canonical JSON form: the experiment fields in a fixed order,
    /// defaults explicit. Hashing and response echoes both use this.
    /// `fidelity` is always present, and the sampling knobs appear
    /// exactly when it is `sampled` — a sampled request and its exact
    /// twin can therefore never share a canonical form, a key, or a
    /// cached body. A mix request leads with `mix` + `mix_seed` instead
    /// of `benchmark`, so the two request families can never alias
    /// either. `deadline_ms` is intentionally absent — see
    /// [`deadline_ms`](Self::deadline_ms).
    pub fn canonical(&self) -> Json {
        let source_fields: Vec<(String, Json)> = match &self.mix {
            Some(mix) => vec![
                ("mix".into(), Self::mix_canonical(mix)),
                ("mix_seed".into(), Json::Int(self.mix_seed as i64)),
            ],
            None => vec![("benchmark".into(), Json::str(self.benchmark.clone()))],
        };
        let mut fields = source_fields;
        fields.extend([
            ("scheme".into(), Json::str(self.scheme.label())),
            ("sets".into(), Json::Int(self.sets as i64)),
            ("ways".into(), Json::Int(self.ways as i64)),
            ("line_bytes".into(), Json::Int(self.line_bytes as i64)),
            ("accesses".into(), Json::Int(self.accesses as i64)),
            (
                "warmup_fraction".into(),
                Json::float_rounded(self.warmup_fraction, CANONICAL_DECIMALS),
            ),
            ("profile".into(), Json::Bool(self.profile)),
            ("fidelity".into(), Json::str(self.fidelity.to_string())),
        ]);
        if self.fidelity == Fidelity::Sampled {
            fields.push(("sample_rate".into(), Json::Int(i64::from(self.sample_rate))));
            fields.push(("sample_seed".into(), Json::Int(self.sample_seed as i64)));
        }
        Json::Obj(fields)
    }

    /// The cache key: FNV-1a 64 over the canonical serialization.
    pub fn cache_key(&self) -> u64 {
        fnv1a64(self.canonical().to_string().as_bytes())
    }

    /// The canonical **warm-prefix** form: exactly the fields the warmed
    /// simulator state depends on — benchmark, scheme, geometry, trace
    /// length, and warm-up fraction. `profile`, `fidelity`, the sampling
    /// knobs, and `deadline_ms` are deliberately absent: they change what
    /// is *measured or reported* after the warm boundary, never the state
    /// the warm prefix leaves behind, so requests differing only in those
    /// fields share one snapshot entry. A distinct fixed `"warm_prefix"`
    /// marker field keeps this serialization from ever colliding with a
    /// full [`canonical`](Self::canonical) form byte-for-byte.
    ///
    /// Mix requests never consult the snapshot store (their warm state is
    /// a whole multi-core hierarchy, not one `System`), but their prefix
    /// form still carries the full mix identity so two different mixes
    /// could never alias even if a future executor did.
    pub fn warm_prefix_canonical(&self) -> Json {
        let source_fields: Vec<(String, Json)> = match &self.mix {
            Some(mix) => vec![
                ("mix".into(), Self::mix_canonical(mix)),
                ("mix_seed".into(), Json::Int(self.mix_seed as i64)),
            ],
            None => vec![("benchmark".into(), Json::str(self.benchmark.clone()))],
        };
        let mut fields = vec![("warm_prefix".into(), Json::Bool(true))];
        fields.extend(source_fields);
        fields.extend([
            ("scheme".into(), Json::str(self.scheme.label())),
            ("sets".into(), Json::Int(self.sets as i64)),
            ("ways".into(), Json::Int(self.ways as i64)),
            ("line_bytes".into(), Json::Int(self.line_bytes as i64)),
            ("accesses".into(), Json::Int(self.accesses as i64)),
            (
                "warmup_fraction".into(),
                Json::float_rounded(self.warmup_fraction, CANONICAL_DECIMALS),
            ),
        ]);
        Json::Obj(fields)
    }

    /// The snapshot-cache key: FNV-1a 64 over the warm-prefix canonical
    /// serialization. As with [`cache_key`](Self::cache_key), the cache
    /// stores the canonical string alongside and compares it on lookup,
    /// so a hash collision degrades to a miss, never to a wrong restore.
    pub fn snapshot_key(&self) -> u64 {
        fnv1a64(self.warm_prefix_canonical().to_string().as_bytes())
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms —
/// exactly what a content-addressed cache key needs. (Not collision
/// resistant against adversaries; the cache stores the canonical string
/// alongside the hash and compares it on lookup.)
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        r#"{"benchmark": "omnetpp", "scheme": "stem"}"#
    }

    #[test]
    fn minimal_request_gets_paper_defaults() {
        let req = RunRequest::parse(minimal().as_bytes()).expect("valid");
        assert_eq!(req.benchmark, "omnetpp");
        assert_eq!(req.scheme, Scheme::Stem);
        assert_eq!((req.sets, req.ways, req.line_bytes), (2048, 16, 64));
        assert_eq!(req.accesses, DEFAULT_ACCESSES);
        assert!((req.warmup_fraction - DEFAULT_WARMUP).abs() < 1e-12);
        assert!(!req.profile);
        assert_eq!(req.fidelity, Fidelity::Exact);
        assert_eq!(req.sample_rate, RunRequest::DEFAULT_SAMPLE_RATE);
        assert_eq!(req.sample_seed, RunRequest::DEFAULT_SAMPLE_SEED);
    }

    #[test]
    fn fidelity_always_splits_the_cache_key() {
        // The tentpole invariant: a sampled request and its exact twin
        // must never alias — not in the canonical form (which the cache
        // compares byte-for-byte on lookup, so even an FNV collision
        // degrades to a miss) and not in the key.
        let exact = RunRequest::parse(br#"{"benchmark": "mcf", "scheme": "lru"}"#).expect("valid");
        let sampled =
            RunRequest::parse(br#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled"}"#)
                .expect("valid");
        assert_ne!(exact.cache_key(), sampled.cache_key());
        assert_ne!(
            exact.canonical().to_string(),
            sampled.canonical().to_string()
        );
        assert!(exact.canonical().to_string().contains("\"exact\""));
        assert!(sampled.canonical().to_string().contains("\"sampled\""));

        // Different rates and seeds are different experiments too.
        let rate8 = RunRequest::parse(
            br#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled", "sample_rate": 8}"#,
        )
        .expect("valid");
        let seed7 = RunRequest::parse(
            br#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled", "sample_seed": 7}"#,
        )
        .expect("valid");
        let keys = [
            exact.cache_key(),
            sampled.cache_key(),
            rate8.cache_key(),
            seed7.cache_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "fidelity variants must not share cache keys");
            }
        }
    }

    #[test]
    fn sampled_defaults_are_explicit_in_the_canonical_form() {
        let implicit =
            RunRequest::parse(br#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled"}"#)
                .expect("valid");
        let explicit = RunRequest::parse(
            br#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled",
                 "sample_rate": 16, "sample_seed": 0}"#,
        )
        .expect("valid");
        assert_eq!(implicit.cache_key(), explicit.cache_key());
        assert!(implicit.canonical().to_string().contains("sample_rate"));
        // Exact requests carry the fidelity marker but no sampling knobs.
        let exact = RunRequest::parse(minimal().as_bytes()).expect("valid");
        let canon = exact.canonical().to_string();
        assert!(canon.contains("\"fidelity\""));
        assert!(!canon.contains("sample_rate") && !canon.contains("sample_seed"));
    }

    #[test]
    fn canonicalization_is_field_order_independent() {
        let a = RunRequest::parse(br#"{"scheme": "lru", "benchmark": "mcf", "accesses": 1000}"#)
            .expect("valid");
        let b = RunRequest::parse(br#"{"accesses": 1000, "benchmark": "mcf", "scheme": "lru"}"#)
            .expect("valid");
        assert_eq!(a.canonical().to_string(), b.canonical().to_string());
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn omitted_defaults_and_explicit_defaults_share_a_key() {
        let implicit = RunRequest::parse(minimal().as_bytes()).expect("valid");
        let explicit = RunRequest::parse(
            br#"{"benchmark": "omnetpp", "scheme": "stem", "sets": 2048, "ways": 16,
                 "line_bytes": 64, "accesses": 200000, "warmup_fraction": 0.2,
                 "profile": false}"#,
        )
        .expect("valid");
        assert_eq!(implicit.cache_key(), explicit.cache_key());
    }

    #[test]
    fn rejections_name_the_problem() {
        let cases: &[(&str, &str)] = &[
            (r#"{"benchmark": "omnetpp"}"#, "scheme"),
            (r#"{"scheme": "lru"}"#, "benchmark"),
            (
                r#"{"benchmark": "nope", "scheme": "lru"}"#,
                "unknown benchmark",
            ),
            (r#"{"benchmark": "mcf", "scheme": "mru"}"#, "unknown scheme"),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "turbo": true}"#,
                "unknown field",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "sets": 1000}"#,
                "power of two",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "sets": 268435456}"#,
                "at most 262144 lines",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 65}"#,
                "at most 64",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "accesses": 0}"#,
                "accesses",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "warmup_fraction": 1.5}"#,
                "warmup_fraction",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": 0}"#,
                "deadline_ms",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": -5}"#,
                "deadline_ms",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": 999999999999}"#,
                "deadline_ms",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "fuzzy"}"#,
                "fidelity",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "sample_rate": 8}"#,
                "require \"fidelity\": \"sampled\"",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "sample_seed": 3}"#,
                "require \"fidelity\": \"sampled\"",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled", "sample_rate": 0}"#,
                "sample_rate",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled", "profile": true}"#,
                "profile",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "stem", "fidelity": "sampled"}"#,
                "eligible schemes",
            ),
            (
                r#"{"benchmark": "mcf", "scheme": "vway", "fidelity": "sampled"}"#,
                "cross-set state",
            ),
            (r#"[1, 2]"#, "object"),
        ];
        for (body, needle) in cases {
            let err = RunRequest::parse(body.as_bytes()).expect_err(body);
            let msg = err.to_string();
            assert!(msg.contains(needle), "{body} → {msg} (wanted {needle:?})");
        }
    }

    #[test]
    fn only_sampled_requests_leave_the_hierarchy_line_size() {
        // Exact and mix requests drive the full hierarchy, whose 64-byte
        // L1 cannot replay a stream of another line size: rejected at
        // parse time instead of failing inside the simulation.
        for body in [
            r#"{"benchmark": "gromacs", "scheme": "lru", "line_bytes": 128}"#,
            r#"{"benchmark": "gromacs", "scheme": "lru", "line_bytes": 32}"#,
            r#"{"mix": [{"benchmark": "mcf"}, {"benchmark": "art"}], "scheme": "lru",
                "line_bytes": 128}"#,
        ] {
            let msg = RunRequest::parse(body.as_bytes())
                .expect_err(body)
                .to_string();
            assert!(
                msg.contains("\"line_bytes\" must be 64 for exact and mix requests"),
                "{body} → {msg}"
            );
        }
        // The sampled tier replays a bare LLC at any line size.
        let sampled = RunRequest::parse(
            br#"{"benchmark": "gromacs", "scheme": "lru", "fidelity": "sampled",
                 "line_bytes": 128}"#,
        )
        .expect("sampled requests keep any power-of-two line size");
        assert_eq!(sampled.line_bytes, 128);
    }

    #[test]
    fn deadline_is_validated_but_never_part_of_the_identity() {
        let patient = RunRequest::parse(minimal().as_bytes()).expect("valid");
        let hurried =
            RunRequest::parse(br#"{"benchmark": "omnetpp", "scheme": "stem", "deadline_ms": 250}"#)
                .expect("valid");
        assert_eq!(hurried.deadline_ms, Some(250));
        assert_eq!(patient.deadline_ms, None);
        assert_eq!(
            patient.canonical().to_string(),
            hurried.canonical().to_string(),
            "deadline must not leak into the canonical echo"
        );
        assert_eq!(
            patient.cache_key(),
            hurried.cache_key(),
            "deadline must not split cache entries"
        );
        assert!(!patient.canonical().to_string().contains("deadline"));
    }

    #[test]
    fn warm_prefix_identity_follows_the_warm_state_not_the_measurement() {
        // Fields that only change what is measured/reported after the
        // warm boundary — profile, fidelity+sampling knobs, deadline —
        // share one warm prefix; every field the warm state depends on
        // splits it.
        let base = RunRequest::parse(br#"{"benchmark": "mcf", "scheme": "lru"}"#).expect("valid");
        let shares: &[&[u8]] = &[
            br#"{"benchmark": "mcf", "scheme": "lru", "profile": true}"#,
            br#"{"benchmark": "mcf", "scheme": "lru", "fidelity": "sampled"}"#,
            br#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": 250}"#,
        ];
        for body in shares {
            let req = RunRequest::parse(body).expect("valid");
            assert_eq!(base.snapshot_key(), req.snapshot_key(), "{body:?}");
            assert_eq!(
                base.warm_prefix_canonical().to_string(),
                req.warm_prefix_canonical().to_string()
            );
        }
        let splits: &[&[u8]] = &[
            br#"{"benchmark": "omnetpp", "scheme": "lru"}"#,
            br#"{"benchmark": "mcf", "scheme": "dip"}"#,
            br#"{"benchmark": "mcf", "scheme": "lru", "sets": 1024}"#,
            br#"{"benchmark": "mcf", "scheme": "lru", "ways": 8}"#,
            br#"{"benchmark": "mcf", "scheme": "lru", "accesses": 1000}"#,
            br#"{"benchmark": "mcf", "scheme": "lru", "warmup_fraction": 0.1}"#,
        ];
        for body in splits {
            let req = RunRequest::parse(body).expect("valid");
            assert_ne!(
                base.warm_prefix_canonical().to_string(),
                req.warm_prefix_canonical().to_string(),
                "{body:?} must not share the warm prefix"
            );
        }
    }

    #[test]
    fn fractional_fields_run_with_their_canonical_value() {
        // Both warm-ups serialize as 0.209999, so they share one result
        // key and one snapshot key; raw, they would warm 209999 and
        // 209998 accesses of a 1M trace. Parsing must store the value the
        // keys name, so key-sharing requests run one experiment.
        let solo = |w: &str| {
            RunRequest::parse(
                format!(
                    r#"{{"benchmark": "mcf", "scheme": "lru", "accesses": 1000000,
                         "warmup_fraction": {w}}}"#
                )
                .as_bytes(),
            )
            .expect("valid")
        };
        let (a, b) = (solo("0.2099994"), solo("0.2099986"));
        assert_ne!(
            stem_analysis::warm_split(1_000_000, 0.2099994),
            stem_analysis::warm_split(1_000_000, 0.2099986),
            "the raw fractions split differently"
        );
        assert_eq!(a.warmup_fraction.to_bits(), b.warmup_fraction.to_bits());
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.snapshot_key(), b.snapshot_key());

        // Mix weights are rounded the same way; one that rounds to zero
        // is rejected rather than run as a zero weight.
        let mix = |w: &str| {
            RunRequest::parse(
                format!(
                    r#"{{"mix": [{{"benchmark": "mcf", "weight": {w}}}, {{"benchmark": "ammp"}}],
                         "scheme": "lru"}}"#
                )
                .as_bytes(),
            )
        };
        let weight = |w: &str| mix(w).expect("valid").mix.expect("mix")[0].weight;
        assert_eq!(weight("1.4999996").to_bits(), weight("1.5000004").to_bits());
        assert_eq!(weight("1.4999996"), 1.5);
        assert!(mix("0.0000004").is_err());
    }

    #[test]
    fn warm_prefix_serialization_never_aliases_a_result_canonical() {
        // The two key spaces are hashed from serializations that can
        // never be byte-equal (the warm-prefix marker field sees to it),
        // so a snapshot entry can never masquerade as a result entry even
        // if the two caches were ever merged.
        let req = RunRequest::parse(br#"{"benchmark": "mcf", "scheme": "lru"}"#).expect("valid");
        assert_ne!(
            req.canonical().to_string(),
            req.warm_prefix_canonical().to_string()
        );
        assert!(req
            .warm_prefix_canonical()
            .to_string()
            .contains("warm_prefix"));
        assert!(!req.canonical().to_string().contains("warm_prefix"));
    }

    #[test]
    fn mix_requests_parse_with_defaults_and_fold_into_the_cache_key() {
        let req = RunRequest::parse(
            br#"{"mix": [{"benchmark": "omnetpp"}, {"benchmark": "gromacs"}], "scheme": "stem"}"#,
        )
        .expect("valid mix");
        assert!(req.benchmark.is_empty());
        let mix = req.mix.as_ref().expect("mix present");
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].source, MixSource::Benchmark("omnetpp".into()));
        assert!((mix[0].weight - 1.0).abs() < 1e-12, "default weight");
        assert_eq!(req.mix_seed, 0);

        // Canonical: mix identity present, explicit weights, no
        // benchmark field; defaults (omitted weight/seed) share the key
        // with their explicit twins.
        let canon = req.canonical().to_string();
        assert!(canon.contains("\"mix\"") && canon.contains("\"mix_seed\""));
        assert!(canon.contains("\"weight\""));
        assert!(!canon.contains("\"benchmark\": \"\""));
        let explicit = RunRequest::parse(
            br#"{"mix": [{"benchmark": "omnetpp", "weight": 1.0},
                          {"benchmark": "gromacs", "weight": 1.0}],
                 "mix_seed": 0, "scheme": "stem"}"#,
        )
        .expect("valid mix");
        assert_eq!(req.cache_key(), explicit.cache_key());

        // Every mix knob splits the key: components, weights, seed — and
        // a mix can never alias a solo request.
        let solo =
            RunRequest::parse(br#"{"benchmark": "omnetpp", "scheme": "stem"}"#).expect("valid");
        let reordered = RunRequest::parse(
            br#"{"mix": [{"benchmark": "gromacs"}, {"benchmark": "omnetpp"}], "scheme": "stem"}"#,
        )
        .expect("valid mix");
        let reweighted = RunRequest::parse(
            br#"{"mix": [{"benchmark": "omnetpp", "weight": 2.0}, {"benchmark": "gromacs"}],
                 "scheme": "stem"}"#,
        )
        .expect("valid mix");
        let reseeded = RunRequest::parse(
            br#"{"mix": [{"benchmark": "omnetpp"}, {"benchmark": "gromacs"}],
                 "mix_seed": 7, "scheme": "stem"}"#,
        )
        .expect("valid mix");
        let traced = RunRequest::parse(
            br#"{"mix": [{"benchmark": "omnetpp"}, {"trace": "gromacs"}], "scheme": "stem"}"#,
        )
        .expect("valid mix");
        let keys = [
            req.cache_key(),
            solo.cache_key(),
            reordered.cache_key(),
            reweighted.cache_key(),
            reseeded.cache_key(),
            traced.cache_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "mix variants must not share cache keys");
            }
        }
        // And the warm-prefix space cannot alias across mixes either.
        assert_ne!(req.snapshot_key(), reordered.snapshot_key());
        assert_ne!(req.snapshot_key(), solo.snapshot_key());
    }

    #[test]
    fn mix_rejections_name_the_problem() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"benchmark": "mcf", "mix": [{"benchmark": "mcf"}], "scheme": "lru"}"#,
                "mutually exclusive",
            ),
            (r#"{"mix": [], "scheme": "lru"}"#, "1..=8"),
            (
                r#"{"mix": [{"benchmark": "mcf"}, {"benchmark": "mcf"}, {"benchmark": "mcf"},
                           {"benchmark": "mcf"}, {"benchmark": "mcf"}, {"benchmark": "mcf"},
                           {"benchmark": "mcf"}, {"benchmark": "mcf"}, {"benchmark": "mcf"}],
                  "scheme": "lru"}"#,
                "1..=8",
            ),
            (r#"{"mix": "mcf", "scheme": "lru"}"#, "array"),
            (
                r#"{"mix": [42], "scheme": "lru"}"#,
                "mix[0] must be an object",
            ),
            (
                r#"{"mix": [{"benchmark": "mcf", "trace": "t.stemtrc"}], "scheme": "lru"}"#,
                "exactly one",
            ),
            (
                r#"{"mix": [{"weight": 1.0}], "scheme": "lru"}"#,
                "exactly one",
            ),
            (
                r#"{"mix": [{"benchmark": "nope"}], "scheme": "lru"}"#,
                "unknown benchmark",
            ),
            (
                r#"{"mix": [{"benchmark": "mcf", "turbo": 1}], "scheme": "lru"}"#,
                "unknown field",
            ),
            (
                r#"{"mix": [{"benchmark": "mcf", "weight": 0}], "scheme": "lru"}"#,
                "positive",
            ),
            (
                r#"{"mix": [{"benchmark": "mcf", "weight": -1}], "scheme": "lru"}"#,
                "positive",
            ),
            (
                r#"{"mix": [{"trace": "../etc/passwd"}], "scheme": "lru"}"#,
                "plain file name",
            ),
            (
                r#"{"mix": [{"trace": ".hidden"}], "scheme": "lru"}"#,
                "plain file name",
            ),
            (
                r#"{"mix": [{"trace": "a/b.stemtrc"}], "scheme": "lru"}"#,
                "plain file name",
            ),
            (
                r#"{"mix": [{"trace": ""}], "scheme": "lru"}"#,
                "plain file name",
            ),
            (
                r#"{"benchmark": "mcf", "mix_seed": 3, "scheme": "lru"}"#,
                "requires \"mix\"",
            ),
            (
                r#"{"mix": [{"benchmark": "mcf"}], "scheme": "lru", "profile": true}"#,
                "single-benchmark",
            ),
            (
                r#"{"mix": [{"benchmark": "mcf"}], "scheme": "lru", "fidelity": "sampled"}"#,
                "single-benchmark",
            ),
        ];
        for (body, needle) in cases {
            let err = RunRequest::parse(body.as_bytes()).expect_err(body);
            let msg = err.to_string();
            assert!(msg.contains(needle), "{body} → {msg} (wanted {needle:?})");
        }
        // A 65-char trace name trips the length bound.
        let long = format!(
            r#"{{"mix": [{{"trace": "{}"}}], "scheme": "lru"}}"#,
            "a".repeat(MAX_TRACE_NAME_LEN + 1)
        );
        let err = RunRequest::parse(long.as_bytes()).expect_err("too long");
        assert!(err.to_string().contains("plain file name"), "{err}");
    }

    #[test]
    fn invalid_json_maps_to_the_json_error_family() {
        let err = RunRequest::parse(b"{oops").expect_err("bad json");
        assert!(matches!(err, SimError::Json(_)), "{err}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
