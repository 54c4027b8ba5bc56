//! One validated parse point for every `STEM_*` environment knob.
//!
//! Before this module, each driver re-implemented
//! `std::env::var("STEM_…").ok().and_then(|v| v.parse().ok())` inline —
//! which silently swallowed typos: `STEM_THREADS=eight` fell back to all
//! cores without a word, and `STEM_ACCESSES=2,000,000` quietly ran the
//! default trace length. [`Config::from_env`] reads every knob once,
//! validates it, and returns a [`ConfigError`] naming the variable, the
//! offending value, and what was expected.
//!
//! Knobs are stored as `Option`s ("set and valid" vs "unset") because
//! defaults legitimately differ per driver (`STEM_ACCESSES` defaults to
//! 2M in the matrix harness but 400k in `classify_suite`); canonical
//! defaults shared across drivers get accessor methods here.
//!
//! A set-but-empty variable counts as unset, so `STEM_CSV_DIR= cargo run …`
//! behaves like not exporting it at all.
//!
//! # Examples
//!
//! ```
//! use stem_bench::config::Config;
//!
//! let cfg = Config::from_env().expect("no malformed STEM_* variables");
//! assert!(cfg.threads() >= 1);
//! ```

use std::fmt;
use std::path::PathBuf;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "STEM_THREADS";
/// Directory receiving CSV/JSON artifacts, when set.
pub const CSV_DIR_ENV: &str = "STEM_CSV_DIR";
/// Trace length per benchmark for the matrix drivers.
pub const ACCESSES_ENV: &str = "STEM_ACCESSES";
/// Trace length per associativity-sweep point.
pub const SWEEP_ACCESSES_ENV: &str = "STEM_SWEEP_ACCESSES";
/// Fig. 1 sampling-period count.
pub const PERIODS_ENV: &str = "STEM_PERIODS";
/// Accesses per audited checked-mode replay.
pub const CHECKED_ACCESSES_ENV: &str = "STEM_CHECKED_ACCESSES";
/// Accesses per timed throughput-bench iteration.
pub const BENCH_ACCESSES_ENV: &str = "STEM_BENCH_ACCESSES";
/// Accesses per adversarial fault-injection replay.
pub const FAULT_ACCESSES_ENV: &str = "STEM_FAULT_ACCESSES";
/// Name of an experiment cell that should deliberately panic.
pub const INJECT_PANIC_ENV: &str = "STEM_INJECT_PANIC";
/// Listen address for the `serve` binary.
pub const SERVE_ADDR_ENV: &str = "STEM_SERVE_ADDR";
/// File the `serve` binary writes its bound address to (for scripts that
/// bind port 0).
pub const SERVE_ADDR_FILE_ENV: &str = "STEM_SERVE_ADDR_FILE";

/// The simulation-fidelity tier of a serve request's `fidelity` field.
///
/// `Exact` replays every access of every set (the default — sampling is
/// strictly opt-in); `Sampled` replays only a strided
/// subset of the set space ([`SampledTrace`](stem_sim_core::SampledTrace))
/// and scales the measured counts back up, trading a measured MPKI error
/// for an algorithmic reduction in work. Only schemes whose caches report
/// [`supports_set_sampling`](stem_sim_core::CacheModel::supports_set_sampling)
/// honour the sampled tier — the rest run exact regardless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Replay everything; the answer is the answer.
    #[default]
    Exact,
    /// Replay a strided set sample and extrapolate, with measured error.
    Sampled,
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fidelity::Exact => "exact",
            Fidelity::Sampled => "sampled",
        })
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Ok(Fidelity::Exact),
            "sampled" => Ok(Fidelity::Sampled),
            other => Err(format!("unknown fidelity: {other}")),
        }
    }
}

/// A `STEM_*` variable was set to something unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable.
    pub var: &'static str,
    /// Its observed value.
    pub value: String,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is malformed: expected {} (unset the variable for the default)",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// Every `STEM_*` knob, parsed and validated once.
///
/// Fields are `None` when the variable is unset (or set to the empty
/// string). Malformed values never reach a field — [`Config::from_env`]
/// rejects them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// `STEM_THREADS`: worker count for every parallel fan-out.
    pub threads: Option<usize>,
    /// `STEM_CSV_DIR`: artifact directory for CSVs and `BENCH_*.json`.
    pub csv_dir: Option<PathBuf>,
    /// `STEM_ACCESSES`: trace length per benchmark.
    pub accesses: Option<usize>,
    /// `STEM_SWEEP_ACCESSES`: trace length per sweep point.
    pub sweep_accesses: Option<usize>,
    /// `STEM_PERIODS`: Fig. 1 sampling periods.
    pub periods: Option<usize>,
    /// `STEM_CHECKED_ACCESSES`: accesses per audited replay.
    pub checked_accesses: Option<usize>,
    /// `STEM_BENCH_ACCESSES`: accesses per timed bench iteration.
    pub bench_accesses: Option<usize>,
    /// `STEM_FAULT_ACCESSES`: accesses per fault-injection replay.
    pub fault_accesses: Option<usize>,
    /// `STEM_INJECT_PANIC`: experiment cell to crash deliberately.
    pub inject_panic: Option<String>,
    /// `STEM_SERVE_ADDR`: listen address for the `serve` binary.
    pub serve_addr: Option<String>,
    /// `STEM_SERVE_ADDR_FILE`: where `serve` writes its bound address.
    pub serve_addr_file: Option<PathBuf>,
}

impl Config {
    /// Reads and validates every `STEM_*` knob from the process
    /// environment. The first malformed variable aborts the parse with a
    /// [`ConfigError`] naming it.
    pub fn from_env() -> Result<Config, ConfigError> {
        Config::from_lookup(|var| std::env::var(var).ok())
    }

    /// The parse core, over any variable source. Tests feed it maps; the
    /// process environment is just the production lookup.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        let src = Source { get: &get };
        Ok(Config {
            threads: src.positive(THREADS_ENV)?,
            csv_dir: src.raw(CSV_DIR_ENV).map(PathBuf::from),
            accesses: src.positive(ACCESSES_ENV)?,
            sweep_accesses: src.positive(SWEEP_ACCESSES_ENV)?,
            periods: src.positive(PERIODS_ENV)?,
            checked_accesses: src.positive(CHECKED_ACCESSES_ENV)?,
            bench_accesses: src.positive(BENCH_ACCESSES_ENV)?,
            fault_accesses: src.positive(FAULT_ACCESSES_ENV)?,
            inject_panic: src.raw(INJECT_PANIC_ENV),
            serve_addr: src.raw(SERVE_ADDR_ENV),
            serve_addr_file: src.raw(SERVE_ADDR_FILE_ENV).map(PathBuf::from),
        })
    }

    /// Like [`from_env`](Config::from_env), panicking with the
    /// [`ConfigError`] message on a malformed variable. For library code
    /// paths with no `Result` channel of their own; binaries should call
    /// `from_env` and exit with a clean message instead.
    pub fn from_env_or_panic() -> Config {
        Config::from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The process-wide validated `Config`, parsed from the environment
    /// exactly once (first call wins; panics there on a malformed
    /// variable, like [`from_env_or_panic`](Config::from_env_or_panic)).
    ///
    /// Hot paths — the pool's worker-count lookup, serve's request path —
    /// read this instead of re-walking the environment per call. Nothing
    /// in the workspace mutates `STEM_*` variables after startup
    /// (determinism tests that vary them spawn subprocesses), so the
    /// snapshot never goes stale.
    pub fn cached() -> &'static Config {
        static CACHED: std::sync::OnceLock<Config> = std::sync::OnceLock::new();
        CACHED.get_or_init(Config::from_env_or_panic)
    }

    /// Worker count: `STEM_THREADS`, defaulting to
    /// [`std::thread::available_parallelism`] (1 if even that is
    /// unavailable).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(crate::pool::available_cores)
    }

    /// Per-benchmark trace length, defaulting to the matrix drivers' 2M.
    pub fn accesses(&self) -> usize {
        self.accesses.unwrap_or(2_000_000)
    }

    /// Sweep-point trace length, defaulting to a quarter of
    /// [`accesses`](Config::accesses).
    pub fn sweep_accesses(&self) -> usize {
        self.sweep_accesses.unwrap_or(self.accesses() / 4)
    }

    /// `serve` listen address, defaulting to an ephemeral localhost port.
    pub fn serve_addr(&self) -> String {
        self.serve_addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_owned())
    }
}

/// A variable source plus the shared unset/parse/validate plumbing.
struct Source<'a> {
    get: &'a dyn Fn(&str) -> Option<String>,
}

impl Source<'_> {
    /// The raw value of `var`, with "unset" and "set to the empty string"
    /// both mapped to `None`.
    fn raw(&self, var: &str) -> Option<String> {
        (self.get)(var).filter(|v| !v.is_empty())
    }

    /// Parses an integer knob that must be strictly positive, erroring
    /// (not defaulting) on malformed values. Zero workers or a zero-length
    /// trace is always a configuration mistake.
    fn positive(&self, var: &'static str) -> Result<Option<usize>, ConfigError> {
        match self.raw(var) {
            None => Ok(None),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(ConfigError {
                    var,
                    value: v,
                    expected: "a positive integer",
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg_of(pairs: &[(&str, &str)]) -> Result<Config, ConfigError> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Config::from_lookup(|var| map.get(var).cloned())
    }

    #[test]
    fn unset_environment_yields_defaults() {
        let cfg = cfg_of(&[]).expect("empty environment parses");
        assert_eq!(cfg, Config::default());
        assert!(cfg.threads() >= 1);
        assert_eq!(cfg.accesses(), 2_000_000);
        assert_eq!(cfg.sweep_accesses(), 500_000);
    }

    #[test]
    fn valid_values_land_in_fields() {
        let cfg = cfg_of(&[
            (THREADS_ENV, "3"),
            (ACCESSES_ENV, "1000"),
            (CSV_DIR_ENV, "/tmp/artifacts"),
            (INJECT_PANIC_ENV, "matrix/omnetpp/STEM"),
        ])
        .expect("valid values parse");
        assert_eq!(cfg.threads(), 3);
        assert_eq!(cfg.accesses(), 1000);
        assert_eq!(cfg.sweep_accesses(), 250);
        assert_eq!(
            cfg.csv_dir.as_deref(),
            Some(std::path::Path::new("/tmp/artifacts"))
        );
        assert_eq!(cfg.inject_panic.as_deref(), Some("matrix/omnetpp/STEM"));
    }

    #[test]
    fn empty_string_counts_as_unset() {
        let cfg = cfg_of(&[(CSV_DIR_ENV, ""), (THREADS_ENV, "")]).unwrap();
        assert_eq!(cfg.csv_dir, None);
        assert_eq!(cfg.threads, None);
    }

    #[test]
    fn malformed_values_error_with_the_variable_name() {
        let err = cfg_of(&[(THREADS_ENV, "eight")]).expect_err("malformed thread count");
        assert_eq!(err.var, THREADS_ENV);
        let msg = err.to_string();
        assert!(msg.contains("STEM_THREADS"));
        assert!(msg.contains("eight"));
        assert!(msg.contains("positive integer"));
    }

    #[test]
    fn zero_is_rejected_where_positive_is_required() {
        assert!(cfg_of(&[(THREADS_ENV, "0")]).is_err());
        assert!(cfg_of(&[(ACCESSES_ENV, "0")]).is_err());
        assert!(cfg_of(&[(CHECKED_ACCESSES_ENV, "0")]).is_err());
    }

    #[test]
    fn serve_knobs_parse_and_default_sensibly() {
        let cfg = cfg_of(&[]).unwrap();
        assert_eq!(cfg.serve_addr(), "127.0.0.1:0");

        let cfg = cfg_of(&[
            (SERVE_ADDR_ENV, "0.0.0.0:8377"),
            (SERVE_ADDR_FILE_ENV, "/tmp/serve.addr"),
        ])
        .unwrap();
        assert_eq!(cfg.serve_addr(), "0.0.0.0:8377");
        assert_eq!(
            cfg.serve_addr_file.as_deref(),
            Some(std::path::Path::new("/tmp/serve.addr"))
        );
    }

    #[test]
    fn fidelity_displays_its_wire_names() {
        assert_eq!(Fidelity::Exact.to_string(), "exact");
        assert_eq!(Fidelity::Sampled.to_string(), "sampled");
        assert_eq!("sampled".parse::<Fidelity>().unwrap(), Fidelity::Sampled);
        assert_eq!("EXACT".parse::<Fidelity>().unwrap(), Fidelity::Exact);
        assert_eq!(Fidelity::default(), Fidelity::Exact, "sampling is opt-in");
        assert!("fuzzy".parse::<Fidelity>().is_err());
    }

    #[test]
    fn cached_config_is_one_stable_snapshot() {
        let a = Config::cached();
        let b = Config::cached();
        assert!(std::ptr::eq(a, b), "cached() must not re-parse");
        assert_eq!(*a, Config::from_env().unwrap());
    }

    #[test]
    fn from_env_reads_the_process_environment() {
        // Read-only against the live environment: just proves the lookup
        // plumbing composes (no mutation, so no cross-test races).
        let cfg = Config::from_env().expect("test environment has no malformed STEM_* vars");
        assert!(cfg.threads() >= 1);
    }
}
