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
use std::time::Duration;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "STEM_THREADS";
/// Seed for the sampled-set selection offset (0 allowed).
pub const SAMPLE_SEED_ENV: &str = "STEM_SAMPLE_SEED";
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
/// Per-experiment wall-clock budget in seconds (0 = everything times out;
/// the resilience negative tests use that).
pub const BUDGET_ENV: &str = "STEM_EXPERIMENT_BUDGET_SECS";
/// Name of an experiment cell that should deliberately panic.
pub const INJECT_PANIC_ENV: &str = "STEM_INJECT_PANIC";
/// Listen address for the `serve` binary.
pub const SERVE_ADDR_ENV: &str = "STEM_SERVE_ADDR";
/// File the `serve` binary writes its bound address to (for scripts that
/// bind port 0).
pub const SERVE_ADDR_FILE_ENV: &str = "STEM_SERVE_ADDR_FILE";
/// Bounded job-queue capacity for the `serve` binary.
pub const SERVE_QUEUE_ENV: &str = "STEM_SERVE_QUEUE";
/// Result-cache capacity for the `serve` binary.
pub const SERVE_CACHE_ENV: &str = "STEM_SERVE_CACHE";
/// Per-experiment budget in seconds for the `serve` binary.
pub const SERVE_BUDGET_ENV: &str = "STEM_SERVE_BUDGET_SECS";
/// Retries `serve_client` makes after 429/503/connect failure.
pub const SERVE_RETRIES_ENV: &str = "STEM_SERVE_RETRIES";
/// Base backoff delay in milliseconds for `serve_client` retries.
pub const SERVE_BACKOFF_ENV: &str = "STEM_SERVE_BACKOFF_MS";
/// Chaos-injection seed for the `serve` binary (set = wrap the transport
/// in the fault injector; 0 is a valid seed).
pub const SERVE_CHAOS_SEED_ENV: &str = "STEM_SERVE_CHAOS_SEED";
/// Per-connection I/O deadline in milliseconds for the `serve` binary.
pub const SERVE_IO_DEADLINE_ENV: &str = "STEM_SERVE_IO_DEADLINE_MS";
/// Snapshot-cache capacity for the `serve` binary (0 = disabled).
pub const SERVE_SNAPSHOT_SLOTS_ENV: &str = "STEM_SERVE_SNAPSHOT_SLOTS";

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
    /// `STEM_SAMPLE_SEED`: sampled-set selection seed.
    pub sample_seed: Option<u64>,
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
    /// `STEM_EXPERIMENT_BUDGET_SECS`: per-experiment wall-clock budget.
    pub experiment_budget_secs: Option<u64>,
    /// `STEM_INJECT_PANIC`: experiment cell to crash deliberately.
    pub inject_panic: Option<String>,
    /// `STEM_SERVE_ADDR`: listen address for the `serve` binary.
    pub serve_addr: Option<String>,
    /// `STEM_SERVE_ADDR_FILE`: where `serve` writes its bound address.
    pub serve_addr_file: Option<PathBuf>,
    /// `STEM_SERVE_QUEUE`: bounded job-queue capacity.
    pub serve_queue: Option<usize>,
    /// `STEM_SERVE_CACHE`: result-cache capacity.
    pub serve_cache: Option<usize>,
    /// `STEM_SERVE_BUDGET_SECS`: per-experiment budget for `serve`.
    pub serve_budget_secs: Option<u64>,
    /// `STEM_SERVE_RETRIES`: client retries after 429/503/connect failure.
    pub serve_retries: Option<u32>,
    /// `STEM_SERVE_BACKOFF_MS`: client base backoff delay.
    pub serve_backoff_ms: Option<u64>,
    /// `STEM_SERVE_CHAOS_SEED`: fault-injection seed (set = chaos on).
    pub serve_chaos_seed: Option<u64>,
    /// `STEM_SERVE_IO_DEADLINE_MS`: per-connection I/O deadline.
    pub serve_io_deadline_ms: Option<u64>,
    /// `STEM_SERVE_SNAPSHOT_SLOTS`: serve snapshot-cache capacity.
    pub serve_snapshot_slots: Option<usize>,
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
            sample_seed: src.parsed(SAMPLE_SEED_ENV, "a u64 seed (0 allowed)")?,
            csv_dir: src.raw(CSV_DIR_ENV).map(PathBuf::from),
            accesses: src.positive(ACCESSES_ENV)?,
            sweep_accesses: src.positive(SWEEP_ACCESSES_ENV)?,
            periods: src.positive(PERIODS_ENV)?,
            checked_accesses: src.positive(CHECKED_ACCESSES_ENV)?,
            bench_accesses: src.positive(BENCH_ACCESSES_ENV)?,
            fault_accesses: src.positive(FAULT_ACCESSES_ENV)?,
            experiment_budget_secs: src.parsed(BUDGET_ENV, "a non-negative integer (seconds)")?,
            inject_panic: src.raw(INJECT_PANIC_ENV),
            serve_addr: src.raw(SERVE_ADDR_ENV),
            serve_addr_file: src.raw(SERVE_ADDR_FILE_ENV).map(PathBuf::from),
            serve_queue: src.positive(SERVE_QUEUE_ENV)?,
            serve_cache: src.positive(SERVE_CACHE_ENV)?,
            serve_budget_secs: src.positive(SERVE_BUDGET_ENV)?,
            serve_retries: src.parsed(SERVE_RETRIES_ENV, "a non-negative integer")?,
            serve_backoff_ms: src.positive(SERVE_BACKOFF_ENV)?,
            serve_chaos_seed: src.parsed(SERVE_CHAOS_SEED_ENV, "a u64 seed (0 allowed)")?,
            serve_io_deadline_ms: src.positive(SERVE_IO_DEADLINE_ENV)?,
            serve_snapshot_slots: src.parsed(
                SERVE_SNAPSHOT_SLOTS_ENV,
                "a non-negative integer (0 disables the snapshot cache)",
            )?,
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
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Sampled-set selection seed: `STEM_SAMPLE_SEED`, defaulting to 0.
    pub fn sample_seed(&self) -> u64 {
        self.sample_seed.unwrap_or(0)
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

    /// Per-experiment wall-clock budget, defaulting to four hours.
    pub fn experiment_budget(&self) -> Duration {
        Duration::from_secs(self.experiment_budget_secs.unwrap_or(4 * 60 * 60))
    }

    /// `serve` listen address, defaulting to an ephemeral localhost port.
    pub fn serve_addr(&self) -> String {
        self.serve_addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_owned())
    }

    /// `serve` job-queue capacity, defaulting to 8 slots.
    pub fn serve_queue(&self) -> usize {
        self.serve_queue.unwrap_or(8)
    }

    /// `serve` result-cache capacity, defaulting to 64 entries (the
    /// cache's recency stack bounds valid values at 255; the binary
    /// enforces that).
    pub fn serve_cache(&self) -> usize {
        self.serve_cache.unwrap_or(64)
    }

    /// `serve` per-experiment budget, defaulting to ten minutes.
    pub fn serve_budget(&self) -> Duration {
        Duration::from_secs(self.serve_budget_secs.unwrap_or(600))
    }

    /// `serve_client` retry count after 429/503/connect failure,
    /// defaulting to 4.
    pub fn serve_retries(&self) -> u32 {
        self.serve_retries.unwrap_or(4)
    }

    /// `serve_client` base backoff delay, defaulting to 50ms.
    pub fn serve_backoff_ms(&self) -> u64 {
        self.serve_backoff_ms.unwrap_or(50)
    }

    /// `serve` per-connection I/O deadline, defaulting to ten seconds.
    pub fn serve_io_deadline(&self) -> Duration {
        Duration::from_millis(self.serve_io_deadline_ms.unwrap_or(10_000))
    }

    /// `serve` snapshot-cache capacity, defaulting to 8 warm states
    /// (0 disables the cache; values above the recency stack's 255 are
    /// rejected by the binary, like the result cache's).
    pub fn serve_snapshot_slots(&self) -> usize {
        self.serve_snapshot_slots.unwrap_or(8)
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

    /// Parses `var` with `FromStr`, erroring (not defaulting) on
    /// malformed values.
    fn parsed<T: std::str::FromStr>(
        &self,
        var: &'static str,
        expected: &'static str,
    ) -> Result<Option<T>, ConfigError> {
        match self.raw(var) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| ConfigError {
                var,
                value: v,
                expected,
            }),
        }
    }

    /// Parses an integer knob that must be strictly positive (zero
    /// workers or a zero-length trace is always a configuration mistake).
    fn positive<T>(&self, var: &'static str) -> Result<Option<T>, ConfigError>
    where
        T: std::str::FromStr + PartialOrd + From<u8>,
    {
        let expected = "a positive integer";
        match self.parsed::<T>(var, expected)? {
            Some(v) if v > T::from(0u8) => Ok(Some(v)),
            Some(_) => Err(ConfigError {
                var,
                value: self.raw(var).unwrap_or_default(),
                expected,
            }),
            None => Ok(None),
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
        assert_eq!(cfg.experiment_budget(), Duration::from_secs(4 * 60 * 60));
    }

    #[test]
    fn valid_values_land_in_fields() {
        let cfg = cfg_of(&[
            (THREADS_ENV, "3"),
            (ACCESSES_ENV, "1000"),
            (BUDGET_ENV, "0"),
            (CSV_DIR_ENV, "/tmp/artifacts"),
            (INJECT_PANIC_ENV, "matrix/omnetpp/STEM"),
        ])
        .expect("valid values parse");
        assert_eq!(cfg.threads(), 3);
        assert_eq!(cfg.accesses(), 1000);
        assert_eq!(cfg.sweep_accesses(), 250);
        assert_eq!(cfg.experiment_budget(), Duration::ZERO);
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
    fn budget_allows_zero_but_not_negatives_or_fractions() {
        assert_eq!(
            cfg_of(&[(BUDGET_ENV, "0")]).unwrap().experiment_budget_secs,
            Some(0)
        );
        assert!(cfg_of(&[(BUDGET_ENV, "-4")]).is_err());
        assert!(cfg_of(&[(BUDGET_ENV, "1.5")]).is_err());
    }

    #[test]
    fn serve_knobs_parse_and_default_sensibly() {
        let cfg = cfg_of(&[]).unwrap();
        assert_eq!(cfg.serve_addr(), "127.0.0.1:0");
        assert_eq!(cfg.serve_queue(), 8);
        assert_eq!(cfg.serve_cache(), 64);
        assert_eq!(cfg.serve_budget(), Duration::from_secs(600));
        assert_eq!(cfg.serve_retries(), 4);
        assert_eq!(cfg.serve_backoff_ms(), 50);
        assert_eq!(cfg.serve_io_deadline(), Duration::from_secs(10));
        assert_eq!(cfg.serve_chaos_seed, None, "chaos is off unless seeded");

        let cfg = cfg_of(&[
            (SERVE_ADDR_ENV, "0.0.0.0:8377"),
            (SERVE_QUEUE_ENV, "2"),
            (SERVE_RETRIES_ENV, "0"),
            (SERVE_BACKOFF_ENV, "10"),
            (SERVE_CHAOS_SEED_ENV, "0"),
            (SERVE_IO_DEADLINE_ENV, "250"),
        ])
        .unwrap();
        assert_eq!(cfg.serve_addr(), "0.0.0.0:8377");
        assert_eq!(cfg.serve_queue(), 2);
        assert_eq!(cfg.serve_retries(), 0, "zero retries is a valid choice");
        assert_eq!(cfg.serve_backoff_ms(), 10);
        assert_eq!(cfg.serve_chaos_seed, Some(0), "seed 0 still enables chaos");
        assert_eq!(cfg.serve_io_deadline(), Duration::from_millis(250));
    }

    #[test]
    fn serve_knobs_reject_nonsense() {
        assert!(cfg_of(&[(SERVE_QUEUE_ENV, "0")]).is_err());
        assert!(cfg_of(&[(SERVE_BACKOFF_ENV, "0")]).is_err());
        assert!(cfg_of(&[(SERVE_IO_DEADLINE_ENV, "-1")]).is_err());
        assert!(cfg_of(&[(SERVE_RETRIES_ENV, "-1")]).is_err());
        assert!(cfg_of(&[(SERVE_CHAOS_SEED_ENV, "not-a-seed")]).is_err());
    }

    #[test]
    fn sample_seed_defaults_to_zero_and_validates() {
        assert_eq!(cfg_of(&[]).unwrap().sample_seed(), 0);
        assert_eq!(cfg_of(&[(SAMPLE_SEED_ENV, "7")]).unwrap().sample_seed(), 7);
        assert!(cfg_of(&[(SAMPLE_SEED_ENV, "-1")]).is_err());
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
    fn serve_snapshot_slots_default_and_validate() {
        assert_eq!(cfg_of(&[]).unwrap().serve_snapshot_slots(), 8);
        assert_eq!(
            cfg_of(&[(SERVE_SNAPSHOT_SLOTS_ENV, "0")])
                .unwrap()
                .serve_snapshot_slots(),
            0,
            "zero slots disables the snapshot cache"
        );
        assert!(cfg_of(&[(SERVE_SNAPSHOT_SLOTS_ENV, "-1")]).is_err());
        assert!(cfg_of(&[(SERVE_SNAPSHOT_SLOTS_ENV, "many")]).is_err());
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
