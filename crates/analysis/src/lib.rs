//! Analysis and experiment infrastructure for the STEM reproduction.
//!
//! * [`StackDistance`] — per-set LRU stack-distance profiling;
//! * [`CapacityDemandProfiler`] — the §3.1 methodology behind Fig. 1:
//!   per-sampling-period, per-set minimum ways needed to resolve all
//!   conflict misses (relative to a 32-way bound);
//! * [`Scheme`] — the scheme zoo, constructable by name, powering every
//!   experiment binary;
//! * [`run_system`], [`run_mix_decoded`] — whole-system drivers (core +
//!   L1 + LLC, solo or a shared-LLC mix) returning [`SystemMetrics`] /
//!   [`MixOutcome`]; [`MixStreams`] builds a mix's scheme-independent LLC
//!   streams once for many schemes; [`warm_split`] is the warm-up
//!   boundary every run shares (bare-LLC replay itself is
//!   `stem_bench::engine::RunPlan`);
//! * [`geomean`], [`Table`] — reporting helpers that render the paper's
//!   tables as text.
//!
//! # Examples
//!
//! ```
//! use stem_analysis::{run_system, Scheme};
//! use stem_hierarchy::SystemConfig;
//! use stem_sim_core::CacheGeometry;
//! use stem_workloads::BenchmarkProfile;
//!
//! let geom = CacheGeometry::new(64, 4, 64).unwrap();
//! let trace = BenchmarkProfile::by_name("gromacs").unwrap().decoded(geom, 20_000);
//! let m = run_system(Scheme::Lru, geom, SystemConfig::micro2010(), &trace, 0.2);
//! assert!(m.mpki >= 0.0);
//! ```

mod capacity;
mod classify;
mod mix;
mod mrc;
mod report;
mod scheme;
mod stack_distance;

pub use capacity::{CapacityDemandProfiler, DemandHistogram};
pub use classify::{classify_workload, ClassificationReport};
pub use mix::{run_mix_decoded, MixOutcome, MixStreams};
pub use mrc::MissRateCurve;
pub use report::{geomean, Table};
pub use scheme::{build_audited_cache, build_cache, run_system, warm_split, Scheme};
pub use stack_distance::StackDistance;

pub use stem_hierarchy::SystemMetrics;
