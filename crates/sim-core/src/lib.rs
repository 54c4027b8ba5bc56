//! Core substrate for the STEM last-level-cache reproduction.
//!
//! This crate provides the vocabulary types shared by every cache scheme in
//! the workspace:
//!
//! * [`Address`] / [`LineAddr`] — physical addresses and line-granular
//!   addresses (the paper simulates 44-bit Alpha physical addresses);
//! * [`CacheGeometry`] — sets × ways × line-size arithmetic (tag/index/offset
//!   extraction);
//! * [`Access`], [`AccessKind`], [`Trace`] — trace-driven simulation inputs;
//! * [`DecodedTrace`] — a line-granular structure-of-arrays decode of a
//!   `Trace` (line addresses, packed write flags, instruction gaps)
//!   performed once and replayed by every scheme at any set count;
//! * [`SetFrames`] — flat structure-of-arrays tag storage (contiguous tag
//!   words plus bit-packed valid/dirty/flag words) backing every scheme's
//!   set frames;
//! * [`CacheStats`] — hit/miss/spill accounting and MPKI;
//! * [`TimingParams`] — the latency algebra of the paper's §5.1 / Table 1;
//! * [`SaturatingCounter`] — the k-bit saturating counters used by STEM's
//!   set-level capacity-demand monitor (and by SBC/DIP);
//! * [`SplitMix64`] — a tiny deterministic RNG so every simulation is
//!   reproducible without external crates;
//! * [`CacheModel`] — the object-safe trait all six schemes implement;
//! * [`Snapshot`] — checkpoint/restore of warm replay state as a warmed
//!   clone of the cache, so shared warm-up prefixes are replayed once and
//!   restored per consumer;
//! * [`InvariantAuditor`] / [`run_audited`] — checked simulation mode that
//!   verifies each scheme's internal bookkeeping during a run;
//! * [`SimError`] / [`TraceError`] — the workspace-wide error taxonomy;
//! * [`json`] — the hand-rolled JSON value/writer/parser shared by the
//!   bench artifacts and the `stem-serve` request/response bodies;
//! * [`prop`] — an in-repo deterministic property-testing harness so the
//!   whole workspace builds and tests offline.
//!
//! # Examples
//!
//! ```
//! use stem_sim_core::{Address, CacheGeometry};
//!
//! # fn main() -> Result<(), stem_sim_core::GeometryError> {
//! let geom = CacheGeometry::new(2048, 16, 64)?; // the paper's 2MB L2
//! let addr = Address::new(0x1234_5678);
//! assert_eq!(geom.set_index(addr), ((0x1234_5678u64 >> 6) % 2048) as usize);
//! # Ok(())
//! # }
//! ```

mod access;
mod addr;
mod audit;
mod counter;
mod decoded;
mod error;
mod frames;
mod geometry;
pub mod json;
mod model;
pub mod prop;
mod rng;
mod sample;
pub mod snapshot;
mod stats;
mod timing;
mod trace;

pub use access::{Access, AccessKind};
pub use addr::{Address, LineAddr};
pub use audit::{run_audited, AuditError, AuditedCacheModel, InvariantAuditor};
pub use counter::SaturatingCounter;
pub use decoded::{DecodedAccess, DecodedTrace};
pub use error::{GeometryError, SimError, TraceError};
pub use frames::{Frame, SetFrames};
pub use geometry::CacheGeometry;
pub use json::{Json, JsonError};
pub use model::{AccessResult, CacheModel, CacheModelClone};
pub use rng::SplitMix64;
pub use sample::SampledTrace;
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::CacheStats;
pub use timing::{AccessLatency, TimingParams};
pub use trace::{Trace, TraceStats};
