//! The simulated memory hierarchy: core model → L1 → L2 → memory.
//!
//! The paper's evaluation runs an Alpha 21264-like out-of-order core on M5
//! (Table 1). Per the substitution documented in `DESIGN.md` §1, this crate
//! replaces the cycle-accurate core with an analytical model: the L2 event
//! stream and the §5.1 latency algebra are exact, and CPI adds a
//! fixed base CPI plus memory stalls discounted by an overlap factor
//! (modelling the OOO core's latency hiding). All paper figures are
//! *normalized to LRU*; a normalized MPKI or AMAT does not depend on the
//! model's two constants, but a normalized CPI does (`DESIGN.md` §1).
//!
//! Nothing the LLC does reaches the L1, so the L1-miss stream depends only
//! on the trace: [`LlcStream`] runs the L1 pass once per trace (or once
//! per multi-core mix) and every LLC scheme compared on it replays the
//! same stream. [`System`] keeps a live L1 for runs that checkpoint a
//! warmed hierarchy. Both run the Table 1 L1 through one 2-way kernel,
//! [`L1Cache`].
//!
//! # Examples
//!
//! ```
//! use stem_hierarchy::{System, SystemConfig};
//! use stem_replacement::{Lru, SetAssocCache};
//! use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
//!
//! # fn main() -> Result<(), stem_sim_core::GeometryError> {
//! let cfg = SystemConfig::micro2010();
//! let l2 = CacheGeometry::micro2010_l2();
//! let mut system = System::new(cfg, Box::new(SetAssocCache::new(l2, Lru::new(l2))));
//! let trace: Trace = (0..1000u64).map(|i| Access::read(Address::new(i * 64))).collect();
//! let metrics = system.warm_then_run_decoded(&DecodedTrace::decode(&trace, l2), 200);
//! assert!(metrics.cpi > 0.0);
//! # Ok(())
//! # }
//! ```

mod l1;
mod metrics;
mod mix;
mod stream;
mod system;

pub use l1::L1Cache;
pub use metrics::SystemMetrics;
pub use mix::{interleave_schedule, MixMetrics};
pub use stream::{LlcStream, LlcStreamBuilder};
pub use system::{System, SystemConfig, FILTER_CHUNK};
