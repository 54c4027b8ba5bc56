//! Spatial LLC management: schemes that re-partition capacity across sets.
//!
//! The paper's spatial comparators:
//!
//! * [`VWayCache`] — the V-Way cache of Qureshi et al. (ISCA'05): twice as
//!   many tag entries as data lines per set, with a global reuse-counter
//!   ("frequency based") data replacement, so hot sets accumulate data
//!   lines at the expense of cold ones;
//! * [`SbcCache`] — the dynamic Set Balancing Cache of Rolán et al.
//!   (MICRO'09): per-set saturation levels (`misses − hits`), a
//!   [`DestinationSetSelector`] tracking the least-saturated sets, and
//!   source→destination victim spilling with unconstrained MRU insertion
//!   (the behaviour STEM's receive constraint specifically improves on,
//!   §4.6).
//!
//! Shared infrastructure ([`AssociationTable`], [`DestinationSetSelector`])
//! is also used by the STEM implementation in the `stem-llc` crate.
//!
//! # Examples
//!
//! ```
//! use stem_spatial::SbcCache;
//! use stem_sim_core::{Access, Address, CacheGeometry, CacheModel, DecodedTrace, Trace};
//!
//! # fn main() -> Result<(), stem_sim_core::GeometryError> {
//! let geom = CacheGeometry::new(64, 4, 64)?;
//! let mut sbc = SbcCache::new(geom);
//! let trace: Trace = (0..100u64).map(|i| Access::read(Address::new(i * 64))).collect();
//! sbc.run_decoded(&DecodedTrace::decode(&trace, geom));
//! assert_eq!(sbc.stats().accesses(), 100);
//! # Ok(())
//! # }
//! ```

mod assoc;
mod dss;
mod sbc;
mod static_sbc;
mod victim;
mod vway;

pub use assoc::AssociationTable;
pub use dss::DestinationSetSelector;
pub use sbc::{SbcCache, SbcConfig};
pub use static_sbc::StaticSbcCache;
pub use victim::VictimCache;
pub use vway::{VWayCache, VWayConfig};
