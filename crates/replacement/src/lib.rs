//! Temporal LLC management: replacement policies.
//!
//! The paper classifies LLC management schemes into *temporal* (replacement
//! policies that decide how one set's capacity is time-shared among the
//! blocks of its working set — LRU, DIP, PeLIFO) and *spatial* (schemes that
//! re-partition capacity across sets — V-Way, SBC, in the `stem-spatial`
//! crate). This crate implements the temporal side:
//!
//! * [`Lru`] — the classic baseline;
//! * [`Bip`] — the thrash-resistant insertion policy of Qureshi et al.
//!   (ISCA'07) that STEM duels against LRU at the set level;
//! * [`Dip`] — dynamic insertion policy with complement-select set dueling
//!   and a 10-bit PSEL, exactly the application-level duel the paper argues
//!   cannot adapt per set (§5.2, the `astar` pathology);
//! * [`PeLifo`] — a fill-stack pseudo-LIFO with dueling-learned escape
//!   position (see `DESIGN.md` for the simplification relative to
//!   Chaudhuri, MICRO'09);
//! * [`Srrip`] — re-reference interval prediction, included as an extra
//!   baseline beyond the paper;
//! * [`OptCache`] — offline Belady-optimal replacement, used as an oracle
//!   bound in tests and by the capacity-demand analysis;
//! * [`SetAssocCache`] — a conventional set-associative LLC parameterized
//!   by any [`ReplacementPolicy`], implementing
//!   [`CacheModel`](stem_sim_core::CacheModel).
//!
//! # Examples
//!
//! ```
//! use stem_replacement::{Lru, SetAssocCache};
//! use stem_sim_core::{Access, Address, CacheGeometry, CacheModel, DecodedTrace, Trace};
//!
//! # fn main() -> Result<(), stem_sim_core::GeometryError> {
//! let geom = CacheGeometry::new(64, 4, 64)?;
//! let mut cache = SetAssocCache::new(geom, Box::new(Lru::new(geom)));
//! let trace: Trace = (0..8u64).map(|i| Access::read(Address::new(i * 64))).collect();
//! cache.run_decoded(&DecodedTrace::decode(&trace, geom));
//! assert_eq!(cache.stats().misses(), 8); // cold misses
//! # Ok(())
//! # }
//! ```

mod belady;
mod bip;
mod cache;
mod dip;
mod drrip;
mod lru;
mod nru;
mod pelifo;
mod plru;
mod policy;
mod recency;
mod srrip;

pub use belady::OptCache;
pub use bip::{Bip, BIP_DEFAULT_THROTTLE_LOG2};
pub use cache::SetAssocCache;
pub use dip::{Dip, DuelAssignment, Duelists};
pub use drrip::Drrip;
pub use lru::Lru;
pub use nru::Nru;
pub use pelifo::PeLifo;
pub use plru::Plru;
pub use policy::{PolicyClone, ReplacementPolicy};
pub use recency::RecencyStack;
pub use srrip::Srrip;
