//! **STEM**: SpatioTEmporal Management of capacity for intra-core last
//! level caches — the primary contribution of Zhan, Jiang & Seth
//! (MICRO-43, 2010), reproduced from scratch.
//!
//! STEM concurrently manages both dimensions of set-level capacity demand:
//!
//! * **spatial** — a per-set [`SetMonitor`] uses a signature-based
//!   [`ShadowSet`] as *virtual extra capacity* to directly measure the
//!   benefit of doubling a set's space. Saturated spatial counters mark
//!   *taker* sets, low ones mark *giver* sets, and the controller couples
//!   complementary pairs so takers spill victims into givers
//!   (cooperative caching);
//! * **temporal** — each set duels its own replacement policy
//!   ([`PolicyKind::Lru`] vs [`PolicyKind::Bip`]) against its shadow set,
//!   which always runs the *opposite* policy; a saturated temporal counter
//!   swaps them, giving per-set insertion adaptivity that application-level
//!   schemes like DIP cannot provide (§5.2).
//!
//! The crate exposes:
//!
//! * [`StemCache`] — the full STEM LLC implementing
//!   [`CacheModel`](stem_sim_core::CacheModel);
//! * [`StemConfig`] — the knobs of Table 3 (`k`, `n`, `m`, heap size);
//! * [`TagHasher`] — the H3 hardware hash producing m-bit shadow tags;
//! * [`ShadowSet`], [`SetMonitor`] — the SCDM building blocks;
//! * [`overhead`] — the hardware storage model behind the paper's 3.1%
//!   overhead claim (Table 3).
//!
//! # Examples
//!
//! ```
//! use stem_llc::StemCache;
//! use stem_sim_core::{Access, Address, CacheGeometry, CacheModel, DecodedTrace, Trace};
//!
//! # fn main() -> Result<(), stem_sim_core::GeometryError> {
//! let geom = CacheGeometry::new(128, 8, 64)?;
//! let mut stem = StemCache::new(geom);
//! let trace: Trace = (0..1000u64).map(|i| Access::read(Address::new(i % 64 * 64))).collect();
//! stem.run_decoded(&DecodedTrace::decode(&trace, geom));
//! assert!(stem.stats().hits() > 0);
//! # Ok(())
//! # }
//! ```

mod cache;
mod config;
mod hash;
pub mod overhead;
mod policy_kind;
mod scdm;
mod shadow;

pub use cache::StemCache;
pub use config::StemConfig;
pub use hash::TagHasher;
pub use policy_kind::PolicyKind;
pub use scdm::{MonitorEvent, SetMonitor};
pub use shadow::ShadowSet;
