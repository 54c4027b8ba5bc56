//! Shared helpers for the experiment binaries and throughput benches.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper (see `DESIGN.md` §4 for the index); the plain `std::time` benches
//! in `benches/` measure simulator throughput. [`engine`] is the one
//! bare-LLC replay executor (serial, sharded, sampled or restored runs of a
//! [`RunPlan`](engine::RunPlan)); [`pool`] is the
//! deterministic parallel executor every driver fans out on (`STEM_THREADS`
//! workers, results in input order); [`resilience`] isolates long
//! experiment runs from panics and hangs; and [`faults`] injects corrupted
//! traces, adversarial traffic, and invalid configurations to prove the
//! simulator degrades with typed errors instead of crashes.

pub mod config;
pub mod engine;
pub mod faults;
pub mod harness;
pub mod pool;
pub mod resilience;
pub mod timing;
