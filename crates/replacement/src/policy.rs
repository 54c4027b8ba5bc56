//! The replacement-policy trait shared by all temporal schemes.

/// A whole-cache replacement policy: per-set victim selection and
/// lifetime-adjustment state.
///
/// One policy instance covers every set of a cache; the `set` argument of
/// each method addresses the per-set state. [`SetAssocCache`] drives the
/// policy through the following protocol:
///
/// 1. on a hit to `(set, way)`: [`on_hit`](ReplacementPolicy::on_hit);
/// 2. on a miss to `set`: [`on_miss`](ReplacementPolicy::on_miss), then if
///    the set is full [`victim`](ReplacementPolicy::victim) to choose the
///    way to evict, then [`on_fill`](ReplacementPolicy::on_fill) for the
///    way that receives the incoming block.
///
/// `SetAssocCache<P>` holds its policy by value, so the protocol compiles
/// into one statically dispatched kernel per policy type. The trait stays
/// object-safe ([C-OBJECT]) so a boxed policy can still drive a reference
/// model. A policy inside a [`CacheModel`](stem_sim_core::CacheModel) must
/// also be `Clone + 'static`: that is what makes the cache snapshottable.
///
/// [`SetAssocCache`]: crate::SetAssocCache
/// [C-OBJECT]: https://rust-lang.github.io/api-guidelines/flexibility.html
pub trait ReplacementPolicy: Send + Sync {
    /// Records a hit on `way` of `set` (lifetime promotion).
    fn on_hit(&mut self, set: usize, way: usize);

    /// Chooses the way of `set` to evict. Called only when every way of the
    /// set holds a valid block.
    fn victim(&mut self, set: usize) -> usize;

    /// Records that a new block has been filled into `way` of `set`
    /// (insertion-position decision).
    fn on_fill(&mut self, set: usize, way: usize);

    /// Records a miss on `set` before any fill happens. Policies that learn
    /// from misses (DIP's PSEL, PeLIFO's duel) hook this; the default does
    /// nothing.
    fn on_miss(&mut self, _set: usize) {}

    /// A short human-readable policy name (e.g. `"LRU"`).
    fn name(&self) -> &str;

    /// Whether sampled (strided-subset) replay of a cache driven by this
    /// policy is a valid estimator of serial replay (the policy-level half
    /// of
    /// [`CacheModel::supports_set_sampling`](stem_sim_core::CacheModel::supports_set_sampling);
    /// `SetAssocCache` delegates here). Purely per-set policies (LRU,
    /// SRRIP, PLRU) opt in: when every piece of mutable state is local
    /// to one set, dropped sets are invisible to kept ones, so sampling
    /// introduces no per-set distortion. Policies with *any* cross-set
    /// state — DRRIP's global PSEL, PeLIFO's election counters, a global
    /// RNG consumed on a data-dependent subset of accesses (BIP, NRU),
    /// Belady's precomputed global future — keep the default
    /// `false`. The one exception is DIP, which opts into a *documented
    /// approximation* (set dueling is itself a sampling estimator).
    fn supports_set_sampling(&self) -> bool {
        false
    }

    /// Checked-mode hook: verifies this policy's per-set bookkeeping for
    /// `set` (e.g. that a recency stack is still a permutation). The
    /// default accepts everything; stack-based policies override it.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    fn audit_set(&self, _set: usize) -> Result<(), String> {
        Ok(())
    }
}
