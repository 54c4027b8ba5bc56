//! Per-set reference patterns: the temporal behaviours working sets
//! exhibit.

use std::sync::Arc;

use stem_sim_core::SplitMix64;

use crate::Zipf;

/// The temporal shape of one LLC set's working set.
///
/// These are the behaviours the paper's motivation distinguishes (§2.2,
/// §3): good temporal locality (LRU-friendly), cyclic thrashing
/// (BIP-friendly), streaming (nothing helps), and mixtures.
#[derive(Debug, Clone, PartialEq)]
pub enum SetPattern {
    /// A hot working set of `blocks` lines with Zipf-skewed reuse —
    /// LRU-friendly when `blocks` is near the associativity.
    Friendly {
        /// Distinct lines in the working set.
        blocks: u64,
        /// Zipf skew (≈0.6–1.2 typical).
        theta: f64,
    },
    /// A cyclic sweep over `blocks` lines — thrashes LRU whenever
    /// `blocks` exceeds the associativity, by exactly the Fig. 2 mechanism.
    Cyclic {
        /// Distinct lines in the cycle.
        blocks: u64,
    },
    /// A monotone stream of never-reused lines ("streaming features",
    /// §3.1 — extra capacity is useless).
    Stream,
    /// A hot subset of `hot` lines interleaved with a cyclic scan of
    /// `scan` lines: partially retainable, rewards smart insertion.
    Mixed {
        /// Hot, frequently reused lines.
        hot: u64,
        /// Length of the interleaved scan cycle.
        scan: u64,
    },
    /// A cyclic sweep with occasional random jumps: thrashes LRU like
    /// [`SetPattern::Cyclic`], but the jitter breaks the lockstep
    /// periodicity that lets global-replacement schemes settle into
    /// artificially perfect allocations on pure cycles.
    NoisyCyclic {
        /// Distinct lines in the cycle.
        blocks: u64,
        /// Probability (in 1/1000) of jumping to a random cycle position.
        jump_permille: u64,
    },
    /// A drifting working set with *recency* (not frequency) correlation:
    /// with probability `reuse_permille/1000` the next access reuses one of
    /// the `window` most recently touched lines; otherwise a fresh line
    /// from the `blocks`-line footprint enters the window.
    ///
    /// This is the genuinely LRU-friendly / BIP-hostile shape: a just
    /// missed line is about to be reused, so discarding it at the LRU
    /// position (BIP) forfeits hits that MRU insertion (LRU) collects.
    /// It models the `astar`-like sets whose good temporal locality DIP's
    /// application-level duel tramples (§5.2).
    Recency {
        /// Total distinct lines in the footprint.
        blocks: u64,
        /// Size of the recently-touched window.
        window: u64,
        /// Probability (in 1/1000) of reusing a window line.
        reuse_permille: u64,
    },
}

impl SetPattern {
    /// The number of distinct lines this pattern touches per phase
    /// (`u64::MAX` for unbounded streams).
    pub fn footprint(&self) -> u64 {
        match self {
            SetPattern::Friendly { blocks, .. } => *blocks,
            SetPattern::Cyclic { blocks } => *blocks,
            SetPattern::Stream => u64::MAX,
            SetPattern::Mixed { hot, scan } => hot + scan,
            SetPattern::NoisyCyclic { blocks, .. } => *blocks,
            SetPattern::Recency { blocks, .. } => *blocks,
        }
    }

    /// Why this pattern cannot generate a stream, if it cannot: every
    /// size is at least 1, `theta` is finite and non-negative, and every
    /// permille is at most 1000.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        fn require(ok: bool, why: &'static str) -> Result<(), &'static str> {
            if ok {
                Ok(())
            } else {
                Err(why)
            }
        }
        match *self {
            SetPattern::Friendly { blocks, theta } => {
                require(blocks >= 1, "Friendly blocks must be at least 1")?;
                require(
                    theta.is_finite() && theta >= 0.0,
                    "Friendly theta must be finite and non-negative",
                )
            }
            SetPattern::Cyclic { blocks } => {
                require(blocks >= 1, "Cyclic blocks must be at least 1")
            }
            SetPattern::Stream => Ok(()),
            SetPattern::Mixed { hot, scan } => {
                require(hot >= 1, "Mixed hot must be at least 1")?;
                require(scan >= 1, "Mixed scan must be at least 1")
            }
            SetPattern::NoisyCyclic {
                blocks,
                jump_permille,
            } => {
                require(blocks >= 1, "NoisyCyclic blocks must be at least 1")?;
                require(
                    jump_permille <= 1000,
                    "NoisyCyclic jump_permille must be at most 1000",
                )
            }
            SetPattern::Recency {
                blocks,
                window,
                reuse_permille,
            } => {
                require(blocks >= 1, "Recency blocks must be at least 1")?;
                require(window >= 1, "Recency window must be at least 1")?;
                require(
                    reuse_permille <= 1000,
                    "Recency reuse_permille must be at most 1000",
                )
            }
        }
    }

    /// Creates the per-set generator state. Clones of one state share its
    /// read-only Zipf table, so a single state can seed every set of a
    /// pattern.
    pub fn state(&self) -> PatternState {
        PatternState {
            zipf: match self {
                SetPattern::Friendly { blocks, theta } => {
                    Some(Arc::new(Zipf::new(*blocks as usize, *theta)))
                }
                _ => None,
            },
            position: 0,
            toggle: false,
            window: Vec::new(),
        }
    }

    /// Produces the next line tag (a per-set-unique block id) of this
    /// pattern. Cycle lengths must be at least 1, as
    /// [`BenchmarkProfile::new`](crate::BenchmarkProfile::new) requires.
    pub fn next_tag(&self, state: &mut PatternState, rng: &mut SplitMix64) -> u64 {
        match self {
            SetPattern::Friendly { .. } => {
                let z = state.zipf.as_ref().expect("friendly state has a sampler");
                z.sample(rng) as u64
            }
            SetPattern::Cyclic { blocks } => state.advance(*blocks),
            SetPattern::Stream => {
                let t = state.position;
                state.position += 1;
                t
            }
            SetPattern::Mixed { hot, scan } => {
                state.toggle = !state.toggle;
                if state.toggle {
                    // Hot half: uniform over the hot lines.
                    rng.next_below(*hot)
                } else {
                    // Scan half: cyclic beyond the hot region.
                    hot + state.advance(*scan)
                }
            }
            SetPattern::NoisyCyclic {
                blocks,
                jump_permille,
            } => {
                if rng.chance(*jump_permille, 1000) {
                    state.position = rng.next_below(*blocks);
                }
                state.advance(*blocks)
            }
            SetPattern::Recency {
                blocks,
                window,
                reuse_permille,
            } => {
                // Move the tag to the front of the window: a reused line
                // from its slot, a fresh one from past the end (then drop
                // what overflows the window).
                let w = &mut state.window;
                let reuse = !w.is_empty() && rng.chance(*reuse_permille, 1000);
                let slot = if reuse {
                    rng.next_below(w.len() as u64) as usize
                } else {
                    let tag = rng.next_below(*blocks);
                    w.iter().position(|&t| t == tag).unwrap_or_else(|| {
                        w.push(tag);
                        w.len() - 1
                    })
                };
                w[..=slot].rotate_right(1);
                let tag = w[0];
                w.truncate(*window as usize);
                tag
            }
        }
    }
}

/// Mutable generator state for one set's [`SetPattern`].
#[derive(Debug, Clone)]
pub struct PatternState {
    zipf: Option<Arc<Zipf>>,
    /// The stream counter, or the cycle cursor (always below the cycle
    /// length) of the cyclic patterns.
    position: u64,
    toggle: bool,
    /// Most-recently-touched distinct lines (for [`SetPattern::Recency`]).
    window: Vec<u64>,
}

impl PatternState {
    /// Returns the cycle cursor and steps it around a cycle of `len`
    /// positions: the `n`-th call yields `n % len`, without a division.
    #[inline]
    fn advance(&mut self, len: u64) -> u64 {
        debug_assert!(self.position < len, "cursor outside its cycle");
        let t = self.position;
        self.position = if t + 1 == len { 0 } else { t + 1 };
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(pattern: &SetPattern, n: usize, seed: u64) -> Vec<u64> {
        let mut st = pattern.state();
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| pattern.next_tag(&mut st, &mut rng))
            .collect()
    }

    #[test]
    fn cyclic_repeats_exactly() {
        let p = SetPattern::Cyclic { blocks: 3 };
        assert_eq!(collect(&p, 7, 1), vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.footprint(), 3);
    }

    #[test]
    fn stream_never_repeats() {
        let p = SetPattern::Stream;
        let tags = collect(&p, 100, 1);
        let distinct: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn friendly_stays_in_footprint_and_skews() {
        let p = SetPattern::Friendly {
            blocks: 16,
            theta: 1.0,
        };
        let tags = collect(&p, 5000, 7);
        assert!(tags.iter().all(|&t| t < 16));
        let hot = tags.iter().filter(|&&t| t < 4).count();
        assert!(hot > 2000, "Zipf reuse should concentrate: {hot}/5000");
    }

    #[test]
    fn mixed_touches_hot_and_scan_regions() {
        let p = SetPattern::Mixed { hot: 4, scan: 8 };
        let tags = collect(&p, 1000, 9);
        assert!(tags.iter().any(|&t| t < 4));
        assert!(tags.iter().any(|&t| t >= 4));
        assert!(tags.iter().all(|&t| t < 12));
        assert_eq!(p.footprint(), 12);
    }

    #[test]
    fn noisy_cyclic_mostly_sequential() {
        let p = SetPattern::NoisyCyclic {
            blocks: 10,
            jump_permille: 50,
        };
        let tags = collect(&p, 2000, 13);
        assert!(tags.iter().all(|&t| t < 10));
        // Most steps advance by exactly 1 (mod cycle length).
        let sequential = tags.windows(2).filter(|w| w[1] == (w[0] + 1) % 10).count();
        assert!(sequential > 1700, "too few sequential steps: {sequential}");
        assert!(sequential < 1999, "jitter never fired");
    }

    #[test]
    fn recency_reuses_recent_lines() {
        let p = SetPattern::Recency {
            blocks: 64,
            window: 8,
            reuse_permille: 800,
        };
        let tags = collect(&p, 4000, 11);
        assert!(tags.iter().all(|&t| t < 64));
        // ~80% of accesses should have a short reuse distance: count
        // accesses whose tag appeared in the previous 8 distinct tags.
        let mut recent: Vec<u64> = Vec::new();
        let mut hits = 0;
        for &t in &tags {
            if recent.contains(&t) {
                hits += 1;
            }
            recent.retain(|&x| x != t);
            recent.insert(0, t);
            recent.truncate(8);
        }
        let rate = hits as f64 / tags.len() as f64;
        assert!(rate > 0.7, "window reuse rate too low: {rate}");
    }

    #[test]
    fn recency_window_stays_bounded() {
        let p = SetPattern::Recency {
            blocks: 32,
            window: 4,
            reuse_permille: 500,
        };
        let mut st = p.state();
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            p.next_tag(&mut st, &mut rng);
            assert!(st.window.len() <= 4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SetPattern::Friendly {
            blocks: 8,
            theta: 0.8,
        };
        assert_eq!(collect(&p, 50, 42), collect(&p, 50, 42));
    }
}
