//! Seeded data-fault injection on LI channels.
//!
//! [`crate::StallInjector`] (§2.3) perturbs *timing* only; a
//! [`FaultInjector`] perturbs *data and token discipline*: payload
//! bit-flips, token drops, token duplication, and permanently stuck
//! control wires. Like stall injection it attaches to any channel
//! through its handle ([`crate::ChannelHandle::inject_faults`]) without
//! touching DUT or testbench code, which is what makes whole-campaign
//! fault sweeps cheap.
//!
//! Determinism: each injector owns a seeded RNG and draws once per
//! *token* (at the push that admits it), so the fault schedule is a
//! function of the token index — independent of stall schedules,
//! quiescence gating, or wall-clock ordering. Stuck-at faults are
//! functions of the channel-local cycle count and draw no randoms.

use craft_sim::checkpoint::{CheckpointError, Checkpointable, StateReader, StateWriter};
use craft_sim::StateVisitor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// What to inject, and with what intensity.
///
/// Probabilities are per token; `stuck_*` onsets are channel-local
/// cycle counts from which the corresponding handshake wire is forced
/// deasserted forever (the permanent-fault model used by the
/// graceful-degradation campaign).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Per-token probability that one uniformly chosen payload bit is
    /// inverted (silent data corruption).
    pub bit_flip: f64,
    /// Per-token probability the token vanishes at commit (token loss).
    pub drop: f64,
    /// Per-token probability the token is delivered twice.
    pub duplicate: f64,
    /// From this channel cycle on, `valid` is stuck deasserted: data
    /// already in the channel stays, but the consumer can never pop.
    pub stuck_valid_from: Option<u64>,
    /// From this channel cycle on, `ready` is stuck deasserted: the
    /// producer can never push.
    pub stuck_ready_from: Option<u64>,
}

impl FaultConfig {
    /// Corruption-only config: flip one payload bit per token with
    /// probability `p`.
    pub fn bit_flip(p: f64) -> Self {
        FaultConfig {
            bit_flip: p,
            ..Self::default()
        }
    }

    /// Loss-only config: drop each token with probability `p`.
    pub fn drop(p: f64) -> Self {
        FaultConfig {
            drop: p,
            ..Self::default()
        }
    }

    /// Duplication-only config.
    pub fn duplicate(p: f64) -> Self {
        FaultConfig {
            duplicate: p,
            ..Self::default()
        }
    }

    /// Permanent stuck-valid fault starting at channel cycle `from`.
    pub fn stuck_valid(from: u64) -> Self {
        FaultConfig {
            stuck_valid_from: Some(from),
            ..Self::default()
        }
    }

    /// Permanent stuck-ready fault starting at channel cycle `from`.
    pub fn stuck_ready(from: u64) -> Self {
        FaultConfig {
            stuck_ready_from: Some(from),
            ..Self::default()
        }
    }

    /// True when every injected fault is recoverable by a
    /// detect-and-retry transport: probabilistic flips/drops/dups below
    /// certainty, and no permanently stuck wire. Permanent faults need
    /// architectural recovery (remapping) or end in a diagnosed hang.
    pub fn is_recoverable(&self) -> bool {
        self.stuck_valid_from.is_none() && self.stuck_ready_from.is_none() && self.drop < 1.0
    }

    fn validate(&self) {
        for (name, p) in [
            ("bit_flip", self.bit_flip),
            ("drop", self.drop),
            ("duplicate", self.duplicate),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability must be in [0,1], got {p}"
            );
        }
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if any {
                write!(f, ", ")?;
            }
            any = true;
            Ok(())
        };
        if self.bit_flip > 0.0 {
            sep(f)?;
            write!(f, "flip(p={})", self.bit_flip)?;
        }
        if self.drop > 0.0 {
            sep(f)?;
            write!(f, "drop(p={})", self.drop)?;
        }
        if self.duplicate > 0.0 {
            sep(f)?;
            write!(f, "dup(p={})", self.duplicate)?;
        }
        if let Some(c) = self.stuck_valid_from {
            sep(f)?;
            write!(f, "stuck-valid(from={c})")?;
        }
        if let Some(c) = self.stuck_ready_from {
            sep(f)?;
            write!(f, "stuck-ready(from={c})")?;
        }
        if !any {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// Counters for what a [`FaultInjector`] actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Tokens that passed through the injector.
    pub tokens: u64,
    /// Tokens whose payload had a bit inverted.
    pub flips: u64,
    /// Tokens discarded at commit.
    pub drops: u64,
    /// Duplicate tokens enqueued.
    pub dups: u64,
    /// Duplications that could not be applied (channel full at commit).
    pub dups_suppressed: u64,
    /// Cycles with `valid` forced deasserted.
    pub stuck_valid_cycles: u64,
    /// Cycles with `ready` forced deasserted.
    pub stuck_ready_cycles: u64,
}

impl FaultStats {
    /// Total discrete fault events injected into the token stream
    /// (flips + drops + applied duplications).
    pub fn injected(&self) -> u64 {
        self.flips + self.drops + self.dups
    }
}

impl Checkpointable for FaultConfig {
    fn save(&self, w: &mut StateWriter) {
        w.put_f64(self.bit_flip);
        w.put_f64(self.drop);
        w.put_f64(self.duplicate);
        w.put_opt_u64(self.stuck_valid_from);
        w.put_opt_u64(self.stuck_ready_from);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(FaultConfig {
            bit_flip: r.get_f64()?,
            drop: r.get_f64()?,
            duplicate: r.get_f64()?,
            stuck_valid_from: r.get_opt_u64()?,
            stuck_ready_from: r.get_opt_u64()?,
        })
    }
}

impl Checkpointable for FaultStats {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.tokens);
        w.put_u64(self.flips);
        w.put_u64(self.drops);
        w.put_u64(self.dups);
        w.put_u64(self.dups_suppressed);
        w.put_u64(self.stuck_valid_cycles);
        w.put_u64(self.stuck_ready_cycles);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(FaultStats {
            tokens: r.get_u64()?,
            flips: r.get_u64()?,
            drops: r.get_u64()?,
            dups: r.get_u64()?,
            dups_suppressed: r.get_u64()?,
            stuck_valid_cycles: r.get_u64()?,
            stuck_ready_cycles: r.get_u64()?,
        })
    }
}

/// Per-token fault decisions, drawn once when a push is admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenFaults {
    /// `Some(raw)` — invert payload bit `raw % bit_width`.
    pub flip_bit: Option<u32>,
    /// Discard this token at commit.
    pub drop: bool,
    /// Enqueue this token twice at commit.
    pub duplicate: bool,
}

/// Seeded per-channel source of fault decisions.
///
/// ```
/// use craft_connections::{FaultConfig, FaultInjector};
/// let mut inj = FaultInjector::new(FaultConfig::drop(0.25), 7);
/// let dropped = (0..1000).filter(|_| inj.on_token().drop).count();
/// assert!((150..350).contains(&dropped)); // roughly a quarter
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    /// Channel-local cycle count, advanced once per commit.
    cycle: u64,
    pub(crate) stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector with the given config and RNG seed.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        cfg.validate();
        FaultInjector {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            cycle: 0,
            stats: FaultStats::default(),
        }
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// Draws the fault decisions for the next token. Zero-probability
    /// fault classes draw no randoms, so degenerate configs are
    /// deterministic for every seed.
    pub fn on_token(&mut self) -> TokenFaults {
        self.stats.tokens += 1;
        let flip_bit = if self.cfg.bit_flip > 0.0 && self.rng.gen::<f64>() < self.cfg.bit_flip {
            Some(self.rng.gen::<u32>())
        } else {
            None
        };
        let drop = self.cfg.drop > 0.0 && self.rng.gen::<f64>() < self.cfg.drop;
        let duplicate = self.cfg.duplicate > 0.0 && self.rng.gen::<f64>() < self.cfg.duplicate;
        TokenFaults {
            flip_bit,
            drop,
            duplicate,
        }
    }

    /// Advances the channel-local cycle count — commits of this
    /// channel since the injector was armed, not a kernel clock — and
    /// returns the stuck-wire state `(valid_stuck, ready_stuck)` for
    /// the *next* cycle. Called once per channel commit, mirroring
    /// [`crate::StallInjector`].
    ///
    /// Only a config with a `stuck_valid_from` / `stuck_ready_from`
    /// onset reads the count, and only until the last configured onset
    /// has passed: from then on (and always, for a config of
    /// probabilities alone) it is a statistic no decision depends on.
    pub fn on_cycle(&mut self) -> (bool, bool) {
        self.cycle += 1;
        let valid_stuck = self
            .cfg
            .stuck_valid_from
            .is_some_and(|from| self.cycle >= from);
        let ready_stuck = self
            .cfg
            .stuck_ready_from
            .is_some_and(|from| self.cycle >= from);
        if valid_stuck {
            self.stats.stuck_valid_cycles += 1;
        }
        if ready_stuck {
            self.stats.stuck_ready_cycles += 1;
        }
        (valid_stuck, ready_stuck)
    }
}

impl FaultInjector {
    /// A configured stuck onset the cycle count has yet to reach: the
    /// count is then state with a deadline, and no loop it runs in
    /// repeats.
    pub(crate) fn onset_ahead(&self) -> bool {
        [self.cfg.stuck_valid_from, self.cfg.stuck_ready_from]
            .into_iter()
            .flatten()
            .any(|from| self.cycle < from)
    }

    /// Presents the injector (see [`craft_sim::Sequential::visit_state`];
    /// the caller has ruled out [`onset_ahead`](Self::onset_ahead)).
    /// The token count is *state*: the RNG draws per token, so equal
    /// counts are equal RNG positions. Everything else only counts.
    pub(crate) fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        v.state(self.stats.tokens);
        let st = &mut self.stats;
        for c in [
            &mut self.cycle,
            &mut st.flips,
            &mut st.drops,
            &mut st.dups,
            &mut st.dups_suppressed,
            &mut st.stuck_valid_cycles,
            &mut st.stuck_ready_cycles,
        ] {
            v.counter(c);
        }
    }
}

impl fmt::Display for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "faults[{}]", self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_decisions_are_seed_reproducible() {
        let cfg = FaultConfig {
            bit_flip: 0.3,
            drop: 0.2,
            duplicate: 0.1,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(cfg, 99);
        let mut b = FaultInjector::new(cfg, 99);
        for _ in 0..200 {
            let (ta, tb) = (a.on_token(), b.on_token());
            assert_eq!(ta.flip_bit, tb.flip_bit);
            assert_eq!(ta.drop, tb.drop);
            assert_eq!(ta.duplicate, tb.duplicate);
        }
        assert_eq!(a.stats().tokens, 200);
    }

    #[test]
    fn zero_probabilities_draw_no_randoms() {
        // Identical decisions under different seeds proves no RNG use.
        let mut a = FaultInjector::new(FaultConfig::default(), 1);
        let mut b = FaultInjector::new(FaultConfig::default(), 2);
        for _ in 0..100 {
            let (ta, tb) = (a.on_token(), b.on_token());
            assert!(ta.flip_bit.is_none() && tb.flip_bit.is_none());
            assert!(!ta.drop && !tb.drop && !ta.duplicate && !tb.duplicate);
        }
        assert_eq!(a.stats().injected(), 0);
    }

    #[test]
    fn stuck_onsets_are_cycle_deterministic() {
        let cfg = FaultConfig {
            stuck_valid_from: Some(3),
            stuck_ready_from: Some(5),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, 0);
        let states: Vec<(bool, bool)> = (0..6).map(|_| inj.on_cycle()).collect();
        // on_cycle advances first, so cycle counts run 1..=6.
        assert_eq!(
            states,
            vec![
                (false, false),
                (false, false),
                (true, false),
                (true, false),
                (true, true),
                (true, true),
            ]
        );
        assert_eq!(inj.stats().stuck_valid_cycles, 4);
        assert_eq!(inj.stats().stuck_ready_cycles, 2);
        assert!(!cfg.is_recoverable());
        assert!(FaultConfig::bit_flip(0.1).is_recoverable());
        assert!(!FaultConfig::drop(1.0).is_recoverable());
    }

    #[test]
    fn display_summarizes_config() {
        let cfg = FaultConfig {
            bit_flip: 0.5,
            drop: 0.25,
            ..FaultConfig::default()
        };
        let s = FaultInjector::new(cfg, 0).to_string();
        assert_eq!(s, "faults[flip(p=0.5), drop(p=0.25)]");
        assert_eq!(FaultConfig::default().to_string(), "none");
        assert_eq!(
            FaultConfig::stuck_valid(10).to_string(),
            "stuck-valid(from=10)"
        );
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn bad_probability_panics() {
        let _ = FaultInjector::new(FaultConfig::bit_flip(1.5), 0);
    }
}
