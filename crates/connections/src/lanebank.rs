//! Shadow fault-lane banks for batched lockstep simulation.
//!
//! Word-parallel fault campaigns run N seeded variants of the *same*
//! simulation. Until a lane's fault first perturbs the token stream,
//! its trajectory is bit-identical to the fault-free golden run — an
//! armed [`FaultInjector`] that never fires only draws RNG state and
//! counts tokens; it changes nothing observable on the channel. A
//! [`FaultLaneBank`] exploits exactly that: it rides on the golden
//! channel and replays every lane's fault *decisions* (not the
//! simulation) against the golden token stream, laid out as
//! lane-indexed arrays:
//!
//! ```text
//!            golden channel events          lane-indexed shadow state
//!   push  ──────────────────────────▶  injectors[0..N]  (RNG streams)
//!   commit(len, cap) ───────────────▶  pending_dup[0..N]
//!                                      status[0..N] in the shared LaneSet
//! ```
//!
//! The moment a lane's decision would perturb the stream (a bit flip,
//! a drop, or a duplicate that the FIFO had room for), the lane is
//! marked **diverged** in the shared [`LaneSet`] and drops out of the
//! hot loop; the caller de-opts it to a solo run with a real injector
//! — the golden reference path. Lanes whose injectors never fire finish the
//! batch bit-identical to the golden run for free, with exact
//! [`FaultStats`] (tokens seen, duplicates suppressed by a full FIFO)
//! accumulated by the shadow injectors.
//!
//! Divergence detection is deliberately **conservative**: a drawn flip
//! whose bit lands in encoding padding, or a drop on a token a
//! flow-through pop would have voided, still diverges the lane. A
//! false-positive divergence costs one solo replay; a false negative
//! would silently corrupt results, so the bank never risks one.
//!
//! Stuck-wire faults (`stuck_valid_from` / `stuck_ready_from`) gate
//! handshakes every cycle from their onset — there is no convergent
//! prefix to share — so [`FaultLaneBank::supports`] rejects them and
//! callers pre-diverge those lanes.

use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use craft_sim::checkpoint::{CheckpointError, Checkpointable, StateReader, StateWriter};
use std::cell::RefCell;
use std::rc::Rc;

/// Why (and when) a lane left the lockstep batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneStatus {
    /// Still bit-identical to the golden run.
    Converged,
    /// The lane's fault perturbed the stream at the given channel
    /// token ordinal (1-based: the n-th admitted token); it must be
    /// finished on a solo simulation.
    Diverged {
        /// Token ordinal on the channel that observed the divergence.
        token: u64,
    },
}

impl Checkpointable for LaneStatus {
    fn save(&self, w: &mut StateWriter) {
        match self {
            LaneStatus::Converged => w.put_opt_u64(None),
            LaneStatus::Diverged { token } => w.put_opt_u64(Some(*token)),
        }
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.get_opt_u64()? {
            None => LaneStatus::Converged,
            Some(token) => LaneStatus::Diverged { token },
        })
    }
}

/// Shared per-lane divergence ledger for one batch, referenced by
/// every channel's [`FaultLaneBank`] so a lane that diverges on any
/// channel stops shadow evaluation on all of them.
#[derive(Debug)]
pub struct LaneSet {
    status: Vec<LaneStatus>,
    /// Dense list of still-converged lane indices — the hot loop walks
    /// this contiguously instead of scanning all N statuses.
    live: Vec<u32>,
}

impl LaneSet {
    /// A ledger for `lanes` lanes, all initially converged.
    pub fn new(lanes: usize) -> Rc<RefCell<LaneSet>> {
        Rc::new(RefCell::new(LaneSet {
            status: vec![LaneStatus::Converged; lanes],
            live: (0..lanes as u32).collect(),
        }))
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.status.len()
    }

    /// Lanes still bit-identical to the golden run.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// This lane's current status.
    pub fn status(&self, lane: usize) -> LaneStatus {
        self.status[lane]
    }

    /// Indices of lanes that have left the batch, ascending.
    pub fn diverged(&self) -> Vec<usize> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, LaneStatus::Diverged { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks `lane` diverged (idempotent) at channel token ordinal
    /// `token` and removes it from the live list.
    pub fn mark_diverged(&mut self, lane: usize, token: u64) {
        if matches!(self.status[lane], LaneStatus::Diverged { .. }) {
            return;
        }
        self.status[lane] = LaneStatus::Diverged { token };
        if let Some(pos) = self.live.iter().position(|&l| l as usize == lane) {
            self.live.swap_remove(pos);
        }
    }
}

/// One lane's shadow state on one channel (struct-of-arrays element;
/// see [`FaultLaneBank`]).
#[derive(Debug)]
struct ShadowLane {
    /// The *same* injector a solo run would arm — same config, same
    /// per-channel seed — so the decision stream is bit-identical.
    injector: FaultInjector,
    /// A duplicate decision drawn at push, resolved against FIFO
    /// occupancy at the token's commit (exactly where a solo channel
    /// applies or suppresses it).
    pending_dup: bool,
}

/// Shadow injector bank attached to one golden channel
/// ([`crate::ChannelHandle::attach_lane_bank`]).
///
/// Holds a lane-indexed slot array — `None` for lanes whose fault
/// pattern does not match this channel — plus the batch-wide shared
/// [`LaneSet`]. The channel core calls the crate-private `on_push`
/// once per admitted token and `on_commit` once per token landing at
/// commit; both walk only the live lanes.
pub struct FaultLaneBank {
    set: Rc<RefCell<LaneSet>>,
    slots: Vec<Option<ShadowLane>>,
    /// Tokens admitted on this channel so far (divergence timestamps).
    tokens: u64,
}

impl FaultLaneBank {
    /// True when `cfg` is a pure token-rate fault (flip/drop/dup) the
    /// lockstep bank can shadow. Stuck-wire faults perturb handshakes
    /// from their onset cycle and must be pre-diverged instead.
    pub fn supports(cfg: &FaultConfig) -> bool {
        cfg.stuck_valid_from.is_none() && cfg.stuck_ready_from.is_none()
    }

    /// An empty bank over the shared ledger; populate with
    /// [`arm_lane`](Self::arm_lane).
    pub fn new(set: Rc<RefCell<LaneSet>>) -> FaultLaneBank {
        let lanes = set.borrow().lanes();
        FaultLaneBank {
            set,
            slots: (0..lanes).map(|_| None).collect(),
            tokens: 0,
        }
    }

    /// Arms lane `lane` on this channel with the given config and
    /// per-channel seed (callers derive the seed exactly as the solo
    /// path would, so decision streams line up bit-for-bit).
    ///
    /// # Panics
    /// Panics on an unsupported (stuck-wire) config, a lane index out
    /// of range, or a lane armed twice on the same channel.
    pub fn arm_lane(&mut self, lane: usize, cfg: FaultConfig, seed: u64) {
        assert!(
            Self::supports(&cfg),
            "stuck-wire faults have no convergent prefix; pre-diverge the lane"
        );
        let slot = &mut self.slots[lane];
        assert!(slot.is_none(), "lane {lane} already armed on this channel");
        *slot = Some(ShadowLane {
            injector: FaultInjector::new(cfg, seed),
            pending_dup: false,
        });
    }

    /// Shadow stats for `lane` on this channel — exact for converged
    /// lanes (meaningless once a lane diverges: its solo replay owns
    /// the true counters). `None` when the lane is not armed here.
    pub fn lane_stats(&self, lane: usize) -> Option<FaultStats> {
        self.slots
            .get(lane)
            .and_then(|s| s.as_ref())
            .map(|s| s.injector.stats())
    }

    /// One token admitted on the golden channel: draw every live
    /// lane's decisions for it. Flips and drops perturb the stream
    /// immediately → diverge; duplicates stay pending until the
    /// token's commit resolves them against FIFO occupancy.
    pub(crate) fn on_push(&mut self) {
        self.tokens += 1;
        let mut set = self.set.borrow_mut();
        // Walk the dense live list; mark_diverged swap-removes, so
        // iterate by index from the back to visit each lane once.
        let mut i = set.live.len();
        while i > 0 {
            i -= 1;
            let lane = set.live[i] as usize;
            let Some(slot) = self.slots[lane].as_mut() else {
                continue;
            };
            let tf = slot.injector.on_token();
            if tf.flip_bit.is_some() || tf.drop {
                set.mark_diverged(lane, self.tokens);
                continue;
            }
            slot.pending_dup = tf.duplicate;
        }
    }

    /// The token admitted at [`on_push`](Self::on_push) landed at a
    /// commit with `len_after` entries queued (post-push) of
    /// `capacity`: resolve pending duplicates. With a free slot the
    /// echo would have entered the stream → diverge; with a full FIFO
    /// the duplication is absorbed on the wire and only counted —
    /// the lane stays converged with exact `dups_suppressed`.
    pub(crate) fn on_commit(&mut self, len_after: usize, capacity: usize) {
        let mut set = self.set.borrow_mut();
        let mut i = set.live.len();
        while i > 0 {
            i -= 1;
            let lane = set.live[i] as usize;
            let Some(slot) = self.slots[lane].as_mut() else {
                continue;
            };
            if !slot.pending_dup {
                continue;
            }
            slot.pending_dup = false;
            if len_after < capacity {
                set.mark_diverged(lane, self.tokens);
            } else {
                slot.injector.stats.dups_suppressed += 1;
            }
        }
    }
}

impl std::fmt::Debug for FaultLaneBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultLaneBank")
            .field("lanes", &self.slots.len())
            .field("armed", &self.slots.iter().filter(|s| s.is_some()).count())
            .field("tokens", &self.tokens)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_firing_lane_counts_tokens_and_stays_converged() {
        let set = LaneSet::new(3);
        let mut bank = FaultLaneBank::new(Rc::clone(&set));
        bank.arm_lane(0, FaultConfig::bit_flip(0.0), 1);
        bank.arm_lane(2, FaultConfig::drop(0.0), 2);
        for _ in 0..50 {
            bank.on_push();
            bank.on_commit(4, 4);
        }
        assert_eq!(set.borrow().live_count(), 3);
        assert_eq!(bank.lane_stats(0).unwrap().tokens, 50);
        assert_eq!(bank.lane_stats(2).unwrap().tokens, 50);
        assert!(bank.lane_stats(1).is_none(), "unarmed lane has no stats");
    }

    #[test]
    fn shadow_decisions_match_a_solo_injector_bit_for_bit() {
        // The bank's lane draws from the same (config, seed) injector
        // a solo channel would arm, so the first perturbing token —
        // and the token count up to it — are identical.
        let cfg = FaultConfig::drop(0.05);
        let seed = 0xBEEF;
        let mut solo = FaultInjector::new(cfg, seed);
        let first_drop = (1u64..)
            .find(|_| solo.on_token().drop)
            .expect("a drop eventually fires");

        let set = LaneSet::new(1);
        let mut bank = FaultLaneBank::new(Rc::clone(&set));
        bank.arm_lane(0, cfg, seed);
        let mut diverged_at = None;
        for t in 1..=first_drop + 10 {
            bank.on_push();
            bank.on_commit(4, 4);
            if let LaneStatus::Diverged { token } = set.borrow().status(0) {
                diverged_at = Some((t, token));
                break;
            }
        }
        assert_eq!(diverged_at, Some((first_drop, first_drop)));
    }

    #[test]
    fn suppressed_duplicate_keeps_lane_converged_with_exact_stats() {
        let cfg = FaultConfig::duplicate(1.0); // every token draws a dup
        let set = LaneSet::new(1);
        let mut bank = FaultLaneBank::new(Rc::clone(&set));
        bank.arm_lane(0, cfg, 7);
        // Full FIFO at every commit: each dup is absorbed, lane stays.
        for _ in 0..8 {
            bank.on_push();
            bank.on_commit(4, 4);
        }
        assert_eq!(set.borrow().status(0), LaneStatus::Converged);
        let s = bank.lane_stats(0).unwrap();
        assert_eq!((s.tokens, s.dups_suppressed, s.dups), (8, 8, 0));
        // First commit with room: the echo enters the stream.
        bank.on_push();
        bank.on_commit(3, 4);
        assert!(matches!(
            set.borrow().status(0),
            LaneStatus::Diverged { token: 9 }
        ));
    }

    #[test]
    fn divergence_on_one_bank_stops_draws_on_all_banks() {
        let set = LaneSet::new(2);
        let mut a = FaultLaneBank::new(Rc::clone(&set));
        let mut b = FaultLaneBank::new(Rc::clone(&set));
        a.arm_lane(0, FaultConfig::drop(1.0), 1);
        b.arm_lane(0, FaultConfig::bit_flip(0.0), 1);
        b.arm_lane(1, FaultConfig::bit_flip(0.0), 2);
        a.on_push(); // lane 0 drops its first token → diverges batch-wide
        b.on_push();
        b.on_push();
        assert_eq!(set.borrow().diverged(), vec![0]);
        assert_eq!(set.borrow().live_count(), 1);
        // Lane 0 drew nothing further on bank b after diverging on a.
        assert_eq!(b.lane_stats(0).unwrap().tokens, 0);
        assert_eq!(b.lane_stats(1).unwrap().tokens, 2);
    }

    #[test]
    #[should_panic(expected = "no convergent prefix")]
    fn stuck_wire_configs_are_rejected() {
        let set = LaneSet::new(1);
        let mut bank = FaultLaneBank::new(set);
        bank.arm_lane(0, FaultConfig::stuck_valid(10), 1);
    }
}
