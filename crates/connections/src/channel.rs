//! Latency-insensitive channel implementations (paper Fig. 2, Table 1).
//!
//! A channel is a single-producer single-consumer handshake queue that
//! participates in the kernel's commit phase. The four point-to-point
//! kinds differ in two combinational properties and their capacity:
//!
//! | Kind            | flow-through (DEQ sees same-cycle ENQ) | enq-when-full (ENQ allowed if DEQ staged) | capacity |
//! |-----------------|---------------------------------------|-------------------------------------------|----------|
//! | `Combinational` | yes                                   | yes                                       | 1        |
//! | `Bypass`        | yes ("enables DEQ when empty")        | no                                        | 1        |
//! | `Pipeline`      | no                                    | yes ("enables ENQ when full")             | 1        |
//! | `Buffer(n)`     | no                                    | no                                        | n        |
//!
//! Combinational properties follow hardware evaluation order: a
//! flow-through pop only observes a push staged *earlier in the same
//! evaluate phase*, so the producer must be registered before the
//! consumer for the zero-latency path to be exercised — exactly the
//! acyclicity requirement real combinational paths impose.

use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::lanebank::FaultLaneBank;
use crate::packet::Payload;
use crate::stall::StallInjector;
use craft_sim::{ActivityToken, SeqDiag, Sequential, StateVisitor, Telemetry};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

/// The kind of point-to-point LI channel (paper Table 1).
///
/// `Packetizer`/`DePacketizer` from Table 1 are adapters over channels
/// rather than channels themselves; see [`crate::Packetizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Pure-wire connection: zero-latency, combinational in both the
    /// data and backpressure directions.
    Combinational,
    /// Registered backpressure, combinational data: an arriving message
    /// can be dequeued the same cycle when the channel is empty.
    Bypass,
    /// Registered data, combinational backpressure: a new message can
    /// be enqueued in the cycle the old one leaves.
    Pipeline,
    /// Fully registered FIFO of the given capacity.
    Buffer(usize),
}

impl ChannelKind {
    fn capacity(self) -> usize {
        match self {
            ChannelKind::Combinational | ChannelKind::Bypass | ChannelKind::Pipeline => 1,
            ChannelKind::Buffer(n) => n,
        }
    }

    fn flow_through(self) -> bool {
        matches!(self, ChannelKind::Combinational | ChannelKind::Bypass)
    }

    fn enq_when_full(self) -> bool {
        matches!(self, ChannelKind::Combinational | ChannelKind::Pipeline)
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelKind::Combinational => write!(f, "Combinational"),
            ChannelKind::Bypass => write!(f, "Bypass"),
            ChannelKind::Pipeline => write!(f, "Pipeline"),
            ChannelKind::Buffer(n) => write!(f, "Buffer({n})"),
        }
    }
}

/// Aggregate statistics for one channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelStats {
    /// Messages successfully transferred (counted at pop).
    pub transfers: u64,
    /// Failed non-blocking pushes (backpressure observed by producer).
    pub push_backpressure: u64,
    /// Failed non-blocking pops (consumer found channel empty/stalled).
    pub pop_empty: u64,
    /// Cycles the channel spent with an injected stall active.
    pub stall_cycles: u64,
    /// Commit phases observed (channel-domain cycles).
    pub cycles: u64,
    /// Sum of committed occupancy over cycles (for mean occupancy).
    pub occupancy_sum: u64,
}

impl ChannelStats {
    /// Mean committed occupancy in messages.
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.cycles as f64
        }
    }
}

/// Payload-corruption hook: inverts a bit chosen by the raw draw.
type CorruptFn<T> = Box<dyn FnMut(&mut T, u32)>;

/// Presents one token to a [`StateVisitor`] as state words (see
/// [`ChannelHandle::present_tokens`]).
pub type TokenWords<T> = fn(&T, &mut StateVisitor<'_>);

/// Fault machinery attached to a channel: the decision source plus the
/// type-erased payload hooks (corruption and cloning need `T: Payload`,
/// which `ChannelCore<T>` itself does not require — the closures are
/// built by [`ChannelHandle::inject_faults`] where the bound holds).
pub(crate) struct FaultState<T> {
    pub(crate) injector: FaultInjector,
    /// Inverts payload bit `raw % bit_width` in place.
    corrupt: CorruptFn<T>,
    /// `T::clone`, captured where `T: Payload` is known.
    clone_fn: Box<dyn Fn(&T) -> T>,
    /// Decisions drawn at push time, applied at commit.
    pending_drop: bool,
    pending_dup: bool,
    /// Stuck-wire state for the current cycle (rolled at commit, like
    /// `stalled_now`).
    valid_stuck: bool,
    ready_stuck: bool,
}

impl<T> FaultState<T> {
    fn new<P>(cfg: FaultConfig, seed: u64) -> FaultState<P>
    where
        P: Payload,
    {
        FaultState {
            injector: FaultInjector::new(cfg, seed),
            corrupt: Box::new(|v: &mut P, raw: u32| {
                let mut words = v.to_words();
                let bits = (words.len() * 64) as u32;
                let bit = raw % bits;
                words[(bit / 64) as usize] ^= 1u64 << (bit % 64);
                *v = P::from_words(&words);
            }),
            clone_fn: Box::new(P::clone),
            pending_drop: false,
            pending_dup: false,
            valid_stuck: false,
            ready_stuck: false,
        }
    }
}

pub(crate) struct ChannelCore<T> {
    pub(crate) name: String,
    kind: ChannelKind,
    queue: VecDeque<T>,
    /// At most one push staged per cycle.
    staged_push: Option<T>,
    /// A push was issued this cycle (guards one push per cycle even if
    /// the staged value was consumed by a flow-through pop).
    pushed_this_cycle: bool,
    /// A pop (queue or flow-through) already happened this cycle.
    popped_this_cycle: bool,
    /// The pop this cycle removed a *committed* entry (frees a slot for
    /// enq-when-full kinds; also restores occupancy-as-of-last-commit
    /// for registered-backpressure accounting).
    popped_committed: bool,
    pub(crate) stall: Option<StallInjector>,
    stalled_now: bool,
    pub(crate) fault: Option<FaultState<T>>,
    /// Shadow fault-lane bank for batched lockstep runs (see
    /// [`crate::FaultLaneBank`]): replays N lanes' fault decisions
    /// against this channel's token stream without perturbing it.
    /// Attached to fault-free golden channels only.
    lane_bank: Option<FaultLaneBank>,
    pub(crate) stats: ChannelStats,
    /// Queue length as of the last commit — what every elided commit
    /// cycle's occupancy actually was (see [`Sequential::commit_skipped`]).
    committed_occupancy: u64,
    /// Set on every successful push: data is (or will be) available,
    /// so a sleeping consumer must wake.
    pub(crate) consumer_wake: Option<ActivityToken>,
    /// Set on every successful pop: space frees up at commit, so a
    /// producer sleeping on backpressure must wake.
    pub(crate) producer_wake: Option<ActivityToken>,
    /// Set whenever the next commit has real work (staged push, a pop
    /// to reconcile, or an active stall injector that must roll its
    /// RNG every cycle). Clean commits may be elided by the kernel.
    commit_dirty: ActivityToken,
    /// Forward-progress signal for the hang watchdog: set on every
    /// successful push and pop when wired (see
    /// [`ChannelHandle::set_progress_token`]).
    progress: Option<ActivityToken>,
    /// Exact mirror of [`has_pending`](Self::has_pending), shared with
    /// the consumer port so quiescence checks (which run once per
    /// delivered tick across every router/PE/hub input) read a `Cell`
    /// instead of borrowing the core. Every queue/staged mutation
    /// resynchronizes it.
    pending: Rc<Cell<bool>>,
    /// How to present a held token as state words; without it a
    /// channel that holds one is opaque.
    token_words: Option<TokenWords<T>>,
}

impl<T> ChannelCore<T> {
    fn new(name: String, kind: ChannelKind) -> Self {
        assert!(kind.capacity() > 0, "channel capacity must be nonzero");
        ChannelCore {
            name,
            kind,
            queue: VecDeque::with_capacity(kind.capacity()),
            staged_push: None,
            pushed_this_cycle: false,
            popped_this_cycle: false,
            popped_committed: false,
            stall: None,
            stalled_now: false,
            fault: None,
            lane_bank: None,
            stats: ChannelStats::default(),
            committed_occupancy: 0,
            consumer_wake: None,
            producer_wake: None,
            commit_dirty: ActivityToken::new(),
            progress: None,
            pending: Rc::new(Cell::new(false)),
            token_words: None,
        }
    }

    /// Shared handle to the pending-data mirror, handed to the
    /// consumer port at construction.
    pub(crate) fn pending_handle(&self) -> Rc<Cell<bool>> {
        Rc::clone(&self.pending)
    }

    /// Resynchronizes the pending mirror; call at the end of every
    /// method that may change `queue` or `staged_push`.
    #[inline]
    fn sync_pending(&self) {
        self.pending
            .set(!self.queue.is_empty() || self.staged_push.is_some());
    }

    /// Data committed *or staged*: true when the channel offers data
    /// now or will after the next commit. Deliberately ignores stall
    /// injection and the one-pop-per-cycle limit, so it is safe as a
    /// quiescence input — a component must not sleep while data it
    /// will eventually have to consume sits anywhere in the channel.
    pub(crate) fn has_pending(&self) -> bool {
        !self.queue.is_empty() || self.staged_push.is_some()
    }

    /// Occupancy as committed at the last commit phase (pops this cycle
    /// do not free registered slots until commit).
    fn committed_len(&self) -> usize {
        self.queue.len() + usize::from(self.popped_committed)
    }

    /// The consumer-facing `valid` is forced deasserted (permanent
    /// stuck-valid fault).
    fn valid_stuck(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.valid_stuck)
    }

    pub(crate) fn can_push(&self) -> bool {
        if self.pushed_this_cycle {
            return false; // one push per cycle
        }
        if self.fault.as_ref().is_some_and(|f| f.ready_stuck) {
            return false; // ready stuck deasserted
        }
        if self.committed_len() < self.kind.capacity() {
            return true;
        }
        self.kind.enq_when_full() && self.popped_committed
    }

    /// Backpressure that only a consumer's pop can lift: a push is
    /// refused now *and* nothing staged this cycle will change that at
    /// commit — no pop frees a slot, no push of our own occupies the
    /// port for just this cycle. The output-side dual of
    /// [`has_pending`](Self::has_pending), and like it an input to
    /// sleep decisions: a pop staged earlier in the same instant is
    /// invisible to [`can_push`](Self::can_push) on registered kinds
    /// but fires the producer's wake token only once, so a producer
    /// that sleeps on `!can_push()` alone misses the freed slot.
    /// A stuck `ready` wire is deliberately not "blocked": the fault
    /// model owns that state, so its producer stays awake.
    pub(crate) fn push_blocked(&self) -> bool {
        !self.pushed_this_cycle
            && !self.popped_committed
            && !self.fault.as_ref().is_some_and(|f| f.ready_stuck)
            && self.committed_len() >= self.kind.capacity()
    }

    pub(crate) fn push_nb(&mut self, v: T) -> Result<(), T> {
        if self.can_push() {
            let mut v = v;
            if let Some(f) = &mut self.fault {
                // One draw per admitted token: the fault schedule is a
                // function of the token index alone.
                let tf = f.injector.on_token();
                if let Some(raw) = tf.flip_bit {
                    (f.corrupt)(&mut v, raw);
                    f.injector.stats.flips += 1;
                }
                f.pending_drop = tf.drop;
                f.pending_dup = tf.duplicate;
            }
            if let Some(b) = &mut self.lane_bank {
                // One shadow draw per admitted token for every live
                // lane — the same admission point a solo injector
                // draws at, so lane decision streams line up exactly.
                b.on_push();
            }
            self.staged_push = Some(v);
            self.pushed_this_cycle = true;
            if let Some(w) = &self.consumer_wake {
                w.set();
            }
            if let Some(p) = &self.progress {
                p.set();
            }
            self.commit_dirty.set();
            self.pending.set(true);
            Ok(())
        } else {
            self.stats.push_backpressure += 1;
            Err(v)
        }
    }

    pub(crate) fn can_pop(&self) -> bool {
        if self.stalled_now || self.popped_this_cycle || self.valid_stuck() {
            return false;
        }
        if !self.queue.is_empty() {
            return true;
        }
        self.kind.flow_through() && self.staged_push.is_some()
    }

    pub(crate) fn pop_nb(&mut self) -> Option<T> {
        if self.stalled_now || self.popped_this_cycle || self.valid_stuck() {
            self.stats.pop_empty += 1;
            return None;
        }
        if let Some(v) = self.queue.pop_front() {
            self.popped_this_cycle = true;
            self.popped_committed = true;
            self.stats.transfers += 1;
            if let Some(w) = &self.producer_wake {
                w.set();
            }
            if let Some(p) = &self.progress {
                p.set();
            }
            self.commit_dirty.set();
            self.sync_pending();
            return Some(v);
        }
        if self.kind.flow_through() {
            if let Some(v) = self.staged_push.take() {
                self.popped_this_cycle = true;
                self.stats.transfers += 1;
                if let Some(w) = &self.producer_wake {
                    w.set();
                }
                if let Some(p) = &self.progress {
                    p.set();
                }
                if let Some(f) = &mut self.fault {
                    // The token never reaches commit; its drop/dup
                    // decisions are moot.
                    f.pending_drop = false;
                    f.pending_dup = false;
                }
                self.commit_dirty.set();
                self.sync_pending();
                return Some(v);
            }
        }
        self.stats.pop_empty += 1;
        None
    }

    pub(crate) fn peek_ref(&self) -> Option<&T> {
        if self.stalled_now || self.popped_this_cycle || self.valid_stuck() {
            return None;
        }
        if let Some(front) = self.queue.front() {
            return Some(front);
        }
        if self.kind.flow_through() {
            return self.staged_push.as_ref();
        }
        None
    }

    fn do_commit(&mut self) {
        self.popped_this_cycle = false;
        self.popped_committed = false;
        self.pushed_this_cycle = false;
        if let Some(v) = self.staged_push.take() {
            let dropped = match &mut self.fault {
                Some(f) if f.pending_drop => {
                    f.pending_drop = false;
                    f.pending_dup = false; // a lost token is not also duplicated
                    f.injector.stats.drops += 1;
                    true
                }
                _ => false,
            };
            if !dropped {
                debug_assert!(
                    self.queue.len() < self.kind.capacity(),
                    "channel `{}` overflow at commit",
                    self.name
                );
                self.queue.push_back(v);
                if let Some(b) = &mut self.lane_bank {
                    // The token landed: resolve shadow lanes' pending
                    // duplicates against post-push occupancy — exactly
                    // the admission arithmetic of the solo dup branch
                    // below.
                    b.on_commit(self.queue.len(), self.kind.capacity());
                }
                if let Some(f) = &mut self.fault {
                    if f.pending_dup {
                        f.pending_dup = false;
                        if self.queue.len() < self.kind.capacity() {
                            let dup = (f.clone_fn)(self.queue.back().expect("just pushed"));
                            self.queue.push_back(dup);
                            f.injector.stats.dups += 1;
                        } else {
                            // No slot for the echo: the duplication
                            // happened on the wire but the FIFO absorbed
                            // it. Counted so campaigns can report it.
                            f.injector.stats.dups_suppressed += 1;
                        }
                    }
                }
            }
        }
        self.stats.cycles += 1;
        self.stats.occupancy_sum += self.queue.len() as u64;
        self.committed_occupancy = self.queue.len() as u64;
        // Decide whether the *next* cycle is stalled.
        self.stalled_now = match &mut self.stall {
            Some(s) => s.roll(),
            None => false,
        };
        if self.stalled_now {
            self.stats.stall_cycles += 1;
        }
        // Roll the stuck-wire state for the next cycle.
        if let Some(f) = &mut self.fault {
            let (valid_stuck, ready_stuck) = f.injector.on_cycle();
            f.valid_stuck = valid_stuck;
            f.ready_stuck = ready_stuck;
        }
        // A stall injector consumes RNG state every cycle and a fault
        // injector counts cycles, so a channel with either armed must
        // never have its commits elided: re-arm the dirty token so the
        // next commit also runs.
        if self.stall.is_some() || self.fault.is_some() {
            self.commit_dirty.set();
        }
        // A pending-drop fault may have consumed the staged token.
        self.sync_pending();
    }
}

impl<T> Sequential for ChannelCore<T> {
    fn commit(&mut self) {
        self.do_commit();
    }

    fn commit_skipped(&mut self, skipped: u64) {
        // Elided commits are cycles with no staged work: occupancy held
        // at its last committed value, and no stall injector was armed
        // (armed injectors keep the dirty token set).
        self.stats.cycles += skipped;
        self.stats.occupancy_sum += self.committed_occupancy * skipped;
    }

    /// Queue, staged push, the per-cycle handshake flags and the stuck
    /// wires are state; what the commits count is counters. The two
    /// counts only a port call moves — refused pushes, empty pops —
    /// belong to whoever holds the port ([`crate::Out::visit_counters`],
    /// [`crate::In::visit_counters`]): they move on cycles in which the
    /// channel does not commit.
    ///
    /// Opaque: a stall injector (it rolls its RNG every cycle), a lane
    /// bank, a stuck onset still ahead (see [`FaultInjector::on_cycle`])
    /// and a held token nobody said how to present
    /// ([`ChannelHandle::present_tokens`]).
    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        let unreadable = self.token_words.is_none() && self.has_pending();
        let onset_ahead = self
            .fault
            .as_ref()
            .is_some_and(|f| f.injector.onset_ahead());
        if self.stall.is_some() || self.lane_bank.is_some() || unreadable || onset_ahead {
            return v.opaque();
        }
        v.state(self.queue.len() as u64);
        v.state(u64::from(self.staged_push.is_some()));
        if let Some(words) = self.token_words {
            for token in self.queue.iter().chain(&self.staged_push) {
                words(token, v);
            }
        }
        // No stall injector: `stalled_now` is false and stays so.
        v.state(
            u64::from(self.pushed_this_cycle)
                | u64::from(self.popped_this_cycle) << 1
                | u64::from(self.popped_committed) << 2,
        );
        v.state(self.committed_occupancy);
        if let Some(f) = &mut self.fault {
            v.state(
                u64::from(f.pending_drop)
                    | u64::from(f.pending_dup) << 1
                    | u64::from(f.valid_stuck) << 2
                    | u64::from(f.ready_stuck) << 3,
            );
            f.injector.visit_state(v);
        }
        let st = &mut self.stats;
        for c in [&mut st.transfers, &mut st.cycles, &mut st.occupancy_sum] {
            v.counter(c);
        }
    }

    fn diagnose(&self) -> Option<SeqDiag> {
        let mut note = self.kind.to_string();
        if self.stalled_now {
            note.push_str(", stalled");
        }
        if let Some(s) = &self.stall {
            let _ = write!(note, ", stall {s}");
        }
        if let Some(f) = &self.fault {
            let _ = write!(note, ", {}", f.injector);
            if f.valid_stuck {
                note.push_str(", valid stuck");
            }
            if f.ready_stuck {
                note.push_str(", ready stuck");
            }
        }
        Some(SeqDiag {
            name: self.name.clone(),
            occupancy: self.committed_len(),
            pending: self.has_pending(),
            note,
        })
    }
}

/// Owner-side handle to a channel: registration, stall injection and
/// statistics. Returned by [`channel`] together with the two ports.
pub struct ChannelHandle<T> {
    pub(crate) core: Rc<RefCell<ChannelCore<T>>>,
}

impl<T: 'static> ChannelHandle<T> {
    /// The commit-phase hook to register with
    /// [`craft_sim::Simulator::add_sequential`] on the channel's clock
    /// domain.
    pub fn sequential(&self) -> Rc<RefCell<dyn Sequential>> {
        Rc::<RefCell<ChannelCore<T>>>::clone(&self.core) as Rc<RefCell<dyn Sequential>>
    }

    /// The channel's commit-dirty token, for registering with
    /// [`craft_sim::Simulator::add_sequential_gated`]: commits are then
    /// elided on cycles where nothing was pushed, popped, or stalled,
    /// with statistics caught up exactly via
    /// [`Sequential::commit_skipped`].
    pub fn commit_token(&self) -> ActivityToken {
        self.core.borrow().commit_dirty.clone()
    }

    /// Teaches the channel to present the tokens it holds as state
    /// words (`words` calls [`StateVisitor::state`] for every field of
    /// one token), so a kernel proving a run periodic can compare
    /// queue contents (see [`Sequential::visit_state`]). Arming a
    /// fault injector does this by itself, from the token's
    /// [`Payload`] encoding.
    pub fn present_tokens(&self, words: TokenWords<T>) {
        self.core.borrow_mut().token_words = Some(words);
    }

    /// Enables random stall injection (§2.3: withholding `valid` to
    /// perturb timing without touching design or testbench code).
    ///
    /// Arming an injector marks the channel's commit dirty and keeps it
    /// so: the injector's RNG must roll every cycle, which makes stall
    /// sequences identical whether or not commit gating is enabled.
    pub fn inject_stalls(&self, injector: StallInjector) {
        let mut core = self.core.borrow_mut();
        core.stall = Some(injector);
        core.commit_dirty.set();
    }

    /// Disables stall injection.
    pub fn clear_stalls(&self) {
        let mut core = self.core.borrow_mut();
        core.stall = None;
        core.stalled_now = false;
        core.commit_dirty.set();
    }

    /// Disables fault injection, discarding the injector and its stats.
    pub fn clear_faults(&self) {
        let mut core = self.core.borrow_mut();
        core.fault = None;
        core.commit_dirty.set();
    }

    /// Snapshot of the fault-injection statistics, when an injector is
    /// armed (see [`inject_faults`](Self::inject_faults)).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.core
            .borrow()
            .fault
            .as_ref()
            .map(|f| f.injector.stats())
    }

    /// Attaches a shadow fault-lane bank ([`crate::FaultLaneBank`])
    /// for batched lockstep runs: the bank replays every lane's fault
    /// decisions against this channel's token stream (one draw per
    /// admitted token, duplicate resolution at that token's commit)
    /// without perturbing the channel itself. Attach to *fault-free*
    /// golden channels only — with a real injector also armed, the
    /// perturbed stream no longer matches the lanes' solo trajectories.
    ///
    /// Observation-only: the channel's behaviour, statistics and
    /// commit-elision eligibility are unchanged (bank hooks fire only
    /// at pushes and token-landing commits, which are never elided).
    ///
    /// # Panics
    /// Panics if this channel has a fault injector armed.
    pub fn attach_lane_bank(&self, bank: FaultLaneBank) {
        let mut core = self.core.borrow_mut();
        assert!(
            core.fault.is_none(),
            "lane bank requires a fault-free golden channel `{}`",
            core.name
        );
        core.lane_bank = Some(bank);
    }

    /// Detaches the lane bank, handing it back with its accumulated
    /// shadow statistics. `None` when no bank is attached.
    pub fn detach_lane_bank(&self) -> Option<FaultLaneBank> {
        self.core.borrow_mut().lane_bank.take()
    }

    /// Shadow fault statistics for `lane` from the attached bank —
    /// exact for lanes still converged with the golden run. `None`
    /// when no bank is attached or the lane is not armed here.
    pub fn lane_bank_stats(&self, lane: usize) -> Option<FaultStats> {
        self.core
            .borrow()
            .lane_bank
            .as_ref()
            .and_then(|b| b.lane_stats(lane))
    }

    /// Wires the hang watchdog's progress signal to this channel: every
    /// successful push or pop sets `token`, so traffic here counts as
    /// forward progress for
    /// [`craft_sim::Simulator::run_until_checked`]. Pass the kernel's
    /// [`craft_sim::Simulator::progress_token`]. Wire it to data-plane
    /// channels only — a control loop that polls forever (e.g. a
    /// controller spinning on a status register) would otherwise mask
    /// real hangs.
    pub fn set_progress_token(&self, token: ActivityToken) {
        self.core.borrow_mut().progress = Some(token);
    }

    /// Snapshot of the channel statistics.
    pub fn stats(&self) -> ChannelStats {
        self.core.borrow().stats.clone()
    }

    /// Channel name given at construction.
    pub fn name(&self) -> String {
        self.core.borrow().name.clone()
    }

    /// Committed occupancy right now.
    pub fn occupancy(&self) -> usize {
        self.core.borrow().committed_len()
    }

    /// Registers this channel's statistics as polled telemetry probes
    /// under `path` (`<path>.transfers`, `.backpressure`, `.pop_empty`,
    /// `.stall_cycles`, `.occupancy`, `.occupancy_sum`, plus
    /// `.faults_injected` when a fault injector is armed at snapshot
    /// time). Probes are evaluated only when a snapshot is taken, so
    /// publishing costs nothing while the simulation runs —
    /// observation-only by construction.
    pub fn publish_telemetry(&self, tel: &Telemetry, path: &str) {
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.transfers"), move || {
            c.borrow().stats.transfers
        });
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.backpressure"), move || {
            c.borrow().stats.push_backpressure
        });
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.pop_empty"), move || {
            c.borrow().stats.pop_empty
        });
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.stall_cycles"), move || {
            c.borrow().stats.stall_cycles
        });
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.occupancy"), move || {
            c.borrow().committed_len() as u64
        });
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.occupancy_sum"), move || {
            c.borrow().stats.occupancy_sum
        });
        let c = Rc::clone(&self.core);
        tel.probe(format!("{path}.faults_injected"), move || {
            c.borrow()
                .fault
                .as_ref()
                .map_or(0, |f| f.injector.stats().injected())
        });
    }
}

impl<T: Payload> ChannelHandle<T> {
    /// Arms seeded data-fault injection (bit-flips, drops, duplicates,
    /// stuck wires — see [`FaultConfig`]) on this channel.
    ///
    /// Like [`inject_stalls`](Self::inject_stalls) this perturbs the
    /// channel from the outside: neither the producer nor the consumer
    /// changes. Requires `T: Payload` because corruption flips a bit of
    /// the serialized form and duplication clones the token.
    ///
    /// Arming keeps the channel's commit dirty (the injector counts
    /// cycles and rolls per-token randoms), so fault schedules are
    /// identical with and without commit gating.
    pub fn inject_faults(&self, cfg: FaultConfig, seed: u64) {
        let mut core = self.core.borrow_mut();
        core.fault = Some(FaultState::<T>::new::<T>(cfg, seed));
        core.token_words.get_or_insert(|token, v| {
            for word in token.to_words() {
                v.state(word);
            }
        });
        core.commit_dirty.set();
    }
}

impl<T> fmt::Debug for ChannelHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.borrow();
        f.debug_struct("ChannelHandle")
            .field("name", &core.name)
            .field("kind", &core.kind)
            .field("occupancy", &core.queue.len())
            .finish()
    }
}

/// Creates a named channel of the given kind, returning the producer
/// port, consumer port and owner handle.
///
/// The ports are *polymorphic*: component code is written against
/// [`crate::In`]/[`crate::Out`] and is oblivious to which kind was
/// chosen here — the paper's central API property (§2.3).
///
/// # Panics
/// Panics if `kind` is `Buffer(0)`.
///
/// ```
/// use craft_connections::{channel, ChannelKind};
/// let (mut tx, mut rx, _h) = channel::<u32>("dut.in", ChannelKind::Buffer(2));
/// assert!(tx.push_nb(7).is_ok());
/// // Fully registered buffer: the message is visible after commit only.
/// assert_eq!(rx.pop_nb(), None);
/// ```
pub fn channel<T>(
    name: impl Into<String>,
    kind: ChannelKind,
) -> (crate::Out<T>, crate::In<T>, ChannelHandle<T>) {
    let core = Rc::new(RefCell::new(ChannelCore::new(name.into(), kind)));
    (
        crate::Out::new(Rc::clone(&core)),
        crate::In::new(Rc::clone(&core)),
        ChannelHandle { core },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::StallInjector;

    fn mk(kind: ChannelKind) -> Rc<RefCell<ChannelCore<u32>>> {
        Rc::new(RefCell::new(ChannelCore::new("t".into(), kind)))
    }

    #[test]
    fn buffer_is_fully_registered() {
        let c = mk(ChannelKind::Buffer(2));
        assert!(c.borrow_mut().push_nb(1).is_ok());
        // Not visible before commit.
        assert!(!c.borrow().can_pop());
        c.borrow_mut().do_commit();
        assert!(c.borrow().can_pop());
        assert_eq!(c.borrow_mut().pop_nb(), Some(1));
    }

    #[test]
    fn buffer_full_blocks_push() {
        let c = mk(ChannelKind::Buffer(1));
        assert!(c.borrow_mut().push_nb(1).is_ok());
        c.borrow_mut().do_commit();
        // Full; no enq-when-full for Buffer even with a staged pop.
        assert_eq!(c.borrow_mut().pop_nb(), Some(1));
        assert_eq!(c.borrow_mut().push_nb(2), Err(2));
        c.borrow_mut().do_commit();
        assert!(c.borrow_mut().push_nb(2).is_ok());
    }

    #[test]
    fn pipeline_enq_when_full() {
        let c = mk(ChannelKind::Pipeline);
        assert!(c.borrow_mut().push_nb(1).is_ok());
        c.borrow_mut().do_commit();
        // Consumer pops, then producer may enq in the same cycle.
        assert_eq!(c.borrow_mut().pop_nb(), Some(1));
        assert!(c.borrow().can_push());
        assert!(c.borrow_mut().push_nb(2).is_ok());
        c.borrow_mut().do_commit();
        assert_eq!(c.borrow_mut().pop_nb(), Some(2));
    }

    #[test]
    fn pipeline_is_not_flow_through() {
        let c = mk(ChannelKind::Pipeline);
        assert!(c.borrow_mut().push_nb(1).is_ok());
        // Same-cycle pop must fail: data is registered.
        assert_eq!(c.borrow_mut().pop_nb(), None);
    }

    #[test]
    fn bypass_deq_when_empty() {
        let c = mk(ChannelKind::Bypass);
        // Producer stages a push; consumer (evaluated later) pops it
        // within the same cycle because the channel is empty.
        assert!(c.borrow_mut().push_nb(7).is_ok());
        assert!(c.borrow().can_pop());
        assert_eq!(c.borrow_mut().pop_nb(), Some(7));
        c.borrow_mut().do_commit();
        assert!(!c.borrow().can_pop());
    }

    #[test]
    fn bypass_no_enq_when_full() {
        let c = mk(ChannelKind::Bypass);
        assert!(c.borrow_mut().push_nb(1).is_ok());
        c.borrow_mut().do_commit();
        assert_eq!(c.borrow_mut().pop_nb(), Some(1));
        // Registered backpressure: cannot refill until commit.
        assert_eq!(c.borrow_mut().push_nb(2), Err(2));
    }

    #[test]
    fn combinational_same_cycle_round_trip() {
        let c = mk(ChannelKind::Combinational);
        for cycle in 0..4u32 {
            assert!(c.borrow_mut().push_nb(cycle).is_ok());
            assert_eq!(c.borrow_mut().pop_nb(), Some(cycle));
            c.borrow_mut().do_commit();
        }
        let stats = c.borrow().stats.clone();
        assert_eq!(stats.transfers, 4);
        assert_eq!(stats.push_backpressure, 0);
    }

    #[test]
    fn one_push_per_cycle() {
        let c = mk(ChannelKind::Buffer(8));
        assert!(c.borrow_mut().push_nb(1).is_ok());
        assert_eq!(c.borrow_mut().push_nb(2), Err(2));
        c.borrow_mut().do_commit();
        assert!(c.borrow_mut().push_nb(2).is_ok());
    }

    #[test]
    fn peek_does_not_consume() {
        let c = mk(ChannelKind::Buffer(2));
        assert!(c.borrow_mut().push_nb(5).is_ok());
        c.borrow_mut().do_commit();
        assert_eq!(c.borrow().peek_ref(), Some(&5));
        assert_eq!(c.borrow().peek_ref(), Some(&5));
        assert_eq!(c.borrow_mut().pop_nb(), Some(5));
    }

    #[test]
    fn stall_withholds_valid() {
        let c = mk(ChannelKind::Buffer(4));
        c.borrow_mut().stall = Some(StallInjector::always());
        assert!(c.borrow_mut().push_nb(1).is_ok());
        c.borrow_mut().do_commit(); // stall decided for next cycle
        assert!(!c.borrow().can_pop());
        assert_eq!(c.borrow_mut().pop_nb(), None);
        // Producer side unaffected by stalls.
        assert!(c.borrow().can_push());
        let stats = c.borrow().stats.clone();
        assert!(stats.stall_cycles >= 1);
    }

    #[test]
    fn stats_mean_occupancy() {
        let c = mk(ChannelKind::Buffer(4));
        assert!(c.borrow_mut().push_nb(1).is_ok());
        c.borrow_mut().do_commit(); // occ 1
        assert!(c.borrow_mut().push_nb(2).is_ok());
        c.borrow_mut().do_commit(); // occ 2
        let stats = c.borrow().stats.clone();
        assert_eq!(stats.cycles, 2);
        assert!((stats.mean_occupancy() - 1.5).abs() < 1e-9);
    }

    /// Drives `n` tokens through a Buffer(4) channel with the given
    /// fault config, one push + one pop attempt per cycle, and returns
    /// (received tokens, fault stats).
    fn run_faulted(cfg: FaultConfig, seed: u64, n: u32) -> (Vec<u32>, FaultStats) {
        let (mut tx, mut rx, h) = channel::<u32>("f", ChannelKind::Buffer(4));
        h.inject_faults(cfg, seed);
        let mut got = Vec::new();
        let mut next = 0u32;
        for _ in 0..(n as usize * 4 + 16) {
            if next < n && tx.push_nb(next).is_ok() {
                next += 1;
            }
            if let Some(v) = rx.pop_nb() {
                got.push(v);
            }
            h.core.borrow_mut().do_commit();
        }
        (got, h.fault_stats().expect("injector armed"))
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let (got, stats) = run_faulted(FaultConfig::bit_flip(1.0), 11, 32);
        assert_eq!(got.len(), 32);
        assert_eq!(stats.flips, 32);
        for (i, v) in got.iter().enumerate() {
            // Exactly one bit differs from the sent value. The flipped
            // bit may land in the upper u64 half (u32's Payload widens
            // to one word), in which case the value survives intact.
            let diff = (*v as u64) ^ (i as u64);
            assert!(diff.count_ones() <= 1, "token {i} became {v}");
        }
        // With p=1.0 some token must actually change in its low 32 bits.
        assert!(got.iter().enumerate().any(|(i, v)| *v != i as u32));
    }

    #[test]
    fn drop_loses_tokens_without_reordering() {
        let (got, stats) = run_faulted(FaultConfig::drop(0.5), 7, 64);
        assert_eq!(got.len() as u64 + stats.drops, 64);
        assert!(stats.drops > 0, "p=0.5 over 64 tokens must drop some");
        // Survivors keep their order.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn duplicate_echoes_tokens_in_place() {
        let (got, stats) = run_faulted(FaultConfig::duplicate(1.0), 3, 16);
        assert_eq!(stats.dups + stats.dups_suppressed, 16);
        assert_eq!(got.len() as u64, 16 + stats.dups);
        // Every applied duplicate is adjacent to its original.
        let mut expect = Vec::new();
        let mut dups_seen = 0;
        for i in 0..16u32 {
            expect.push(i);
            if dups_seen < stats.dups && got.iter().filter(|&&v| v == i).count() == 2 {
                expect.push(i);
                dups_seen += 1;
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn stuck_valid_blocks_pop_keeps_data() {
        let (mut tx, mut rx, h) = channel::<u32>("sv", ChannelKind::Buffer(4));
        h.inject_faults(FaultConfig::stuck_valid(1), 0);
        assert!(tx.push_nb(9).is_ok());
        h.core.borrow_mut().do_commit(); // cycle 1: valid now stuck
        assert!(!rx.can_pop());
        assert_eq!(rx.pop_nb(), None);
        // Data is retained, producer side still accepts.
        assert_eq!(h.occupancy(), 1);
        assert!(tx.can_push());
        assert!(h.fault_stats().unwrap().stuck_valid_cycles >= 1);
    }

    #[test]
    fn stuck_ready_blocks_push() {
        let (mut tx, mut rx, h) = channel::<u32>("sr", ChannelKind::Buffer(4));
        h.inject_faults(FaultConfig::stuck_ready(1), 0);
        assert!(tx.push_nb(1).is_ok());
        h.core.borrow_mut().do_commit(); // cycle 1: ready now stuck
        assert!(!tx.can_push());
        assert_eq!(tx.push_nb(2), Err(2));
        // Consumer drains what made it in.
        assert_eq!(rx.pop_nb(), Some(1));
        // clear_faults releases the wire.
        h.clear_faults();
        h.core.borrow_mut().do_commit();
        assert!(tx.can_push());
        assert!(h.fault_stats().is_none());
    }

    #[test]
    fn fault_schedule_is_independent_of_stalls() {
        // Same fault seed, one run stalled and one clean: the set of
        // delivered tokens is identical because fault decisions are per
        // token, not per cycle.
        let clean = run_faulted(FaultConfig::drop(0.3), 21, 48).0;
        let (mut tx, mut rx, h) = channel::<u32>("fs", ChannelKind::Buffer(4));
        h.inject_faults(FaultConfig::drop(0.3), 21);
        h.inject_stalls(StallInjector::burst(1, 3));
        let mut got = Vec::new();
        let mut next = 0u32;
        for _ in 0..2000 {
            if next < 48 && tx.push_nb(next).is_ok() {
                next += 1;
            }
            if let Some(v) = rx.pop_nb() {
                got.push(v);
            }
            h.core.borrow_mut().do_commit();
        }
        assert_eq!(got, clean);
    }

    #[test]
    fn diagnose_reports_occupancy_and_fault_state() {
        let (mut tx, _rx, h) = channel::<u32>("diag", ChannelKind::Buffer(2));
        h.inject_faults(FaultConfig::stuck_valid(1), 0);
        assert!(tx.push_nb(1).is_ok());
        h.core.borrow_mut().do_commit();
        let d = h.core.borrow().diagnose().expect("channels self-report");
        assert_eq!(d.name, "diag");
        assert_eq!(d.occupancy, 1);
        assert!(d.pending);
        assert!(d.note.contains("Buffer(2)"), "note: {}", d.note);
        assert!(d.note.contains("stuck-valid"), "note: {}", d.note);
        assert!(d.note.contains("valid stuck"), "note: {}", d.note);
    }

    // --- Channels under the kernel's loop probe ---

    /// A producer that pushes 0, 1, 2, … and retries a refused push
    /// forever, and a consumer that polls a second, always-empty
    /// channel and never takes anything from the first: a two-component
    /// hang. Both present their state; the port counters are theirs.
    struct Wedge {
        sim: craft_sim::Simulator,
        clk: craft_sim::ClockId,
        full: ChannelHandle<u32>,
        empty: ChannelHandle<u32>,
    }

    fn wedge(fault: Option<FaultConfig>) -> Wedge {
        use craft_sim::{ClockSpec, Component, Picoseconds, Simulator, TickCtx};
        struct Producer {
            out: crate::Out<u32>,
            next: u32,
        }
        impl Component for Producer {
            fn name(&self) -> &str {
                "producer"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                if self.out.push_nb(self.next).is_ok() {
                    self.next += 1;
                }
            }
            fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
                v.state(u64::from(self.next));
                self.out.visit_counters(v);
            }
        }
        struct Poller {
            input: crate::In<u32>,
        }
        impl Component for Poller {
            fn name(&self) -> &str {
                "poller"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                assert_eq!(self.input.pop_nb(), None);
            }
            fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
                self.input.visit_counters(v);
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (out, _, full) = channel::<u32>("full", ChannelKind::Buffer(2));
        let (_, input, empty) = channel::<u32>("empty", ChannelKind::Buffer(2));
        full.present_tokens(|t, v| v.state(u64::from(*t)));
        if let Some(cfg) = fault {
            full.inject_faults(cfg, 5);
        }
        sim.add_component(clk, Producer { out, next: 0 });
        sim.add_component(clk, Poller { input });
        for h in [&full, &empty] {
            sim.add_sequential_gated(clk, h.sequential(), h.commit_token());
        }
        Wedge {
            sim,
            clk,
            full,
            empty,
        }
    }

    impl Wedge {
        fn standing(
            &self,
        ) -> (
            craft_sim::KernelDigest,
            [ChannelStats; 2],
            Option<FaultStats>,
        ) {
            (
                self.sim.kernel_digest(),
                [self.full.stats(), self.empty.stats()],
                self.full.fault_stats(),
            )
        }
    }

    /// A wedged pair repeats every cycle. The channel that is never
    /// pushed, popped or committed is outside the loop, yet its
    /// empty-pop count moves on every cycle of it: the consumer
    /// presents that count, and the clean cycles the channel is owed
    /// grow with the clock. With an injector armed the full channel
    /// commits every cycle and is inside the loop, tokens, injector and
    /// all. Advanced or stepped, every statistic ends the same.
    #[test]
    fn a_wedged_pair_is_advanced_with_every_statistic_exact() {
        let limit = 20_000;
        for fault in [
            None,
            Some(FaultConfig::duplicate(1.0)),
            Some(FaultConfig::stuck_ready(1)),
        ] {
            let mut w = wedge(fault);
            let err = w
                .sim
                .run_until_checked(w.clk, u64::MAX, limit, || false)
                .expect_err("nothing here is progress");
            assert!(matches!(err, craft_sim::SimError::Hang { cycle, .. } if cycle == limit));
            let proved = w.sim.last_loop().expect("a loop of one cycle");
            assert_eq!((proved.period, proved.proved_at), (1, 1_026), "{fault:?}");

            let mut stepped = wedge(fault);
            assert!(!stepped.sim.run_until(stepped.clk, limit, || false));
            assert_eq!(w.standing(), stepped.standing(), "{fault:?}");
            let [full, empty] = w.standing().1;
            assert_eq!(empty.pop_empty, limit, "{fault:?}");
            assert_eq!(empty.cycles, limit, "{fault:?}");
            assert!(full.push_backpressure > limit - 10, "{fault:?}");
        }
    }

    /// While a stuck onset is still ahead the injector's cycle count is
    /// state with a deadline: the channel is opaque and attempts fail.
    /// Once the onset has passed the count only counts, and the next
    /// attempt proves the loop.
    #[test]
    fn a_stuck_onset_still_ahead_keeps_the_channel_opaque() {
        let limit = 20_000;
        let fault = Some(FaultConfig::stuck_valid(3_000));
        let mut w = wedge(fault);
        w.sim
            .run_until_checked(w.clk, u64::MAX, limit, || false)
            .expect_err("nothing here is progress");
        // Attempts at idle 1 024 and 2 048 meet the opaque channel; the
        // one at 4 096 is past the onset.
        let proved = w.sim.last_loop().expect("proved after the onset");
        assert_eq!((proved.period, proved.proved_at), (1, 4_098));
        let mut stepped = wedge(fault);
        assert!(!stepped.sim.run_until(stepped.clk, limit, || false));
        assert_eq!(w.standing(), stepped.standing());
        assert_eq!(w.standing().2.unwrap().stuck_valid_cycles, limit - 2_999);
    }
}
