//! The simulation kernel: a multi-clock, two-phase, cycle-driven
//! scheduler with deterministic ordering.
//!
//! # Execution model
//!
//! Time is an integer picosecond counter. Each registered
//! [`ClockSpec`] produces rising edges; the kernel repeatedly:
//!
//! 1. finds the earliest pending edge time `t` across all domains,
//! 2. **evaluate phase** — ticks every component of every domain with an
//!    edge at `t` (domains in id order, components in registration
//!    order),
//! 3. **commit phase** — commits every [`Sequential`] registered on
//!    those domains (same deterministic order),
//! 4. applies deferred clock requests (stretch/override) and schedules
//!    each ticked domain's next edge.
//!
//! Because reads during evaluate always observe state committed at an
//! earlier instant, the model is flip-flop accurate and insensitive to
//! registration order for well-formed designs.
//!
//! # Scheduling
//!
//! Step 1 does not rescan every domain. The kernel keeps an indexed
//! next-edge structure — a min-heap of `(next_edge, clock)` pairs with
//! lazy invalidation (an entry is stale when its clock is paused or
//! has since been rescheduled; stale entries are dropped when popped) —
//! so finding the earliest instant is O(log #clocks). When exactly one
//! unpaused domain exists (the common case for single-clock benches)
//! even the heap is bypassed: the next instant is that domain's
//! `next_edge`, read directly.
//!
//! # Quiescence gating
//!
//! Components may opt into being skipped while idle: a component that
//! registered a wake token ([`Simulator::set_wake_token`]) and reports
//! [`Component::is_quiescent`] after a tick is put to sleep, and its
//! ticks are elided until some activity source sets the token (e.g. a
//! channel push landing in its input). Wake-up is checked at the
//! sleeper's own edges, in registration order, so delivery order among
//! awake components is exactly what an ungated run produces. There is a
//! second reason to sleep: a component that has work but whose next tick
//! would move nothing — every port it needs is backpressured or empty —
//! may answer [`Component::can_sleep`] with [`Sleep::Blocked`] while
//! `is_quiescent` stays false, and sleeps *blocked* until a peer's push
//! or pop fires the same token. Per-tick counters a blocked tick would
//! have bumped are settled through [`Component::ticks_skipped`] at the
//! wake-up and wherever skipped commits are flushed, and
//! [`Simulator::ticks_skipped_blocked`] says how many of the elided
//! ticks were of this kind. A blocked sleep is transparent to everything
//! the idle kind already made observable: the run is the one in which
//! the component stayed awake ticking no-ops, down to the watchdog's
//! trip cycle (only an idle sleeper's wake counts as progress) and the
//! level a wake token keeps (see the `level_owed` field). Likewise,
//! sequentials registered with a dirty token
//! ([`Simulator::add_sequential_gated`]) have clean commits elided and
//! receive an arithmetic catch-up ([`Sequential::commit_skipped`])
//! before their next real commit or at the end of every `run_*` call.
//! Gating changes [`Simulator::ticks_delivered`] (it is a work proxy)
//! but never [`Simulator::cycles`], simulation time, or any committed
//! state — determinism is the contract, and
//! [`Simulator::set_gating`] exists so tests can prove it.
//!
//! # The loop: the awake set is the schedule
//!
//! There is one dispatcher, and an instant costs what is awake and what
//! is dirty, not what is registered. Every clock domain keeps four
//! worklists (the `Domain` struct): its awake components by ascending
//! index — registration order, which *is* delivery order — its wake
//! candidates, its always-commit sequentials and its dirty candidates. Wake and dirty tokens are attached once, at
//! [`Simulator::set_wake_token`] / [`Simulator::add_sequential_gated`],
//! to the owning domain's notify sinks (see `activity`), so a
//! false→true transition of a flag queues the owner's index in the one
//! domain that will look at it. A sink is drained only when its
//! domain fires: tokens set from another domain wait there exactly as
//! the flag itself waits for the sleeper's own edge.
//!
//! The evaluate phase walks, for each fired clock in id order, *awake ∪
//! candidates* of that clock in one ascending merge; the commit phase
//! walks *always ∪ dirty* the same way. Flags stay the source of truth
//! and candidates stay hints: a candidate's flag is checked — and
//! consumed — only when the walk reaches its owner, never at notify
//! time, so a later set from an earlier component in the same instant
//! cannot schedule a spurious wake. A candidate at or behind the walk
//! waits for the domain's next edge. Elided commits are owed as the
//! domain's edge count minus the edge after the sequential's last real
//! commit; elided ticks are registered-minus-delivered over the fired
//! domains.
//!
//! Nothing about the schedule is assumed regular. GALS periods, pause /
//! resume and stretch / override requests only move an edge the
//! next-edge structure already finds; registration appends to a
//! domain's lists; tick profiling is a branch round the tick; a
//! watchdog trip diagnoses from the sleep flags the walk maintains.
//! With gating off nothing sleeps and every sequential is on its
//! domain's always list: that ungated mode of the *same* loop is the
//! reference the gated mode is tested against.
//!
//! # The loop probe: a hang is a loop
//!
//! A supervised run ([`Simulator::run_until_checked`]) that has made no
//! progress for a while is usually going round a loop — a controller
//! polling a status register that will never change — and a closed
//! deterministic simulator whose state has repeated is determined for
//! good. The supervised loop proves that and then does not step what
//! is already known. Once the watchdog's idle count passes
//! `PROBE_IDLE` (1 024 cycles) it *opens a probe* on an instant
//! boundary: every catch-up is settled, and every member presents its
//! state and its counters ([`Component::visit_state`] /
//! [`Sequential::visit_state`]). From then on the two walks note which
//! components they tick and which sequentials they commit — the set
//! *U* — and each boundary asks whether the clock's worklists, the
//! kernel's flags of *U* (asleep, blocked, owed level, wake and dirty
//! tokens) and the state *U* presents are what was recorded. The first
//! boundary where they are gives a period *P*; when a second period
//! ends in the same state, touched the same members and moved every
//! counter — *U*'s and the scheduler's own — by the same amount as the
//! first, the loop is proved. The run is then advanced by `k` whole
//! periods at once: the clock (`cycles`, `next_edge`, `now`), the
//! watchdog's idle count, `instants`, `ticks_delivered`,
//! `ticks_skipped`, `commits_skipped`, `ticks_skipped_blocked`, every
//! counter of *U* through the same visitor, and the absolute stamps the
//! kernel keeps of *U* (`seen`, `asleep_from`). `k` is the largest
//! count that leaves a whole period before both the watchdog's limit
//! and the call's cycle limit, so the trip, the [`HangReport`] and
//! every boundary the caller sees come from ordinary instants, and the
//! run ends bit for bit where the stepped run ends.
//!
//! What is *not* in *U* was not ticked, not committed and not written
//! to, so it has not changed; what it is owed (skipped commits, blocked
//! ticks) keeps growing with the clock through an advance exactly as
//! through stepped cycles, because its stamps stay put. A member that
//! cannot present its state is *opaque* — the default — and an opaque
//! member in *U* means no proof. So does an applied clock request, a
//! second running clock, tick profiling, and any progress (which ends
//! the hang). A failed attempt doubles the idle threshold for the next,
//! each attempt looks `PROBE_WINDOW` thresholds far for its first
//! recurrence, and a proof is used once and dropped when the call
//! returns. The stepped path is the same code with the probe never
//! proving: the unsupervised `run_*` methods, `step` loops and the
//! ungated mode never advance, and are the reference the advance is
//! tested against.

use crate::activity::{ActivityToken, NotifySink};
use crate::checkpoint::{KernelDigest, WatchdogState};
use crate::clock::{ClockId, ClockSpec, ClockState};
use crate::component::{ClockRequest, Component, Sequential, Sleep, StateVisitor, TickCtx};
use crate::error::{CompDiag, HangReport, SimError};
use crate::telemetry::TickProfile;
use crate::time::Picoseconds;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Handle to a component registered with a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

struct ComponentEntry {
    clock: ClockId,
    component: Box<dyn Component>,
    /// Activity source that can rouse this component; `None` means the
    /// component never sleeps.
    wake: Option<ActivityToken>,
    /// While `true`, evaluate-phase ticks are elided until `wake` fires.
    asleep: bool,
    /// The sleep is of the blocked kind ([`Sleep::Blocked`]).
    blocked: bool,
    /// While asleep blocked: the first edge index of `clock` whose
    /// tick has not yet been reported through
    /// [`Component::ticks_skipped`].
    asleep_from: u64,
    /// A wake from a blocked sleep took the token's level. Had the
    /// component stayed awake through that stretch (blocked sleep must
    /// be indistinguishable from that) the level would still stand and
    /// rouse it once more right after its next idle sleep; it is
    /// re-raised there.
    level_owed: bool,
}

impl ComponentEntry {
    /// The sleep decision after the tick at edge `cycle`; returns
    /// whether the component fell asleep.
    #[inline]
    fn try_sleep(&mut self, cycle: u64) -> bool {
        match self.component.can_sleep() {
            Sleep::No => return false,
            Sleep::Idle => {
                self.blocked = false;
                if std::mem::take(&mut self.level_owed) {
                    if let Some(token) = &self.wake {
                        token.set();
                    }
                }
            }
            Sleep::Blocked => {
                self.blocked = true;
                self.asleep_from = cycle + 1;
            }
        }
        self.asleep = true;
        true
    }

    /// Wakes the sleeper at edge `cycle`, its token just taken.
    /// Returns whether the wake-up counts as watchdog progress: an
    /// idle sleeper coming back to life does, even before its channels
    /// move data; a blocked one was never idle, and waking it must not
    /// move a watchdog trip.
    #[inline]
    fn wake_up(&mut self, cycle: u64, blocked_skips: &Cell<u64>) -> bool {
        self.asleep = false;
        if self.blocked {
            self.settle_skipped_ticks(cycle, blocked_skips);
            self.level_owed = true;
        }
        !self.blocked
    }

    /// The kernel's own behaviour-relevant state of this entry, as one
    /// word for the loop probe (`asleep_from` is a stamp, not state).
    fn probe_flags(&self) -> u64 {
        u64::from(self.asleep)
            | u64::from(self.asleep && self.blocked) << 1
            | u64::from(self.level_owed) << 2
            | u64::from(self.wake.as_ref().is_some_and(ActivityToken::is_set)) << 3
    }

    /// Reports the ticks a blocked sleeper was not delivered up to
    /// (excluding) edge index `edge` of its clock, and moves its mark
    /// there.
    fn settle_skipped_ticks(&mut self, edge: u64, blocked_skips: &Cell<u64>) {
        let n = edge - self.asleep_from;
        if n > 0 {
            self.component.ticks_skipped(n);
            blocked_skips.set(blocked_skips.get() + n);
            self.asleep_from = edge;
        }
    }
}

struct SequentialEntry {
    clock: ClockId,
    state: Rc<RefCell<dyn Sequential>>,
    /// Set by writers when a commit has staged work; `None` means the
    /// sequential commits unconditionally every edge.
    dirty: Option<ActivityToken>,
    /// Edge index of its clock after the last real commit or catch-up:
    /// `cycles - seen` clean commits are owed as
    /// [`Sequential::commit_skipped`].
    seen: u64,
}

impl SequentialEntry {
    /// The kernel's own behaviour-relevant state of this entry for the
    /// loop probe: whether a commit is pending (`seen` is a stamp).
    fn probe_flags(&self) -> u64 {
        u64::from(self.dirty.as_ref().is_some_and(ActivityToken::is_set))
    }

    /// Delivers the clean commits owed up to (excluding) edge index
    /// `cycles` of its clock.
    fn settle_skipped_commits(&mut self, cycles: u64) {
        if self.seen < cycles {
            self.state.borrow_mut().commit_skipped(cycles - self.seen);
            self.seen = cycles;
        }
    }
}

/// Idle cycles after which a supervised run first tries to prove its
/// hang periodic. Doubles with every failed attempt of the call.
const PROBE_IDLE: u64 = 1024;
/// An attempt opened at threshold `t` looks for periods up to
/// `PROBE_WINDOW * t` cycles before it gives up.
const PROBE_WINDOW: u64 = 4;

/// Scheduler counters a proved loop advances, in this order.
type KernelCounters = [u64; 5];

/// What the loop probe recorded of one member when it opened.
struct MemberShot {
    /// Range in [`LoopProbe::state`]: the entry's kernel flags, then
    /// the words the member presented.
    state: (usize, usize),
    /// Range in [`LoopProbe::counters`].
    counters: (usize, usize),
    opaque: bool,
    /// Ticked (committed) since the probe opened.
    touched: bool,
}

/// The first recurrence of a probe: state at `start + period` equalled
/// state at `start`.
struct Lap {
    period: u64,
    /// Lengths of the touched lists at the recurrence.
    touched: (usize, usize),
    kernel: KernelCounters,
    /// Counters of the touched members, in touched order.
    counters: Vec<u64>,
}

/// The components (or the sequentials) as a probe sees them: what
/// each presented when it opened, and which of them the run has
/// touched since — the set *U*, in first-touch order.
#[derive(Default)]
struct Members {
    shots: Vec<MemberShot>,
    touched: Vec<u32>,
}

impl Members {
    /// Notes that member `idx` was ticked (committed); returns whether
    /// that spoils the probe because the member is opaque. Every member
    /// has a shot: a probe lives inside one run call, and registration
    /// needs the simulator the call has borrowed.
    #[inline]
    fn touch(&mut self, idx: u32) -> bool {
        let shot = &mut self.shots[idx as usize];
        if shot.touched {
            return false;
        }
        shot.touched = true;
        self.touched.push(idx);
        shot.opaque
    }

    /// The touched members with their shots, in touched order.
    fn touched(&self) -> impl Iterator<Item = (usize, &MemberShot)> {
        self.touched
            .iter()
            .map(|&i| (i as usize, &self.shots[i as usize]))
    }
}

/// One attempt to prove a supervised run periodic (see "The loop
/// probe" in the module docs). It lives from the boundary it opened on
/// to a verdict, and never past the `run_until_checked_with` call.
struct LoopProbe {
    /// The one unpaused clock.
    ci: usize,
    /// Its cycle count when the probe opened.
    start: u64,
    /// Cycle count at which a probe still looking for its first
    /// recurrence has failed.
    deadline: u64,
    /// Something happened that no recurrence can vouch for: an opaque
    /// member was touched, or a clock request was applied.
    spoiled: bool,
    comps: Members,
    seqs: Members,
    /// What the members presented at `start`, by [`MemberShot`] range.
    state: Vec<u64>,
    counters: Vec<u64>,
    kernel: KernelCounters,
    /// The clock's worklists at `start`: awake components, and the
    /// wake and dirty candidates (`Simulator::candidates`).
    awake: Vec<u32>,
    candidates: [Vec<u32>; 2],
    lap: Option<Lap>,
    scratch: [Vec<u32>; 2],
}

impl LoopProbe {
    // Out of line: the walks' hot loops pay one test of `probe`.
    #[cold]
    #[inline(never)]
    fn touch_component(&mut self, idx: u32) {
        self.spoiled |= self.comps.touch(idx);
    }

    #[cold]
    #[inline(never)]
    fn touch_sequential(&mut self, idx: u32) {
        self.spoiled |= self.seqs.touch(idx);
    }

    /// How many members of each kind have been touched.
    fn touched(&self) -> (usize, usize) {
        (self.comps.touched.len(), self.seqs.touched.len())
    }
}

/// Where a probe stands after one more boundary.
enum ProbeVerdict {
    Pending,
    Failed,
    /// Two periods confirmed; the per-period increments of the kernel
    /// counters and of the touched members' counters.
    Proved(u64, KernelCounters, Vec<u64>),
}

/// A loop a supervised run proved and advanced over
/// ([`Simulator::last_loop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvedLoop {
    /// Reference-clock cycles after which the run's state repeats.
    pub period: u64,
    /// Reference-clock cycle at which the second period confirmed the
    /// first and the run advanced.
    pub proved_at: u64,
}

/// One clock domain's schedule: the worklists an instant actually
/// walks. Entries are indices into the simulator's `components` /
/// `sequentials`; within a domain ascending index is registration
/// order, which is delivery and commit order, and an entry's index is
/// the slot its token pushes into the domain's sink.
///
/// Invariants between instants: `awake` holds exactly the domain's
/// components with `asleep == false`; every asleep component whose wake
/// flag is set has a candidate in `deferred` or `wake_sink`; with
/// gating on, every gated sequential whose dirty flag is set has a
/// candidate in `dirty_sink`. Stale candidates are harmless — the flag
/// is re-checked at the walk position.
#[derive(Default)]
struct Domain {
    /// Components registered on this clock.
    components: u64,
    /// Awake components, ascending.
    awake: Vec<u32>,
    /// Receives components whose wake flag went false→true.
    wake_sink: NotifySink,
    /// Wake candidates the walk had already passed (or that fell asleep
    /// with their flag still set): checked at the domain's next edge.
    deferred: Vec<u32>,
    /// This edge's wake candidates, ascending.
    pending: Vec<u32>,
    /// Drain buffer for notifications raised mid-walk.
    scratch: Vec<u32>,
    /// Sequentials registered on this clock.
    sequentials: u64,
    /// Sequentials that commit on every edge, ascending: those without
    /// a dirty token — all of them while gating is off.
    always: Vec<u32>,
    /// Receives sequentials whose dirty flag went false→true.
    dirty_sink: NotifySink,
    /// This edge's dirty candidates, ascending.
    dirty: Vec<u32>,
}

/// Cycle-driven multi-clock simulator.
///
/// ```
/// use craft_sim::{ClockSpec, Component, Picoseconds, Simulator, TickCtx};
///
/// struct Counter { n: u64 }
/// impl Component for Counter {
///     fn name(&self) -> &str { "counter" }
///     fn tick(&mut self, _ctx: &mut TickCtx<'_>) { self.n += 1; }
/// }
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_clock(ClockSpec::new("main", Picoseconds::from_ghz(1.0)));
/// sim.add_component(clk, Counter { n: 0 });
/// sim.run_cycles(clk, 10);
/// assert_eq!(sim.cycles(clk), 10);
/// ```
pub struct Simulator {
    clocks: Vec<ClockState>,
    components: Vec<ComponentEntry>,
    sequentials: Vec<SequentialEntry>,
    /// Per clock domain, indexed like `clocks`: its registrations and
    /// the worklists the loop walks.
    domains: Vec<Domain>,
    now: Picoseconds,
    /// Total evaluate/commit instants processed.
    instants: u64,
    /// Total component ticks delivered (a wall-clock-cost proxy).
    ticks_delivered: u64,
    /// Ticks elided because the component was asleep.
    ticks_skipped: u64,
    /// The share of `ticks_skipped` elided from blocked sleepers,
    /// settled with the tick catch-ups (shared so telemetry can probe
    /// it: `sim.kernel.ticks_skipped_blocked`).
    ticks_skipped_blocked: Rc<Cell<u64>>,
    /// Sequential commits elided because the dirty token was clear.
    commits_skipped: u64,
    /// Master switch for quiescence gating (on by default).
    gating: bool,
    stop_requested: bool,
    clock_requests: Vec<ClockRequest>,
    edge_scratch: Vec<usize>,
    /// Indexed next-edge structure: min-heap of `(next_edge, clock)`
    /// with lazy invalidation (entry is stale when the clock is paused
    /// or `next_edge` moved). Unused while `single_active` is `Some`.
    edge_heap: BinaryHeap<Reverse<(Picoseconds, usize)>>,
    /// Whether `edge_heap` holds an entry for every unpaused clock's
    /// current edge. Cleared by structural changes (add/pause/resume,
    /// single-clock mode) and restored by a rebuild on demand.
    heap_synced: bool,
    /// `Some(i)` when clock `i` is the only unpaused domain — the
    /// fast path that bypasses the heap and the edge gather entirely.
    single_active: Option<usize>,
    /// First internal arithmetic fault (time/stretch overflow). The
    /// offending clock is paused so runs terminate; `*_checked` run
    /// methods surface the error, plain runs leave it queryable via
    /// [`Simulator::fatal`].
    fatal: Option<SimError>,
    /// Shared progress flag for the hang watchdog: activity sources
    /// (channel pushes/pops, idle components waking up) set it; the
    /// `*_checked` run methods clear it once per reference-clock cycle
    /// and count how long it stays clear.
    progress: ActivityToken,
    /// When set, every delivered tick is timed with `Instant` and
    /// attributed to its component (telemetry's tick-profiling hook).
    tick_profiling: bool,
    /// Per-component `(nanos, ticks)` accumulated while profiling was
    /// on, indexed like `components`.
    tick_costs: Vec<(u64, u64)>,
    /// The periodicity proof a supervised run has in flight. While
    /// `Some`, the walks note which members they touch.
    probe: Option<Box<LoopProbe>>,
    /// Loops proved and advanced over, and the reference-clock cycles
    /// (= instants) that were not stepped because of it (shared so
    /// telemetry can probe them).
    loop_skips: Rc<Cell<u64>>,
    cycles_skipped: Rc<Cell<u64>>,
    last_loop: Option<ProvedLoop>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            clocks: Vec::new(),
            components: Vec::new(),
            sequentials: Vec::new(),
            domains: Vec::new(),
            now: Picoseconds::ZERO,
            instants: 0,
            ticks_delivered: 0,
            ticks_skipped: 0,
            ticks_skipped_blocked: Rc::new(Cell::new(0)),
            commits_skipped: 0,
            gating: true,
            stop_requested: false,
            clock_requests: Vec::new(),
            edge_scratch: Vec::new(),
            edge_heap: BinaryHeap::new(),
            heap_synced: false,
            single_active: None,
            fatal: None,
            progress: ActivityToken::new(),
            tick_profiling: false,
            tick_costs: Vec::new(),
            probe: None,
            loop_skips: Rc::new(Cell::new(0)),
            cycles_skipped: Rc::new(Cell::new(0)),
            last_loop: None,
        }
    }

    /// Registers a clock domain and returns its id.
    pub fn add_clock(&mut self, spec: ClockSpec) -> ClockId {
        let id = ClockId(self.clocks.len());
        self.clocks.push(ClockState::new(spec));
        self.domains.push(Domain::default());
        self.heap_synced = false;
        self.recompute_single_active();
        id
    }

    /// Registers `component` on clock domain `clock`.
    ///
    /// # Panics
    /// Panics if `clock` was not returned by this simulator's
    /// [`add_clock`](Self::add_clock).
    pub fn add_component<C: Component + 'static>(
        &mut self,
        clock: ClockId,
        component: C,
    ) -> ComponentId {
        assert!(clock.0 < self.clocks.len(), "unknown clock domain {clock}");
        let id = ComponentId(self.components.len());
        let domain = &mut self.domains[clock.0];
        domain.components += 1;
        domain.awake.push(id.0 as u32);
        self.components.push(ComponentEntry {
            clock,
            component: Box::new(component),
            wake: None,
            asleep: false,
            blocked: false,
            asleep_from: 0,
            level_owed: false,
        });
        id
    }

    /// Attaches a wake token to a registered component, opting it into
    /// quiescence gating: once [`Component::can_sleep`] answers
    /// [`Sleep::Idle`] or [`Sleep::Blocked`] after a tick it sleeps
    /// until some activity source sets the token.
    ///
    /// Hand clones of the same token to everything that can make the
    /// component runnable again — its input channels and, for a
    /// component that sleeps on backpressure, its output channels too
    /// (see `craft-connections`' `In::set_wake_token` /
    /// `Out::set_wake_token`).
    ///
    /// A token rouses one owner. Registering a token that already
    /// belongs to another component or sequential leaves this
    /// component ungated — it never sleeps, which by the gating
    /// contract changes no result — rather than letting the first
    /// owner in delivery order consume the flag and the second miss
    /// its wake-up.
    ///
    /// # Panics
    /// Panics if the component already has a wake token.
    pub fn set_wake_token(&mut self, id: ComponentId, token: ActivityToken) {
        let entry = &mut self.components[id.0];
        assert!(entry.wake.is_none(), "component already has a wake token");
        let domain = &mut self.domains[entry.clock.0];
        if let Some(was_set) = token.attach_notify(&domain.wake_sink, id.0 as u32) {
            // An already-set flag raises no notification: queue the
            // wake check by hand (a hint, dropped if the owner is up).
            if was_set {
                domain.deferred.push(id.0 as u32);
            }
            entry.wake = Some(token);
        }
    }

    /// Registers shared sequential state (typically a channel) for the
    /// commit phase of `clock`.
    ///
    /// # Panics
    /// Panics if `clock` is unknown.
    pub fn add_sequential(&mut self, clock: ClockId, state: Rc<RefCell<dyn Sequential>>) {
        self.register_sequential(clock, state, None);
    }

    fn register_sequential(
        &mut self,
        clock: ClockId,
        state: Rc<RefCell<dyn Sequential>>,
        dirty: Option<ActivityToken>,
    ) {
        assert!(clock.0 < self.clocks.len(), "unknown clock domain {clock}");
        let domain = &mut self.domains[clock.0];
        domain.sequentials += 1;
        let idx = self.sequentials.len() as u32;
        let mut gate = None;
        if let Some(token) = dirty {
            // The token starts set. A set flag raises no notification,
            // so the first commit is queued by hand below.
            token.set();
            if token.attach_notify(&domain.dirty_sink, idx).is_some() {
                gate = Some(token);
            }
        }
        if gate.is_some() && self.gating {
            domain.dirty_sink.push(idx);
        } else {
            domain.always.push(idx);
        }
        self.sequentials.push(SequentialEntry {
            clock,
            state,
            dirty: gate,
            seen: self.clocks[clock.0].cycles,
        });
    }

    /// Like [`add_sequential`](Self::add_sequential), but commits are
    /// elided on edges where `dirty` is clear (no writer staged
    /// anything). Elided commits are reported in bulk via
    /// [`Sequential::commit_skipped`] before the next real commit and
    /// at the end of every `run_*` call, so statistics kept per cycle
    /// stay exact.
    ///
    /// The token starts set, guaranteeing the first commit runs.
    ///
    /// A token gates one owner: registered with a token that already
    /// belongs to another sequential or component, `state` commits
    /// unconditionally every edge instead (results are identical by the
    /// gating contract), so the first owner in commit order cannot
    /// consume the flag and leave the second's staged work uncommitted.
    ///
    /// # Panics
    /// Panics if `clock` is unknown.
    pub fn add_sequential_gated(
        &mut self,
        clock: ClockId,
        state: Rc<RefCell<dyn Sequential>>,
        dirty: ActivityToken,
    ) {
        self.register_sequential(clock, state, Some(dirty));
    }

    /// Current simulation time.
    pub fn now(&self) -> Picoseconds {
        self.now
    }

    /// Rising edges delivered on `clock` so far.
    pub fn cycles(&self, clock: ClockId) -> u64 {
        self.clocks[clock.0].cycles
    }

    /// Total component ticks delivered across all domains. This grows
    /// with simulation *work* and is used as a wall-cost proxy in
    /// speedup experiments. Quiescence gating lowers it; it is *not*
    /// part of the determinism contract (`cycles`/results are).
    pub fn ticks_delivered(&self) -> u64 {
        self.ticks_delivered
    }

    /// Ticks elided because their component was asleep. Together with
    /// [`ticks_delivered`](Self::ticks_delivered) this accounts for
    /// every component-edge the schedule produced.
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// The share of [`ticks_skipped`](Self::ticks_skipped) elided from
    /// components asleep for the second reason — blocked on their
    /// ports with work in hand ([`Sleep::Blocked`]). Settled together
    /// with the
    /// [`Component::ticks_skipped`] catch-ups: exact at every `run_*`
    /// boundary and after
    /// [`flush_skipped_commits`](Self::flush_skipped_commits).
    pub fn ticks_skipped_blocked(&self) -> u64 {
        self.ticks_skipped_blocked.get()
    }

    /// Live handle to the blocked-skip counter, for telemetry.
    pub fn ticks_skipped_blocked_handle(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.ticks_skipped_blocked)
    }

    /// Sequential commits elided because nothing was staged.
    pub fn commits_skipped(&self) -> u64 {
        self.commits_skipped
    }

    /// Total evaluate/commit instants processed — including those a
    /// supervised run advanced over arithmetically
    /// ([`cycles_skipped`](Self::cycles_skipped)), so the count is that
    /// of the stepped run.
    pub fn instants(&self) -> u64 {
        self.instants
    }

    /// How often a supervised run proved its hang periodic and
    /// advanced over whole periods instead of stepping them (see
    /// [`run_until_checked`](Self::run_until_checked)). Like
    /// [`cycles_skipped`](Self::cycles_skipped) it describes how the
    /// run was executed, not what it simulated, and is no part of
    /// [`kernel_digest`](Self::kernel_digest).
    pub fn loop_skips(&self) -> u64 {
        self.loop_skips.get()
    }

    /// Reference-clock cycles — and as many instants — advanced over
    /// arithmetically: `instants() - cycles_skipped()` instants were
    /// actually stepped.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped.get()
    }

    /// Live handles to [`loop_skips`](Self::loop_skips) and
    /// [`cycles_skipped`](Self::cycles_skipped), for telemetry.
    pub fn loop_skip_handles(&self) -> (Rc<Cell<u64>>, Rc<Cell<u64>>) {
        (Rc::clone(&self.loop_skips), Rc::clone(&self.cycles_skipped))
    }

    /// The loop most recently proved and advanced over, if any.
    pub fn last_loop(&self) -> Option<ProvedLoop> {
        self.last_loop
    }

    /// Exact kernel-progress digest: time, scheduler counters, and the
    /// full clock table. Two simulations that processed the same
    /// instant sequence produce equal digests, so a replay-based
    /// restore verifies itself against the digest recorded at capture.
    /// The loop's worklists are deliberately excluded: they are derived
    /// from the sleep and token flags, which replay reproduces.
    pub fn kernel_digest(&self) -> KernelDigest {
        KernelDigest {
            now_ps: self.now.0,
            instants: self.instants,
            ticks_delivered: self.ticks_delivered,
            ticks_skipped: self.ticks_skipped,
            commits_skipped: self.commits_skipped,
            clocks: self
                .clocks
                .iter()
                .map(|c| (c.cycles, c.next_edge.0, c.paused))
                .collect(),
        }
    }

    /// Whether quiescence gating is enabled (it is by default).
    pub fn gating(&self) -> bool {
        self.gating
    }

    /// Enables or disables per-component wall-clock tick profiling
    /// (telemetry's tick-time hook). While on, every delivered tick is
    /// timed and attributed to its component; the accumulated profile
    /// is read back via [`tick_profile`](Self::tick_profile).
    /// Profiling is observation-only — it never changes cycles, results
    /// or delivery order — but the `Instant` reads cost wall clock, so
    /// it is off by default.
    pub fn set_tick_profiling(&mut self, on: bool) {
        self.tick_profiling = on;
        if on && self.tick_costs.len() < self.components.len() {
            self.tick_costs.resize(self.components.len(), (0, 0));
        }
    }

    /// Whether tick profiling is currently enabled.
    pub fn tick_profiling(&self) -> bool {
        self.tick_profiling
    }

    /// Per-component wall-clock attribution accumulated while
    /// [`set_tick_profiling`](Self::set_tick_profiling) was on, sorted
    /// by descending total nanoseconds. Components that never ticked
    /// under profiling are omitted.
    pub fn tick_profile(&self) -> Vec<TickProfile> {
        let mut rows: Vec<TickProfile> = self
            .components
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let &(nanos, ticks) = self.tick_costs.get(i)?;
                if ticks == 0 {
                    return None;
                }
                Some(TickProfile {
                    name: e.component.name().to_string(),
                    clock: self.clocks[e.clock.0].spec.name.clone(),
                    ticks,
                    nanos,
                })
            })
            .collect();
        rows.sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Enables or disables quiescence gating. Disabling wakes every
    /// sleeping component and flushes pending commit catch-ups, so a
    /// subsequent run behaves exactly like an ungated simulator.
    /// Results are identical either way; only wall clock and
    /// [`ticks_delivered`](Self::ticks_delivered) differ.
    pub fn set_gating(&mut self, enabled: bool) {
        self.gating = enabled;
        if !enabled {
            // Settle the sleepers' tick catch-ups before waking them.
            self.flush_skipped_commits();
            for entry in &mut self.components {
                entry.asleep = false;
            }
        }
        // Rebuild the always-commit lists for the mode, and with gating
        // on queue a commit for every gated sequential that is already
        // dirty (a set flag raises no further notification).
        for domain in &mut self.domains {
            domain.always.clear();
            if !enabled {
                domain.awake.clear();
            }
        }
        for (idx, seq) in self.sequentials.iter().enumerate() {
            let domain = &mut self.domains[seq.clock.0];
            match &seq.dirty {
                Some(token) if enabled => {
                    if token.is_set() {
                        domain.dirty_sink.push(idx as u32);
                    }
                }
                _ => domain.always.push(idx as u32),
            }
        }
        if !enabled {
            for (idx, entry) in self.components.iter().enumerate() {
                self.domains[entry.clock.0].awake.push(idx as u32);
            }
        }
    }

    /// Delivers pending [`Sequential::commit_skipped`] and
    /// [`Component::ticks_skipped`] catch-ups so externally read
    /// statistics are exact. Called automatically at the end of every
    /// `run_*` method; needed manually only around raw
    /// [`step`](Self::step) loops.
    pub fn flush_skipped_commits(&mut self) {
        for entry in &mut self.components {
            if entry.asleep && entry.blocked {
                let edges = self.clocks[entry.clock.0].cycles;
                entry.settle_skipped_ticks(edges, &self.ticks_skipped_blocked);
            }
        }
        for seq in &mut self.sequentials {
            seq.settle_skipped_commits(self.clocks[seq.clock.0].cycles);
        }
    }

    /// Pauses `clock`: no further edges until [`resume_clock`](Self::resume_clock).
    pub fn pause_clock(&mut self, clock: ClockId) {
        self.clocks[clock.0].paused = true;
        self.recompute_single_active();
    }

    /// Resumes a paused clock. The next edge fires one **full period
    /// after `now`**, even when the clock was paused mid-period: a
    /// pausible clock's period, once interrupted, restarts from the
    /// resume point rather than crediting time elapsed before the
    /// pause. This is intentional — `craft-gals::pausible` relies on a
    /// resumed receiver getting a complete, glitch-free period in
    /// which to settle — and pinned by the
    /// `resume_mid_period_restarts_full_period` test.
    pub fn resume_clock(&mut self, clock: ClockId) {
        let st = &mut self.clocks[clock.0];
        if st.paused {
            let Some(next) = self.now.checked_add(st.spec.period) else {
                // Cannot schedule another edge: leave the clock paused
                // and record the fault instead of panicking.
                let name = st.spec.name.clone();
                let now = self.now;
                self.record_fatal(SimError::TimeOverflow { clock: name, now });
                return;
            };
            st.paused = false;
            st.next_edge = next;
            if self.heap_synced {
                self.edge_heap.push(Reverse((st.next_edge, clock.0)));
            }
            self.recompute_single_active();
        }
    }

    /// True when a component called [`TickCtx::request_stop`].
    pub fn stopped(&self) -> bool {
        self.stop_requested
    }

    /// The first internal arithmetic fault recorded this run, if any.
    /// Plain `run_*` methods terminate on such faults (the offending
    /// clock stops producing edges) but return normally; this is how a
    /// caller distinguishes "finished" from "died of overflow". The
    /// `*_checked` variants surface the same value as an `Err` and
    /// clear it.
    pub fn fatal(&self) -> Option<&SimError> {
        self.fatal.as_ref()
    }

    /// Takes (and clears) the recorded fatal error.
    pub fn take_fatal(&mut self) -> Option<SimError> {
        self.fatal.take()
    }

    fn record_fatal(&mut self, err: SimError) {
        // Keep the first fault: later ones are usually a consequence.
        if self.fatal.is_none() {
            self.fatal = Some(err);
        }
        self.stop_requested = true;
    }

    /// A clone of the kernel's progress token. Hand clones to every
    /// activity source that should count as forward progress for the
    /// hang watchdog — typically data channels (see
    /// `craft-connections`' `ChannelHandle::set_progress_token`).
    /// A component waking from an idle sleep sets it automatically; a
    /// blocked sleeper's wake-up does not (see the module docs).
    ///
    /// [`run_until_checked`](Self::run_until_checked) counts
    /// reference-clock cycles during which the token stays clear;
    /// without any wired source every cycle looks idle, so wire the
    /// token before using a watchdog.
    pub fn progress_token(&self) -> ActivityToken {
        self.progress.clone()
    }

    /// Clears a pending stop request so `run_*` can be called again.
    pub fn clear_stop(&mut self) {
        self.stop_requested = false;
    }

    /// `Some(i)` iff clock `i` is the only unpaused domain.
    fn recompute_single_active(&mut self) {
        let mut it = self.clocks.iter().enumerate().filter(|(_, c)| !c.paused);
        self.single_active = match (it.next(), it.next()) {
            (Some((i, _)), None) => Some(i),
            _ => None,
        };
        if self.single_active.is_some() {
            // The heap is not maintained on the fast path; rebuild it
            // lazily if multi-domain scheduling ever resumes.
            self.heap_synced = false;
        }
    }

    fn rebuild_heap(&mut self) {
        self.edge_heap.clear();
        for (i, c) in self.clocks.iter().enumerate() {
            if !c.paused {
                self.edge_heap.push(Reverse((c.next_edge, i)));
            }
        }
        self.heap_synced = true;
    }

    fn next_instant(&mut self) -> Option<Picoseconds> {
        if let Some(i) = self.single_active {
            return Some(self.clocks[i].next_edge);
        }
        if !self.heap_synced {
            self.rebuild_heap();
        }
        // Lazy invalidation: drop stale entries (paused or rescheduled
        // clocks) until a live one surfaces.
        while let Some(&Reverse((t, i))) = self.edge_heap.peek() {
            let c = &self.clocks[i];
            if !c.paused && c.next_edge == t {
                return Some(t);
            }
            self.edge_heap.pop();
        }
        None
    }

    /// Advances by exactly one instant (one batch of simultaneous
    /// edges). Returns `false` when no clock has a pending edge.
    ///
    /// Note on statistics: commits elided by quiescence gating are
    /// only caught up at `run_*` boundaries; call
    /// [`flush_skipped_commits`](Self::flush_skipped_commits) before
    /// reading per-cycle statistics from a raw `step` loop.
    pub fn step(&mut self) -> bool {
        match self.eval_instant() {
            Some(edges) => {
                self.commit_instant(edges);
                true
            }
            None => false,
        }
    }

    /// The evaluate half of [`step`](Self::step): advances time to the
    /// earliest pending instant and ticks every component with an edge
    /// there. Returns the clocks that fired, for the commit half, or
    /// `None` when no edges remain.
    fn eval_instant(&mut self) -> Option<Vec<usize>> {
        let t = self.next_instant()?;
        self.now = t;
        self.instants += 1;
        if self.tick_profiling && self.tick_costs.len() < self.components.len() {
            self.tick_costs.resize(self.components.len(), (0, 0));
        }

        // Gather domains with an edge now, in id order. On the
        // single-clock fast path that is just the active clock; in
        // multi-domain mode, drain the heap's `== t` prefix, which
        // pops in ascending clock id for equal times (duplicates and
        // stale entries are filtered).
        self.edge_scratch.clear();
        if let Some(i) = self.single_active {
            self.edge_scratch.push(i);
        } else {
            while let Some(&Reverse((et, i))) = self.edge_heap.peek() {
                if et != t {
                    break;
                }
                self.edge_heap.pop();
                let c = &self.clocks[i];
                if !c.paused && c.next_edge == t && self.edge_scratch.last() != Some(&i) {
                    self.edge_scratch.push(i);
                }
            }
        }
        let edges = std::mem::take(&mut self.edge_scratch);

        for &ci in &edges {
            self.eval_domain(ci, t);
        }
        Some(edges)
    }

    /// The evaluate walk of one fired domain: an ascending merge over
    /// its awake components and its wake candidates, so delivery order
    /// is registration order and a sleeper's flag is looked at exactly
    /// where a scan of every registration would look at it.
    fn eval_domain(&mut self, ci: usize, t: Picoseconds) {
        let cycle = self.clocks[ci].cycles;
        let d = &mut self.domains[ci];
        // This edge's candidates: checks deferred from the last edge
        // plus notifications raised since the walk last drained the
        // sink (late-evaluate sets, commit-phase sets, other domains).
        d.pending.clear();
        d.pending.append(&mut d.deferred);
        d.wake_sink.drain_into(&mut d.pending);
        d.pending.sort_unstable();
        d.pending.dedup();

        let mut i = 0usize; // next awake component (d.awake)
        let mut j = 0usize; // next wake candidate (d.pending)
        let mut delivered = 0u64;
        loop {
            let idx = match (d.awake.get(i).copied(), d.pending.get(j).copied()) {
                (None, None) => break,
                (Some(a), Some(p)) if a == p => {
                    // The candidate is awake: nobody looks at an awake
                    // component's flag, so the hint is stale. It ticks
                    // through `awake` on the next turn.
                    j += 1;
                    continue;
                }
                (Some(a), Some(p)) if a < p => a,
                (_, Some(p)) => {
                    // The candidate's turn: wake or drop.
                    j += 1;
                    let entry = &mut self.components[p as usize];
                    if !(entry.asleep && entry.wake.as_ref().is_some_and(ActivityToken::take)) {
                        continue;
                    }
                    if entry.wake_up(cycle, &self.ticks_skipped_blocked) {
                        self.progress.set();
                    }
                    // Everything walked so far is below `p`, so the
                    // cursor is where it belongs in `awake`.
                    d.awake.insert(i, p);
                    p
                }
                (Some(a), None) => a,
            };
            if let Some(probe) = &mut self.probe {
                probe.touch_component(idx);
            }
            let entry = &mut self.components[idx as usize];
            let mut ctx = TickCtx {
                now: t,
                cycle,
                clock: entry.clock,
                clock_requests: &mut self.clock_requests,
                stop: &mut self.stop_requested,
            };
            if self.tick_profiling {
                let t0 = std::time::Instant::now();
                entry.component.tick(&mut ctx);
                let dt = t0.elapsed().as_nanos() as u64;
                let slot = &mut self.tick_costs[idx as usize];
                slot.0 += dt;
                slot.1 += 1;
            } else {
                entry.component.tick(&mut ctx);
            }
            delivered += 1;
            // The sleep check runs post-tick so it sees everything the
            // component just staged. The wake flag is deliberately NOT
            // cleared on sleep: activity flagged earlier this instant
            // (e.g. a pop freeing space) must survive into the next
            // edge's wake check — and a set flag raises no further
            // notification, so that check is queued here.
            if self.gating && entry.wake.is_some() && entry.try_sleep(cycle) {
                d.awake.remove(i);
                if entry.wake.as_ref().is_some_and(ActivityToken::is_set) {
                    d.deferred.push(idx);
                }
            } else {
                i += 1;
            }
            // Absorb what this tick raised. A component still ahead of
            // the walk joins this edge's candidates; one at or behind
            // it waits for the next edge — where a scan would find it.
            if !d.wake_sink.is_empty() {
                d.scratch.clear();
                d.wake_sink.drain_into(&mut d.scratch);
                for &raised in &d.scratch {
                    if raised > idx {
                        if let Err(at) = d.pending[j..].binary_search(&raised) {
                            d.pending.insert(j + at, raised);
                        }
                    } else {
                        d.deferred.push(raised);
                    }
                }
            }
        }
        self.ticks_delivered += delivered;
        self.ticks_skipped += d.components - delivered;
    }

    /// The commit half of [`step`](Self::step): commits every
    /// sequential on the clocks that fired at the instant `eval_instant`
    /// opened, applies deferred clock requests, and schedules the fired
    /// clocks' next edges.
    fn commit_instant(&mut self, edges: Vec<usize>) {
        let t = self.now;

        for &ci in &edges {
            self.commit_domain(ci);
        }

        // Apply deferred clock requests, then schedule next edges.
        self.apply_clock_requests();
        for &ci in &edges {
            if self.clocks[ci].advance() {
                if self.heap_synced {
                    self.edge_heap
                        .push(Reverse((self.clocks[ci].next_edge, ci)));
                }
            } else {
                // `advance` paused the clock; record the fault and let
                // the scheduler forget about this domain.
                let name = self.clocks[ci].spec.name.clone();
                self.record_fatal(SimError::TimeOverflow {
                    clock: name,
                    now: t,
                });
                self.recompute_single_active();
            }
        }
        self.edge_scratch = edges;
    }

    /// The commit walk of one fired domain: an ascending merge over its
    /// always-commit sequentials and its dirty candidates. A clean gated
    /// sequential is not visited; what it is owed is reconciled via
    /// `commit_skipped` immediately before its next real commit (so
    /// catch-up arithmetic always runs against the state the skipped
    /// cycles actually had).
    fn commit_domain(&mut self, ci: usize) {
        let cycle = self.clocks[ci].cycles;
        let d = &mut self.domains[ci];
        d.dirty.clear();
        d.dirty_sink.drain_into(&mut d.dirty);
        if self.gating {
            d.dirty.sort_unstable();
            d.dirty.dedup();
        } else {
            // Everything is on `always`; dirty flags are left standing.
            d.dirty.clear();
        }
        let mut committed = 0u64;
        let mut commit = |idx: u32, hint: bool| {
            let seq = &mut self.sequentials[idx as usize];
            // A dirty candidate is a hint: the flag decides, and is
            // taken before committing so a re-arm `set()` inside
            // `commit` queues the next edge's commit.
            if hint && !seq.dirty.as_ref().is_some_and(ActivityToken::take) {
                return;
            }
            if let Some(probe) = &mut self.probe {
                probe.touch_sequential(idx);
            }
            let mut state = seq.state.borrow_mut();
            if seq.seen < cycle {
                state.commit_skipped(cycle - seq.seen);
            }
            state.commit();
            seq.seen = cycle + 1;
            committed += 1;
        };
        // The two lists are disjoint: `always` holds the sequentials
        // without a token while gating is on.
        let mut dirty = d.dirty.iter().copied().peekable();
        for &a in &d.always {
            while let Some(p) = dirty.next_if(|&p| p < a) {
                commit(p, true);
            }
            commit(a, false);
        }
        for p in dirty {
            commit(p, true);
        }
        self.commits_skipped += d.sequentials - committed;
    }

    /// Applies (and drains) deferred [`ClockRequest`]s. Records a
    /// fatal on stretch overflow.
    fn apply_clock_requests(&mut self) {
        if self.clock_requests.is_empty() {
            return;
        }
        // A schedule that moves is not one a loop probe can extrapolate.
        if let Some(probe) = &mut self.probe {
            probe.spoiled = true;
        }
        let t = self.now;
        let mut request_fault: Option<SimError> = None;
        for req in self.clock_requests.drain(..) {
            match req {
                ClockRequest::Stretch { clock, extra } => {
                    let st = &mut self.clocks[clock.0];
                    let base = st.next_period_override.unwrap_or(st.spec.period);
                    match base.checked_add(extra) {
                        Some(stretched) => st.next_period_override = Some(stretched),
                        None => {
                            request_fault.get_or_insert(SimError::ClockStretchOverflow {
                                clock: st.spec.name.clone(),
                                now: t,
                            });
                        }
                    }
                }
                ClockRequest::OverridePeriod { clock, period } => {
                    self.clocks[clock.0].next_period_override = Some(period);
                }
                ClockRequest::SetNominalPeriod { clock, period } => {
                    assert!(period > Picoseconds::ZERO, "clock period must be nonzero");
                    self.clocks[clock.0].spec.period = period;
                }
            }
        }
        if let Some(err) = request_fault {
            self.record_fatal(err);
        }
    }

    /// Vestige of the retired compiled-plan fork, kept only because
    /// `benchmark/` reads it (ROADMAP item 1c): every instant runs the
    /// one loop, so this is [`instants`](Self::instants).
    pub fn plan_instants(&self) -> u64 {
        self.instants
    }

    /// Vestige of the retired compiled-plan fork, kept only because
    /// `benchmark/` reads it (ROADMAP item 1c): there is no second path
    /// to de-opt to, so this is 0.
    pub fn plan_deopt_count(&self) -> u64 {
        0
    }

    /// Number of registered clock domains.
    pub fn clock_count(&self) -> usize {
        self.clocks.len()
    }

    /// Name of a registered clock domain.
    pub fn clock_name(&self, clock: ClockId) -> String {
        self.clocks[clock.0].spec.name.clone()
    }

    /// Snapshots every registered component and sequential into a
    /// [`HangReport`] without running: the diagnosis a watchdog trip
    /// after `idle_cycles` would carry at this boundary.
    pub fn diagnose_hang(&self, idle_cycles: u64) -> HangReport {
        self.diagnose(idle_cycles)
    }

    /// Runs until simulation time reaches or passes `deadline`, a stop
    /// is requested, or no edges remain.
    pub fn run_until_time(&mut self, deadline: Picoseconds) {
        while !self.stop_requested {
            match self.next_instant() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.flush_skipped_commits();
    }

    /// Runs until `clock` has received `n` more rising edges, a stop is
    /// requested, or no edges remain.
    pub fn run_cycles(&mut self, clock: ClockId, n: u64) {
        let target = self.clocks[clock.0].cycles + n;
        while !self.stop_requested && self.clocks[clock.0].cycles < target {
            if !self.step() {
                break;
            }
        }
        self.flush_skipped_commits();
    }

    /// Runs until `done()` returns true, a stop is requested,
    /// `max_cycles` edges elapse on `clock`, or no edges remain.
    /// Returns `true` if the predicate fired.
    ///
    /// The predicate is evaluated **exactly once per instant
    /// boundary** (including the boundary the run starts and ends on),
    /// so predicates with side effects observe each boundary once.
    pub fn run_until(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        mut done: impl FnMut() -> bool,
    ) -> bool {
        let limit = self.clocks[clock.0].cycles + max_cycles;
        loop {
            if done() {
                self.flush_skipped_commits();
                return true;
            }
            if self.stop_requested || self.clocks[clock.0].cycles >= limit || !self.step() {
                self.flush_skipped_commits();
                return false;
            }
        }
    }

    /// Like [`run_until`](Self::run_until), but with a hang watchdog
    /// and typed errors. Returns:
    ///
    /// * `Ok(true)` — the predicate fired;
    /// * `Ok(false)` — stop request, `max_cycles` exhausted, or no
    ///   edges remain (the plain-`run_until` `false` outcomes);
    /// * `Err(SimError::Hang)` — `no_progress_limit` consecutive
    ///   `clock` cycles elapsed with no activity on the kernel's
    ///   [`progress token`](Self::progress_token) (no channel push/pop,
    ///   no idle component woken), with a [`HangReport`] diagnosing every
    ///   registered component and channel;
    /// * `Err(SimError::TimeOverflow)` /
    ///   `Err(SimError::ClockStretchOverflow)` — an internal arithmetic
    ///   fault that previously `expect()`-panicked.
    ///
    /// The predicate is evaluated once on every instant boundary the
    /// run *visits* (including the one it starts and the one it ends
    /// on). A run that has been idle for long may prove that it is
    /// going round a loop and advance over whole periods of it
    /// arithmetically (see "The loop probe" in the module docs); the
    /// boundaries inside such a stretch are not visited. The predicate
    /// must therefore be a function of simulated *state* — it was
    /// false all the way round the loop twice, and is taken to stay
    /// false — and must not count its own calls or read a statistic
    /// that merely accumulates. Clocks, cycle counts, counters, the
    /// trip cycle and the diagnosis are exactly those of stepping every
    /// cycle; [`loop_skips`](Self::loop_skips) and
    /// [`cycles_skipped`](Self::cycles_skipped) say when it happened.
    ///
    /// # Panics
    /// Panics if `no_progress_limit` is zero (every run would
    /// instantly be a hang).
    pub fn run_until_checked(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        no_progress_limit: u64,
        done: impl FnMut() -> bool,
    ) -> Result<bool, SimError> {
        let mut wd = WatchdogState {
            idle: 0,
            last_cycle: self.clocks[clock.0].cycles,
        };
        self.run_until_checked_with(clock, max_cycles, no_progress_limit, &mut wd, done)
    }

    /// [`run_until_checked`](Self::run_until_checked) with the
    /// watchdog accumulators externalized in `wd`, so a supervised run
    /// can be split into segments (e.g. around a checkpoint capture)
    /// and still trip the watchdog on exactly the cycle an
    /// uninterrupted call would: carry the same `wd` across segments.
    /// The classic entry point seeds `wd` with `idle: 0, last_cycle:
    /// <current cycle>`.
    ///
    /// The predicate contract is that of `run_until_checked`: a
    /// function of simulated state, not visited on boundaries the call
    /// advances over. A loop proof never outlives the call that made
    /// it, so whatever the caller does to the simulator between two
    /// segments cannot invalidate one.
    pub fn run_until_checked_with(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        no_progress_limit: u64,
        wd: &mut WatchdogState,
        done: impl FnMut() -> bool,
    ) -> Result<bool, SimError> {
        assert!(
            no_progress_limit > 0,
            "no_progress_limit must be at least one cycle"
        );
        let res = self.supervise(clock, max_cycles, no_progress_limit, wd, done);
        self.probe = None;
        res
    }

    /// The supervised loop: step, count idle cycles, trip — and, once
    /// the run has been idle for long enough, try to prove that it is
    /// going round a loop and advance to the deadline arithmetically.
    fn supervise(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        no_progress_limit: u64,
        wd: &mut WatchdogState,
        mut done: impl FnMut() -> bool,
    ) -> Result<bool, SimError> {
        let limit = self.clocks[clock.0].cycles.saturating_add(max_cycles);
        // Idle count from which a loop probe may open: one compare an
        // instant for a run that never gets there.
        let mut probe_after = PROBE_IDLE;
        loop {
            if self.fatal.is_some() {
                self.flush_skipped_commits();
                return Err(self.fatal.take().expect("just checked"));
            }
            if done() {
                self.flush_skipped_commits();
                return Ok(true);
            }
            if self.stop_requested || self.clocks[clock.0].cycles >= limit || !self.step() {
                self.flush_skipped_commits();
                // A fault recorded during the final step surfaces as
                // the error it is, not as a bare "didn't finish".
                if let Some(err) = self.fatal.take() {
                    return Err(err);
                }
                return Ok(false);
            }
            let cycle = self.clocks[clock.0].cycles;
            if self.progress.take() {
                wd.idle = 0;
                probe_after = PROBE_IDLE;
                if self.probe.is_some() {
                    self.drop_probe();
                }
            } else {
                wd.idle += cycle - wd.last_cycle;
            }
            wd.last_cycle = cycle;
            if wd.idle >= no_progress_limit {
                self.flush_skipped_commits();
                let report = self.diagnose(wd.idle);
                return Err(SimError::Hang {
                    clock: self.clocks[clock.0].spec.name.clone(),
                    cycle,
                    now: self.now,
                    report,
                });
            }
            if wd.idle >= probe_after {
                // Cycles an advance may cover at most: up to the
                // watchdog's deadline or the call's cycle limit,
                // whichever is nearer.
                let room = (no_progress_limit - wd.idle).min(limit - cycle);
                probe_after = self.probe_boundary(clock.0, probe_after, room, wd);
            }
        }
    }

    // Out of line, like everything the supervised loop does only while
    // a probe is open: a run that is making progress pays a test.
    #[cold]
    #[inline(never)]
    fn drop_probe(&mut self) {
        self.probe = None;
    }

    /// One boundary of a supervised run that has been idle for
    /// `threshold` cycles or more: opens a loop probe, or takes the one
    /// in flight a step further. Returns the idle count from which the
    /// next boundary should come back here.
    #[inline(never)]
    fn probe_boundary(
        &mut self,
        ci: usize,
        threshold: u64,
        room: u64,
        wd: &mut WatchdogState,
    ) -> u64 {
        let Some(mut probe) = self.probe.take() else {
            // Only a run with one unpaused clock has "the next cycle"
            // to extrapolate, and a profiled tick must really happen.
            if self.single_active != Some(ci) || self.tick_profiling {
                return u64::MAX;
            }
            self.open_probe(ci, threshold.saturating_mul(PROBE_WINDOW));
            return threshold;
        };
        match self.judge_probe(&mut probe) {
            ProbeVerdict::Pending => {
                self.probe = Some(probe);
                threshold
            }
            // Back off: the next attempt opens at twice the idle count
            // and looks twice as far, so a run that never loops makes
            // O(log idle) attempts.
            ProbeVerdict::Failed => threshold.saturating_mul(2),
            ProbeVerdict::Proved(period, kernel, counters) => {
                self.skip_periods(&probe, period, room, &kernel, &counters, wd);
                // The rest of the call is stepped.
                u64::MAX
            }
        }
    }

    fn kernel_counters(&self) -> KernelCounters {
        [
            self.instants,
            self.ticks_delivered,
            self.ticks_skipped,
            self.commits_skipped,
            self.ticks_skipped_blocked.get(),
        ]
    }

    /// The wake and the dirty candidates of domain `ci` as two
    /// canonical (sorted, deduplicated) lists, without consuming them.
    fn candidates(&self, ci: usize, [waking, dirty]: &mut [Vec<u32>; 2]) {
        let d = &self.domains[ci];
        waking.clear();
        waking.extend_from_slice(&d.deferred);
        d.wake_sink.peek_into(waking);
        dirty.clear();
        d.dirty_sink.peek_into(dirty);
        for list in [waking, dirty] {
            list.sort_unstable();
            list.dedup();
        }
    }

    /// Opens a loop probe on this instant boundary: settles every
    /// catch-up, then records the state and the counters of every
    /// member — which of them the loop involves is only known once it
    /// has gone round.
    fn open_probe(&mut self, ci: usize, window: u64) {
        self.flush_skipped_commits();
        let mut state = Vec::new();
        let mut counters = Vec::new();
        let mut shoot = |flags: u64, visit: &mut dyn FnMut(&mut StateVisitor<'_>)| {
            let (s0, c0) = (state.len(), counters.len());
            state.push(flags);
            let mut v = StateVisitor::record(&mut state, &mut counters);
            visit(&mut v);
            let opaque = v.was_opaque();
            MemberShot {
                state: (s0, state.len()),
                counters: (c0, counters.len()),
                opaque,
                touched: false,
            }
        };
        let comps = self
            .components
            .iter_mut()
            .map(|e| shoot(e.probe_flags(), &mut |v| e.component.visit_state(v)))
            .collect();
        let seqs = self
            .sequentials
            .iter()
            .map(|s| {
                shoot(s.probe_flags(), &mut |v| {
                    s.state.borrow_mut().visit_state(v)
                })
            })
            .collect();
        let mut candidates = [Vec::new(), Vec::new()];
        self.candidates(ci, &mut candidates);
        let start = self.clocks[ci].cycles;
        self.probe = Some(Box::new(LoopProbe {
            ci,
            start,
            deadline: start.saturating_add(window),
            spoiled: false,
            comps: Members {
                shots: comps,
                touched: Vec::new(),
            },
            seqs: Members {
                shots: seqs,
                touched: Vec::new(),
            },
            state,
            counters,
            kernel: self.kernel_counters(),
            awake: self.domains[ci].awake.clone(),
            candidates,
            lap: None,
            scratch: Default::default(),
        }));
    }

    /// Whether the kernel's worklists and every member touched since
    /// `probe` opened are, on this boundary, in the state it recorded.
    /// Cheapest and most volatile first: most boundaries fail on the
    /// awake list.
    fn recurs(&mut self, probe: &mut LoopProbe) -> bool {
        if self.domains[probe.ci].awake != probe.awake {
            return false;
        }
        self.candidates(probe.ci, &mut probe.scratch);
        if probe.scratch != probe.candidates {
            return false;
        }
        let same = |shot: &MemberShot, flags: u64, visit: &mut dyn FnMut(&mut StateVisitor<'_>)| {
            let want = &probe.state[shot.state.0..shot.state.1];
            if want[0] != flags {
                return false;
            }
            let mut v = StateVisitor::compare(&want[1..]);
            visit(&mut v);
            v.matched()
        };
        probe.comps.touched().all(|(i, shot)| {
            let e = &mut self.components[i];
            same(shot, e.probe_flags(), &mut |v| e.component.visit_state(v))
        }) && probe.seqs.touched().all(|(i, shot)| {
            let s = &self.sequentials[i];
            same(shot, s.probe_flags(), &mut |v| {
                s.state.borrow_mut().visit_state(v)
            })
        })
    }

    /// Settles the catch-ups of the touched members on this boundary
    /// and reads their counters, in touched order. Members outside the
    /// set keep their stamps: what they are owed keeps growing with the
    /// clock, through an advance as through stepped cycles.
    fn touched_counters(&mut self, probe: &LoopProbe) -> Vec<u64> {
        let cycles = self.clocks[probe.ci].cycles;
        let (mut state, mut counters) = (Vec::new(), Vec::new());
        for (i, _) in probe.comps.touched() {
            let e = &mut self.components[i];
            if e.asleep && e.blocked {
                e.settle_skipped_ticks(cycles, &self.ticks_skipped_blocked);
            }
            e.component
                .visit_state(&mut StateVisitor::record(&mut state, &mut counters));
        }
        for (i, _) in probe.seqs.touched() {
            let s = &mut self.sequentials[i];
            s.settle_skipped_commits(cycles);
            s.state
                .borrow_mut()
                .visit_state(&mut StateVisitor::record(&mut state, &mut counters));
        }
        counters
    }

    /// Takes the probe in flight one boundary further.
    fn judge_probe(&mut self, probe: &mut LoopProbe) -> ProbeVerdict {
        if probe.spoiled {
            return ProbeVerdict::Failed;
        }
        let cycle = self.clocks[probe.ci].cycles;
        let Some(lap) = &probe.lap else {
            if self.recurs(probe) {
                probe.lap = Some(Lap {
                    period: cycle - probe.start,
                    touched: probe.touched(),
                    counters: self.touched_counters(probe),
                    kernel: self.kernel_counters(),
                });
                return ProbeVerdict::Pending;
            }
            return if cycle >= probe.deadline {
                ProbeVerdict::Failed
            } else {
                ProbeVerdict::Pending
            };
        };
        let period = lap.period;
        if cycle < probe.start + 2 * period {
            return ProbeVerdict::Pending;
        }
        // The second period must repeat the first in every respect the
        // probe can see: the same members touched, the same state at
        // its end, and every counter grown by the same amount — which
        // is what catches a statistic that is secretly state.
        if probe.touched() != lap.touched || !self.recurs(probe) {
            return ProbeVerdict::Failed;
        }
        let lap = probe.lap.take().expect("checked above");
        // What the touched members' counters read when the probe
        // opened, in touched order like the two later readings.
        let first: Vec<u64> = (probe.comps.touched())
            .chain(probe.seqs.touched())
            .flat_map(|(_, shot)| &probe.counters[shot.counters.0..shot.counters.1])
            .copied()
            .collect();
        let third = self.touched_counters(probe);
        let deltas = |a: &[u64], b: &[u64], c: &[u64]| -> Option<Vec<u64>> {
            if a.len() != b.len() || b.len() != c.len() {
                return None;
            }
            a.iter()
                .zip(b)
                .zip(c)
                .map(|((a, b), c)| {
                    let d = b.checked_sub(*a)?;
                    (c.checked_sub(*b)? == d).then_some(d)
                })
                .collect()
        };
        let kernel = deltas(&probe.kernel, &lap.kernel, &self.kernel_counters());
        match (kernel, deltas(&first, &lap.counters, &third)) {
            (Some(k), Some(c)) => {
                ProbeVerdict::Proved(period, k.try_into().expect("five in, five out"), c)
            }
            _ => ProbeVerdict::Failed,
        }
    }

    /// Advances the run by as many whole periods of the proved loop as
    /// fit into `room` cycles with one period to spare — the clock, the
    /// watchdog, the scheduler counters, every counter of the touched
    /// members and the kernel's absolute stamps of them — exactly as if
    /// each cycle had been stepped.
    fn skip_periods(
        &mut self,
        probe: &LoopProbe,
        period: u64,
        room: u64,
        kernel: &KernelCounters,
        counters: &[u64],
        wd: &mut WatchdogState,
    ) {
        let clk = &mut self.clocks[probe.ci];
        // Time is checked: an advance that would run off the end of
        // the picosecond counter is cut short, and the stepped cycles
        // that follow report the overflow as they always did.
        let edges_left = (u64::MAX - clk.next_edge.0) / clk.spec.period.0;
        let k = (room.min(edges_left) / period).saturating_sub(1);
        if k == 0 {
            return;
        }
        let n = k * period;
        self.last_loop = Some(ProvedLoop {
            period,
            proved_at: clk.cycles,
        });
        // `n` more edges: the last of them at the old next edge plus
        // `n - 1` periods, the next one a period after that.
        self.now = Picoseconds(clk.next_edge.0 + (n - 1) * clk.spec.period.0);
        clk.next_edge = Picoseconds(clk.next_edge.0 + n * clk.spec.period.0);
        clk.cycles += n;
        wd.idle += n;
        wd.last_cycle += n;
        let [instants, delivered, skipped, commits, blocked] = kernel.map(|d| k * d);
        self.instants += instants;
        self.ticks_delivered += delivered;
        self.ticks_skipped += skipped;
        self.commits_skipped += commits;
        self.ticks_skipped_blocked
            .set(self.ticks_skipped_blocked.get() + blocked);
        let mut rest = counters;
        let mut advance = |shot: &MemberShot, visit: &mut dyn FnMut(&mut StateVisitor<'_>)| {
            let (mine, others) = rest.split_at(shot.counters.1 - shot.counters.0);
            rest = others;
            visit(&mut StateVisitor::advance(mine, k));
        };
        for (i, shot) in probe.comps.touched() {
            let e = &mut self.components[i];
            e.asleep_from += n;
            advance(shot, &mut |v| e.component.visit_state(v));
        }
        for (i, shot) in probe.seqs.touched() {
            let s = &mut self.sequentials[i];
            s.seen += n;
            advance(shot, &mut |v| s.state.borrow_mut().visit_state(v));
        }
        self.loop_skips.set(self.loop_skips.get() + 1);
        self.cycles_skipped.set(self.cycles_skipped.get() + n);
    }

    /// Snapshots every registered component and sequential for a
    /// [`HangReport`].
    fn diagnose(&self, idle_cycles: u64) -> HangReport {
        let components = self
            .components
            .iter()
            .map(|e| CompDiag {
                name: e.component.name().to_string(),
                clock: self.clocks[e.clock.0].spec.name.clone(),
                asleep: e.asleep,
                quiescent: e.component.is_quiescent(),
                wait: e.component.wait_reason(),
            })
            .collect();
        let channels = self
            .sequentials
            .iter()
            .filter_map(|s| s.state.borrow().diagnose())
            .collect();
        HangReport {
            idle_cycles,
            components,
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct Probe {
        name: String,
        hits: Rc<Cell<u64>>,
        last_cycle: Rc<Cell<u64>>,
    }

    impl Component for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            self.hits.set(self.hits.get() + 1);
            self.last_cycle.set(ctx.cycle());
        }
    }

    fn probe(name: &str) -> (Probe, Rc<Cell<u64>>, Rc<Cell<u64>>) {
        let hits = Rc::new(Cell::new(0));
        let last = Rc::new(Cell::new(0));
        (
            Probe {
                name: name.into(),
                hits: Rc::clone(&hits),
                last_cycle: Rc::clone(&last),
            },
            hits,
            last,
        )
    }

    #[test]
    fn single_clock_ticks_once_per_cycle() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let (p, hits, last) = probe("p");
        sim.add_component(clk, p);
        sim.run_cycles(clk, 5);
        assert_eq!(hits.get(), 5);
        assert_eq!(last.get(), 4);
        assert_eq!(sim.now(), Picoseconds(4000));
    }

    #[test]
    fn unrelated_clocks_interleave_by_time() {
        let mut sim = Simulator::new();
        let fast = sim.add_clock(ClockSpec::new("fast", Picoseconds(100)));
        let slow = sim.add_clock(ClockSpec::new("slow", Picoseconds(250)));
        let (pf, hf, _) = probe("f");
        let (ps, hs, _) = probe("s");
        sim.add_component(fast, pf);
        sim.add_component(slow, ps);
        sim.run_until_time(Picoseconds(1000));
        // fast edges: 0,100,...,1000 -> 11; slow: 0,250,500,750,1000 -> 5
        assert_eq!(hf.get(), 11);
        assert_eq!(hs.get(), 5);
    }

    #[test]
    fn pause_and_resume() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, hits, _) = probe("p");
        sim.add_component(clk, p);
        sim.run_cycles(clk, 3);
        sim.pause_clock(clk);
        sim.run_until_time(Picoseconds(10_000));
        assert_eq!(hits.get(), 3);
        sim.resume_clock(clk);
        sim.run_cycles(clk, 2);
        assert_eq!(hits.get(), 5);
    }

    struct Stopper {
        at: u64,
    }
    impl Component for Stopper {
        fn name(&self) -> &str {
            "stopper"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.cycle() == self.at {
                ctx.request_stop();
            }
        }
    }

    #[test]
    fn stop_request_halts_run() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, Stopper { at: 7 });
        sim.run_cycles(clk, 1_000);
        assert!(sim.stopped());
        assert_eq!(sim.cycles(clk), 8); // edge 7 completed, then halt
    }

    /// Stretches its clock's next period by 50 ps at cycle `at`.
    struct Stretcher {
        at: u64,
    }
    impl Component for Stretcher {
        fn name(&self) -> &str {
            "stretcher"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.cycle() == self.at {
                let clock = ctx.clock();
                ctx.stretch_clock(clock, Picoseconds(50));
            }
        }
    }

    #[test]
    fn stretch_delays_next_edge_only() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, Stretcher { at: 1 });
        sim.run_cycles(clk, 4);
        // Edges at 0, 100, 250 (stretched), 350.
        assert_eq!(sim.now(), Picoseconds(350));
    }

    #[test]
    fn sequential_commit_runs_after_eval() {
        struct Latch {
            staged: u64,
            value: u64,
        }
        impl Sequential for Latch {
            fn commit(&mut self) {
                self.value = self.staged;
            }
        }
        struct Writer {
            latch: Rc<RefCell<Latch>>,
            observed_before_commit: Rc<Cell<u64>>,
        }
        impl Component for Writer {
            fn name(&self) -> &str {
                "writer"
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                let mut l = self.latch.borrow_mut();
                // Reads must see the value committed at a previous edge.
                self.observed_before_commit.set(l.value);
                l.staged = ctx.cycle() + 1;
            }
        }
        let latch = Rc::new(RefCell::new(Latch {
            staged: 0,
            value: 0,
        }));
        let seen = Rc::new(Cell::new(u64::MAX));
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(
            clk,
            Writer {
                latch: Rc::clone(&latch),
                observed_before_commit: Rc::clone(&seen),
            },
        );
        sim.add_sequential(clk, latch.clone());
        sim.run_cycles(clk, 1);
        assert_eq!(seen.get(), 0); // saw pre-commit value
        assert_eq!(latch.borrow().value, 1); // commit applied after eval
        sim.run_cycles(clk, 1);
        assert_eq!(seen.get(), 1);
        assert_eq!(latch.borrow().value, 2);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, hits, _) = probe("p");
        sim.add_component(clk, p);
        let h2 = Rc::clone(&hits);
        let fired = sim.run_until(clk, 1_000, move || h2.get() >= 5);
        assert!(fired);
        assert_eq!(hits.get(), 5);
    }

    #[test]
    fn run_until_respects_cycle_limit() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let fired = sim.run_until(clk, 10, || false);
        assert!(!fired);
        assert_eq!(sim.cycles(clk), 10);
    }

    /// Regression: `run_until` must evaluate a side-effecting predicate
    /// exactly once per instant boundary, on every exit path. The seed
    /// kernel called `done()` twice at the final boundary when the
    /// run ended because no edges remained.
    #[test]
    fn run_until_evaluates_predicate_once_per_boundary() {
        // Timeout path: N steps -> N+1 boundaries.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let fired = sim.run_until(clk, 10, move || {
            c2.set(c2.get() + 1);
            false
        });
        assert!(!fired);
        assert_eq!(calls.get(), 11, "10 instants -> 11 boundaries");

        // No-edges path (paused clock): a single boundary, a single call.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.pause_clock(clk);
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let fired = sim.run_until(clk, 10, move || {
            c2.set(c2.get() + 1);
            false
        });
        assert!(!fired);
        assert_eq!(calls.get(), 1, "no edges -> exactly one evaluation");

        // Predicate-fires path: counting boundaries, not double-counting.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let fired = sim.run_until(clk, 100, move || {
            c2.set(c2.get() + 1);
            c2.get() > 5
        });
        assert!(fired);
        assert_eq!(calls.get(), 6);
        assert_eq!(sim.cycles(clk), 5);
    }

    /// Pins the pausible-clock contract `craft-gals::pausible` relies
    /// on: resuming a clock paused mid-period restarts a *full* period
    /// from the resume point — elapsed pre-pause time is not credited.
    #[test]
    fn resume_mid_period_restarts_full_period() {
        let mut sim = Simulator::new();
        let _a = sim.add_clock(ClockSpec::new("a", Picoseconds(100)));
        let b = sim.add_clock(ClockSpec::new("b", Picoseconds(130)));
        // Run until a's edge at 300 (b has edges at 0,130,260).
        sim.run_until_time(Picoseconds(300));
        assert_eq!(sim.now(), Picoseconds(300));
        // b is mid-period: its next edge would be 390.
        sim.pause_clock(b);
        sim.run_until_time(Picoseconds(400));
        // Resume at now=400: next b edge is 400+130=530, NOT 390.
        sim.resume_clock(b);
        let b_cycles = sim.cycles(b);
        sim.run_until_time(Picoseconds(529));
        assert_eq!(sim.cycles(b), b_cycles, "no b edge before 530");
        sim.run_until_time(Picoseconds(530));
        assert_eq!(sim.cycles(b), b_cycles + 1, "b edge lands at 530");
    }

    /// The indexed edge heap and the single-clock fast path must agree
    /// with the reference min-scan across pause/resume/stretch and
    /// clock-count transitions.
    #[test]
    fn heap_schedule_matches_min_scan_reference() {
        // Mirror of the kernel's edge sequence computed naively.
        fn reference(periods: &[u64], until: u64) -> Vec<(u64, Vec<usize>)> {
            let mut next: Vec<u64> = periods.iter().map(|_| 0).collect();
            let mut out = Vec::new();
            loop {
                let t = *next.iter().min().expect("nonempty");
                if t > until {
                    return out;
                }
                let who: Vec<usize> = (0..periods.len()).filter(|&i| next[i] == t).collect();
                for &i in &who {
                    next[i] += periods[i];
                }
                out.push((t, who));
            }
        }

        struct Recorder {
            log: Rc<RefCell<Vec<(u64, usize)>>>,
            idx: usize,
        }
        impl Component for Recorder {
            fn name(&self) -> &str {
                "rec"
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                self.log.borrow_mut().push((ctx.now().as_ps(), self.idx));
            }
        }

        let periods = [70u64, 100, 100, 130, 35];
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        for (idx, &p) in periods.iter().enumerate() {
            let clk = sim.add_clock(ClockSpec::new(format!("c{idx}"), Picoseconds(p)));
            sim.add_component(
                clk,
                Recorder {
                    log: Rc::clone(&log),
                    idx,
                },
            );
        }
        sim.run_until_time(Picoseconds(2_000));

        let expect: Vec<(u64, usize)> = reference(&periods, 2_000)
            .into_iter()
            .flat_map(|(t, who)| who.into_iter().map(move |i| (t, i)))
            .collect();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn fast_path_survives_pause_resume_transitions() {
        let mut sim = Simulator::new();
        let a = sim.add_clock(ClockSpec::new("a", Picoseconds(100)));
        let b = sim.add_clock(ClockSpec::new("b", Picoseconds(100)));
        let (pa, ha, _) = probe("a");
        let (pb, hb, _) = probe("b");
        sim.add_component(a, pa);
        sim.add_component(b, pb);
        // Multi-domain, then single (b paused), then multi again.
        sim.run_cycles(a, 3);
        sim.pause_clock(b);
        sim.run_cycles(a, 3);
        sim.resume_clock(b);
        sim.run_cycles(a, 3);
        assert_eq!(ha.get(), 9);
        // b ticked alongside a (same period/phase) until paused after
        // its 3rd cycle; resumed at t=500 its edges (600,700,800) land
        // on a's final three instants again.
        assert_eq!(hb.get(), 3 + 3);
        assert_eq!(sim.cycles(a), 9);
    }

    /// A quiescent component with a wake token sleeps; channel-style
    /// activity on the token rouses it; cycle counts are untouched.
    #[test]
    fn gating_skips_quiescent_components_and_wakes_on_token() {
        struct Dozer {
            work: Rc<Cell<u64>>,
            ticks: Rc<Cell<u64>>,
        }
        impl Component for Dozer {
            fn name(&self) -> &str {
                "dozer"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                self.ticks.set(self.ticks.get() + 1);
                if self.work.get() > 0 {
                    self.work.set(self.work.get() - 1);
                }
            }
        }
        impl Dozer {
            fn quiescent(&self) -> bool {
                self.work.get() == 0
            }
        }
        // Forward is_quiescent through the trait.
        struct DozerC(Dozer);
        impl Component for DozerC {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                self.0.tick(ctx)
            }
            fn is_quiescent(&self) -> bool {
                self.0.quiescent()
            }
        }

        let work = Rc::new(Cell::new(2u64));
        let ticks = Rc::new(Cell::new(0u64));
        let token = ActivityToken::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let id = sim.add_component(
            clk,
            DozerC(Dozer {
                work: Rc::clone(&work),
                ticks: Rc::clone(&ticks),
            }),
        );
        sim.set_wake_token(id, token.clone());

        // Two busy ticks, then the second tick drains work -> sleeps.
        sim.run_cycles(clk, 10);
        assert_eq!(ticks.get(), 2, "slept after work drained");
        assert_eq!(sim.cycles(clk), 10, "cycle count unaffected by sleep");
        assert_eq!(sim.ticks_skipped(), 8);

        // Activity arrives: wakes on its next edge, works once, sleeps.
        work.set(1);
        token.set();
        sim.run_cycles(clk, 5);
        assert_eq!(ticks.get(), 3);
        assert_eq!(sim.cycles(clk), 15);

        // Gating off: ticks every edge again.
        sim.set_gating(false);
        sim.run_cycles(clk, 4);
        assert_eq!(ticks.get(), 7);
    }

    /// Time overflow no longer panics: the run terminates, the fault is
    /// recorded, and the checked variant surfaces it as `Err`.
    #[test]
    fn time_overflow_is_recorded_not_panicked() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("huge", Picoseconds(u64::MAX - 5)));
        sim.run_cycles(clk, 100); // would previously panic
        assert!(sim.cycles(clk) < 100, "clock died before the target");
        assert!(matches!(sim.fatal(), Some(SimError::TimeOverflow { .. })));
        assert!(sim.stopped());

        // The checked variant reports the same fault as a typed error.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("huge", Picoseconds(u64::MAX - 5)));
        let err = sim
            .run_until_checked(clk, 100, 1_000, || false)
            .expect_err("overflow must surface");
        assert!(matches!(err, SimError::TimeOverflow { ref clock, .. } if clock == "huge"));
        assert!(sim.fatal().is_none(), "checked run consumed the fault");
    }

    /// Clock-stretch overflow is likewise recorded instead of panicking.
    #[test]
    fn stretch_overflow_is_recorded_not_panicked() {
        struct BigStretch;
        impl Component for BigStretch {
            fn name(&self) -> &str {
                "big-stretch"
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                let clock = ctx.clock();
                ctx.stretch_clock(clock, Picoseconds::MAX);
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, BigStretch);
        let err = sim
            .run_until_checked(clk, 10, 1_000, || false)
            .expect_err("stretch overflow must surface");
        assert!(matches!(err, SimError::ClockStretchOverflow { .. }));
    }

    /// Resuming a clock too close to the end of time records the fault
    /// and leaves the clock paused.
    #[test]
    fn resume_near_end_of_time_records_overflow() {
        let mut sim = Simulator::new();
        let a = sim.add_clock(ClockSpec::new("a", Picoseconds(u64::MAX - 5)));
        let b = sim.add_clock(ClockSpec::new("b", Picoseconds(u64::MAX - 5)));
        sim.pause_clock(b);
        sim.run_cycles(a, 2); // now sits at MAX-5
        assert_eq!(sim.now(), Picoseconds(u64::MAX - 5));
        sim.clear_stop();
        sim.take_fatal();
        sim.resume_clock(b);
        assert!(
            matches!(sim.fatal(), Some(SimError::TimeOverflow { ref clock, .. }) if clock == "b")
        );
    }

    /// The watchdog fires on a design that makes no progress, and the
    /// report diagnoses components and channels.
    #[test]
    fn watchdog_detects_no_progress_and_diagnoses() {
        struct Waiter;
        impl Component for Waiter {
            fn name(&self) -> &str {
                "waiter"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn wait_reason(&self) -> Option<String> {
                Some("waiting for a token that never comes".into())
            }
        }
        struct StuckQueue;
        impl Sequential for StuckQueue {
            fn commit(&mut self) {}
            fn diagnose(&self) -> Option<crate::SeqDiag> {
                Some(crate::SeqDiag {
                    name: "stuck-q".into(),
                    occupancy: 3,
                    pending: true,
                    note: "test fixture".into(),
                })
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
        sim.add_component(clk, Waiter);
        sim.add_sequential(clk, Rc::new(RefCell::new(StuckQueue)));
        let err = sim
            .run_until_checked(clk, 10_000, 64, || false)
            .expect_err("must hang");
        let SimError::Hang {
            clock,
            cycle,
            report,
            ..
        } = err
        else {
            panic!("expected Hang, got {err}");
        };
        assert_eq!(clock, "core");
        assert_eq!(cycle, 64, "fired exactly at the idle limit");
        assert_eq!(report.idle_cycles, 64);
        assert_eq!(report.components.len(), 1);
        assert_eq!(
            report.components[0].wait.as_deref(),
            Some("waiting for a token that never comes")
        );
        assert_eq!(report.channels.len(), 1);
        assert!(report.channels[0].pending);
    }

    /// Progress on the token holds the watchdog off; the run then
    /// completes normally (predicate or cycle limit).
    #[test]
    fn watchdog_spares_runs_that_make_progress() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
        let (p, hits, _) = probe("p");
        sim.add_component(clk, p);
        let token = sim.progress_token();
        // An external source marks progress every instant (as channels
        // do on every push/pop).
        let h2 = Rc::clone(&hits);
        let t2 = token.clone();
        let done = move || {
            t2.set();
            h2.get() >= 500
        };
        let fired = sim
            .run_until_checked(clk, 10_000, 16, done)
            .expect("no hang while progress flows");
        assert!(fired);
        assert_eq!(hits.get(), 500);

        // Source goes quiet: the same sim now hangs.
        let err = sim
            .run_until_checked(clk, 10_000, 16, || false)
            .expect_err("silence must trip the watchdog");
        assert!(matches!(err, SimError::Hang { .. }));
    }

    /// A component waking from sleep counts as progress even before
    /// any channel traffic.
    #[test]
    fn wake_transition_counts_as_progress() {
        struct Sleeper {
            quiescent: Rc<Cell<bool>>,
        }
        impl Component for Sleeper {
            fn name(&self) -> &str {
                "sleeper"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn is_quiescent(&self) -> bool {
                self.quiescent.get()
            }
        }
        let quiescent = Rc::new(Cell::new(true));
        let wake = ActivityToken::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
        let id = sim.add_component(
            clk,
            Sleeper {
                quiescent: Rc::clone(&quiescent),
            },
        );
        sim.set_wake_token(id, wake.clone());
        // Tick 0 puts it to sleep. Setting the wake token just before
        // the watchdog would fire resets the idle counter.
        let mut boundary = 0u64;
        let w2 = wake.clone();
        let res = sim.run_until_checked(clk, 40, 16, move || {
            boundary += 1;
            if boundary.is_multiple_of(10) {
                w2.set();
            }
            false
        });
        assert!(matches!(res, Ok(false)), "cycle limit, not hang: {res:?}");
        assert_eq!(sim.cycles(clk), 40);
    }

    /// A component that sleeps *blocked* (work in hand, nothing to
    /// move) has its per-tick counter settled through `ticks_skipped`
    /// at the wake-up and at every flush, so the counter is the
    /// ungated run's, and the blocked share of the elided ticks is
    /// told apart.
    #[test]
    fn blocked_sleep_catches_up_exactly() {
        /// Counts a stall cycle per tick while `blocked`, a work cycle
        /// otherwise; is never quiescent.
        struct Staller {
            blocked: Rc<Cell<bool>>,
            stalls: Rc<Cell<u64>>,
            work: Rc<Cell<u64>>,
        }
        impl Component for Staller {
            fn name(&self) -> &str {
                "staller"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                let counter = if self.blocked.get() {
                    &self.stalls
                } else {
                    &self.work
                };
                counter.set(counter.get() + 1);
            }
            fn can_sleep(&self) -> Sleep {
                Sleep::blocked_if(self.blocked.get())
            }
            fn ticks_skipped(&mut self, n: u64) {
                self.stalls.set(self.stalls.get() + n);
            }
        }
        let run = |gating: bool| {
            let blocked = Rc::new(Cell::new(false));
            let stalls = Rc::new(Cell::new(0u64));
            let work = Rc::new(Cell::new(0u64));
            let wake = ActivityToken::new();
            let mut sim = Simulator::new();
            sim.set_gating(gating);
            let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
            let id = sim.add_component(
                clk,
                Staller {
                    blocked: Rc::clone(&blocked),
                    stalls: Rc::clone(&stalls),
                    work: Rc::clone(&work),
                },
            );
            sim.set_wake_token(id, wake.clone());
            sim.run_cycles(clk, 3);
            blocked.set(true);
            // Ends asleep: the flush alone must settle the counter.
            sim.run_cycles(clk, 10);
            let mid = (stalls.get(), sim.ticks_skipped_blocked());
            sim.run_cycles(clk, 7);
            blocked.set(false);
            wake.set();
            sim.run_cycles(clk, 5);
            (
                mid,
                stalls.get(),
                work.get(),
                sim.ticks_delivered(),
                sim.ticks_skipped(),
                sim.ticks_skipped_blocked(),
            )
        };
        assert_eq!(run(false), ((10, 0), 17, 8, 25, 0, 0));
        // One blocked tick is delivered (the one that falls asleep);
        // the other 16 are elided and caught up.
        assert_eq!(run(true), ((10, 9), 17, 8, 9, 16, 16));
    }

    /// Blocked sleep is transparent to what idle-sleep gating already
    /// made observable. Waking a blocked sleeper is not watchdog
    /// progress, and the token level such a wake takes is handed back
    /// at the next idle sleep — so the run trips the watchdog on the
    /// cycle, and delivers the idle-phase ticks, of the same component
    /// with blocked sleep switched off.
    #[test]
    fn blocked_sleep_is_transparent_to_the_watchdog() {
        const WORK: u8 = 0;
        const BLOCKED: u8 = 1;
        const IDLE: u8 = 2;
        struct Gate {
            mode: Rc<Cell<u8>>,
            sleeps_blocked: bool,
            idle_ticks: Rc<Cell<u64>>,
        }
        impl Component for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                if self.mode.get() == IDLE {
                    self.idle_ticks.set(self.idle_ticks.get() + 1);
                }
            }
            fn is_quiescent(&self) -> bool {
                self.mode.get() == IDLE
            }
            fn can_sleep(&self) -> Sleep {
                match self.mode.get() {
                    IDLE => Sleep::Idle,
                    BLOCKED if self.sleeps_blocked => Sleep::Blocked,
                    _ => Sleep::No,
                }
            }
        }
        let run = |sleeps_blocked: bool, drains: bool| {
            let mode = Rc::new(Cell::new(WORK));
            let idle_ticks = Rc::new(Cell::new(0u64));
            let wake = ActivityToken::new();
            let mut sim = Simulator::new();
            let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
            let id = sim.add_component(
                clk,
                Gate {
                    mode: Rc::clone(&mode),
                    sleeps_blocked,
                    idle_ticks: Rc::clone(&idle_ticks),
                },
            );
            sim.set_wake_token(id, wake.clone());
            let progress = sim.progress_token();
            let mut boundary = 0u64;
            let err = sim
                .run_until_checked(clk, 1_000, 16, move || {
                    match boundary {
                        // Channel traffic while the component works.
                        0..=4 => progress.set(),
                        5 => mode.set(BLOCKED),
                        // A peer acts on a port; nothing can move yet.
                        10 => wake.set(),
                        // It acts again and, if `drains`, the work
                        // is gone.
                        15 => {
                            if drains {
                                mode.set(IDLE);
                            }
                            wake.set();
                        }
                        _ => {}
                    }
                    boundary += 1;
                    false
                })
                .expect_err("nothing moves after boundary 4");
            let SimError::Hang { cycle, .. } = err else {
                panic!("expected a hang, got {err}");
            };
            (cycle, idle_ticks.get(), sim.ticks_skipped_blocked())
        };
        // Without blocked sleep: awake until it idles at edge 15 with
        // the token still up from edge 10, so one spurious wake (and
        // idle tick) at edge 16 is the last progress the watchdog sees.
        let (trip, idle_ticks, blocked) = run(false, true);
        assert_eq!((trip, idle_ticks, blocked), (16 + 1 + 16, 2, 0));
        // Never draining, it never sleeps and never wakes: the last
        // progress is the traffic up to edge 4.
        let stuck = run(false, false);
        assert_eq!(stuck, (4 + 1 + 16, 0, 0));
        let (t, i, b) = run(true, true);
        assert_eq!((t, i), (trip, idle_ticks));
        assert!(b > 0, "the blocked phase was slept through");
        let (t, i, _) = run(true, false);
        assert_eq!((t, i), (stuck.0, stuck.1), "never draining");
    }

    /// Gated sequentials skip clean commits and reconcile exactly via
    /// `commit_skipped` before the next real commit and at run end.
    #[test]
    fn gated_sequential_commit_catch_up_is_exact() {
        #[derive(Default)]
        struct CycleCounter {
            commits: u64,
            cycles: u64,
        }
        impl Sequential for CycleCounter {
            fn commit(&mut self) {
                self.commits += 1;
                self.cycles += 1;
            }
            fn commit_skipped(&mut self, skipped: u64) {
                self.cycles += skipped;
            }
        }

        let seq = Rc::new(RefCell::new(CycleCounter::default()));
        let dirty = ActivityToken::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_sequential_gated(clk, seq.clone(), dirty.clone());

        sim.run_cycles(clk, 10);
        // Initial token is set -> first commit real, rest skipped, all
        // caught up by the run_cycles flush.
        assert_eq!(seq.borrow().commits, 1);
        assert_eq!(seq.borrow().cycles, 10);
        assert_eq!(sim.commits_skipped(), 9);

        // Mark dirty: next edge commits for real, catch-up already done.
        dirty.set();
        sim.run_cycles(clk, 3);
        assert_eq!(seq.borrow().commits, 2);
        assert_eq!(seq.borrow().cycles, 13);
    }

    /// A worker that sleeps when its work pool is empty.
    struct Worker {
        name: String,
        work: Rc<Cell<u64>>,
        ticks: Rc<Cell<u64>>,
    }
    impl Component for Worker {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
            self.ticks.set(self.ticks.get() + 1);
            if self.work.get() > 0 {
                self.work.set(self.work.get() - 1);
            }
        }
        fn is_quiescent(&self) -> bool {
            self.work.get() == 0
        }
    }

    /// Never-sleeping driver that feeds both workers and a gated latch
    /// on fixed schedules, exercising every wake path: waking a
    /// component *behind* it in delivery order (deferred to the next
    /// edge) and *ahead* of it (same instant).
    struct Driver {
        n: u64,
        early_work: Rc<Cell<u64>>,
        early_tok: ActivityToken,
        late_work: Rc<Cell<u64>>,
        late_tok: ActivityToken,
        latch: Rc<RefCell<DirtyLatch>>,
        latch_dirty: ActivityToken,
    }
    impl Component for Driver {
        fn name(&self) -> &str {
            "driver"
        }
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
            self.n += 1;
            if self.n.is_multiple_of(5) {
                self.early_work.set(self.early_work.get() + 2);
                self.early_tok.set();
            }
            if self.n.is_multiple_of(7) {
                self.late_work.set(self.late_work.get() + 1);
                self.late_tok.set();
            }
            if self.n.is_multiple_of(3) {
                self.latch.borrow_mut().staged = self.n;
                self.latch_dirty.set();
            }
        }
    }

    #[derive(Default)]
    struct DirtyLatch {
        staged: u64,
        value: u64,
        commits: u64,
        cycles: u64,
    }
    impl Sequential for DirtyLatch {
        fn commit(&mut self) {
            self.value = self.staged;
            self.commits += 1;
            self.cycles += 1;
        }
        fn commit_skipped(&mut self, skipped: u64) {
            self.cycles += skipped;
        }
    }

    #[derive(Default)]
    struct PlainCounter {
        commits: u64,
    }
    impl Sequential for PlainCounter {
        fn commit(&mut self) {
            self.commits += 1;
        }
    }

    /// What one driver-and-two-workers cluster exposes.
    struct Cluster {
        early_work: Rc<Cell<u64>>,
        early_ticks: Rc<Cell<u64>>,
        late_work: Rc<Cell<u64>>,
        late_ticks: Rc<Cell<u64>>,
        latch: Rc<RefCell<DirtyLatch>>,
        counter: Rc<RefCell<PlainCounter>>,
    }

    /// Registers a cluster: a gated worker, the driver (on
    /// `driver_clk`), a second gated worker, a gated latch and an
    /// ungated counter. With `driver_clk != clk` every wake and every
    /// dirty mark crosses clock domains.
    fn add_cluster(sim: &mut Simulator, driver_clk: ClockId, clk: ClockId) -> Cluster {
        let early_work = Rc::new(Cell::new(1u64));
        let early_ticks = Rc::new(Cell::new(0u64));
        let early_tok = ActivityToken::new();
        let late_work = Rc::new(Cell::new(0u64));
        let late_ticks = Rc::new(Cell::new(0u64));
        let late_tok = ActivityToken::new();
        let latch = Rc::new(RefCell::new(DirtyLatch::default()));
        let latch_dirty = ActivityToken::new();
        let counter = Rc::new(RefCell::new(PlainCounter::default()));

        let early = sim.add_component(
            clk,
            Worker {
                name: "early".into(),
                work: Rc::clone(&early_work),
                ticks: Rc::clone(&early_ticks),
            },
        );
        sim.set_wake_token(early, early_tok.clone());
        sim.add_component(
            driver_clk,
            Driver {
                n: 0,
                early_work: Rc::clone(&early_work),
                early_tok,
                late_work: Rc::clone(&late_work),
                late_tok: late_tok.clone(),
                latch: Rc::clone(&latch),
                latch_dirty: latch_dirty.clone(),
            },
        );
        let late = sim.add_component(
            clk,
            Worker {
                name: "late".into(),
                work: Rc::clone(&late_work),
                ticks: Rc::clone(&late_ticks),
            },
        );
        sim.set_wake_token(late, late_tok);
        sim.add_sequential_gated(clk, latch.clone(), latch_dirty);
        sim.add_sequential(clk, counter.clone());
        Cluster {
            early_work,
            early_ticks,
            late_work,
            late_ticks,
            latch,
            counter,
        }
    }

    struct PlanFixture {
        sim: Simulator,
        clk: ClockId,
        clusters: Vec<Cluster>,
    }

    /// One cluster on one clock of period 100.
    fn plan_fixture() -> PlanFixture {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let clusters = vec![add_cluster(&mut sim, clk, clk)];
        PlanFixture { sim, clk, clusters }
    }

    /// [`plan_fixture`] plus a second domain of period 130 that holds
    /// a cluster of its own and the workers and sequentials of a
    /// cluster driven from the first domain. Returns the second clock.
    fn two_period_fixture() -> (PlanFixture, ClockId) {
        let mut f = plan_fixture();
        let b = f.sim.add_clock(ClockSpec::new("b", Picoseconds(130)));
        f.clusters.push(add_cluster(&mut f.sim, b, b));
        f.clusters.push(add_cluster(&mut f.sim, f.clk, b));
        (f, b)
    }

    #[derive(Debug, PartialEq)]
    struct ClusterOutcome {
        work_left: (u64, u64),
        early_ticks: u64,
        late_ticks: u64,
        latch_value: u64,
        latch_commits: u64,
        latch_cycles: u64,
        counter_commits: u64,
    }

    #[derive(Debug, PartialEq)]
    struct FixtureOutcome {
        cycles: u64,
        now: Picoseconds,
        instants: u64,
        ticks_delivered: u64,
        ticks_skipped: u64,
        commits_skipped: u64,
        clusters: Vec<ClusterOutcome>,
    }

    impl FixtureOutcome {
        /// What gating may not change: everything but the kernel's
        /// work counters and how often an idle worker or a clean latch
        /// was visited.
        fn across_gating(mut self) -> FixtureOutcome {
            self.ticks_delivered = 0;
            self.ticks_skipped = 0;
            self.commits_skipped = 0;
            for c in &mut self.clusters {
                c.early_ticks = 0;
                c.late_ticks = 0;
                c.latch_commits = 0;
            }
            self
        }

        /// What gating does change, in the order the pins below list
        /// it: `[now_ps, instants, ticks_delivered, ticks_skipped,
        /// commits_skipped]` and per cluster `[early_ticks, late_ticks,
        /// latch_commits]`.
        fn work(&self) -> ([u64; 5], Vec<[u64; 3]>) {
            (
                [
                    self.now.0,
                    self.instants,
                    self.ticks_delivered,
                    self.ticks_skipped,
                    self.commits_skipped,
                ],
                self.clusters
                    .iter()
                    .map(|c| [c.early_ticks, c.late_ticks, c.latch_commits])
                    .collect(),
            )
        }
    }

    fn fixture_outcome(f: &PlanFixture) -> FixtureOutcome {
        FixtureOutcome {
            cycles: f.sim.cycles(f.clk),
            now: f.sim.now(),
            instants: f.sim.instants(),
            ticks_delivered: f.sim.ticks_delivered(),
            ticks_skipped: f.sim.ticks_skipped(),
            commits_skipped: f.sim.commits_skipped(),
            clusters: f
                .clusters
                .iter()
                .map(|c| ClusterOutcome {
                    work_left: (c.early_work.get(), c.late_work.get()),
                    early_ticks: c.early_ticks.get(),
                    late_ticks: c.late_ticks.get(),
                    latch_value: c.latch.borrow().value,
                    latch_commits: c.latch.borrow().commits,
                    latch_cycles: c.latch.borrow().cycles,
                    counter_commits: c.counter.borrow().commits,
                })
                .collect(),
        }
    }

    /// Runs `scenario` on `fixture()` gated and ungated — the same loop
    /// with nothing asleep and every sequential committing — and
    /// asserts the two agree on everything gating may not change and
    /// that gating elided real work. Returns the gated outcome's
    /// [`FixtureOutcome::work`] for the caller to pin: the values are
    /// what the scan-every-registration kernel this loop replaced
    /// produced for the same scenario.
    fn gated_matches_ungated(
        fixture: impl Fn() -> PlanFixture,
        scenario: impl Fn(&mut PlanFixture),
    ) -> ([u64; 5], Vec<[u64; 3]>) {
        let run = |gating: bool| {
            let mut f = fixture();
            f.sim.set_gating(gating);
            scenario(&mut f);
            fixture_outcome(&f)
        };
        let (gated, ungated) = (run(true), run(false));
        assert!(gated.ticks_skipped > 0 && gated.commits_skipped > 0);
        assert_eq!((ungated.ticks_skipped, ungated.commits_skipped), (0, 0));
        let work = gated.work();
        assert_eq!(gated.across_gating(), ungated.across_gating());
        work
    }

    /// The gated loop reproduces the ungated one across sleep, deferred
    /// wake, same-instant wake and gated-commit paths, with exactly the
    /// tick and commit accounting of a scan over every registration.
    #[test]
    fn plan_matches_interpreted_exactly() {
        let work = gated_matches_ungated(plan_fixture, |f| f.sim.run_cycles(f.clk, 1000));
        assert_eq!(
            work,
            ([99_900, 1000, 1542, 1458, 666], vec![[399, 143, 334]])
        );
    }

    /// Two periods: the instants interleave, and a driver on one clock
    /// wakes workers and dirties a latch on the other.
    #[test]
    fn gated_matches_ungated_across_two_periods() {
        let work = gated_matches_ungated(
            || two_period_fixture().0,
            |f| f.sim.run_until_time(Picoseconds(100_000)),
        );
        assert_eq!(
            work,
            (
                [100000, 1694, 4277, 3577, 1616],
                vec![[400, 144, 334], [307, 111, 257], [400, 143, 334]]
            )
        );
    }

    /// A clock stretch requested mid-run moves one edge and nothing
    /// else: the edge sequence and the sleepers' wake-ups are the
    /// ungated run's.
    #[test]
    fn a_clock_stretch_moves_one_edge_and_nothing_else() {
        let work = gated_matches_ungated(
            || two_period_fixture().0,
            |f| {
                f.sim.add_component(f.clk, Stretcher { at: 400 });
                f.sim.run_cycles(f.clk, 1000);
            },
        );
        assert_eq!(
            work,
            (
                [99950, 1692, 5270, 3575, 1614],
                vec![[399, 143, 334], [307, 110, 257], [399, 143, 333]]
            )
        );
    }

    /// Registration mid-run — a component, a wake token, a gated and an
    /// ungated sequential, a whole new clock domain — appends to the
    /// schedule, and pausing and resuming a clock only moves its edges.
    #[test]
    fn registration_mid_run_appends_to_the_schedule() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, _, _) = probe("p");
        sim.add_component(clk, p);
        sim.run_cycles(clk, 3);
        let (q, qhits, _) = probe("q");
        sim.add_component(clk, q);
        sim.run_cycles(clk, 5);
        assert_eq!(qhits.get(), 5, "late component is in the schedule");

        let work = gated_matches_ungated(plan_fixture, |f| {
            f.sim.run_cycles(f.clk, 300);
            let b = f.sim.add_clock(ClockSpec::new("b", Picoseconds(70)));
            let on_b = add_cluster(&mut f.sim, b, b);
            let across = add_cluster(&mut f.sim, b, f.clk);
            f.clusters.extend([on_b, across]);
            f.sim.run_cycles(f.clk, 300);
            f.sim.pause_clock(b);
            f.sim.run_cycles(f.clk, 100);
            f.sim.resume_clock(b);
            f.sim.run_cycles(f.clk, 300);
        });
        assert_eq!(
            work,
            (
                [99900, 2199, 5505, 4031, 1935],
                vec![[399, 143, 334], [513, 184, 429], [514, 184, 286]]
            )
        );
    }

    /// Toggling tick profiling, or gating itself, mid-run loses
    /// nothing: the run is indistinguishable from an untouched one.
    #[test]
    fn toggles_mid_run_preserve_state() {
        let straight = |gating: bool| {
            let (mut f, _) = two_period_fixture();
            f.sim.set_gating(gating);
            f.sim.run_cycles(f.clk, 1000);
            fixture_outcome(&f)
        };
        // Profiling, and re-asserting the gating mode, are observation
        // only — every counter is the untouched run's.
        let (mut f, _) = two_period_fixture();
        f.sim.run_cycles(f.clk, 400);
        f.sim.set_tick_profiling(true);
        f.sim.set_gating(true);
        f.sim.run_cycles(f.clk, 300);
        f.sim.set_tick_profiling(false);
        f.sim.run_cycles(f.clk, 300);
        assert_eq!(fixture_outcome(&f), straight(true));
        assert!(f.sim.tick_profile().iter().any(|r| r.ticks > 0));

        // Gating off and on again: sleepers wake, owed commits settle,
        // and the gated walk resumes from the flags alone.
        let (mut f, _) = two_period_fixture();
        f.sim.run_cycles(f.clk, 400);
        f.sim.set_gating(false);
        f.sim.run_cycles(f.clk, 300);
        let skipped = f.sim.ticks_skipped();
        f.sim.set_gating(true);
        f.sim.run_cycles(f.clk, 300);
        assert!(f.sim.ticks_skipped() > skipped, "gating resumed");
        assert_eq!(
            fixture_outcome(&f).across_gating(),
            straight(false).across_gating()
        );
        assert_eq!(
            fixture_outcome(&f).work(),
            (
                [99900, 1692, 5351, 2494, 1126],
                vec![[580, 402, 535], [448, 309, 412], [511, 332, 465]]
            )
        );
    }

    /// One wake token handed to two components, one dirty token to two
    /// sequentials: the second owner is registered ungated, so both
    /// observe every activity instead of the first in order consuming
    /// the flag.
    #[test]
    fn shared_tokens_lose_no_wake_up() {
        let run = |gating: bool| {
            let mut sim = Simulator::new();
            sim.set_gating(gating);
            let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
            let tok = ActivityToken::new();
            let work: Vec<Rc<Cell<u64>>> = (0..2).map(|_| Rc::new(Cell::new(0))).collect();
            let ticks: Vec<Rc<Cell<u64>>> = (0..2).map(|_| Rc::new(Cell::new(0))).collect();
            for i in 0..2 {
                let id = sim.add_component(
                    clk,
                    Worker {
                        name: format!("w{i}"),
                        work: Rc::clone(&work[i]),
                        ticks: Rc::clone(&ticks[i]),
                    },
                );
                sim.set_wake_token(id, tok.clone());
            }
            let dirty = ActivityToken::new();
            let latches: Vec<Rc<RefCell<DirtyLatch>>> = (0..2)
                .map(|_| Rc::new(RefCell::new(DirtyLatch::default())))
                .collect();
            for latch in &latches {
                sim.add_sequential_gated(clk, latch.clone(), dirty.clone());
            }
            sim.run_cycles(clk, 10);
            // One activity meant for both owners.
            for (w, latch) in work.iter().zip(&latches) {
                w.set(3);
                latch.borrow_mut().staged = 7;
            }
            tok.set();
            dirty.set();
            sim.run_cycles(clk, 10);
            let left: Vec<u64> = work.iter().map(|w| w.get()).collect();
            let values: Vec<u64> = latches.iter().map(|l| l.borrow().value).collect();
            let cycles: Vec<u64> = latches.iter().map(|l| l.borrow().cycles).collect();
            (left, values, cycles, sim.ticks_skipped(), ticks[1].get())
        };
        let (left, values, cycles, skipped, second_ticks) = run(true);
        assert_eq!(left, [0, 0], "both workers saw the work");
        assert_eq!(values, [7, 7], "both latches committed it");
        assert_eq!(cycles, [20, 20]);
        assert!(skipped > 0, "the first owner still sleeps");
        assert_eq!(second_ticks, 20, "the second owner never does");
        let ungated = run(false);
        assert_eq!((left, values, cycles), (ungated.0, ungated.1, ungated.2));
    }

    /// The hang watchdog reads the sleep flags the walk maintains, and
    /// a trip changes nothing about the run that continues after it.
    #[test]
    fn plan_hang_trip_matches_interpreted_diagnosis() {
        struct Idle;
        impl Component for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn wait_reason(&self) -> Option<String> {
                Some("stuck forever".into())
            }
        }
        let run = |gating: bool| {
            let mut sim = Simulator::new();
            sim.set_gating(gating);
            let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
            sim.add_component(clk, Idle);
            sim.add_sequential(clk, Rc::new(RefCell::new(PlainCounter::default())));
            sim.run_until_checked(clk, 10_000, 64, || false)
                .expect_err("must hang")
        };
        let (
            SimError::Hang {
                clock: c0,
                cycle: y0,
                now: n0,
                report: r0,
            },
            SimError::Hang {
                clock: c1,
                cycle: y1,
                now: n1,
                report: r1,
            },
        ) = (run(false), run(true))
        else {
            panic!("expected two hangs");
        };
        assert_eq!((c0, y0, n0, r0.idle_cycles), (c1, y1, n1, r1.idle_cycles));
        assert_eq!(r0.components.len(), r1.components.len());
        assert_eq!(r0.components[0].wait, r1.components[0].wait);
        assert_eq!(r0.components[0].asleep, r1.components[0].asleep);

        // With sleepers: only an idle worker's wake-up counts as
        // progress here, so the ungated run trips first; the report
        // names who is asleep, and the run carries on to the same end.
        let trips = Cell::new((0, 0));
        let work = gated_matches_ungated(plan_fixture, |f| {
            f.sim.run_cycles(f.clk, 2);
            let err = f
                .sim
                .run_until_checked(f.clk, 10_000, 4, || false)
                .expect_err("no channel reports progress");
            let SimError::Hang { cycle, report, .. } = err else {
                panic!("expected a hang, got {err}");
            };
            let asleep = report.components.iter().filter(|c| c.asleep).count();
            if f.sim.gating() {
                trips.set((cycle, trips.get().1));
                assert!(asleep > 0, "the report shows the sleepers");
            } else {
                trips.set((trips.get().0, cycle));
                assert_eq!(asleep, 0);
            }
            f.sim.run_cycles(f.clk, 1000 - cycle);
        });
        assert_eq!(
            work,
            ([99900, 1000, 1542, 1458, 666], vec![[399, 143, 334]])
        );
        assert_eq!(trips.get(), (20, 6));
    }

    /// Tick profiling attributes every delivered tick and never
    /// perturbs cycles or delivery counts.
    #[test]
    fn tick_profiling_attributes_ticks() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, hits, _) = probe("busy");
        sim.add_component(clk, p);
        assert!(!sim.tick_profiling());
        assert!(sim.tick_profile().is_empty(), "nothing measured yet");

        sim.set_tick_profiling(true);
        // Components registered after enabling are picked up too.
        let (q, qhits, _) = probe("late");
        sim.add_component(clk, q);
        sim.run_cycles(clk, 8);
        assert_eq!(hits.get(), 8);
        assert_eq!(qhits.get(), 8);
        assert_eq!(sim.cycles(clk), 8);

        let rows = sim.tick_profile();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.ticks, 8);
            assert_eq!(row.clock, "c");
        }
        assert!(rows.iter().any(|r| r.name == "busy"));
        assert!(rows.iter().any(|r| r.name == "late"));

        // Disabling freezes the profile.
        sim.set_tick_profiling(false);
        sim.run_cycles(clk, 4);
        assert_eq!(hits.get(), 12);
        assert!(sim.tick_profile().iter().all(|r| r.ticks == 8));
    }

    // --- The loop probe, on a ring whose period the kernel must find ---

    /// One register of the ring: a tag staged by the stage upstream,
    /// visible after commit, cleared by the stage that takes it.
    #[derive(Default)]
    struct RingLatch {
        value: Option<u8>,
        staged: Option<u8>,
        take: bool,
        commits: u64,
        clean_cycles: u64,
    }

    impl Sequential for RingLatch {
        fn commit(&mut self) {
            if std::mem::take(&mut self.take) {
                self.value = None;
            }
            if let Some(tag) = self.staged.take() {
                self.value = Some(tag);
            }
            self.commits += 1;
        }
        fn commit_skipped(&mut self, skipped: u64) {
            self.clean_cycles += skipped;
        }
        fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
            for slot in [self.value, self.staged] {
                v.state(slot.map_or(u64::MAX, u64::from));
            }
            v.state(u64::from(self.take));
            v.counter(&mut self.commits);
            v.counter(&mut self.clean_cycles);
        }
    }

    /// `(passes, waits, idles)` of one ring stage.
    type StageCounts = Rc<Cell<[u64; 3]>>;

    /// How a ring stage departs from the plain one.
    #[derive(Clone, Copy, PartialEq)]
    enum Quirk {
        None,
        /// Keeps the default `visit_state`.
        Opaque,
        /// Re-requests its clock's nominal period on every pass.
        ClockRequest,
        /// Sets the watchdog's progress token on every pass.
        Progress,
        /// Counts its passes up to a cap and presents the count as a
        /// counter although it stops growing.
        Saturating(u64),
    }

    /// One stage of the ring: takes the tag from its input latch, holds
    /// it for `hold` cycles, passes it on. It sleeps blocked while it
    /// has nothing in hand; the stage upstream wakes it.
    struct RingStage {
        name: &'static str,
        input: Rc<RefCell<RingLatch>>,
        input_dirty: ActivityToken,
        output: Rc<RefCell<RingLatch>>,
        output_dirty: ActivityToken,
        wake_next: ActivityToken,
        hold: u64,
        /// Increments the tag (a wrapping `u8`) as it passes.
        bump: bool,
        holding: Option<(u8, u64)>,
        counts: StageCounts,
        quirk: Quirk,
        progress: ActivityToken,
        saturated: Rc<Cell<u64>>,
    }

    impl RingStage {
        fn count(&self, which: usize, n: u64) {
            let mut c = self.counts.get();
            c[which] += n;
            self.counts.set(c);
        }
    }

    impl Component for RingStage {
        fn name(&self) -> &str {
            self.name
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if self.holding.is_none() {
                let mut input = self.input.borrow_mut();
                if let (Some(tag), false) = (input.value, input.take) {
                    input.take = true;
                    self.input_dirty.set();
                    self.holding = Some((tag, self.hold));
                }
            }
            match &mut self.holding {
                Some((tag, 0)) => {
                    let tag = if self.bump { tag.wrapping_add(1) } else { *tag };
                    self.output.borrow_mut().staged = Some(tag);
                    self.output_dirty.set();
                    self.wake_next.set();
                    self.holding = None;
                    self.count(0, 1);
                    match self.quirk {
                        Quirk::ClockRequest => {
                            let clock = ctx.clock();
                            ctx.set_nominal_period(clock, Picoseconds(100));
                        }
                        Quirk::Progress => self.progress.set(),
                        Quirk::Saturating(cap) => {
                            self.saturated.set((self.saturated.get() + 1).min(cap));
                        }
                        Quirk::None | Quirk::Opaque => {}
                    }
                }
                Some((_, left)) => {
                    *left -= 1;
                    self.count(1, 1);
                }
                None => self.count(2, 1),
            }
        }
        fn can_sleep(&self) -> Sleep {
            let input = self.input.borrow();
            Sleep::blocked_if(
                self.holding.is_none()
                    && input.staged.is_none()
                    && (input.value.is_none() || input.take),
            )
        }
        fn ticks_skipped(&mut self, n: u64) {
            self.count(2, n);
        }
        fn wait_reason(&self) -> Option<String> {
            Some(format!("holding {:?}", self.holding))
        }
        fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
            if self.quirk == Quirk::Opaque {
                return v.opaque();
            }
            match self.holding {
                Some((tag, left)) => {
                    v.state(u64::from(tag));
                    v.state(left);
                }
                None => v.state(u64::MAX),
            }
            let mut counts = self.counts.get();
            for c in &mut counts {
                v.counter(c);
            }
            self.counts.set(counts);
            let mut saturated = self.saturated.get();
            v.counter(&mut saturated);
            self.saturated.set(saturated);
        }
    }

    /// Never touched by the ring: the probe visits it exactly once per
    /// attempt, when it opens.
    struct Bystander {
        shots: Rc<Cell<u64>>,
    }

    impl Sequential for Bystander {
        fn commit(&mut self) {}
        fn visit_state(&mut self, _v: &mut StateVisitor<'_>) {
            self.shots.set(self.shots.get() + 1);
        }
    }

    struct Ring {
        sim: Simulator,
        clk: ClockId,
        counts: Vec<StageCounts>,
        latches: Vec<Rc<RefCell<RingLatch>>>,
        saturated: Rc<Cell<u64>>,
        /// Probe attempts opened so far.
        attempts: Rc<Cell<u64>>,
    }

    /// Three stages holding the tag for 2, 0 and 0 cycles: it goes
    /// round in 5, and comes back *equal* after 256 laps = 1 280
    /// cycles. `quirk` applies to the middle stage.
    fn ring(quirk: Quirk) -> Ring {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("ring", Picoseconds(100)));
        let latches: Vec<_> = (0..3)
            .map(|_| Rc::new(RefCell::new(RingLatch::default())))
            .collect();
        let dirty: Vec<_> = (0..3).map(|_| ActivityToken::new()).collect();
        let wakes: Vec<_> = (0..3).map(|_| ActivityToken::new()).collect();
        let counts: Vec<StageCounts> = (0..3).map(|_| StageCounts::default()).collect();
        let saturated = Rc::new(Cell::new(0));
        latches[0].borrow_mut().value = Some(0);
        for i in 0..3 {
            let next = (i + 1) % 3;
            let id = sim.add_component(
                clk,
                RingStage {
                    name: ["a", "b", "c"][i],
                    input: Rc::clone(&latches[i]),
                    input_dirty: dirty[i].clone(),
                    output: Rc::clone(&latches[next]),
                    output_dirty: dirty[next].clone(),
                    wake_next: wakes[next].clone(),
                    hold: [2, 0, 0][i],
                    bump: i == 0,
                    holding: None,
                    counts: Rc::clone(&counts[i]),
                    quirk: if i == 1 { quirk } else { Quirk::None },
                    progress: sim.progress_token(),
                    saturated: Rc::clone(&saturated),
                },
            );
            sim.set_wake_token(id, wakes[i].clone());
        }
        for (latch, dirty) in latches.iter().zip(&dirty) {
            sim.add_sequential_gated(clk, latch.clone(), dirty.clone());
        }
        let attempts = Rc::new(Cell::new(0));
        sim.add_sequential_gated(
            clk,
            Rc::new(RefCell::new(Bystander {
                shots: Rc::clone(&attempts),
            })),
            ActivityToken::new(),
        );
        Ring {
            sim,
            clk,
            counts,
            latches,
            saturated,
            attempts,
        }
    }

    /// Everything a run of the ring leaves behind.
    #[derive(Debug, PartialEq)]
    struct RingEnd {
        cycles: u64,
        now: Picoseconds,
        digest: KernelDigest,
        blocked: u64,
        stages: Vec<[u64; 3]>,
        latches: Vec<(Option<u8>, u64, u64)>,
        saturated: u64,
        hang: String,
    }

    impl Ring {
        fn end(&self, hang: &HangReport) -> RingEnd {
            RingEnd {
                cycles: self.sim.cycles(self.clk),
                now: self.sim.now(),
                digest: self.sim.kernel_digest(),
                blocked: self.sim.ticks_skipped_blocked(),
                stages: self.counts.iter().map(|c| c.get()).collect(),
                latches: self
                    .latches
                    .iter()
                    .map(|l| {
                        let l = l.borrow();
                        (l.value, l.commits, l.clean_cycles)
                    })
                    .collect(),
                saturated: self.saturated.get(),
                hang: format!("{hang:#?}"),
            }
        }

        /// Supervised to the trip, in calls of at most `segment`
        /// cycles carrying one watchdog state.
        fn run_to_trip(&mut self, limit: u64, segments: &[u64]) -> RingEnd {
            let mut wd = WatchdogState::default();
            let mut segments = segments.iter().copied().chain(std::iter::repeat(u64::MAX));
            loop {
                let budget = segments.next().expect("repeats forever");
                match self
                    .sim
                    .run_until_checked_with(self.clk, budget, limit, &mut wd, || false)
                {
                    Ok(false) => {}
                    Err(SimError::Hang { cycle, report, .. }) => {
                        assert_eq!(cycle, self.sim.cycles(self.clk));
                        return self.end(&report);
                    }
                    other => panic!("the ring neither ends nor faults: {other:?}"),
                }
            }
        }

        /// Stepped, unsupervised, to `cycles`, and diagnosed there.
        fn step_to(&mut self, cycles: u64, idle: u64) -> RingEnd {
            assert!(!self.sim.run_until(self.clk, cycles, || false));
            let report = self.sim.diagnose_hang(idle);
            self.end(&report)
        }
    }

    const RING_LIMIT: u64 = 20_000;

    /// The ring's state first repeats after 1 280 cycles, not 5: the
    /// probe finds that, confirms it over a second period, advances,
    /// and the run trips where — and as — the stepped run does.
    #[test]
    fn a_proved_loop_is_skipped_and_trips_on_the_stepped_cycle() {
        let mut skipped = ring(Quirk::None);
        let got = skipped.run_to_trip(RING_LIMIT, &[]);
        assert_eq!(got.cycles, RING_LIMIT, "nothing in the ring is progress");
        assert_eq!(got, ring(Quirk::None).step_to(RING_LIMIT, RING_LIMIT));

        let sim = &skipped.sim;
        // Opened at idle 1 024, recurred at 2 304, confirmed at 3 584;
        // 12 whole periods fit before the deadline, one is stepped.
        assert_eq!(
            sim.last_loop(),
            Some(ProvedLoop {
                period: 1_280,
                proved_at: 3_584,
            })
        );
        assert_eq!(sim.loop_skips(), 1);
        assert_eq!(sim.cycles_skipped(), 11 * 1_280);
        assert_eq!(skipped.attempts.get(), 1);
        assert_eq!(sim.instants(), RING_LIMIT, "skipped instants are counted");
    }

    /// Whatever keeps the probe from a proof, the run is the stepped
    /// one: an opaque member in the loop, a clock request in the loop,
    /// progress once a lap, a second running clock, tick profiling.
    #[test]
    fn a_loop_that_cannot_be_proved_is_stepped() {
        type Setup = fn(&mut Ring);
        let cases: [(&str, Quirk, Setup); 5] = [
            ("opaque member", Quirk::Opaque, |_| {}),
            ("clock request", Quirk::ClockRequest, |_| {}),
            ("progress", Quirk::Progress, |_| {}),
            ("second clock", Quirk::None, |r| {
                r.sim.add_clock(ClockSpec::new("other", Picoseconds(700)));
            }),
            ("profiling", Quirk::None, |r| r.sim.set_tick_profiling(true)),
        ];
        for (what, quirk, setup) in cases {
            let mut supervised = ring(quirk);
            setup(&mut supervised);
            let mut stepped = ring(quirk);
            setup(&mut stepped);
            if quirk == Quirk::Progress {
                // Never idle for more than a lap: no hang, no probe.
                let mut wd = WatchdogState::default();
                let res = supervised.sim.run_until_checked_with(
                    supervised.clk,
                    RING_LIMIT,
                    1_500,
                    &mut wd,
                    || false,
                );
                assert!(matches!(res, Ok(false)), "{what}: {res:?}");
                assert_eq!(supervised.attempts.get(), 0, "{what}");
                assert_eq!(
                    supervised.sim.instants(),
                    stepped.step_to(RING_LIMIT, 0).digest.instants
                );
                continue;
            }
            let got = supervised.run_to_trip(RING_LIMIT, &[]);
            assert_eq!(got, stepped.step_to(RING_LIMIT, RING_LIMIT), "{what}");
            assert_eq!(supervised.sim.loop_skips(), 0, "{what}");
            assert_eq!(supervised.sim.cycles_skipped(), 0, "{what}");
        }
    }

    /// The call's cycle limit may fall anywhere: inside the first
    /// period of a probe, between its recurrence and its confirmation,
    /// one cycle before and exactly where an advance fits. A probe dies with its call; the next
    /// call starts over, and the trip is the stepped one every time.
    #[test]
    fn a_cycle_limit_may_fall_anywhere_in_a_probe() {
        let want = ring(Quirk::None).step_to(RING_LIMIT, RING_LIMIT);
        // The first call proves the loop at cycle 3 584 and advances
        // only over periods that leave one more before its limit.
        let proved = 3_584;
        let cases: [(&str, &[u64], u64); 5] = [
            ("mid-period", &[1_700], 1),
            ("mid-probe", &[3_000], 1),
            ("a cycle short of a skip", &[proved + 2 * 1_280 - 1], 1),
            ("a period after a skip", &[proved + 2 * 1_280], 2),
            ("every 300 cycles", &[300; 80], 0),
        ];
        for (what, segments, skips) in cases {
            let mut r = ring(Quirk::None);
            assert_eq!(r.run_to_trip(RING_LIMIT, segments), want, "{what}");
            assert_eq!(r.sim.loop_skips(), skips, "{what}");
        }
        // The fourth case, by hand: where its first call stops.
        let mut r = ring(Quirk::None);
        let mut wd = WatchdogState::default();
        let budget = proved + 2 * 1_280;
        let res = r
            .sim
            .run_until_checked_with(r.clk, budget, RING_LIMIT, &mut wd, || false);
        assert!(matches!(res, Ok(false)));
        assert_eq!(r.sim.cycles(r.clk), budget);
        assert_eq!(r.sim.cycles_skipped(), 1_280);
        assert_eq!(wd.idle, budget);
    }

    /// A statistic that stops growing is state. Presented as a counter
    /// it slips through the state comparison, and the second period's
    /// increments give it away: the cap is reached between the first
    /// probe's recurrence (2 304) and its confirmation (3 584).
    #[test]
    fn a_counter_that_is_secretly_state_fails_the_second_period() {
        let quirk = Quirk::Saturating(500);
        let mut r = ring(quirk);
        let got = r.run_to_trip(RING_LIMIT, &[]);
        assert_eq!(got, ring(quirk).step_to(RING_LIMIT, RING_LIMIT));
        assert_eq!(got.saturated, 500);
        // The second attempt, opened after the cap, proves a loop in
        // which the count no longer moves.
        assert_eq!(r.attempts.get(), 2);
        let proved = r.sim.last_loop().expect("the second attempt proves it");
        assert_eq!(proved.period, 1_280);
        assert!(proved.proved_at > 3_584 + 2 * 1_280 - 1, "{proved:?}");
    }

    /// A run whose state never repeats pays for O(log idle) attempts.
    #[test]
    fn a_run_that_never_loops_makes_logarithmically_many_attempts() {
        struct Odometer {
            n: u64,
        }
        impl Component for Odometer {
            fn name(&self) -> &str {
                "odometer"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                self.n += 1;
            }
            fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
                v.state(self.n);
            }
        }
        let mut r = ring(Quirk::None);
        r.sim.add_component(r.clk, Odometer { n: 0 });
        let limit = 200_000;
        let got = r.run_to_trip(limit, &[]);
        assert_eq!(got.cycles, limit);
        assert_eq!(r.sim.loop_skips(), 0);
        // Opened at idle 1 024, 5 121, 13 314, 29 699, 62 468 and
        // 128 005: each attempt looks four thresholds far, each failure
        // doubles the threshold.
        assert_eq!(r.attempts.get(), 6);
    }
}
