//! Compiled instant-plan state: the data behind the kernel's
//! dispatch-free steady-state fast path.
//!
//! When every unpaused clock shares one period and phase (the default
//! `Synchronous` SoC clocking), the per-instant schedule is static: the
//! same components are eligible at every edge, in the same delivery
//! order, and the same sequentials commit afterwards. [`PlanState`]
//! freezes that schedule at arm time — dense ranks instead of the
//! per-clock scan, an `active` worklist instead of per-component
//! asleep checks, and notify sinks (see `activity`) instead of the
//! commit-phase dirty-token sweep.
//!
//! The plan is an *accelerator*, never an authority: every activity
//! token keeps its flag as the source of truth, so the kernel can
//! disarm the plan between (or even inside) instants and the
//! interpreted loop resumes bit-identically. Irregular events —
//! clock pause/resume or stretch/override requests, structural
//! mutation, gating or profiling toggles, watchdog trips, externally
//! moved clock edges — all route through the kernel's plan guard and
//! de-opt (`Simulator::disarm_plan`) with a [`PlanDeopt`] reason,
//! incrementing the `sim.plan.deopt_count` telemetry counter and its
//! per-reason `sim.plan.deopt.<reason>` row. Fault injectors are *not*
//! irregular events: a faulted channel re-arms its own dirty token on
//! every commit, which is the plan's notification source exactly as it
//! is the gated interpreter's.
//!
//! Invariants the kernel maintains while a plan is armed:
//!
//! * `active` holds exactly the ranks of awake scheduled components,
//!   ascending (= interpreted delivery order).
//! * For every **asleep** scheduled component whose wake flag is set,
//!   a wake candidate exists in `deferred` or in `wake_sink` — seeded
//!   at arm time, by the sink on each false→true flag transition, or
//!   by the sleep-time flag check. Candidates are hints: the flag is
//!   re-checked on drain, so stale entries are harmless.
//! * `epoch - seq_seen[rank]` is the number of commits a gated
//!   sequential has skipped since its last real commit; settling this
//!   (via `commit_skipped`) is all a disarm owes the sequentials.

use crate::activity::NotifySink;
use std::cell::Cell;
use std::rc::Rc;

/// Frozen steady-state schedule plus the mutable worklists the fast
/// path runs on. Boxed inside the kernel so arming and the per-phase
/// take/put-back are pointer moves.
pub(crate) struct PlanState {
    /// Unpaused clock ids, ascending; all share period and next edge.
    pub(crate) clocks: Vec<usize>,
    /// Component indices in interpreted delivery order (clock id
    /// order, registration order within a clock). A component's
    /// position here is its *rank*; sink slots and worklists speak
    /// ranks.
    pub(crate) order: Vec<u32>,
    /// Ranks of awake components, ascending.
    pub(crate) active: Vec<u32>,
    /// Receives ranks of components whose wake flag transitioned
    /// false→true.
    pub(crate) wake_sink: NotifySink,
    /// Drain buffer for `wake_sink`.
    pub(crate) wake_scratch: Vec<u32>,
    /// Wake candidates whose edge for this instant already passed (or
    /// that went to sleep with their flag still set): merged into the
    /// next instant's `pending` walk.
    pub(crate) deferred: Vec<u32>,
    /// This instant's sorted wake-candidate worklist. Candidates are
    /// checked (and their flag consumed) only when the merge walk
    /// reaches their rank — the exact point the interpreted scan would
    /// perform its asleep/take check — never earlier. Taking the flag
    /// at notify time or at instant start would let a later same-instant
    /// set re-raise the flag and schedule a spurious wake.
    pub(crate) pending: Vec<u32>,
    /// Sequential indices in interpreted commit order; position = rank.
    pub(crate) seq_order: Vec<u32>,
    /// Ranks of ungated sequentials (commit unconditionally), ascending.
    pub(crate) always: Vec<u32>,
    /// Receives ranks of gated sequentials whose dirty flag
    /// transitioned false→true.
    pub(crate) dirty_sink: NotifySink,
    /// Drain buffer for `dirty_sink`.
    pub(crate) dirty_scratch: Vec<u32>,
    /// Instants committed under this plan.
    pub(crate) epoch: u64,
    /// Per sequential rank: the epoch after its last real commit;
    /// `epoch - seq_seen[rank]` commits are owed as `commit_skipped`.
    pub(crate) seq_seen: Vec<u64>,
}

/// Why [`Simulator::arm_plan`](crate::Simulator::arm_plan) declined to
/// compile a plan. Arming is strictly opportunistic — every rejection
/// leaves the interpreted path (the golden reference) in charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReject {
    /// An instant is open (`eval_instant` without its commit).
    MidInstant,
    /// Quiescence gating is off; the plan's worklists are built on it.
    GatingDisabled,
    /// Tick profiling attributes per-component wall clock; the fast
    /// path deliberately has no timing hooks.
    TickProfiling,
    /// A fatal arithmetic fault is pending.
    FatalPending,
    /// No unpaused clock: nothing to schedule.
    NoActiveClock,
    /// Unpaused clocks disagree on period or phase, or a period
    /// override is pending — the instant schedule is not steady-state.
    IrregularClocks,
    /// Two scheduled components share one wake token; a single notify
    /// slot cannot serve both owners.
    SharedWakeToken,
    /// Two gated sequentials share one dirty token.
    SharedDirtyToken,
}

impl std::fmt::Display for PlanReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlanReject::MidInstant => "an instant is open (eval without commit)",
            PlanReject::GatingDisabled => "quiescence gating is disabled",
            PlanReject::TickProfiling => "tick profiling is enabled",
            PlanReject::FatalPending => "a fatal fault is pending",
            PlanReject::NoActiveClock => "no unpaused clock",
            PlanReject::IrregularClocks => "unpaused clocks are not uniform",
            PlanReject::SharedWakeToken => "a wake token is shared between components",
            PlanReject::SharedDirtyToken => "a dirty token is shared between sequentials",
        };
        f.write_str(s)
    }
}

/// Why an armed plan was disarmed — the argument of
/// [`Simulator::disarm_plan`](crate::Simulator::disarm_plan), counted
/// per reason in [`PlanDeoptCounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDeopt {
    /// The hang watchdog tripped; the diagnosis reads interpreted state.
    WatchdogTrip,
    /// A stretch/override request (or a clock-advance overflow) broke
    /// the uniform-schedule invariant at commit.
    ClockRequest,
    /// A clock was paused or resumed.
    PauseResume,
    /// A clock, component, wake token or sequential was registered.
    Structural,
    /// Quiescence gating was toggled.
    GatingToggle,
    /// Tick profiling was switched on (the fast path has no timers).
    Profiling,
    /// An external scheduler moved a clock's next edge.
    ExternalEdge,
    /// A caller outside the kernel asked for the interpreted path.
    Explicit,
}

impl PlanDeopt {
    /// Every reason, in counter order.
    pub const ALL: [PlanDeopt; 8] = [
        PlanDeopt::WatchdogTrip,
        PlanDeopt::ClockRequest,
        PlanDeopt::PauseResume,
        PlanDeopt::Structural,
        PlanDeopt::GatingToggle,
        PlanDeopt::Profiling,
        PlanDeopt::ExternalEdge,
        PlanDeopt::Explicit,
    ];

    /// Snake-case name — the `<reason>` of the
    /// `sim.plan.deopt.<reason>` telemetry probes.
    pub fn name(self) -> &'static str {
        match self {
            PlanDeopt::WatchdogTrip => "watchdog_trip",
            PlanDeopt::ClockRequest => "clock_request",
            PlanDeopt::PauseResume => "pause_resume",
            PlanDeopt::Structural => "structural",
            PlanDeopt::GatingToggle => "gating_toggle",
            PlanDeopt::Profiling => "profiling",
            PlanDeopt::ExternalEdge => "external_edge",
            PlanDeopt::Explicit => "explicit",
        }
    }
}

/// Live per-reason de-opt counters of one simulator; clones share the
/// cells, so telemetry probes observe them as they move.
#[derive(Debug, Clone, Default)]
pub struct PlanDeoptCounts(Rc<[Cell<u64>; PlanDeopt::ALL.len()]>);

impl PlanDeoptCounts {
    /// De-opts so far for `reason`.
    pub fn get(&self, reason: PlanDeopt) -> u64 {
        self.0[reason as usize].get()
    }

    /// De-opts so far, all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().map(Cell::get).sum()
    }

    pub(crate) fn bump(&self, reason: PlanDeopt) {
        let c = &self.0[reason as usize];
        c.set(c.get() + 1);
    }
}

/// One scheduled node op in an armed plan, for introspection
/// (`craft-soc`'s `schedplan` renders these as the plan IR).
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Component name as registered.
    pub name: String,
    /// Clock domain name.
    pub clock: String,
    /// Whether the node participates in quiescence gating (has a wake
    /// token) — gated nodes are skipped while asleep, ungated nodes
    /// tick every instant.
    pub gated: bool,
}

/// Snapshot of an armed plan's frozen schedule.
#[derive(Debug, Clone)]
pub struct PlanDesc {
    /// Names of the clocks the plan drives (uniform period/phase).
    pub clocks: Vec<String>,
    /// Node ops in execution (rank) order.
    pub nodes: Vec<PlanNode>,
    /// Sequentials committed only when dirty.
    pub gated_sequentials: usize,
    /// Sequentials committed unconditionally every instant.
    pub always_commit_sequentials: usize,
}
