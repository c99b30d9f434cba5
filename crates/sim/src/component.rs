//! The component and sequential-state abstractions.
//!
//! A [`Component`] is the analogue of a SystemC clocked process: the
//! kernel calls [`Component::tick`] once per rising edge of the clock
//! domain the component was registered on. All state written during a
//! tick becomes visible to other components only after the commit phase
//! of the same edge (two-phase, flip-flop-accurate semantics).

use crate::clock::ClockId;
use crate::error::SeqDiag;
use crate::time::Picoseconds;

/// The kernel's view of a member's state, handed to
/// [`Component::visit_state`] / [`Sequential::visit_state`].
///
/// A member presents every field its future behaviour can depend on as
/// *state* ([`state`](Self::state), one word at a time, in a fixed
/// order) and every accumulate-only statistic — a value that is added
/// to and reported, never branched on — as a *counter*
/// ([`counter`](Self::counter)). One enumeration serves both things the
/// kernel does with it: recording (state words are compared across
/// cycles to prove a run periodic, counter values give the increments
/// of one period) and advancing (each counter receives `k` periods'
/// increments at once). A member that cannot do this answers
/// [`opaque`](Self::opaque), which is also the default.
///
/// The words a member presents are not a wire format: they are only
/// ever compared with what the same member presented earlier in the
/// same process.
#[derive(Debug)]
pub struct StateVisitor<'a> {
    mode: Visit<'a>,
}

#[derive(Debug)]
enum Visit<'a> {
    /// Append state words and counter values; note an opaque answer.
    Record {
        state: &'a mut Vec<u64>,
        counters: &'a mut Vec<u64>,
        opaque: bool,
    },
    /// Compare state words against a recording, in order.
    Compare {
        want: &'a [u64],
        at: usize,
        same: bool,
    },
    /// Add `k * deltas[i]` to the `i`-th counter presented.
    Advance {
        deltas: &'a [u64],
        at: usize,
        k: u64,
    },
}

impl<'a> StateVisitor<'a> {
    pub(crate) fn record(state: &'a mut Vec<u64>, counters: &'a mut Vec<u64>) -> Self {
        StateVisitor {
            mode: Visit::Record {
                state,
                counters,
                opaque: false,
            },
        }
    }

    pub(crate) fn compare(want: &'a [u64]) -> Self {
        StateVisitor {
            mode: Visit::Compare {
                want,
                at: 0,
                same: true,
            },
        }
    }

    pub(crate) fn advance(deltas: &'a [u64], k: u64) -> Self {
        StateVisitor {
            mode: Visit::Advance { deltas, at: 0, k },
        }
    }

    /// After recording: whether the member answered opaque.
    pub(crate) fn was_opaque(&self) -> bool {
        matches!(self.mode, Visit::Record { opaque: true, .. })
    }

    /// After comparing: whether the member presented exactly the
    /// recorded words.
    pub(crate) fn matched(&self) -> bool {
        matches!(self.mode, Visit::Compare { want, at, same: true } if at == want.len())
    }

    /// One word of behaviour-relevant state.
    #[inline]
    pub fn state(&mut self, word: u64) {
        match &mut self.mode {
            Visit::Record { state, .. } => state.push(word),
            Visit::Compare { want, at, same } => {
                *same = *same && want.get(*at) == Some(&word);
                *at += 1;
            }
            Visit::Advance { .. } => {}
        }
    }

    /// An accumulate-only statistic. The value must never influence
    /// behaviour, and over a stretch in which the member's *state*
    /// repeats it must grow by the same amount every repetition — the
    /// kernel checks the second half over two periods before it relies
    /// on it.
    #[inline]
    pub fn counter(&mut self, value: &mut u64) {
        match &mut self.mode {
            Visit::Record { counters, .. } => counters.push(*value),
            Visit::Compare { .. } => {}
            Visit::Advance { deltas, at, k } => {
                *value += *k * deltas[*at];
                *at += 1;
            }
        }
    }

    /// This member cannot present its state (now, or ever).
    pub fn opaque(&mut self) {
        match &mut self.mode {
            Visit::Record { opaque, .. } => *opaque = true,
            Visit::Compare { same, .. } => *same = false,
            Visit::Advance { .. } => {}
        }
    }
}

/// A component's answer to "may the kernel stop ticking you?"
/// ([`Component::can_sleep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sleep {
    /// Keep ticking.
    No,
    /// Nothing to do ([`Component::is_quiescent`]): a tick would be a
    /// no-op that counts nothing.
    Idle,
    /// Work in hand, but a tick would move nothing until a peer acts
    /// on one of the component's ports. What such a tick still counts
    /// is settled through [`Component::ticks_skipped`].
    Blocked,
}

impl Sleep {
    /// [`Sleep::Blocked`] when `nothing_to_move`, else [`Sleep::No`] —
    /// the whole answer of a component that is never idle.
    pub fn blocked_if(nothing_to_move: bool) -> Sleep {
        if nothing_to_move {
            Sleep::Blocked
        } else {
            Sleep::No
        }
    }
}

/// A clocked hardware process.
pub trait Component {
    /// Name used in traces and diagnostics. Must be non-empty.
    fn name(&self) -> &str;

    /// Called once per rising edge of the component's clock domain.
    ///
    /// During a tick the component must only *read* the committed state
    /// of shared channels/signals and *stage* writes; the kernel commits
    /// all staged writes after every component on this edge has ticked.
    fn tick(&mut self, ctx: &mut TickCtx<'_>);

    /// Opt-in quiescence hint: return `true` when a tick with the
    /// component's current inputs would be a no-op, so the kernel may
    /// skip this component until one of its activity sources fires
    /// (see [`crate::ActivityToken`]).
    ///
    /// The contract is strict: while quiescent and unsignalled, the
    /// component's externally visible behaviour (results, statistics
    /// that survive a run, stop/clock requests) must be identical
    /// whether or not its ticks are delivered. The check runs *after*
    /// the evaluate phase of the same edge, so it must account for
    /// state the component just staged — in particular, data pending
    /// in input channels but not yet committed counts as activity.
    ///
    /// Components that never sleep keep the default `false`; the
    /// kernel additionally only gates components that registered a
    /// wake token via [`crate::Simulator::set_wake_token`], so a
    /// `true` here without a token is ignored.
    fn is_quiescent(&self) -> bool {
        false
    }

    /// The kernel's sleep decision, asked after every delivered tick
    /// of a component that registered a wake token. Defaults to
    /// [`is_quiescent`](Self::is_quiescent): [`Sleep::Idle`] when it
    /// holds, [`Sleep::No`] otherwise — "idle" is the first reason to
    /// sleep.
    ///
    /// Override it to add the second reason, [`Sleep::Blocked`]: the
    /// component has work, but its next tick would move nothing because
    /// every port it needs is backpressured or empty, and only a peer's
    /// push or pop (which fires the wake token) can change that. The
    /// same strict contract applies, and the answer must hold against
    /// channel state committed **and staged**: a pop a consumer staged
    /// earlier this instant frees a slot at commit without firing the
    /// token again, so a full output with a pop staged is not blocked
    /// (`craft-connections`' `Out::is_blocked` / `In::is_settled` are
    /// the staged-aware inputs). Prefer an O(1) "my last tick moved
    /// nothing" flag over re-deriving the predicate on every awake
    /// tick. An override answers [`Sleep::Idle`] exactly when
    /// `is_quiescent` holds; `is_quiescent` keeps its meaning, so a
    /// component that is blocked-asleep still shows up as busy in a
    /// [`crate::HangReport`].
    fn can_sleep(&self) -> Sleep {
        if self.is_quiescent() {
            Sleep::Idle
        } else {
            Sleep::No
        }
    }

    /// Catch-up hook mirroring [`Sequential::commit_skipped`]: the
    /// kernel elided `n` consecutive ticks while this component slept
    /// [`Sleep::Blocked`] and is about to deliver a real tick, or is
    /// settling statistics at the end of a `run_*` call
    /// ([`crate::Simulator::flush_skipped_commits`]). The component's
    /// own state is exactly what it was when it fell asleep; its
    /// channels are not — at a wake-up they already hold whatever fired
    /// the token — so decide from the former only.
    ///
    /// Components whose blocked tick still counts something (busy
    /// cycles, stall cycles, refused pushes and empty pops) apply the
    /// arithmetic for `n` such ticks here, so those counters are
    /// identical whether or not the ticks were delivered. An idle
    /// sleep needs no catch-up — by the `is_quiescent` contract its
    /// ticks count nothing — and gets none. The default does nothing.
    fn ticks_skipped(&mut self, n: u64) {
        let _ = n;
    }

    /// Diagnosis hook for the hang watchdog: a one-line explanation of
    /// what the component is currently waiting for (e.g. `"fetch: got
    /// 3/16 words"`), or `None` when it has nothing useful to say.
    ///
    /// Collected into [`crate::HangReport`] when a `*_checked` run
    /// detects no progress; purely informational, never affects
    /// simulation behaviour.
    fn wait_reason(&self) -> Option<String> {
        None
    }

    /// Presents this component's state to the kernel (see
    /// [`StateVisitor`]): what a supervised run
    /// ([`crate::Simulator::run_until_checked`]) needs to prove that a
    /// hang repeats with a fixed period and to advance over the
    /// repetitions arithmetically instead of ticking through them.
    ///
    /// An implementation promises that
    ///
    /// * together with what the channels and other registered members
    ///   it talks to present for themselves, the words it presents
    ///   decide everything its future ticks do — in particular `tick`
    ///   reads neither [`TickCtx::cycle`] nor [`TickCtx::now`];
    /// * every other field its ticks change is presented as a counter,
    ///   wherever it lives: in the component, behind a shared handle
    ///   (a status block in an `Rc`), or on a port (a refused push and
    ///   an empty pop are counted on the channel, on cycles in which
    ///   the channel does not commit — the port's holder presents
    ///   them);
    /// * state it shares with another member is presented by the one
    ///   that writes it.
    ///
    /// The default answers [`StateVisitor::opaque`]: the kernel then
    /// never advances over a cycle in which this component ticks, and
    /// that is always correct.
    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        v.opaque();
    }
}

/// Shared state (typically a channel) that participates in the commit
/// phase of its clock domain.
pub trait Sequential {
    /// Promotes writes staged during the evaluate phase to the visible
    /// state. Called exactly once per rising edge, after all components
    /// on that edge have ticked. Must not fail ([C-DTOR-FAIL] spirit).
    fn commit(&mut self);

    /// Catch-up hook for quiescence gating: the kernel elided `skipped`
    /// consecutive [`commit`](Self::commit) calls during which no write
    /// was staged (the sequential's dirty token stayed clear), and is
    /// about to either deliver a real commit or end the run.
    ///
    /// Implementations that keep per-cycle statistics (cycle counters,
    /// occupancy integrals) apply the arithmetic for `skipped` no-op
    /// cycles here; state-free sequentials keep the default no-op.
    /// Sequentials registered without a dirty token (plain
    /// [`crate::Simulator::add_sequential`]) never see this call.
    fn commit_skipped(&mut self, skipped: u64) {
        let _ = skipped;
    }

    /// Diagnosis hook for the hang watchdog: a snapshot of this
    /// sequential's observable state (channels report name, occupancy
    /// and injector status). `None` — the default — omits the
    /// sequential from [`crate::HangReport`] entirely.
    fn diagnose(&self) -> Option<SeqDiag> {
        None
    }

    /// Presents this sequential's state to the kernel, under the
    /// contract of [`Component::visit_state`]: everything a commit —
    /// or a port call between two commits — can read goes out as
    /// state, every statistic a commit or
    /// [`commit_skipped`](Self::commit_skipped) adds to as a counter.
    /// The default answers [`StateVisitor::opaque`]: a supervised run
    /// never advances over a cycle in which this sequential commits.
    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        v.opaque();
    }
}

/// Per-edge context handed to [`Component::tick`].
#[derive(Debug)]
pub struct TickCtx<'a> {
    pub(crate) now: Picoseconds,
    pub(crate) cycle: u64,
    pub(crate) clock: ClockId,
    pub(crate) clock_requests: &'a mut Vec<ClockRequest>,
    pub(crate) stop: &'a mut bool,
}

/// A deferred request to alter a clock domain, applied after the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClockRequest {
    /// Lengthen the next period of `clock` by `extra` (pausible clocking).
    Stretch { clock: ClockId, extra: Picoseconds },
    /// Use `period` for the next period only (jitter/adaptive models).
    OverridePeriod { clock: ClockId, period: Picoseconds },
    /// Retarget the nominal period of `clock` (DVFS-style change).
    SetNominalPeriod { clock: ClockId, period: Picoseconds },
}

impl TickCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Picoseconds {
        self.now
    }

    /// Rising-edge count of this component's clock domain (0 on the
    /// first edge).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The clock domain this tick belongs to.
    pub fn clock(&self) -> ClockId {
        self.clock
    }

    /// Stretches the *next* period of `clock` by `extra` picoseconds.
    ///
    /// This is the primitive behind pausible clocking: a synchronizer
    /// that detects a potential metastability window requests that the
    /// receiving clock's next edge be delayed.
    pub fn stretch_clock(&mut self, clock: ClockId, extra: Picoseconds) {
        self.clock_requests
            .push(ClockRequest::Stretch { clock, extra });
    }

    /// Overrides the next period of `clock` (one edge only). Used by
    /// clock-generator models that add per-cycle jitter or adapt to
    /// supply noise.
    pub fn override_next_period(&mut self, clock: ClockId, period: Picoseconds) {
        self.clock_requests
            .push(ClockRequest::OverridePeriod { clock, period });
    }

    /// Permanently changes the nominal period of `clock`.
    pub fn set_nominal_period(&mut self, clock: ClockId, period: Picoseconds) {
        self.clock_requests
            .push(ClockRequest::SetNominalPeriod { clock, period });
    }

    /// Asks the kernel to stop after the current edge completes. Any
    /// in-flight `run_*` call returns once commits for this instant are
    /// done.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}
