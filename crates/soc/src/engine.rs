//! # One supervised-run core — the engine surface and its driver
//!
//! [`Soc`] (one kernel) and [`BatchSoc`] (lockstep fault lanes over a
//! golden `Soc`) are one abstraction with the execution model swapped
//! behind it — the paper's Connections idea turned on ourselves.
//! [`SimEngine`] is that abstraction, in two halves:
//!
//! * the **primitives** an engine supplies, which are all that differs
//!   between the two: [`advance`](SimEngine::advance) the open
//!   session by at most a budget, say [where the run
//!   stands](SimEngine::position), [`seek`](SimEngine::seek) a fresh
//!   build forward unsupervised, [arm a fault](SimEngine::arm_fault),
//!   the architectural view ([`report`](SimEngine::report),
//!   [`ctrl_status`](SimEngine::ctrl_status),
//!   [`gmem_read`](SimEngine::gmem_read)), and two hooks
//!   ([`at_end`](SimEngine::at_end), [`frame`](SimEngine::frame));
//! * the **driver**, written once as the provided methods over the
//!   shared [`RunCore`] (recipe, fault log, live session, last
//!   capture, `sim.ckpt.*` odometers): [`begin`](SimEngine::begin),
//!   [`step_segment`](SimEngine::step_segment),
//!   [`run_to_end`](SimEngine::run_to_end),
//!   [`inject_fault`](SimEngine::inject_fault),
//!   [`checkpoint`](SimEngine::checkpoint) /
//!   [`snapshot_bytes`](SimEngine::snapshot_bytes) and
//!   [`replay`](SimEngine::replay).
//!
//! A scheduler preempts a run at a [`SocConfig::checkpoint_every`]
//! boundary and resumes it — possibly in a different simulation
//! instance — from the snapshot bytes. A boundary is captured and
//! encoded once; [`SimEngine::snapshot_bytes`] there hands out that
//! capture rather than taking a second one.
//!
//! Engines are deliberately **not** [`Send`] (they are `Rc`-based
//! simulations), so a job can only migrate between worker threads as
//! serialized snapshot bytes; [`restore_engine`] rebuilds and
//! deterministically replays on the receiving side, preserving the
//! golden contract: restore-then-run ≡ uninterrupted run,
//! bit-identical.
//!
//! One run is one kernel on one thread. Host cores go to independent
//! runs instead — server workers, a batch's de-opted lane replays, a
//! design-space sweep — which is where they measurably pay (DESIGN,
//! "Why one run is one kernel").

use crate::batch::{BatchReport, BatchSoc, LaneSpec};
use crate::checkpoint::{ArchDigest, BatchSnapshot, FaultEvent, Recipe, SessionState, SimSnapshot};
use crate::controller::CtrlStatus;
use crate::soc::{ConfigError, FaultPatternError, RunResult, Soc, SocConfig, SocReport};
use craft_connections::{FaultConfig, FaultStats};
use craft_sim::checkpoint::{fnv64, CheckpointError, KernelDigest, StateWriter, WatchdogState};
use craft_sim::{SimError, Telemetry, TelemetrySnapshot};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Which simulation engine services a run — the typed replacement for
/// string/flag dispatch in benches and the job-server submission
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Sequential [`Soc`].
    Soc,
    /// Library-only alias of [`EngineKind::Soc`]: [`build_engine`] and
    /// [`restore_engine`] serve it with the sequential [`Soc`] (whose
    /// [`SimEngine::kind`] is `Soc`), [`EngineKind::parse`] never
    /// yields it and the job server rejects it. It exists only because
    /// the frozen `benchmark/` names it; ROADMAP item 1c deletes it
    /// together with `SocConfig::compiled_schedule`,
    /// `Simulator::plan_instants()` and `Simulator::plan_deopt_count()`.
    Parallel {
        /// Ignored.
        threads: usize,
    },
    /// Batched lockstep [`BatchSoc`] — one lane per fault vector.
    Batch,
}

impl EngineKind {
    /// Stable lowercase name (`soc`, `batch`) — the wire spelling used
    /// by the job server and bench JSON sections.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Soc => "soc",
            EngineKind::Parallel { .. } => "parallel",
            EngineKind::Batch => "batch",
        }
    }

    /// Parses the job-server wire spelling, `soc` or `batch`; anything
    /// else is [`EngineError::UnknownEngine`].
    pub fn parse(s: &str) -> Result<EngineKind, EngineError> {
        match s {
            "soc" => Ok(EngineKind::Soc),
            "batch" => Ok(EngineKind::Batch),
            _ => Err(EngineError::UnknownEngine(s.to_string())),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Parallel { threads } => write!(f, "parallel:{threads}"),
            k => f.write_str(k.name()),
        }
    }
}

/// Outcome of one supervised segment ([`SimEngine::step_segment`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentStatus {
    /// A [`SocConfig::checkpoint_every`] boundary was reached with
    /// budget to spare; the session stays open and the automatic
    /// checkpoint was captured. A scheduler may preempt here.
    Boundary,
    /// The session ended — predicate fired or the budget ran out —
    /// with the blended whole-run result.
    Done(RunResult),
}

/// Typed rejection from [`build_engine`] / the engine-selection
/// layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The submitted [`SocConfig`] failed validation.
    Config(ConfigError),
    /// A fault vector's pattern matched no NoC channel.
    Fault(FaultPatternError),
    /// [`EngineKind::Batch`] with an empty lane list.
    EmptyBatch,
    /// Unrecognized engine spelling on the wire.
    UnknownEngine(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid config: {e}"),
            EngineError::Fault(e) => write!(f, "fault rejected: {e}"),
            EngineError::EmptyBatch => f.write_str("batch engine needs at least one fault lane"),
            EngineError::UnknownEngine(s) => write!(f, "unknown engine {s:?}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<FaultPatternError> for EngineError {
    fn from(e: FaultPatternError) -> Self {
        EngineError::Fault(e)
    }
}

/// Where a run stands — what a capture records of the engine's
/// progress and what a replay steers by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Position {
    /// Global kernel instants processed so far.
    pub instants: u64,
    /// Hub (reference) clock cycles elapsed so far.
    pub hub_cycles: u64,
    /// Whether the kernel's watchdog progress token is set.
    pub progress_set: bool,
    /// The kernel-exact digest. A capture records `instants` as its
    /// replay target, so it is instant-exact (it can sit mid-cycle
    /// under GALS).
    pub kernel: KernelDigest,
}

/// What one [`SimEngine::advance`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Advance {
    /// Hub cycles the call consumed.
    pub cycles: u64,
    /// `Some(completed)` when the run itself ended — the controller
    /// halted (`true`) or the kernel stopped with nothing left to do
    /// (`false`); `None` when only this call's budget ran out.
    pub ended: Option<bool>,
}

/// The `sim.ckpt.{count,bytes,last_ns}` odometers: captures taken,
/// the last framed size, the last capture latency. Observation-only —
/// a capture never mutates simulation state.
#[derive(Debug, Clone, Default)]
pub(crate) struct CkptOdometers(Rc<[Cell<u64>; 3]>);

impl CkptOdometers {
    const PATHS: [&'static str; 3] = ["sim.ckpt.count", "sim.ckpt.bytes", "sim.ckpt.last_ns"];

    fn record(&self, bytes: usize, since: Instant) {
        let [count, last_bytes, last_ns] = &*self.0;
        count.set(count.get() + 1);
        last_bytes.set(bytes as u64);
        last_ns.set(u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Publishes the odometers into `tel` as lazily polled probes.
    pub(crate) fn publish(&self, tel: &Telemetry) {
        for (i, path) in Self::PATHS.into_iter().enumerate() {
            let cells = Rc::clone(&self.0);
            tel.probe(path, move || cells[i].get());
        }
    }
}

/// One capture: the snapshot and its framed encoding, taken together.
#[derive(Debug, Clone)]
pub(crate) struct Capture {
    pub(crate) snapshot: SimSnapshot,
    pub(crate) bytes: Vec<u8>,
}

/// The engine-independent state of a run, held once per engine and
/// worked by the [`SimEngine`] driver: the shared build [`Recipe`], the
/// ordered fault log beside it, the live supervised session, the last
/// boundary's capture and the `sim.ckpt.*` odometers.
#[derive(Debug)]
pub struct RunCore {
    pub(crate) recipe: Arc<Recipe>,
    pub(crate) faults: Vec<FaultEvent>,
    pub(crate) session: Option<SessionState>,
    pub(crate) last: Option<Capture>,
    pub(crate) ckpt: CkptOdometers,
}

impl RunCore {
    /// A fresh core for an engine built from `recipe`: no faults, no
    /// session, nothing captured.
    pub(crate) fn new(recipe: Arc<Recipe>) -> RunCore {
        RunCore {
            recipe,
            faults: Vec::new(),
            session: None,
            last: None,
            ckpt: CkptOdometers::default(),
        }
    }
}

/// Takes a capture of `eng` now: one snapshot, one encode, one tick of
/// the odometers.
fn capture<E: SimEngine + ?Sized>(eng: &E) -> Capture {
    let t0 = Instant::now();
    let core = eng.core();
    let pos = eng.position();
    let snapshot = SimSnapshot {
        recipe: Arc::clone(&core.recipe),
        faults: core.faults.clone(),
        instants: Some(pos.instants),
        hub_cycles: pos.hub_cycles,
        progress_set: pos.progress_set,
        session: core.session,
        arch: arch_digest(eng, pos.hub_cycles),
        kernel: Some(pos.kernel),
    };
    let bytes = eng.frame(&snapshot);
    core.ckpt.record(bytes.len(), t0);
    Capture { snapshot, bytes }
}

/// The capture of where `eng` stands: the last boundary's when nothing
/// has moved since (same position, fault log and session), else a
/// fresh one.
pub(crate) fn current_capture<E: SimEngine + ?Sized>(eng: &E) -> Capture {
    let core = eng.core();
    if let Some(last) = &core.last {
        let (snap, pos) = (&last.snapshot, eng.position());
        if snap.hub_cycles == pos.hub_cycles
            && snap.instants.is_none_or(|i| i == pos.instants)
            && snap.faults.len() == core.faults.len()
            && snap.session == core.session
        {
            return last.clone();
        }
    }
    capture(eng)
}

/// Hashes the observable run state — the portable half of snapshot
/// verification, identical whichever engine computes it.
fn arch_digest<E: SimEngine + ?Sized>(eng: &E, hub_cycles: u64) -> ArchDigest {
    let mut w = StateWriter::new();
    w.put_u64s(&eng.gmem_read(0, eng.config().gmem_words));
    ArchDigest {
        hub_cycles,
        report_fnv: fnv64(eng.report().to_json().as_bytes()),
        ctrl_fnv: fnv64(format!("{:?}", eng.ctrl_status()).as_bytes()),
        gmem_fnv: fnv64(&w.into_bytes()),
    }
}

/// The one engine surface, object-safe: an engine supplies the
/// primitives (the required methods) and gets the supervised run —
/// session, segments, captures, replay — from the provided ones. One
/// `dyn SimEngine` behaves identically whichever engine backs it.
///
/// Obtain one with [`build_engine`] (fresh) or [`restore_engine`]
/// (from snapshot bytes); both inject the submission's fault vectors
/// before any cycle runs, so a snapshot taken at any boundary carries
/// the full replay recipe.
pub trait SimEngine {
    /// The engine's [`EngineKind`].
    fn kind(&self) -> EngineKind;

    /// The shared run state the driver works on.
    fn core(&self) -> &RunCore;

    /// Mutable access to the shared run state.
    fn core_mut(&mut self) -> &mut RunCore;

    /// Primitive: advances the run by at most `budget` hub cycles
    /// under the watchdog, carrying the watchdog state of `session`
    /// (`no_progress_limit`, `wd`) across the call
    /// so a segmented run trips on exactly the cycle an unsegmented
    /// one would. The driver keeps the cycle accounting; a hang
    /// diagnosis or kernel fault is the error.
    fn advance(&mut self, budget: u64, session: &mut SessionState) -> Result<Advance, SimError>;

    /// Primitive: where the run stands now.
    fn position(&self) -> Position;

    /// Primitive: steps a freshly built engine forward, unsupervised,
    /// to exactly `instants` kernel instants when a target is given,
    /// else to `hub_cycles` hub cycles — the two replay schemes. A
    /// target behind the current position, or one the run cannot
    /// reach, is a typed error.
    fn seek(&mut self, instants: Option<u64>, hub_cycles: u64) -> Result<(), CheckpointError>;

    /// Primitive: arms a seeded injector on every NoC channel whose
    /// name contains `pat`, returning how many matched. Callers want
    /// [`SimEngine::inject_fault`], which also logs the event.
    fn arm_fault(
        &mut self,
        pat: &str,
        cfg: FaultConfig,
        seed: u64,
    ) -> Result<usize, FaultPatternError>;

    /// Primitive: sets the watchdog progress flag to what a capture
    /// recorded.
    fn set_progress(&mut self, set: bool);

    /// Architectural view: the blended observable report (for the
    /// batch engine: the golden run's report; per-lane reports live in
    /// [`SimEngine::batch_report`]).
    fn report(&self) -> SocReport;

    /// Architectural view: the controller's status as of now.
    fn ctrl_status(&self) -> CtrlStatus;

    /// Architectural view: `len` words of global memory at `base`
    /// (golden image for the batch engine).
    fn gmem_read(&self, base: usize, len: usize) -> Vec<u64>;

    /// Telemetry snapshot, if the engine was built with a sink.
    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot>;

    /// Blended fault statistics over channels matching `pat` (the
    /// injected vector's pattern for the sequential engine).
    fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError>;

    /// Hook: the session just ended — `session` is its final state —
    /// with a result or an error. The batch engine settles its lanes
    /// here, under the session's limits.
    fn at_end(&mut self, _session: &SessionState, _res: Result<&RunResult, &SimError>) {}

    /// Hook: frames a capture into wire bytes — the [`SimSnapshot`]
    /// frame, which the batch engine wraps with its lane table.
    fn frame(&self, snapshot: &SimSnapshot) -> Vec<u8> {
        snapshot.to_bytes()
    }

    /// The per-lane batch report once the batch engine has settled;
    /// `None` for non-batch engines or before completion.
    fn batch_report(&self) -> Option<&BatchReport> {
        None
    }

    /// The configuration this engine was built from.
    fn config(&self) -> &SocConfig {
        &self.core().recipe.cfg
    }

    /// Opens a supervised-run session: `max_cycles` total budget,
    /// watchdog `no_progress_limit`.
    ///
    /// # Panics
    /// Panics if `no_progress_limit` is zero or a session is already
    /// open.
    fn begin(&mut self, max_cycles: u64, no_progress_limit: u64) {
        assert!(
            no_progress_limit > 0,
            "no_progress_limit must be at least one cycle"
        );
        assert!(
            !self.session_open(),
            "a supervised run session is already open"
        );
        let last_cycle = self.position().hub_cycles;
        self.core_mut().session = Some(SessionState {
            remaining: max_cycles,
            no_progress_limit,
            consumed: 0,
            wd: WatchdogState {
                idle: 0,
                last_cycle,
            },
        });
    }

    /// Whether a supervised session is open (a snapshot taken now
    /// resumes mid-budget).
    fn session_open(&self) -> bool {
        self.core().session.is_some()
    }

    /// Runs one segment of the open session — at most
    /// [`SocConfig::checkpoint_every`] cycles (the whole budget when
    /// unset). At a [`SegmentStatus::Boundary`] budget remains and the
    /// automatic checkpoint has been captured: the engine may be
    /// dropped and later revived with [`restore_engine`] from
    /// [`SimEngine::snapshot_bytes`]. [`SegmentStatus::Done`] carries
    /// the whole-run blended result (its `wall` covers only the final
    /// segment). Errors (watchdog hang diagnoses) close the session.
    /// Segmentation and capture are observation-only: outcome, cycle
    /// count and watchdog trip point are those of an unsegmented run.
    ///
    /// # Panics
    /// Panics if no session is open.
    fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        let t0 = Instant::now();
        let open = self.core_mut().session.take();
        let mut s = open.expect("no supervised run session open");
        let every = self.config().checkpoint_every;
        let budget = every.unwrap_or(u64::MAX).min(s.remaining);
        let adv = match self.advance(budget, &mut s) {
            Ok(adv) => adv,
            Err(e) => {
                self.at_end(&s, Err(&e));
                return Err(e);
            }
        };
        s.consumed += adv.cycles;
        s.remaining -= adv.cycles.min(s.remaining);
        // Only this segment's budget ran out and the session has more:
        // a boundary, which can only exist when an interval is set.
        if adv.ended.is_none() && s.remaining > 0 {
            self.core_mut().session = Some(s);
            let boundary = capture(self);
            self.core_mut().last = Some(boundary);
            return Ok(SegmentStatus::Boundary);
        }
        let res = RunResult {
            cycles: s.consumed,
            wall: t0.elapsed(),
            ctrl: self.ctrl_status(),
            completed: adv.ended == Some(true),
        };
        self.at_end(&s, Ok(&res));
        Ok(SegmentStatus::Done(res))
    }

    /// Drives the open session to completion (the non-preempting
    /// path). The result's `cycles` accumulate across every segment —
    /// and, for a restored session, the cycles consumed before the
    /// snapshot — so it equals the uninterrupted run's; its `wall`
    /// covers this call.
    fn run_to_end(&mut self) -> Result<RunResult, SimError> {
        let t0 = Instant::now();
        loop {
            if let SegmentStatus::Done(mut r) = self.step_segment()? {
                r.wall = t0.elapsed();
                return Ok(r);
            }
        }
    }

    /// [`SimEngine::begin`] + [`SimEngine::run_to_end`] — the
    /// uninterrupted supervised run: every NoC flit channel is a
    /// progress source, and `no_progress_limit` consecutive hub cycles
    /// without one NoC push/pop turn a would-be infinite run into a
    /// typed [`SimError::Hang`] carrying the diagnosis.
    fn run_checked(
        &mut self,
        max_cycles: u64,
        no_progress_limit: u64,
    ) -> Result<RunResult, SimError> {
        self.begin(max_cycles, no_progress_limit);
        self.run_to_end()
    }

    /// Injects a seeded fault into every NoC flit channel whose name
    /// contains `pat` ([`SimEngine::arm_fault`]) and, on success, logs
    /// the event with both progress coordinates, so a restore re-arms
    /// it at the same point and the injectors' decision streams replay
    /// bit for bit. Returns how many channels matched.
    fn inject_fault(
        &mut self,
        pat: &str,
        cfg: FaultConfig,
        seed: u64,
    ) -> Result<usize, FaultPatternError> {
        let matched = self.arm_fault(pat, cfg, seed)?;
        let pos = self.position();
        self.core_mut().faults.push(FaultEvent {
            pattern: pat.to_string(),
            cfg,
            seed,
            at_instants: pos.instants,
            at_cycles: pos.hub_cycles,
        });
        Ok(matched)
    }

    /// A versioned [`SimSnapshot`] of where the run stands: the replay
    /// recipe (shared build inputs, fault log), the progress target,
    /// the open session if any, and the verification digests. At a
    /// boundary this is that boundary's capture; anywhere else a fresh
    /// one is taken (and counted by the `sim.ckpt.*` odometers).
    /// Observation-only: a capture never perturbs the simulation.
    fn checkpoint(&self) -> SimSnapshot {
        current_capture(self).snapshot
    }

    /// [`SimEngine::checkpoint`] in the framed wire format
    /// ([`SimSnapshot`] for the sequential engine,
    /// [`BatchSnapshot`] for the batch engine). A preemption — a
    /// boundary, then this — captures and encodes once. Feed it back
    /// through [`restore_engine`].
    fn snapshot_bytes(&self) -> Vec<u8> {
        current_capture(self).bytes
    }

    /// The most recent automatic checkpoint taken at a segment
    /// boundary ([`SocConfig::checkpoint_every`]), if any. It survives
    /// the session's end, so after a [`SimError::Hang`] it is the last
    /// capture before the diagnosis. (For the batch engine: the golden
    /// half; [`BatchSoc::last_checkpoint`] has the lane table too.)
    fn last_checkpoint(&self) -> Option<&SimSnapshot> {
        self.core().last.as_ref().map(|c| &c.snapshot)
    }

    /// [`SimEngine::last_checkpoint`] as the wire bytes that boundary
    /// encoded — what [`SimEngine::snapshot_bytes`] returned there.
    fn last_checkpoint_bytes(&self) -> Option<&[u8]> {
        self.core().last.as_ref().map(|c| c.bytes.as_slice())
    }

    /// Replays this freshly built engine to `snap`'s capture point:
    /// re-arms each logged fault at its recorded position in order,
    /// seeks to the target (instant-exact, or by hub cycle for a frame
    /// without an instant target), verifies the kernel digest when the
    /// frame has one and the architectural digest always, and
    /// reinstates the open session — restore-then-run ≡ uninterrupted
    /// run. Any mismatch is a typed
    /// [`CheckpointError::ReplayDivergence`].
    fn replay(&mut self, snap: &SimSnapshot) -> Result<(), CheckpointError> {
        for ev in &snap.faults {
            self.seek(snap.instants.map(|_| ev.at_instants), ev.at_cycles)?;
            self.inject_fault(&ev.pattern, ev.cfg, ev.seed)
                .map_err(|e| {
                    CheckpointError::Malformed(format!("logged fault failed to re-arm: {e}"))
                })?;
        }
        self.seek(snap.instants, snap.hub_cycles)?;
        self.set_progress(snap.progress_set);
        let pos = self.position();
        if let Some(want) = &snap.kernel {
            want.verify(&pos.kernel)?;
        }
        snap.arch.verify(&arch_digest(self, pos.hub_cycles))?;
        self.core_mut().session = snap.session;
        Ok(())
    }
}

/// Builds an engine from `snap`'s recipe with `build` and replays it to
/// the capture point — the body of every facade's `restore`.
pub(crate) fn revive<E: SimEngine>(
    snap: &SimSnapshot,
    build: impl FnOnce(Arc<Recipe>) -> Result<E, CheckpointError>,
) -> Result<E, CheckpointError> {
    snap.recipe
        .cfg
        .validate()
        .map_err(|e| CheckpointError::Malformed(format!("invalid config: {e}")))?;
    let mut eng = build(Arc::clone(&snap.recipe))?;
    eng.replay(snap)?;
    Ok(eng)
}

/// Builds a fresh engine of `kind` with every fault vector in
/// `faults` injected before the first cycle. For the sequential engine
/// each [`LaneSpec`] arms a real injector on the one simulation; for
/// the batch engine the specs *are* the lockstep lanes. `telemetry`
/// attaches a sink.
pub fn build_engine(
    kind: EngineKind,
    cfg: SocConfig,
    program: &[u32],
    staging_init: &[u32],
    gmem_init: &[(usize, Vec<u64>)],
    faults: &[LaneSpec],
    telemetry: bool,
) -> Result<Box<dyn SimEngine>, EngineError> {
    cfg.validate()?;
    let recipe = Recipe::new(cfg, program, staging_init, gmem_init);
    let tel = telemetry.then(Telemetry::new);
    if kind == EngineKind::Batch {
        if faults.is_empty() {
            return Err(EngineError::EmptyBatch);
        }
        return Ok(Box::new(BatchSoc::from_recipe(
            recipe,
            faults.to_vec(),
            tel,
        )?));
    }
    let mut eng = Soc::from_recipe(recipe, tel);
    for f in faults {
        eng.inject_fault(&f.pattern, f.cfg, f.seed)?;
    }
    Ok(Box::new(eng))
}

/// Revives an engine of `kind` from [`SimEngine::snapshot_bytes`]:
/// decodes the framed snapshot, rebuilds, deterministically replays
/// to the capture boundary and verifies the digests. An open session
/// resumes exactly where the capture left it. Feeding bytes of the
/// wrong snapshot kind (a batch frame to a non-batch engine, or vice
/// versa) is a typed [`CheckpointError::WrongKind`].
pub fn restore_engine(
    kind: EngineKind,
    bytes: &[u8],
    telemetry: bool,
) -> Result<Box<dyn SimEngine>, CheckpointError> {
    let tel = telemetry.then(Telemetry::new);
    Ok(if kind == EngineKind::Batch {
        let snap = BatchSnapshot::from_bytes(bytes)?;
        Box::new(BatchSoc::restore_with_telemetry(&snap, tel)?)
    } else {
        let snap = SimSnapshot::from_bytes(bytes)?;
        Box::new(Soc::restore_with_telemetry(&snap, tel)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul, Workload};

    #[allow(clippy::type_complexity)]
    fn build_inputs() -> (Vec<u32>, Vec<u32>, Vec<(usize, Vec<u64>)>) {
        let wl = vec_mul();
        (
            orchestrator_program(),
            table_words(&wl.entries),
            wl.gmem_init.clone(),
        )
    }

    #[test]
    fn engine_kind_wire_spellings_round_trip() {
        for kind in [EngineKind::Soc, EngineKind::Batch] {
            assert_eq!(EngineKind::parse(&kind.to_string()).unwrap(), kind);
        }
        assert!(matches!(
            EngineKind::parse("fpga"),
            Err(EngineError::UnknownEngine(_))
        ));
    }

    #[test]
    fn every_malformed_wire_form_is_a_typed_rejection() {
        // Unknown spellings, including every spelling of the retired
        // sharded engine.
        for s in [
            "parallel",
            "parallel:2",
            "parallel:4",
            "parallel:2:auto",
            "parallel:spec:0000111122223333",
            "parallel:",
            "Soc",
            "soc:2",
            "",
        ] {
            assert_eq!(
                EngineKind::parse(s),
                Err(EngineError::UnknownEngine(s.to_string())),
                "{s:?}"
            );
        }
        // Every rejection renders a human-readable message.
        assert!(!EngineError::UnknownEngine("parallel:2".into())
            .to_string()
            .is_empty());
    }

    /// The three [`EngineKind`]s — the library-only `Parallel` alias
    /// is served by the sequential `Soc` — run one workload alike.
    #[test]
    fn all_three_engines_agree_through_the_trait() {
        let (program, staging, gmem) = build_inputs();
        let wl = vec_mul();
        let mut reports = Vec::new();
        for kind in [
            EngineKind::Soc,
            EngineKind::Parallel { threads: 2 },
            EngineKind::Batch,
        ] {
            let faults = [LaneSpec::new(
                "l11p3->15",
                craft_connections::FaultConfig::bit_flip(0.0),
                7,
            )];
            let mut eng = build_engine(
                kind,
                SocConfig::default(),
                &program,
                &staging,
                &gmem,
                &faults,
                false,
            )
            .expect("engine builds");
            let served = match kind {
                EngineKind::Parallel { .. } => EngineKind::Soc,
                k => k,
            };
            assert_eq!(eng.kind(), served);
            let res = eng.run_checked(8_000_000, 50_000).expect("clean run");
            assert!(res.completed, "{kind}: run completed");
            reports.push((kind, res.cycles, eng.report()));
            for (base, expect) in &wl.expected {
                assert_eq!(&eng.gmem_read(*base, expect.len()), expect, "{kind}: gmem");
            }
            if kind == EngineKind::Batch {
                let br = eng.batch_report().expect("batch settled");
                assert_eq!(br.lanes.len(), 1);
            } else {
                assert!(eng.batch_report().is_none());
            }
        }
        let (_, cycles0, report0) = &reports[0];
        for (kind, cycles, report) in &reports[1..] {
            assert_eq!(cycles, cycles0, "{kind}: cycle-identical to Soc");
            assert_eq!(
                report.hub.dispatched, report0.hub.dispatched,
                "{kind}: hub dispatch count matches"
            );
        }
    }

    /// Every wire spelling of an engine.
    fn spellings() -> [EngineKind; 2] {
        [EngineKind::Soc, EngineKind::Batch]
    }

    const HOT_LINK: &str = "l11p3->15";

    fn build(kind: EngineKind, every: u64, wl: &Workload, fault: &LaneSpec) -> Box<dyn SimEngine> {
        build_with(kind, every, wl, fault, false)
    }

    fn build_with(
        kind: EngineKind,
        every: u64,
        wl: &Workload,
        fault: &LaneSpec,
        telemetry: bool,
    ) -> Box<dyn SimEngine> {
        let cfg = SocConfig {
            checkpoint_every: Some(every),
            ..SocConfig::default()
        };
        build_engine(
            kind,
            cfg,
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
            std::slice::from_ref(fault),
            telemetry,
        )
        .expect("engine builds")
    }

    /// Everything observable about a finished run, wall clock folded
    /// out; an error renders with its whole [`craft_sim::HangReport`].
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(u64, bool), String>,
        report: String,
        gmem: Vec<u64>,
        lanes: Option<Vec<String>>,
    }

    /// A run's outcome with the wall clock folded out; a hang keeps
    /// its whole [`craft_sim::HangReport`], compared verbatim.
    fn fold(res: &Result<RunResult, SimError>) -> Result<(u64, bool), String> {
        match res {
            Ok(r) => Ok((r.cycles, r.completed)),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    fn observe(eng: &dyn SimEngine, res: &Result<RunResult, SimError>) -> Observed {
        Observed {
            result: fold(res),
            report: eng.report().to_json(),
            gmem: eng.gmem_read(0, eng.config().gmem_words),
            lanes: eng.batch_report().map(|b| {
                let lane = |l: &crate::batch::LaneRun| {
                    format!(
                        "{} {} {:?} {} {:?} {:?} {:?}",
                        l.lane,
                        l.deopted,
                        l.diverged_at_token,
                        l.panicked,
                        l.result.as_ref().map(fold),
                        l.report,
                        l.fault_stats
                    )
                };
                let mut lanes: Vec<String> = b.lanes.iter().map(lane).collect();
                lanes.push(format!("{:?}", (fold(&b.golden), b.deopt_lanes)));
                lanes
            }),
        }
    }

    /// The chain a contended server runs: snapshot, drop, restore at
    /// *every* boundary. Returns the outcome and the boundaries crossed.
    fn run_chain(mut eng: Box<dyn SimEngine>, kind: EngineKind) -> (Observed, usize) {
        let mut boundaries = 0;
        let res = loop {
            match eng.step_segment() {
                Ok(SegmentStatus::Boundary) => {
                    boundaries += 1;
                    let bytes = eng.snapshot_bytes();
                    drop(eng);
                    eng = restore_engine(kind, &bytes, false).expect("snapshot restores");
                    assert!(eng.session_open(), "{kind}: session survives");
                }
                Ok(SegmentStatus::Done(r)) => break Ok(r),
                Err(e) => break Err(e),
            }
        };
        (observe(&*eng, &res), boundaries)
    }

    /// The engine contract, for every spelling: a run preempted and
    /// revived from bytes at every boundary ≡ the uninterrupted run —
    /// cycles, `completed`, report, memory and lane outcomes.
    #[test]
    fn restore_at_every_boundary_matches_uninterrupted() {
        let wl = vec_mul();
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.01), 11);
        for kind in spellings() {
            let mut base = build(kind, 200, &wl, &fault);
            let base_res = base.run_checked(8_000_000, 50_000);
            assert!(base_res.as_ref().is_ok_and(|r| r.completed), "{kind}");

            let mut eng = build(kind, 200, &wl, &fault);
            eng.begin(8_000_000, 50_000);
            let (chained, boundaries) = run_chain(eng, kind);
            assert!(boundaries >= 3, "{kind}: {boundaries} boundaries");
            assert_eq!(chained, observe(&*base, &base_res), "{kind}");
        }
    }

    /// The same chain through a hang: the lane ISSUE 16 measured
    /// wedging near cycle 740. Every restore replays from t = 0, so the
    /// watchdog tail is kept short and the interval coarse.
    #[test]
    fn restore_chain_through_a_hang_reproduces_the_diagnosis() {
        let wl = vec_mul();
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(3e-3), 800);
        for kind in spellings() {
            let mut base = build(kind, 1_000, &wl, &fault);
            let base_res = base.run_checked(8_000_000, 5_000);
            let base_out = observe(&*base, &base_res);
            // The batch engine's golden run is fault-free; its one lane
            // de-opts into the hang.
            let hung = match &base_out.lanes {
                Some(lanes) => &lanes[0],
                None => base_out.result.as_ref().expect_err("the lane hangs"),
            };
            assert!(hung.contains("Hang"), "{kind}: {hung}");

            // Segmented in place: the last boundary's capture survives
            // the diagnosis.
            let mut seg = build(kind, 1_000, &wl, &fault);
            seg.begin(8_000_000, 5_000);
            let mut last = None;
            let seg_res = loop {
                match seg.step_segment() {
                    Ok(SegmentStatus::Boundary) => last = Some(seg.snapshot_bytes()),
                    Ok(SegmentStatus::Done(r)) => break Ok(r),
                    Err(e) => break Err(e),
                }
            };
            assert_eq!(observe(&*seg, &seg_res), base_out, "{kind}: segmented");
            assert_eq!(seg.last_checkpoint_bytes(), last.as_deref(), "{kind}");
            assert_eq!(last.is_some(), kind != EngineKind::Batch, "{kind}");

            let mut eng = build(kind, 1_000, &wl, &fault);
            eng.begin(8_000_000, 5_000);
            assert_eq!(run_chain(eng, kind).0, base_out, "{kind}: chained");
        }
    }

    /// A snapshot taken *after* the supervised loop proved the hang
    /// periodic and advanced over most of a 30 000-cycle segment
    /// restores by stepping every one of those cycles: `revive` checks
    /// the replay's [`KernelDigest`] and [`ArchDigest`] against the
    /// capture's, so it is the oracle for what the advance left behind.
    /// The revived run then ends in the uninterrupted run's diagnosis.
    #[test]
    fn a_snapshot_taken_after_a_loop_skip_restores_by_stepped_replay() {
        let wl = vec_mul();
        let cfg = SocConfig {
            checkpoint_every: Some(30_000),
            ..SocConfig::default()
        };
        let build = || {
            let mut soc = Soc::build(
                cfg,
                &orchestrator_program(),
                &table_words(&wl.entries),
                &wl.gmem_init,
            );
            soc.inject_fault(HOT_LINK, FaultConfig::bit_flip(3e-3), 800)
                .expect("the hot link exists");
            soc
        };
        let mut base = build();
        let base_res = base.run_checked(4_000_000, 100_000);
        assert!(matches!(
            base_res,
            Err(SimError::Hang { cycle: 100_742, .. })
        ));
        let base_out = observe(&base, &base_res);

        let mut eng = build();
        eng.begin(4_000_000, 100_000);
        assert_eq!(eng.step_segment().unwrap(), SegmentStatus::Boundary);
        let sim = eng.sim();
        assert_eq!(sim.instants(), 30_000);
        assert_eq!(sim.loop_skips(), 1, "the segment was not stepped through");
        assert!(sim.cycles_skipped() >= 20_000, "{}", sim.cycles_skipped());

        let mut revived = Soc::restore(&eng.checkpoint()).expect("the stepped replay verifies");
        assert_eq!(revived.sim().cycles_skipped(), 0, "replay steps");
        assert_eq!(revived.sim().kernel_digest(), eng.sim().kernel_digest());
        let res = revived.run_to_end();
        assert_eq!(observe(&revived, &res), base_out);
    }

    /// The library-only `Parallel` alias is the sequential `Soc`:
    /// same cycles, report and memory from a build, a `soc` snapshot
    /// restores under it, and the wire never spells it.
    #[test]
    fn the_parallel_alias_is_the_sequential_soc() {
        let wl = vec_mul();
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.01), 11);
        let alias = EngineKind::Parallel { threads: 2 };
        let mut base = build(EngineKind::Soc, 300, &wl, &fault);
        let base_res = base.run_checked(8_000_000, 50_000);
        let base_out = observe(&*base, &base_res);
        assert!(base_out.result.as_ref().is_ok_and(|r| r.1));

        let mut eng = build(alias, 300, &wl, &fault);
        let res = eng.run_checked(8_000_000, 50_000);
        assert_eq!(observe(&*eng, &res), base_out);

        let mut eng = build(EngineKind::Soc, 300, &wl, &fault);
        eng.begin(8_000_000, 50_000);
        assert_eq!(eng.step_segment().unwrap(), SegmentStatus::Boundary);
        let mut revived = restore_engine(alias, &eng.snapshot_bytes(), false).unwrap();
        assert_eq!(revived.kind(), EngineKind::Soc);
        let res = revived.run_to_end();
        assert_eq!(observe(&*revived, &res), base_out);

        assert_eq!(
            EngineKind::parse("parallel:2"),
            Err(EngineError::UnknownEngine("parallel:2".into()))
        );
    }

    /// A frame without an instant target or kernel digest, carrying a
    /// seam progress bit in its session — what the retired sharded
    /// engine wrote at a boundary — still decodes and restores by hub
    /// cycles, against the architectural digest alone.
    #[test]
    fn a_frame_without_an_instant_target_restores_by_hub_cycles() {
        use craft_sim::checkpoint::frame_snapshot;
        use craft_sim::Checkpointable;
        let wl = vec_mul();
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.01), 11);
        let mut base = build(EngineKind::Soc, 300, &wl, &fault);
        let base_res = base.run_checked(8_000_000, 50_000);
        let base_out = observe(&*base, &base_res);

        let mut eng = build(EngineKind::Soc, 300, &wl, &fault);
        eng.begin(8_000_000, 50_000);
        assert_eq!(eng.step_segment().unwrap(), SegmentStatus::Boundary);
        let mut snap = eng.checkpoint();
        (snap.instants, snap.kernel) = (None, None);
        let session = snap.session.expect("open");
        let encode = |v: &dyn Fn(&mut StateWriter)| {
            let mut w = StateWriter::new();
            v(&mut w);
            w.into_bytes()
        };
        let mut payload = encode(&|w| snap.save(w));
        let plain = encode(&|w| session.save(w));
        let at = payload
            .windows(plain.len())
            .position(|w| w == plain.as_slice())
            .expect("session bytes in the payload");
        for carried in [1u8, 2] {
            payload[at + plain.len() - 1] = carried;
            let bytes = frame_snapshot(crate::checkpoint::KIND_SOC, &payload);
            assert_eq!(SimSnapshot::from_bytes(&bytes).expect("decodes"), snap);
            let mut revived = restore_engine(EngineKind::Soc, &bytes, false).unwrap();
            let res = revived.run_to_end();
            assert_eq!(observe(&*revived, &res), base_out, "carried {carried}");
        }
    }

    /// One capture per boundary: `snapshot_bytes()` at a boundary hands
    /// out that boundary's capture, so N preemption points count N.
    #[test]
    fn a_boundary_is_captured_once() {
        let wl = vec_mul();
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 7);
        for kind in spellings() {
            let mut eng = build_with(kind, 150, &wl, &fault, true);
            eng.begin(8_000_000, 50_000);
            let (mut boundaries, mut framed) = (0, 0);
            while eng.step_segment().expect("clean run") == SegmentStatus::Boundary {
                boundaries += 1;
                let bytes = eng.snapshot_bytes();
                assert_eq!(
                    eng.last_checkpoint_bytes(),
                    Some(bytes.as_slice()),
                    "{kind}"
                );
                assert_eq!(eng.snapshot_bytes(), bytes, "{kind}: stable at a boundary");
                framed = bytes.len() as u64;
            }
            let tel = eng.telemetry_snapshot().expect("sink attached");
            let row = |path: &str| tel.metrics.iter().find(|m| m.path == path).unwrap().value;
            assert!(boundaries >= 3, "{kind}");
            assert_eq!(row("sim.ckpt.count"), boundaries, "{kind}");
            assert_eq!(row("sim.ckpt.bytes"), framed, "{kind}");
        }
    }

    /// The wire format, pinned with bytes taken at the parent of the
    /// PR that merged the three engines' capture code: the first
    /// boundary of matvec at `checkpoint_every = 300`.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let wl = crate::workloads::matvec();
        let pins: [(usize, u64); 2] = [
            (16_998, 0x1fce_3259_c02d_39e7),
            (17_130, 0xec4d_26c4_a933_0464),
        ];
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 7);
        for telemetry in [false, true] {
            for (kind, pin) in spellings().into_iter().zip(pins) {
                let cfg = SocConfig {
                    checkpoint_every: Some(300),
                    ..SocConfig::default()
                };
                let lanes = std::slice::from_ref(&fault);
                let mut eng = build_engine(
                    kind,
                    cfg,
                    &orchestrator_program(),
                    &table_words(&wl.entries),
                    &wl.gmem_init,
                    if kind == EngineKind::Batch {
                        lanes
                    } else {
                        &[]
                    },
                    telemetry,
                )
                .unwrap();
                eng.begin(8_000_000, 50_000);
                assert_eq!(eng.step_segment().unwrap(), SegmentStatus::Boundary);
                let bytes = eng.snapshot_bytes();
                assert_eq!((bytes.len(), fnv64(&bytes)), pin, "{kind} tel={telemetry}");
            }
        }
    }

    /// A zero `no_progress_limit` is refused where a session starts —
    /// at `begin` and at decode — never on the thread that steps it.
    #[test]
    fn a_zero_watchdog_limit_never_reaches_a_kernel() {
        let wl = vec_mul();
        let fault = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 7);
        for kind in spellings() {
            let refused =
                std::panic::catch_unwind(|| build(kind, 300, &wl, &fault).begin(1_000, 0));
            assert!(refused.is_err(), "{kind}: begin must refuse a zero limit");

            // Checksum-valid bytes carrying the same session.
            let mut eng = build(kind, 300, &wl, &fault);
            eng.begin(8_000_000, 50_000);
            let zeroed = |snap: &mut SimSnapshot| {
                snap.session.as_mut().expect("open").no_progress_limit = 0;
            };
            let bytes = if kind == EngineKind::Batch {
                let mut snap = BatchSnapshot::from_bytes(&eng.snapshot_bytes()).unwrap();
                zeroed(&mut snap.golden);
                snap.to_bytes()
            } else {
                let mut snap = eng.checkpoint();
                zeroed(&mut snap);
                snap.to_bytes()
            };
            assert!(
                matches!(
                    restore_engine(kind, &bytes, false),
                    Err(CheckpointError::Malformed(_))
                ),
                "{kind}: decode must refuse a zero limit"
            );
        }
    }

    #[test]
    fn wrong_kind_snapshot_bytes_are_rejected() {
        let (program, staging, gmem) = build_inputs();
        let mut eng = build_engine(
            EngineKind::Soc,
            SocConfig::default(),
            &program,
            &staging,
            &gmem,
            &[],
            false,
        )
        .unwrap();
        eng.begin(8_000_000, 50_000);
        let bytes = eng.snapshot_bytes();
        assert!(matches!(
            restore_engine(EngineKind::Batch, &bytes, false),
            Err(CheckpointError::WrongKind { .. })
        ));

        let faults = [LaneSpec::new(
            "l11p3->15",
            craft_connections::FaultConfig::bit_flip(0.0),
            7,
        )];
        let mut batch = build_engine(
            EngineKind::Batch,
            SocConfig::default(),
            &program,
            &staging,
            &gmem,
            &faults,
            false,
        )
        .unwrap();
        batch.begin(8_000_000, 50_000);
        assert!(matches!(
            restore_engine(EngineKind::Soc, &batch.snapshot_bytes(), false),
            Err(CheckpointError::WrongKind { .. })
        ));
    }
}
