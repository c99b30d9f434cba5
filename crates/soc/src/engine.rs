//! # One engine type — engine selection and the supervised-run driver
//!
//! [`Soc`] is the one engine. The batch engine is not a second type: it
//! is a `Soc` that carries a lane table ([`crate::batch`]) beside its
//! own golden run — one abstraction with the execution model swapped
//! behind it, the paper's Connections idea turned on ourselves.
//! [`EngineKind`] names the two, and [`build_engine`] /
//! [`restore_engine`] hand out either as a `Soc`.
//!
//! This module holds the supervised-run driver on `Soc`:
//! [`begin`](Soc::begin), [`step_segment`](Soc::step_segment),
//! [`run_to_end`](Soc::run_to_end), [`run_checked`](Soc::run_checked),
//! [`inject_fault`](Soc::inject_fault),
//! [`snapshot_bytes`](Soc::snapshot_bytes) and its one way back,
//! [`restore_engine`]. It is written over four private primitives —
//! advance the open session by a budget, seek a fresh build to a
//! kernel instant, arm a fault, restore the watchdog's progress flag —
//! and reads the lane table in exactly three places: it settles the
//! lanes when a session ends, adds a [`LaneTable`](crate::LaneTable)
//! to each capture, and hands out the settled [`BatchReport`]
//! ([`Soc::batch_report`]).
//!
//! A snapshot leaves a `Soc` only as bytes and comes back only through
//! [`restore_engine`]: one [`SimSnapshot`] type for both engines, one
//! frame codec, one restore. A scheduler preempts a run at a
//! [`SocConfig::checkpoint_every`] boundary and resumes it — possibly
//! in a different simulation instance — from those bytes. A boundary
//! is captured and encoded once; [`Soc::snapshot_bytes`] there hands
//! out that capture rather than taking a second one.
//!
//! A `Soc` is deliberately **not** [`Send`] (it is an `Rc`-based
//! simulation), so a job can only migrate between worker threads as
//! serialized snapshot bytes; [`restore_engine`] rebuilds and
//! deterministically replays to the captured kernel instant on the
//! receiving side, preserving the golden contract: restore-then-run ≡
//! uninterrupted run, bit-identical.
//!
//! One run is one kernel on one thread. Host cores go to independent
//! runs instead — server workers, a batch's de-opted lane replays, a
//! design-space sweep — which is where they measurably pay (DESIGN,
//! "Why one run is one kernel").

use crate::batch::{BatchReport, LaneSpec};
use crate::checkpoint::{frame_kind, ArchDigest, FaultEvent, Recipe, SessionState, SimSnapshot};
use crate::soc::{lane_fault_seed, ConfigError, FaultPatternError, RunResult, Soc, SocConfig};
use craft_connections::FaultConfig;
use craft_sim::checkpoint::{fnv64, CheckpointError, StateWriter, WatchdogState};
use craft_sim::{SimError, Telemetry};
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
    /// [`Soc::kind`] is `Soc`), [`EngineKind::parse`] never yields it
    /// and the job server rejects it. It exists only because the frozen
    /// `benchmark/` names it; ROADMAP item 1c deletes it together with
    /// `SocConfig::compiled_schedule`, `Simulator::plan_instants()` and
    /// `Simulator::plan_deopt_count()`.
    Parallel {
        /// Ignored.
        threads: usize,
    },
    /// Batched lockstep — a [`Soc`] carrying one lane per fault vector.
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

/// Outcome of one supervised segment ([`Soc::step_segment`]).
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

/// Where a capture was taken: kernel instants, hub cycles, faults
/// logged and the open session. Two captures at one mark encode the
/// same bytes.
type Mark = (u64, u64, usize, Option<SessionState>);

/// One boundary capture: the framed bytes and the mark they were
/// taken at.
#[derive(Debug)]
pub(crate) struct Capture {
    at: Mark,
    bytes: Vec<u8>,
}

/// The supervised-run driver.
impl Soc {
    /// [`EngineKind::Batch`] when this SoC carries a lane table, else
    /// [`EngineKind::Soc`].
    pub fn kind(&self) -> EngineKind {
        if self.lanes.is_some() {
            EngineKind::Batch
        } else {
            EngineKind::Soc
        }
    }

    /// Opens a supervised-run session: `max_cycles` total budget,
    /// watchdog `no_progress_limit`.
    ///
    /// # Panics
    /// Panics if `no_progress_limit` is zero or a session is already
    /// open.
    pub fn begin(&mut self, max_cycles: u64, no_progress_limit: u64) {
        assert!(
            no_progress_limit > 0,
            "no_progress_limit must be at least one cycle"
        );
        assert!(
            !self.session_open(),
            "a supervised run session is already open"
        );
        let (_, last_cycle) = self.position();
        self.session = Some(SessionState {
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
    pub fn session_open(&self) -> bool {
        self.session.is_some()
    }

    /// Runs one segment of the open session — at most
    /// [`SocConfig::checkpoint_every`] cycles (the whole budget when
    /// unset). At a [`SegmentStatus::Boundary`] budget remains and the
    /// automatic checkpoint has been captured: the SoC may be dropped
    /// and later revived with [`restore_engine`] from
    /// [`Soc::snapshot_bytes`]. [`SegmentStatus::Done`] carries the
    /// whole-run blended result (its `wall` covers only the final
    /// segment). Errors (watchdog hang diagnoses) close the session.
    /// Either way a batch settles its lanes the moment the session
    /// ends. Segmentation and capture are observation-only: outcome,
    /// cycle count and watchdog trip point are those of an unsegmented
    /// run.
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        let t0 = Instant::now();
        let mut s = self.session.take().expect("no supervised run session open");
        let every = self.config().checkpoint_every;
        let budget = every.unwrap_or(u64::MAX).min(s.remaining);
        let (cycles, ended) = match self.advance(budget, &mut s) {
            Ok(adv) => adv,
            Err(e) => {
                self.settle(&s, Err(&e));
                return Err(e);
            }
        };
        s.consumed += cycles;
        s.remaining -= cycles.min(s.remaining);
        // Only this segment's budget ran out and the session has more:
        // a boundary, which can only exist when an interval is set.
        if ended.is_none() && s.remaining > 0 {
            self.session = Some(s);
            self.last = Some(self.capture());
            return Ok(SegmentStatus::Boundary);
        }
        let res = RunResult {
            cycles: s.consumed,
            wall: t0.elapsed(),
            ctrl: self.ctrl_status(),
            completed: ended == Some(true),
        };
        self.settle(&s, Ok(&res));
        Ok(SegmentStatus::Done(res))
    }

    /// The session just ended — `session` is its final state — with a
    /// result or an error: a batch settles its lanes here, under the
    /// session's limits.
    fn settle(&mut self, session: &SessionState, res: Result<&RunResult, &SimError>) {
        if let Some(mut lanes) = self.lanes.take() {
            lanes.settle(self, session, res);
            self.lanes = Some(lanes);
        }
    }

    /// Drives the open session to completion (the non-preempting
    /// path). The result's `cycles` accumulate across every segment —
    /// and, for a restored session, the cycles consumed before the
    /// snapshot — so it equals the uninterrupted run's; its `wall`
    /// covers this call.
    pub fn run_to_end(&mut self) -> Result<RunResult, SimError> {
        let t0 = Instant::now();
        loop {
            if let SegmentStatus::Done(mut r) = self.step_segment()? {
                r.wall = t0.elapsed();
                return Ok(r);
            }
        }
    }

    /// Like [`Soc::run`], but supervised by the simulation watchdog —
    /// [`Soc::begin`] + [`Soc::run_to_end`]: every NoC flit channel is
    /// tapped as a progress source, and `no_progress_limit` consecutive
    /// hub cycles without a single NoC push/pop (or component wake)
    /// turn a would-be infinite run into a typed [`SimError::Hang`]
    /// carrying the per-component / per-channel diagnosis.
    ///
    /// Only *data-plane* traffic counts as progress — deliberately not
    /// the AXI channels, because the controller polls `DONE_COUNT`
    /// over AXI forever and that busy-wait must not mask a wedged NoC.
    /// With [`SocConfig::checkpoint_every`] set, the run is segmented
    /// at that interval with a [`SimSnapshot`] captured at each
    /// boundary (see [`Soc::last_checkpoint_bytes`]); segmentation and
    /// capture are observation-only — outcome, cycle count and the
    /// watchdog trip point are identical to an unsegmented run.
    pub fn run_checked(
        &mut self,
        max_cycles: u64,
        no_progress_limit: u64,
    ) -> Result<RunResult, SimError> {
        self.begin(max_cycles, no_progress_limit);
        self.run_to_end()
    }

    /// Injects a seeded fault into every NoC flit channel whose name
    /// contains `pat` (mesh links `l{a}p{pa}->{b}`, GALS crossings
    /// `g{a}p{pa}.tx`/`.rx`, endpoint ports `n{n}.eject`/`n{n}.inject`)
    /// without touching any component. Each matched channel gets an
    /// independent injector derived from `seed`. Returns how many
    /// channels matched, or [`FaultPatternError::NoMatch`] when the
    /// pattern names nothing — a typo'd pattern used to come back as a
    /// silently ignorable `0`. A successful injection joins the replay
    /// log at the current kernel instant, so a restore re-arms it at
    /// the same point and the injectors' decision streams replay bit
    /// for bit.
    pub fn inject_fault(
        &mut self,
        pat: &str,
        cfg: FaultConfig,
        seed: u64,
    ) -> Result<usize, FaultPatternError> {
        let matched = self.arm_fault(pat, cfg, seed)?;
        self.faults.push(FaultEvent {
            pattern: pat.to_string(),
            cfg,
            seed,
            at_instants: self.sim.instants(),
        });
        Ok(matched)
    }

    /// A versioned [`SimSnapshot`] of where the run stands, in the
    /// framed wire format: the replay recipe (shared build inputs,
    /// fault log), the kernel instant to replay to, the open session if
    /// any, the verification digests and, for a batch, the
    /// [`LaneTable`](crate::LaneTable). At a boundary this is that
    /// boundary's capture — a preemption captures and encodes once;
    /// anywhere else a fresh one is taken (and counted by the
    /// `sim.ckpt.*` odometers).
    /// Observation-only: a capture never perturbs the simulation. Feed
    /// it back through [`restore_engine`].
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        match &self.last {
            Some(last) if last.at == self.mark() => last.bytes.clone(),
            _ => self.capture().bytes,
        }
    }

    /// The bytes of the most recent automatic checkpoint taken at a
    /// segment boundary ([`SocConfig::checkpoint_every`]), if any —
    /// what [`Soc::snapshot_bytes`] returned there (the lane table as
    /// of that boundary included, for a batch). It survives the
    /// session's end, so after a [`SimError::Hang`] it is the last
    /// capture before the diagnosis.
    pub fn last_checkpoint_bytes(&self) -> Option<&[u8]> {
        self.last.as_ref().map(|c| c.bytes.as_slice())
    }

    /// The per-lane report once a batch's session has ended (also when
    /// the golden run erred — the lanes still settle); `None` for a SoC
    /// without lanes or before the session ends.
    pub fn batch_report(&self) -> Option<&BatchReport> {
        self.lanes.as_ref()?.report.as_ref()
    }

    /// Replays this freshly built SoC to `snap`'s capture point:
    /// re-arms each logged fault at its recorded kernel instant in
    /// order, seeks to the captured instant, verifies the kernel and
    /// architectural digests, and reinstates the open session —
    /// restore-then-run ≡ uninterrupted run. Any mismatch is a typed
    /// [`CheckpointError::ReplayDivergence`].
    fn replay(&mut self, snap: &SimSnapshot) -> Result<(), CheckpointError> {
        for ev in &snap.faults {
            self.seek(ev.at_instants)?;
            self.inject_fault(&ev.pattern, ev.cfg, ev.seed)
                .map_err(|e| {
                    CheckpointError::Malformed(format!("logged fault failed to re-arm: {e}"))
                })?;
        }
        self.seek(snap.instants)?;
        self.set_progress(snap.progress_set);
        snap.kernel.verify(&self.sim.kernel_digest())?;
        snap.arch.verify(&self.arch_digest())?;
        self.session = snap.session;
        Ok(())
    }

    /// Takes a capture now: one snapshot (with the lane table for a
    /// batch), one encode, one tick of the odometers.
    fn capture(&self) -> Capture {
        let t0 = Instant::now();
        let bytes = SimSnapshot {
            recipe: Arc::clone(&self.recipe),
            faults: self.faults.clone(),
            instants: self.sim.instants(),
            progress_set: self.sim.progress_token().is_set(),
            session: self.session,
            arch: self.arch_digest(),
            kernel: self.sim.kernel_digest(),
            lanes: self.lanes.as_ref().map(|lanes| lanes.frame(self)),
        }
        .to_bytes();
        self.ckpt.record(bytes.len(), t0);
        Capture {
            at: self.mark(),
            bytes,
        }
    }

    /// Where the run stands, as a capture records it: nothing a
    /// snapshot encodes can change while the mark stays put.
    fn mark(&self) -> Mark {
        let (instants, hub_cycles) = self.position();
        (instants, hub_cycles, self.faults.len(), self.session)
    }

    /// Hashes the observable run state — the half of snapshot
    /// verification that does not depend on the kernel's schedule.
    fn arch_digest(&self) -> ArchDigest {
        let mut w = StateWriter::new();
        w.put_u64s(&self.gmem_read(0, self.config().gmem_words));
        ArchDigest {
            hub_cycles: self.position().1,
            report_fnv: fnv64(self.report().to_json().as_bytes()),
            ctrl_fnv: fnv64(format!("{:?}", self.ctrl_status()).as_bytes()),
            gmem_fnv: fnv64(&w.into_bytes()),
        }
    }

    /// Where the run stands: `(kernel instants, hub cycles)`.
    fn position(&self) -> (u64, u64) {
        (self.sim.instants(), self.sim.cycles(self.hub_clock))
    }

    /// Advances the run by at most `budget` hub cycles under the
    /// watchdog — one [`craft_sim::Simulator::run_until_checked_with`]
    /// call with every NoC channel tapped as a progress source —
    /// carrying `session`'s watchdog state across the call so a
    /// segmented run trips on exactly the cycle an unsegmented one
    /// would. The halt predicate is pure, so the extra evaluation at
    /// each seam is invisible. Returns the cycles consumed and
    /// `Some(completed)` when the run itself ended — the controller
    /// halted (`true`) or the kernel stopped with nothing left to do
    /// (`false`) — or `None` when only the budget ran out.
    fn advance(
        &mut self,
        budget: u64,
        session: &mut SessionState,
    ) -> Result<(u64, Option<bool>), SimError> {
        let token = self.sim.progress_token();
        for (_, h) in &self.noc_channels {
            h.set_progress_token(token.clone());
        }
        let start = self.sim.cycles(self.hub_clock);
        let ctrl = Rc::clone(&self.ctrl);
        let halted = self.sim.run_until_checked_with(
            self.hub_clock,
            budget,
            session.no_progress_limit,
            &mut session.wd,
            move || ctrl.borrow().halted,
        )?;
        let cycles = self.sim.cycles(self.hub_clock) - start;
        // Not halted with the whole budget spent: only the budget
        // stopped the run. Anything short of it (stop request, no
        // edges left) ended it.
        Ok((cycles, (halted || cycles < budget).then_some(halted)))
    }

    /// Steps a freshly built SoC forward, unsupervised, to exactly
    /// `target` kernel instants. A target behind the current position,
    /// or one the run cannot reach, is a typed error.
    fn seek(&mut self, target: u64) -> Result<(), CheckpointError> {
        let at = self.sim.instants();
        if at > target {
            return Err(CheckpointError::Malformed(format!(
                "replay target kernel.instants {target} is behind the current {at}"
            )));
        }
        while self.sim.instants() < target {
            if !self.sim.step() {
                return Err(CheckpointError::ReplayDivergence {
                    field: "kernel.instants".to_string(),
                    expected: target,
                    found: self.sim.instants(),
                });
            }
        }
        // Captures happen at run boundaries, where the kernel has
        // settled its gating statistics; a raw step loop must settle
        // them explicitly (exact-statistics contract: flush timing is
        // behavior-neutral, totals at a given instant are unique).
        self.sim.flush_skipped_commits();
        Ok(())
    }

    /// Arms a seeded injector on every NoC channel whose name contains
    /// `pat`, returning how many matched. Callers want
    /// [`Soc::inject_fault`], which also logs the event.
    fn arm_fault(
        &mut self,
        pat: &str,
        cfg: FaultConfig,
        seed: u64,
    ) -> Result<usize, FaultPatternError> {
        // An injector changes what a channel commits, not the schedule:
        // the faulted channel re-arms its own dirty token on every
        // commit, which keeps the gated kernel committing it.
        let mut matched = 0;
        for (i, (name, h)) in self.noc_channels.iter().enumerate() {
            if name.contains(pat) {
                matched += 1;
                h.inject_faults(cfg, lane_fault_seed(seed, i));
            }
        }
        if matched == 0 {
            return Err(FaultPatternError::NoMatch {
                pattern: pat.to_string(),
            });
        }
        Ok(matched)
    }

    /// Sets the watchdog progress flag to what a capture recorded. The
    /// token only feeds the watchdog, never behavior, so its flag is
    /// restored verbatim rather than by mimicking takes.
    fn set_progress(&mut self, set: bool) {
        let token = self.sim.progress_token();
        if set {
            token.set();
        } else {
            let _ = token.take();
        }
    }
}

/// Builds a fresh engine of `kind` with every fault vector in
/// `faults` injected before the first cycle. For the sequential engine
/// each [`LaneSpec`] arms a real injector on the one simulation; for
/// the batch engine the specs *are* the lockstep lanes. `telemetry`
/// attaches a sink. Injecting before any cycle runs means a snapshot
/// taken at any boundary carries the full replay recipe.
pub fn build_engine(
    kind: EngineKind,
    cfg: SocConfig,
    program: &[u32],
    staging_init: &[u32],
    gmem_init: &[(usize, Vec<u64>)],
    faults: &[LaneSpec],
    telemetry: bool,
) -> Result<Soc, EngineError> {
    cfg.validate()?;
    let recipe = Recipe::new(cfg, program, staging_init, gmem_init);
    let tel = telemetry.then(Telemetry::new);
    if kind == EngineKind::Batch {
        if faults.is_empty() {
            return Err(EngineError::EmptyBatch);
        }
        return Ok(Soc::with_lanes(recipe, faults.to_vec(), tel)?);
    }
    let mut soc = Soc::from_recipe(recipe, tel);
    for f in faults {
        soc.inject_fault(&f.pattern, f.cfg, f.seed)?;
    }
    Ok(soc)
}

/// Revives an engine of `kind` from [`Soc::snapshot_bytes`] — the one
/// way back from a snapshot. Decodes the framed [`SimSnapshot`],
/// rebuilds (re-arming every lane's shadow bank with the same derived
/// seeds when a [`LaneTable`](crate::LaneTable) came with it),
/// deterministically replays to the capture boundary and verifies the
/// digests — for a batch, every lane's divergence status and shadow
/// counters too: the restore-then-run ≡ uninterrupted-run contract the
/// checkpoint proptests pin. An open session resumes exactly where the
/// capture left it, ready for [`Soc::run_to_end`]. Bytes of the wrong
/// kind (a batch frame for a non-batch engine, or vice versa) are a
/// typed [`CheckpointError::WrongKind`]; `telemetry` attaches a sink to
/// the rebuilt SoC (observation-only either way).
pub fn restore_engine(
    kind: EngineKind,
    bytes: &[u8],
    telemetry: bool,
) -> Result<Soc, CheckpointError> {
    let snap = SimSnapshot::from_bytes(bytes)?;
    let found = frame_kind(snap.lanes.is_some());
    let expected = frame_kind(kind == EngineKind::Batch);
    if found != expected {
        return Err(CheckpointError::WrongKind { found, expected });
    }
    let recipe = Arc::clone(&snap.recipe);
    let tel = telemetry.then(Telemetry::new);
    let mut soc = match &snap.lanes {
        Some(table) => Soc::with_lanes(recipe, table.specs.clone(), tel)
            .map_err(|e| CheckpointError::Malformed(format!("lane spec failed to re-arm: {e}")))?,
        None => Soc::from_recipe(recipe, tel),
    };
    soc.replay(&snap)?;
    if let (Some(lanes), Some(table)) = (&soc.lanes, &snap.lanes) {
        lanes.verify(&soc, table)?;
    }
    Ok(soc)
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
    fn all_three_engine_kinds_agree() {
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

    fn build(kind: EngineKind, every: u64, wl: &Workload, fault: &LaneSpec) -> Soc {
        build_with(kind, every, wl, fault, false)
    }

    fn build_with(
        kind: EngineKind,
        every: u64,
        wl: &Workload,
        fault: &LaneSpec,
        telemetry: bool,
    ) -> Soc {
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

    fn observe(eng: &Soc, res: &Result<RunResult, SimError>) -> Observed {
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
    fn run_chain(mut eng: Soc, kind: EngineKind) -> (Observed, usize) {
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
        (observe(&eng, &res), boundaries)
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
            assert_eq!(chained, observe(&base, &base_res), "{kind}");
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
            let base_out = observe(&base, &base_res);
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
            assert_eq!(observe(&seg, &seg_res), base_out, "{kind}: segmented");
            assert_eq!(seg.last_checkpoint_bytes(), last.as_deref(), "{kind}");
            assert_eq!(last.is_some(), kind != EngineKind::Batch, "{kind}");

            let mut eng = build(kind, 1_000, &wl, &fault);
            eng.begin(8_000_000, 5_000);
            assert_eq!(run_chain(eng, kind).0, base_out, "{kind}: chained");
        }
    }

    /// A snapshot taken *after* the supervised loop proved the hang
    /// periodic and advanced over most of a 30 000-cycle segment
    /// restores by stepping every one of those cycles: the restore
    /// checks the replay's [`craft_sim::KernelDigest`] and
    /// [`ArchDigest`] against the capture's, so it is the oracle for
    /// what the advance left behind. The revived run then ends in the
    /// uninterrupted run's diagnosis.
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

        let mut revived = restore_engine(EngineKind::Soc, &eng.snapshot_bytes(), false)
            .expect("the stepped replay verifies");
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
        let base_out = observe(&base, &base_res);
        assert!(base_out.result.as_ref().is_ok_and(|r| r.1));

        let mut eng = build(alias, 300, &wl, &fault);
        let res = eng.run_checked(8_000_000, 50_000);
        assert_eq!(observe(&eng, &res), base_out);

        let mut eng = build(EngineKind::Soc, 300, &wl, &fault);
        eng.begin(8_000_000, 50_000);
        assert_eq!(eng.step_segment().unwrap(), SegmentStatus::Boundary);
        let mut revived = restore_engine(alias, &eng.snapshot_bytes(), false).unwrap();
        assert_eq!(revived.kind(), EngineKind::Soc);
        let res = revived.run_to_end();
        assert_eq!(observe(&revived, &res), base_out);

        assert_eq!(
            EngineKind::parse("parallel:2"),
            Err(EngineError::UnknownEngine("parallel:2".into()))
        );
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

    /// The wire format, pinned at format version 3 — each kind 11
    /// bytes shorter than at version 2 (16 998 / 17 130), the dead
    /// bytes gone: the first boundary of matvec at
    /// `checkpoint_every = 300`, which logs no fault.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let wl = crate::workloads::matvec();
        let pins: [(usize, u64); 2] = [
            (16_987, 0xc1d4_eb13_d376_ff7c),
            (17_119, 0xdf46_2f23_7a86_2cc1),
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
            let mut snap = SimSnapshot::from_bytes(&eng.snapshot_bytes()).unwrap();
            snap.session.as_mut().expect("open").no_progress_limit = 0;
            let bytes = snap.to_bytes();
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
