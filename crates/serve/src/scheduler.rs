//! The scheduling core: a job table + ready queue (plain `Send` data,
//! never engines) and the segment-granular service loop shared by the
//! deterministic in-process scheduler and the threaded worker pool.
//!
//! A [`Soc`] is `Rc`-based and deliberately not [`Send`], so an engine
//! never leaves the worker that runs it. A preemption serializes the
//! checkpoint snapshot into the job record — the one source of truth —
//! and parks the live engine in that worker's lot (at most
//! `PARK_CAP` engines, oldest evicted first). If the same worker picks
//! the job up next, it resumes the parked engine; any other worker
//! revives the bytes with [`craft_soc::restore_engine`]. Deterministic
//! replay makes both resumes bit-identical to an uninterrupted run.
//!
//! [`DeterministicScheduler`] drives the same core single-threaded
//! with `W` virtual workers in strict round-robin (one segment per
//! worker per turn, preemption whenever other jobs wait). No wall
//! clock and no thread interleaving touch any decision, so tests
//! assert on exact event sequences.

use crate::job::{JobError, JobEvent, JobSpec, ServeError};
use craft_sim::TelemetrySnapshot;
use craft_soc::{restore_engine, SegmentStatus, Soc, SocReport};
use std::collections::{HashMap, VecDeque};

/// Final result of a successfully served job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Blended whole-run hub cycles (equals the uninterrupted run's).
    pub cycles: u64,
    /// Whether the halt predicate fired.
    pub completed: bool,
    /// Scheduler segments executed.
    pub segments: u64,
    /// Times the job was preempted and later resumed.
    pub preemptions: u64,
    /// The final typed report (bit-identical to an uninterrupted
    /// run's — the serving contract).
    pub report: SocReport,
    /// Final telemetry snapshot, when the spec asked for a sink.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Lane summary for batch jobs.
    pub batch: Option<BatchSummary>,
}

/// Per-lane convergence summary of a served batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Total fault lanes.
    pub lanes: usize,
    /// Lanes that de-opted to solo replays.
    pub deopt_lanes: usize,
    /// Lanes that stayed bit-identical to the golden run.
    pub converged_lanes: usize,
}

/// Aggregate server counters (one JSON object on the wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs finished cleanly.
    pub done: u64,
    /// Jobs finished with a typed failure.
    pub failed: u64,
    /// Preemptions across all jobs.
    pub preemptions: u64,
    /// Segments executed across all jobs.
    pub segments: u64,
    /// Resumes that replayed the snapshot bytes from cycle 0 (another
    /// worker took the job, or its parked engine was evicted).
    pub restores: u64,
    /// Resumes of the live engine parked on the preempting worker.
    pub parked_resumes: u64,
}

impl ServeStats {
    /// Renders the counters as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\": {}, \"done\": {}, \"failed\": {}, \
             \"preemptions\": {}, \"segments\": {}, \
             \"restores\": {}, \"parked_resumes\": {}}}",
            self.submitted,
            self.done,
            self.failed,
            self.preemptions,
            self.segments,
            self.restores,
            self.parked_resumes
        )
    }
}

/// Where one job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the ready queue, never run.
    Queued,
    /// Live on a worker.
    Running,
    /// Preempted; the state is in the serialized snapshot, and may
    /// also still be live on the worker that preempted it.
    Preempted,
    /// Done or failed; see the outcome.
    Finished,
}

/// Collapses a hand-rolled multi-line JSON rendering onto one wire
/// line. Safe because the emitters never put raw control characters
/// inside string literals (enforced by `validate_json`).
fn one_line(json: &str) -> String {
    json.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Everything the server tracks about one job. Plain data — safe to
/// share behind a mutex across worker threads.
#[derive(Debug)]
pub(crate) struct JobRecord {
    pub id: u64,
    pub spec: JobSpec,
    pub phase: JobPhase,
    pub canceled: bool,
    /// Serialized engine state while preempted.
    pub snapshot: Option<Vec<u8>>,
    pub segments: u64,
    pub preemptions: u64,
    restores: u64,
    parked_resumes: u64,
    seq: u64,
    pub events: Vec<JobEvent>,
    /// The rendered JSON stream (events, then report/telemetry,
    /// then the final done/failed event).
    pub lines: Vec<String>,
    pub outcome: Option<Result<JobOutcome, JobError>>,
}

impl JobRecord {
    fn push_event(&mut self, ev: JobEvent) {
        self.lines.push(ev.to_json(self.id, self.seq));
        self.seq += 1;
        self.events.push(ev);
    }

    fn push_payload(&mut self, kind: &str, json: &str) {
        self.lines.push(format!(
            "{{\"job\": {}, \"seq\": {}, \"event\": \"{kind}\", \"payload\": {}}}",
            self.id,
            self.seq,
            one_line(json)
        ));
        self.seq += 1;
    }

    /// Adds this job's counters to `s`.
    fn tally(&self, s: &mut ServeStats) {
        s.segments += self.segments;
        s.preemptions += self.preemptions;
        s.restores += self.restores;
        s.parked_resumes += self.parked_resumes;
        match &self.outcome {
            Some(Ok(_)) => s.done += 1,
            Some(Err(_)) => s.failed += 1,
            None => {}
        }
    }
}

/// Seals the record with its outcome, streaming the report /
/// telemetry payloads and the final lifecycle event.
pub(crate) fn finish(rec: &mut JobRecord, outcome: Result<JobOutcome, JobError>) {
    rec.phase = JobPhase::Finished;
    rec.snapshot = None;
    match &outcome {
        Ok(o) => {
            rec.push_payload("report", &o.report.to_json());
            if let Some(t) = &o.telemetry {
                rec.push_payload("telemetry", &t.to_json());
            }
            if let Some(b) = o.batch {
                rec.push_payload(
                    "batch",
                    &format!(
                        "{{\"lanes\": {}, \"deopt_lanes\": {}, \"converged_lanes\": {}}}",
                        b.lanes, b.deopt_lanes, b.converged_lanes
                    ),
                );
            }
            rec.push_event(JobEvent::Done {
                cycles: o.cycles,
                completed: o.completed,
                segments: o.segments,
                preemptions: o.preemptions,
            });
        }
        Err(e) => rec.push_event(JobEvent::Failed { error: e.clone() }),
    }
    rec.outcome = Some(outcome);
}

/// Most engines one worker keeps parked. Two jobs sharing a worker
/// need two; past the cap the oldest is dropped and its job resumes by
/// replaying its snapshot bytes instead.
pub(crate) const PARK_CAP: usize = 4;

/// The engines one worker preempted and kept live, keyed by
/// `(job id, preemption count)` so an entry matches exactly the
/// preemption that parked it. Lives on the worker's own thread,
/// because a [`Soc`] is not `Send`.
#[derive(Default)]
pub(crate) struct Lot {
    /// Oldest first.
    parked: VecDeque<(u64, u64, Soc)>,
}

impl Lot {
    fn park(&mut self, job: u64, preemptions: u64, engine: Soc) {
        if self.parked.len() == PARK_CAP {
            self.parked.pop_front();
        }
        self.parked.push_back((job, preemptions, engine));
    }

    fn take(&mut self, job: u64, preemptions: u64) -> Option<Soc> {
        let at = self
            .parked
            .iter()
            .position(|(j, n, _)| (*j, *n) == (job, preemptions))?;
        self.parked.remove(at).map(|(.., engine)| engine)
    }

    /// Drops every engine whose record has moved on: picked up
    /// elsewhere, canceled, finished or released.
    fn prune(&mut self, core: &Core) {
        self.parked.retain(|(job, n, _)| {
            core.jobs
                .get(job)
                .is_some_and(|r| r.phase == JobPhase::Preempted && r.preemptions == *n)
        });
    }
}

/// How a claimed job gets its engine back.
// One per pickup, moved straight into `construct`; boxing the engine
// would buy nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Revive {
    /// The claiming worker's own parked engine, live.
    Parked(Soc),
    /// Replay the preemption snapshot from cycle 0.
    Restore(JobSpec, Vec<u8>),
    /// First pickup: build fresh.
    Build(JobSpec),
}

/// The one build-or-restore both schedulers share. The threaded pool
/// calls it outside the job-table lock, because replay is expensive.
pub(crate) fn construct(revive: Revive) -> Result<Soc, JobError> {
    match revive {
        Revive::Parked(engine) => Ok(engine),
        Revive::Restore(spec, bytes) => {
            restore_engine(spec.engine, &bytes, spec.telemetry).map_err(JobError::SnapshotCorrupt)
        }
        Revive::Build(spec) => {
            let mut engine = spec.build_engine().map_err(JobError::Rejected)?;
            engine.begin(spec.max_cycles, spec.no_progress_limit);
            Ok(engine)
        }
    }
}

/// What [`step_job`] tells the servicing worker to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepResult {
    /// Keep stepping this job.
    Continue,
    /// Hand the engine to [`Core::put_back`]: the record is now
    /// `Finished`, or `Preempted`.
    Stop,
}

/// Runs exactly one supervised segment of `rec`'s live engine.
/// `contend` is whether other jobs are waiting — at a checkpoint
/// boundary under contention the job is snapshot-preempted. Deadline
/// and cancellation are checked at boundaries only, so the decision
/// points are identical whichever scheduler drives the job.
pub(crate) fn step_job(rec: &mut JobRecord, engine: &mut Soc, contend: bool) -> StepResult {
    if rec.canceled {
        finish(rec, Err(JobError::Canceled));
        return StepResult::Stop;
    }
    let step = engine.step_segment().map_err(JobError::from_sim);
    absorb_step(rec, engine, step, contend)
}

/// Records the outcome of one already-executed segment — split from
/// [`step_job`] so the threaded pool can run the (long) segment
/// outside the job-table lock and only take it for this bookkeeping.
pub(crate) fn absorb_step(
    rec: &mut JobRecord,
    engine: &Soc,
    step: Result<SegmentStatus, JobError>,
    contend: bool,
) -> StepResult {
    match step {
        Err(e) => {
            rec.segments += 1;
            finish(rec, Err(e));
            StepResult::Stop
        }
        Ok(SegmentStatus::Done(r)) => {
            rec.segments += 1;
            let outcome = JobOutcome {
                cycles: r.cycles,
                completed: r.completed,
                segments: rec.segments,
                preemptions: rec.preemptions,
                report: engine.report(),
                telemetry: engine.telemetry_snapshot(),
                batch: engine.batch_report().map(|b| BatchSummary {
                    lanes: b.lanes.len(),
                    deopt_lanes: b.deopt_lanes,
                    converged_lanes: b.converged_lanes,
                }),
            };
            finish(rec, Ok(outcome));
            StepResult::Stop
        }
        Ok(SegmentStatus::Boundary) => {
            rec.segments += 1;
            if rec.canceled {
                finish(rec, Err(JobError::Canceled));
                return StepResult::Stop;
            }
            if let Some(deadline) = rec.spec.deadline_segments {
                if rec.segments >= deadline {
                    finish(rec, Err(JobError::DeadlineExceeded { deadline }));
                    return StepResult::Stop;
                }
            }
            if contend {
                let bytes = engine.snapshot_bytes();
                rec.preemptions += 1;
                rec.push_event(JobEvent::Preempted {
                    at_segment: rec.segments,
                    snapshot_bytes: bytes.len(),
                });
                rec.snapshot = Some(bytes);
                rec.phase = JobPhase::Preempted;
                StepResult::Stop
            } else {
                StepResult::Continue
            }
        }
    }
}

/// The shared job table: live records plus the ready queue. Holds no
/// engine state, so the threaded pool can put it behind a mutex.
#[derive(Debug, Default)]
pub(crate) struct Core {
    pub jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    /// Counters of the records already released.
    released: ServeStats,
    pub queue: VecDeque<u64>,
    pub draining: bool,
}

impl Core {
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, JobError> {
        spec.validate()?;
        let id = self.next_id;
        self.next_id += 1;
        let mut rec = JobRecord {
            id,
            spec,
            phase: JobPhase::Queued,
            canceled: false,
            snapshot: None,
            segments: 0,
            preemptions: 0,
            restores: 0,
            parked_resumes: 0,
            seq: 0,
            events: Vec::new(),
            lines: Vec::new(),
            outcome: None,
        };
        rec.push_event(JobEvent::Queued);
        self.jobs.insert(id, rec);
        self.queue.push_back(id);
        Ok(id)
    }

    pub fn get(&self, id: u64) -> Result<&JobRecord, ServeError> {
        self.jobs.get(&id).ok_or(ServeError::UnknownJob(id))
    }

    /// The record of a job a worker holds or just claimed. Records are
    /// released only once sealed, so a live job always has one.
    pub fn job_mut(&mut self, id: u64) -> &mut JobRecord {
        self.jobs.get_mut(&id).expect("a live job keeps its record")
    }

    /// Frees `id`'s record once its result has been delivered, keeping
    /// its counters in the totals.
    pub fn release(&mut self, id: u64) -> Option<JobRecord> {
        let rec = self.jobs.remove(&id)?;
        rec.tally(&mut self.released);
        Some(rec)
    }

    /// Pops the queue head and claims it for `worker`: prunes `lot`,
    /// marks the record `Running`, emits `running` / `resumed`, and
    /// says where the engine comes from — `lot`'s parked engine when
    /// it holds this very preemption, else a build or a replay.
    pub fn claim(&mut self, worker: usize, lot: &mut Lot) -> Option<(u64, Revive)> {
        let id = self.queue.pop_front()?;
        lot.prune(self);
        let rec = self.job_mut(id);
        rec.phase = JobPhase::Running;
        let revive = match rec.snapshot.take() {
            None => {
                rec.push_event(JobEvent::Running { worker });
                Revive::Build(rec.spec.clone())
            }
            Some(bytes) => {
                rec.push_event(JobEvent::Resumed { worker });
                match lot.take(id, rec.preemptions) {
                    Some(engine) => {
                        rec.parked_resumes += 1;
                        Revive::Parked(engine)
                    }
                    None => {
                        rec.restores += 1;
                        Revive::Restore(rec.spec.clone(), bytes)
                    }
                }
            }
        };
        Some((id, revive))
    }

    /// Takes back the engine of a job whose step returned
    /// [`StepResult::Stop`]: a preempted job goes to the queue tail and
    /// its engine into `lot`; a finished job's engine is dropped.
    pub fn put_back(&mut self, id: u64, engine: Soc, lot: &mut Lot) {
        let rec = self.job_mut(id);
        if rec.phase == JobPhase::Preempted {
            lot.park(id, rec.preemptions, engine);
            self.queue.push_back(id);
        }
    }

    /// Requests cancellation: a queued/preempted job fails
    /// immediately; a running job fails at its next boundary; a
    /// finished job is left alone.
    pub fn cancel(&mut self, id: u64) -> Result<(), ServeError> {
        let rec = self.jobs.get_mut(&id).ok_or(ServeError::UnknownJob(id))?;
        if rec.phase == JobPhase::Finished {
            return Ok(());
        }
        rec.canceled = true;
        if matches!(rec.phase, JobPhase::Queued | JobPhase::Preempted) {
            finish(rec, Err(JobError::Canceled));
            self.queue.retain(|&i| i != id);
        }
        Ok(())
    }

    /// Running totals: released records plus the live ones.
    pub fn stats(&self) -> ServeStats {
        let mut s = ServeStats {
            submitted: self.next_id,
            ..self.released
        };
        for r in self.jobs.values() {
            r.tally(&mut s);
        }
        s
    }
}

/// The deterministic in-process scheduler: same decisions as the
/// threaded pool, but single-threaded with `workers` virtual worker
/// slots driven in strict round-robin — one segment per slot per
/// turn. Used by the test suites so every assertion is about exact,
/// reproducible schedules (no wall clock anywhere). It keeps every
/// record, so events and lines stay readable after the run.
pub struct DeterministicScheduler {
    core: Core,
    workers: usize,
}

impl DeterministicScheduler {
    /// A scheduler with `workers` virtual worker slots.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> DeterministicScheduler {
        assert!(workers > 0, "need at least one worker slot");
        DeterministicScheduler {
            core: Core::default(),
            workers,
        }
    }

    /// Accepts a job into the queue (typed rejection on invalid
    /// shapes). Jobs run on the next [`DeterministicScheduler::run_until_idle`].
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, JobError> {
        self.core.submit(spec)
    }

    /// Requests cancellation of `id`.
    pub fn cancel(&mut self, id: u64) -> Result<(), ServeError> {
        self.core.cancel(id)
    }

    /// Drives every queued job to its outcome. Round-robin over the
    /// worker slots; a slot with no resident job claims the queue head
    /// (its own parked engine, a build or a snapshot restore), then
    /// every slot runs exactly one segment. At a boundary with other
    /// jobs waiting the resident job is preempted back to the queue
    /// tail and its engine parked on that slot.
    pub fn run_until_idle(&mut self) {
        let mut slots: Vec<(Option<(u64, Soc)>, Lot)> =
            (0..self.workers).map(|_| (None, Lot::default())).collect();
        loop {
            let mut progress = false;
            for (w, (resident, lot)) in slots.iter_mut().enumerate() {
                if resident.is_none() {
                    if let Some((id, revive)) = self.core.claim(w, lot) {
                        progress = true;
                        match construct(revive) {
                            Ok(engine) => *resident = Some((id, engine)),
                            Err(e) => finish(self.core.job_mut(id), Err(e)),
                        }
                    }
                }
                if let Some((id, engine)) = resident {
                    progress = true;
                    let id = *id;
                    let contend = !self.core.queue.is_empty();
                    if step_job(self.core.job_mut(id), engine, contend) == StepResult::Stop {
                        let (_, engine) = resident.take().expect("resident job");
                        self.core.put_back(id, engine, lot);
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// The job's outcome, if it has finished.
    pub fn outcome(&self, id: u64) -> Option<&Result<JobOutcome, JobError>> {
        self.core.get(id).ok().and_then(|r| r.outcome.as_ref())
    }

    /// The job's typed lifecycle events so far.
    pub fn events(&self, id: u64) -> &[JobEvent] {
        self.core.get(id).map_or(&[], |r| r.events.as_slice())
    }

    /// The job's rendered JSON stream so far.
    pub fn lines(&self, id: u64) -> &[String] {
        self.core.get(id).map_or(&[], |r| r.lines.as_slice())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServeStats {
        self.core.stats()
    }
}
