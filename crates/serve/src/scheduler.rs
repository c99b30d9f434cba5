//! The scheduling core: a job table + ready queue (plain `Send` data,
//! never engines) and the segment-granular service loop shared by the
//! deterministic in-process scheduler and the threaded worker pool.
//!
//! Engines are `Rc`-based and deliberately not [`Send`], so a job
//! never migrates as a live engine: a preemption serializes the PR 8
//! snapshot into the job record, the engine is dropped, and whichever
//! worker picks the job up next revives it with
//! [`craft_soc::restore_engine`] — deterministic replay guarantees
//! the resumed run is bit-identical to an uninterrupted one.
//!
//! [`DeterministicScheduler`] drives the same core single-threaded
//! with `W` virtual workers in strict round-robin (one segment per
//! worker per turn, preemption whenever other jobs wait). No wall
//! clock and no thread interleaving touch any decision, so tests
//! assert on exact event sequences.

use crate::job::{JobError, JobEvent, JobSpec, ServeError};
use craft_sim::TelemetrySnapshot;
use craft_soc::{restore_engine, SegmentStatus, SimEngine, SocReport};
use std::collections::VecDeque;

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
}

impl ServeStats {
    /// Renders the counters as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\": {}, \"done\": {}, \"failed\": {}, \
             \"preemptions\": {}, \"segments\": {}}}",
            self.submitted, self.done, self.failed, self.preemptions, self.segments
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
    /// Preempted; state lives only in the serialized snapshot.
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

/// Marks the record `Running` on worker `worker`, emits the
/// `running`/`resumed` event, and hands back what [`construct`] needs
/// — so the threaded pool can do the expensive build/replay outside
/// the job-table lock.
pub(crate) fn pickup(rec: &mut JobRecord, worker: usize) -> (JobSpec, Option<Vec<u8>>) {
    let snapshot = rec.snapshot.take();
    rec.phase = JobPhase::Running;
    rec.push_event(if snapshot.is_some() {
        JobEvent::Resumed { worker }
    } else {
        JobEvent::Running { worker }
    });
    (rec.spec.clone(), snapshot)
}

/// The one build-or-restore both schedulers share: revives the
/// preemption snapshot when there is one, else builds a fresh engine
/// and opens its session.
pub(crate) fn construct(
    spec: &JobSpec,
    snapshot: Option<Vec<u8>>,
) -> Result<Box<dyn SimEngine>, JobError> {
    match snapshot {
        Some(bytes) => {
            restore_engine(spec.engine, &bytes, spec.telemetry).map_err(JobError::SnapshotCorrupt)
        }
        None => {
            let mut engine = spec.build_engine().map_err(JobError::Rejected)?;
            engine.begin(spec.max_cycles, spec.no_progress_limit);
            Ok(engine)
        }
    }
}

/// [`pickup`] + [`construct`] in one step, for the single-threaded
/// scheduler. On failure the record is sealed with the typed error
/// and `None` tells the caller to move on.
pub(crate) fn activate(rec: &mut JobRecord, worker: usize) -> Option<Box<dyn SimEngine>> {
    let (spec, snapshot) = pickup(rec, worker);
    match construct(&spec, snapshot) {
        Ok(engine) => Some(engine),
        Err(e) => {
            finish(rec, Err(e));
            None
        }
    }
}

/// What [`step_job`] tells the servicing worker to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepResult {
    /// Keep stepping this job.
    Continue,
    /// Drop the engine: the record is now `Finished`, or `Preempted`
    /// (requeue it).
    Stop,
}

/// Runs exactly one supervised segment of `rec`'s live engine.
/// `contend` is whether other jobs are waiting — at a checkpoint
/// boundary under contention the job is snapshot-preempted. Deadline
/// and cancellation are checked at boundaries only, so the decision
/// points are identical whichever scheduler drives the job.
pub(crate) fn step_job(
    rec: &mut JobRecord,
    engine: &mut dyn SimEngine,
    contend: bool,
) -> StepResult {
    if rec.canceled {
        finish(rec, Err(JobError::Canceled));
        return StepResult::Stop;
    }
    let step = engine.step_segment();
    absorb_step(rec, engine, step, contend)
}

/// Records the outcome of one already-executed segment — split from
/// [`step_job`] so the threaded pool can run the (long) segment
/// outside the job-table lock and only take it for this bookkeeping.
pub(crate) fn absorb_step(
    rec: &mut JobRecord,
    engine: &mut dyn SimEngine,
    step: Result<SegmentStatus, craft_sim::SimError>,
    contend: bool,
) -> StepResult {
    match step {
        Err(e) => {
            rec.segments += 1;
            finish(rec, Err(JobError::from_sim(e)));
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

/// The shared job table: records plus the ready queue. Holds no
/// engine state, so the threaded pool can put it behind a mutex.
#[derive(Debug, Default)]
pub(crate) struct Core {
    pub jobs: Vec<JobRecord>,
    pub queue: VecDeque<usize>,
    pub draining: bool,
}

impl Core {
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, JobError> {
        spec.validate()?;
        let id = self.jobs.len() as u64;
        let mut rec = JobRecord {
            id,
            spec,
            phase: JobPhase::Queued,
            canceled: false,
            snapshot: None,
            segments: 0,
            preemptions: 0,
            seq: 0,
            events: Vec::new(),
            lines: Vec::new(),
            outcome: None,
        };
        rec.push_event(JobEvent::Queued);
        self.jobs.push(rec);
        self.queue.push_back(id as usize);
        Ok(id)
    }

    pub fn index(&self, id: u64) -> Result<usize, ServeError> {
        if (id as usize) < self.jobs.len() {
            Ok(id as usize)
        } else {
            Err(ServeError::UnknownJob(id))
        }
    }

    /// Requests cancellation: a queued/preempted job fails
    /// immediately; a running job fails at its next boundary; a
    /// finished job is left alone.
    pub fn cancel(&mut self, id: u64) -> Result<(), ServeError> {
        let idx = self.index(id)?;
        let rec = &mut self.jobs[idx];
        if rec.phase == JobPhase::Finished {
            return Ok(());
        }
        rec.canceled = true;
        if matches!(rec.phase, JobPhase::Queued | JobPhase::Preempted) {
            self.queue.retain(|&i| i != idx);
            finish(&mut self.jobs[idx], Err(JobError::Canceled));
        }
        Ok(())
    }

    pub fn stats(&self) -> ServeStats {
        let mut s = ServeStats {
            submitted: self.jobs.len() as u64,
            ..ServeStats::default()
        };
        for r in &self.jobs {
            s.segments += r.segments;
            s.preemptions += r.preemptions;
            match &r.outcome {
                Some(Ok(_)) => s.done += 1,
                Some(Err(_)) => s.failed += 1,
                None => {}
            }
        }
        s
    }
}

/// The deterministic in-process scheduler: same decisions as the
/// threaded pool, but single-threaded with `workers` virtual worker
/// slots driven in strict round-robin — one segment per slot per
/// turn. Used by the test suites so every assertion is about exact,
/// reproducible schedules (no wall clock anywhere).
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
    /// worker slots; a slot with no resident job activates the queue
    /// head (build or snapshot-restore), then every slot runs exactly
    /// one segment. At a boundary with other jobs waiting the
    /// resident job is preempted back to the queue tail.
    pub fn run_until_idle(&mut self) {
        let mut resident: Vec<Option<(usize, Box<dyn SimEngine>)>> =
            (0..self.workers).map(|_| None).collect();
        loop {
            let mut progress = false;
            for (w, slot) in resident.iter_mut().enumerate() {
                if slot.is_none() {
                    if let Some(idx) = self.core.queue.pop_front() {
                        progress = true;
                        let rec = &mut self.core.jobs[idx];
                        if let Some(engine) = activate(rec, w) {
                            *slot = Some((idx, engine));
                        }
                    }
                }
                if let Some((idx, engine)) = slot {
                    progress = true;
                    let idx = *idx;
                    let contend = !self.core.queue.is_empty();
                    let rec = &mut self.core.jobs[idx];
                    if step_job(rec, engine.as_mut(), contend) == StepResult::Stop {
                        if rec.phase == JobPhase::Preempted {
                            self.core.queue.push_back(idx);
                        }
                        *slot = None;
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
        self.core
            .index(id)
            .ok()
            .and_then(|i| self.core.jobs[i].outcome.as_ref())
    }

    /// The job's typed lifecycle events so far.
    pub fn events(&self, id: u64) -> &[JobEvent] {
        self.core
            .index(id)
            .map(|i| self.core.jobs[i].events.as_slice())
            .unwrap_or(&[])
    }

    /// The job's rendered JSON stream so far.
    pub fn lines(&self, id: u64) -> &[String] {
        self.core
            .index(id)
            .map(|i| self.core.jobs[i].lines.as_slice())
            .unwrap_or(&[])
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServeStats {
        self.core.stats()
    }
}
