//! Typed job submissions, lifecycle events, and error taxonomy.
//!
//! A [`JobSpec`] is everything a client submits: which workload, the
//! [`SocConfig`], the fault vector(s), the engine choice, run limits
//! and an optional deadline (counted in scheduler segments, never
//! wall clock, so deterministic-mode tests stay clock-free). The
//! scheduler turns a spec into a live engine with
//! [`JobSpec::build_engine`]; everything it streams back to the
//! client is a [`JobEvent`] rendered as one validated JSON line.

use craft_sim::checkpoint::CheckpointError;
use craft_sim::SimError;
use craft_soc::workloads::{self, orchestrator_program, table_words, Workload};
use craft_soc::{build_engine, EngineError, EngineKind, LaneSpec, Soc, SocConfig};
use craftflow_core::json_escape;
use std::fmt;

/// The built-in workloads a job may request — the six Fig. 6 SoC
/// tests plus the two extended kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum WorkloadId {
    VecMul,
    DotProduct,
    Reduction,
    Conv1d,
    KmeansAssign,
    Matvec,
    Conv1dHeavy,
    VecAddScale,
}

impl WorkloadId {
    /// Every servable workload, in wire-name order.
    pub const ALL: [WorkloadId; 8] = [
        WorkloadId::VecMul,
        WorkloadId::DotProduct,
        WorkloadId::Reduction,
        WorkloadId::Conv1d,
        WorkloadId::KmeansAssign,
        WorkloadId::Matvec,
        WorkloadId::Conv1dHeavy,
        WorkloadId::VecAddScale,
    ];

    /// The stable wire name (`vec_mul`, `dot_product`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadId::VecMul => "vec_mul",
            WorkloadId::DotProduct => "dot_product",
            WorkloadId::Reduction => "reduction",
            WorkloadId::Conv1d => "conv1d",
            WorkloadId::KmeansAssign => "kmeans_assign",
            WorkloadId::Matvec => "matvec",
            WorkloadId::Conv1dHeavy => "conv1d_heavy",
            WorkloadId::VecAddScale => "vec_add_scale",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Materializes the workload (command table, memory images,
    /// expected results).
    pub fn workload(&self) -> Workload {
        match self {
            WorkloadId::VecMul => workloads::vec_mul(),
            WorkloadId::DotProduct => workloads::dot_product(),
            WorkloadId::Reduction => workloads::reduction(),
            WorkloadId::Conv1d => workloads::conv1d(),
            WorkloadId::KmeansAssign => workloads::kmeans_assign(),
            WorkloadId::Matvec => workloads::matvec(),
            WorkloadId::Conv1dHeavy => workloads::conv1d_heavy(),
            WorkloadId::VecAddScale => workloads::vec_add_scale(),
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed job submission. `Send`-safe by construction (plain data,
/// no engine state), so specs cross worker threads freely even though
/// the engines they build cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which workload to run.
    pub workload: WorkloadId,
    /// Full SoC configuration — [`SocConfig::checkpoint_every`] is
    /// also the preemption grain.
    pub cfg: SocConfig,
    /// Engine choice.
    pub engine: EngineKind,
    /// Fault vectors: injected into the one simulation for the
    /// sequential engine, one lockstep lane each for the batch engine.
    pub faults: Vec<LaneSpec>,
    /// Total hub-cycle budget.
    pub max_cycles: u64,
    /// Watchdog no-progress limit.
    pub no_progress_limit: u64,
    /// Deadline in scheduler segments (each at most
    /// `checkpoint_every` cycles): a job still unfinished after this
    /// many segments fails with [`JobError::DeadlineExceeded`].
    /// `None` = no deadline.
    pub deadline_segments: Option<u64>,
    /// Attach a telemetry sink and stream the final
    /// [`craft_sim::TelemetrySnapshot`].
    pub telemetry: bool,
}

impl JobSpec {
    /// A minimal spec: `workload` on `engine` with the default
    /// config, no faults, generous limits, no deadline.
    pub fn new(workload: WorkloadId, engine: EngineKind) -> JobSpec {
        JobSpec {
            workload,
            cfg: SocConfig::default(),
            engine,
            faults: Vec::new(),
            max_cycles: 8_000_000,
            no_progress_limit: 50_000,
            deadline_segments: None,
            telemetry: false,
        }
    }

    /// Cheap submission-time validation (config, engine shape) —
    /// the rejection half of [`JobError`]; expensive failures
    /// (pattern matches no channel) surface when the job is built on
    /// a worker.
    pub fn validate(&self) -> Result<(), JobError> {
        self.cfg
            .validate()
            .map_err(|e| JobError::Rejected(EngineError::Config(e)))?;
        // The library-only alias has no wire spelling; a spec built in
        // code is refused the same way the wire refuses one.
        if let EngineKind::Parallel { .. } = self.engine {
            let spelled = self.engine.to_string();
            return Err(JobError::Rejected(EngineError::UnknownEngine(spelled)));
        }
        if self.engine == EngineKind::Batch && self.faults.is_empty() {
            return Err(JobError::Rejected(EngineError::EmptyBatch));
        }
        if self.max_cycles == 0 || self.no_progress_limit == 0 {
            return Err(JobError::BadLimits);
        }
        Ok(())
    }

    /// Builds a fresh engine for this spec (workload materialization
    /// + fault injection), without opening a session.
    pub fn build_engine(&self) -> Result<Soc, EngineError> {
        let wl = self.workload.workload();
        build_engine(
            self.engine,
            self.cfg,
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
            &self.faults,
            self.telemetry,
        )
    }
}

/// Why one job failed — the typed verdicts the server streams in a
/// `failed` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The submission was rejected before (or while) building.
    Rejected(EngineError),
    /// Zero cycle budget or zero watchdog limit.
    BadLimits,
    /// The client canceled the job.
    Canceled,
    /// The job was still unfinished after its
    /// [`JobSpec::deadline_segments`] scheduler segments.
    DeadlineExceeded {
        /// The deadline that was exceeded.
        deadline: u64,
    },
    /// The watchdog diagnosed a hang; `detail` carries the full
    /// [`craft_sim::HangReport`] rendering.
    Hung {
        /// Reference-clock cycle when the watchdog fired.
        cycle: u64,
        /// Rendered hang diagnosis.
        detail: String,
    },
    /// A non-hang simulation error (time overflow etc.).
    Sim(String),
    /// A preemption snapshot failed to restore — corruption or
    /// replay divergence.
    SnapshotCorrupt(CheckpointError),
}

impl JobError {
    /// Folds a [`SimError`] into the job taxonomy, keeping the hang
    /// verdict distinct.
    pub fn from_sim(e: SimError) -> JobError {
        match e {
            SimError::Hang { cycle, .. } => JobError::Hung {
                cycle,
                detail: format!("{e:?}"),
            },
            other => JobError::Sim(format!("{other:?}")),
        }
    }

    /// Short stable verdict tag for the wire (`rejected`, `canceled`,
    /// `deadline`, `hung`, `sim`, `snapshot_corrupt`).
    pub fn verdict(&self) -> &'static str {
        match self {
            JobError::Rejected(_) | JobError::BadLimits => "rejected",
            JobError::Canceled => "canceled",
            JobError::DeadlineExceeded { .. } => "deadline",
            JobError::Hung { .. } => "hung",
            JobError::Sim(_) => "sim",
            JobError::SnapshotCorrupt(_) => "snapshot_corrupt",
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Rejected(e) => write!(f, "rejected: {e}"),
            JobError::BadLimits => f.write_str("rejected: zero cycle budget or watchdog limit"),
            JobError::Canceled => f.write_str("canceled by client"),
            JobError::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline} segments exceeded")
            }
            JobError::Hung { cycle, .. } => write!(f, "hang diagnosed at cycle {cycle}"),
            JobError::Sim(e) => write!(f, "simulation error: {e}"),
            JobError::SnapshotCorrupt(e) => write!(f, "snapshot failed to restore: {e:?}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Server-level errors (not tied to one job's run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No job with that id.
    UnknownJob(u64),
    /// A malformed wire request.
    BadRequest(String),
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// Socket/O error, rendered.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One job lifecycle transition, streamed to the client as a JSON
/// line: queued → running → (preempted → resumed)* → done | failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// Accepted into the queue.
    Queued,
    /// First pickup by a worker.
    Running {
        /// Worker slot index.
        worker: usize,
    },
    /// Preempted at a checkpoint boundary; the run state now lives
    /// only in the serialized snapshot.
    Preempted {
        /// Hub cycles consumed so far.
        at_segment: u64,
        /// Size of the serialized snapshot.
        snapshot_bytes: usize,
    },
    /// Revived from its snapshot by a worker.
    Resumed {
        /// Worker slot index.
        worker: usize,
    },
    /// Finished cleanly (the `report` line precedes this event).
    Done {
        /// Blended whole-run hub cycles.
        cycles: u64,
        /// Whether the halt predicate fired (vs budget exhaustion).
        completed: bool,
        /// Scheduler segments executed.
        segments: u64,
        /// Times the job was preempted.
        preemptions: u64,
    },
    /// Finished with a typed verdict.
    Failed {
        /// The failure.
        error: JobError,
    },
}

impl JobEvent {
    /// Stable wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobEvent::Queued => "queued",
            JobEvent::Running { .. } => "running",
            JobEvent::Preempted { .. } => "preempted",
            JobEvent::Resumed { .. } => "resumed",
            JobEvent::Done { .. } => "done",
            JobEvent::Failed { .. } => "failed",
        }
    }

    /// Renders the event as one JSON object line for job `job`,
    /// sequence number `seq`.
    pub fn to_json(&self, job: u64, seq: u64) -> String {
        let head = format!(
            "{{\"job\": {job}, \"seq\": {seq}, \"event\": \"{}\"",
            self.tag()
        );
        match self {
            JobEvent::Queued => format!("{head}}}"),
            JobEvent::Running { worker } | JobEvent::Resumed { worker } => {
                format!("{head}, \"worker\": {worker}}}")
            }
            JobEvent::Preempted {
                at_segment,
                snapshot_bytes,
            } => format!(
                "{head}, \"at_segment\": {at_segment}, \"snapshot_bytes\": {snapshot_bytes}}}"
            ),
            JobEvent::Done {
                cycles,
                completed,
                segments,
                preemptions,
            } => format!(
                "{head}, \"cycles\": {cycles}, \"completed\": {completed}, \
                 \"segments\": {segments}, \"preemptions\": {preemptions}}}"
            ),
            JobEvent::Failed { error } => format!(
                "{head}, \"verdict\": \"{}\", \"detail\": \"{}\"}}",
                error.verdict(),
                json_escape(&error.to_string())
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craftflow_core::validate_json;

    #[test]
    fn workload_names_round_trip() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }

    #[test]
    fn every_event_renders_valid_json() {
        let events = [
            JobEvent::Queued,
            JobEvent::Running { worker: 1 },
            JobEvent::Preempted {
                at_segment: 3,
                snapshot_bytes: 4096,
            },
            JobEvent::Resumed { worker: 0 },
            JobEvent::Done {
                cycles: 12345,
                completed: true,
                segments: 7,
                preemptions: 2,
            },
            JobEvent::Failed {
                error: JobError::Hung {
                    cycle: 99,
                    detail: "stuck \"here\"\nand there".to_string(),
                },
            },
        ];
        for (seq, ev) in events.iter().enumerate() {
            let line = ev.to_json(42, seq as u64);
            validate_json(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        }
    }

    #[test]
    fn submission_validation_rejects_bad_shapes() {
        let mut spec = JobSpec::new(WorkloadId::VecMul, EngineKind::Parallel { threads: 2 });
        assert_eq!(
            spec.validate(),
            Err(JobError::Rejected(EngineError::UnknownEngine(
                "parallel:2".into()
            )))
        );
        spec.engine = EngineKind::Batch;
        assert!(matches!(
            spec.validate(),
            Err(JobError::Rejected(EngineError::EmptyBatch))
        ));
        spec.engine = EngineKind::Soc;
        assert!(spec.validate().is_ok());
    }
}
