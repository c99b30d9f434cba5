//! # Unified engine surface — one trait over all three facades
//!
//! [`Soc`] (sequential), [`ParallelSoc`] (GALS-sharded) and
//! [`BatchSoc`] (lockstep fault lanes) grew three divergent
//! run/checkpoint/report surfaces, so every caller — the benchmark,
//! the job server — would re-implement engine selection with
//! hand-rolled match arms. [`SimEngine`] is the
//! object-safe seam that replaces them: `build` ([`build_engine`]) /
//! `run_checked` / `checkpoint` ([`SimEngine::snapshot_bytes`]) /
//! `restore` ([`restore_engine`]) / `report` / `telemetry`, plus the
//! segmented-run primitives ([`SimEngine::begin`],
//! [`SimEngine::step_segment`]) that a scheduler needs to preempt a
//! run at a [`SocConfig::checkpoint_every`] boundary and resume it —
//! possibly in a different simulation instance — from the snapshot
//! bytes.
//!
//! Engines are deliberately **not** [`Send`] (they are `Rc`-based
//! simulations), so a job can only migrate between worker threads as
//! serialized snapshot bytes; [`restore_engine`] rebuilds and
//! deterministically replays on the receiving side, preserving the
//! PR 8 golden contract: restore-then-run ≡ uninterrupted run,
//! bit-identical.

use crate::batch::{BatchReport, BatchSoc, LaneSpec};
use crate::checkpoint::{BatchSnapshot, SimSnapshot};
use crate::parallel::ParallelSoc;
use crate::partition::{PartitionError, PartitionSpec, MAX_SHARDS};
use crate::soc::{ConfigError, FaultPatternError, RunResult, Soc, SocConfig, SocReport};
use craft_connections::FaultStats;
use craft_sim::checkpoint::CheckpointError;
use craft_sim::{SimError, Telemetry, TelemetrySnapshot};
use std::fmt;

/// Which simulation engine services a run — the typed replacement for
/// string/flag dispatch in benches and the job-server submission
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Sequential [`Soc`].
    Soc,
    /// GALS-sharded [`ParallelSoc`] with this worker-thread count on
    /// the fixed vertical-strip cut.
    Parallel {
        /// Shard worker threads (1, 2, 4 or 8).
        threads: usize,
    },
    /// Adaptive [`ParallelSoc`]: starts on the
    /// [`PartitionSpec::balanced`] seed cut and repartitions itself at
    /// checkpoint boundaries from its own profile (wire spelling
    /// `parallel:<threads>:auto`).
    ParallelAuto {
        /// Shard worker threads (any count in `1..=MAX_SHARDS`).
        threads: usize,
    },
    /// [`ParallelSoc`] on an explicit LI-boundary cut (wire spelling
    /// `parallel:spec:<16 hex digits>`, one shard index per node).
    ParallelSpec {
        /// The node→shard map.
        spec: PartitionSpec,
    },
    /// Batched lockstep [`BatchSoc`] — one lane per fault vector.
    Batch,
}

impl EngineKind {
    /// Stable lowercase name (`soc`, `parallel`, `batch`) — the wire
    /// spelling used by the job server and bench JSON sections.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Soc => "soc",
            EngineKind::Parallel { .. }
            | EngineKind::ParallelAuto { .. }
            | EngineKind::ParallelSpec { .. } => "parallel",
            EngineKind::Batch => "batch",
        }
    }

    /// Parses the job-server wire spelling: `soc`, `batch`,
    /// `parallel` (2 threads), `parallel:<threads>`,
    /// `parallel:<threads>:auto` (adaptive sharding) or
    /// `parallel:spec:<16 hex digits>` (explicit cut, one shard index
    /// per node). Every malformed form is a typed rejection:
    /// out-of-range auto thread counts are
    /// [`EngineError::BadThreads`], malformed explicit cuts are
    /// [`EngineError::BadPartition`], anything else is
    /// [`EngineError::UnknownEngine`].
    pub fn parse(s: &str) -> Result<EngineKind, EngineError> {
        let unknown = || EngineError::UnknownEngine(s.to_string());
        match s {
            "soc" => Ok(EngineKind::Soc),
            "batch" => Ok(EngineKind::Batch),
            "parallel" => Ok(EngineKind::Parallel { threads: 2 }),
            _ => {
                let rest = s.strip_prefix("parallel:").ok_or_else(unknown)?;
                if let Some(spec) = rest.strip_prefix("spec:") {
                    let spec = PartitionSpec::parse(spec).map_err(EngineError::BadPartition)?;
                    return Ok(EngineKind::ParallelSpec { spec });
                }
                match rest.split_once(':') {
                    None => {
                        let threads = rest.parse().map_err(|_| unknown())?;
                        Ok(EngineKind::Parallel { threads })
                    }
                    Some((t, "auto")) => {
                        let threads: usize = t.parse().map_err(|_| unknown())?;
                        if !(1..=MAX_SHARDS).contains(&threads) {
                            return Err(EngineError::BadThreads(threads));
                        }
                        Ok(EngineKind::ParallelAuto { threads })
                    }
                    Some(_) => Err(unknown()),
                }
            }
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Parallel { threads } => write!(f, "parallel:{threads}"),
            EngineKind::ParallelAuto { threads } => write!(f, "parallel:{threads}:auto"),
            EngineKind::ParallelSpec { spec } => write!(f, "parallel:spec:{spec}"),
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
    /// Unsupported shard-thread count for [`EngineKind::Parallel`] /
    /// [`EngineKind::ParallelAuto`].
    BadThreads(usize),
    /// Malformed or invalid partition for
    /// [`EngineKind::ParallelSpec`].
    BadPartition(PartitionError),
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
            EngineError::BadThreads(t) => {
                write!(
                    f,
                    "unsupported shard thread count {t} (strips want 1, 2, 4 or 8; \
                     auto wants 1..={MAX_SHARDS})"
                )
            }
            EngineError::BadPartition(e) => write!(f, "invalid partition: {e}"),
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

impl From<PartitionError> for EngineError {
    fn from(e: PartitionError) -> Self {
        EngineError::BadPartition(e)
    }
}

/// The unified, object-safe engine surface. One `dyn SimEngine`
/// behaves identically whichever facade backs it: begin a supervised
/// session, step it segment by segment (preempting at boundaries via
/// snapshot bytes), and read the blended [`SocReport`] /
/// [`TelemetrySnapshot`] at the end.
///
/// Obtain one with [`build_engine`] (fresh) or [`restore_engine`]
/// (from snapshot bytes); both inject the submission's fault vectors
/// before any cycle runs, so a snapshot taken at any boundary carries
/// the full replay recipe.
pub trait SimEngine {
    /// The engine's [`EngineKind`].
    fn kind(&self) -> EngineKind;

    /// The configuration this engine was built from.
    fn config(&self) -> &SocConfig;

    /// Opens a supervised-run session: `max_cycles` total budget,
    /// watchdog `no_progress_limit`. Mirrors `begin_checked` on the
    /// facades.
    ///
    /// # Panics
    /// Panics if a session is already open (or, for the batch
    /// engine, if its one-shot golden run was already consumed).
    fn begin(&mut self, max_cycles: u64, no_progress_limit: u64);

    /// Whether a supervised session is open (a snapshot taken now
    /// resumes mid-budget).
    fn session_open(&self) -> bool;

    /// Runs one segment of the open session — at most
    /// [`SocConfig::checkpoint_every`] cycles (the whole budget when
    /// unset). At a [`SegmentStatus::Boundary`] the automatic
    /// checkpoint has been captured and the engine may be dropped and
    /// later revived with [`restore_engine`] from
    /// [`SimEngine::snapshot_bytes`]. Errors (watchdog hang
    /// diagnoses) close the session.
    ///
    /// # Panics
    /// Panics if no session is open.
    fn step_segment(&mut self) -> Result<SegmentStatus, SimError>;

    /// Drives the open session to completion (the non-preempting
    /// path): loops [`SimEngine::step_segment`] until it yields
    /// [`SegmentStatus::Done`].
    fn run_to_end(&mut self) -> Result<RunResult, SimError> {
        loop {
            if let SegmentStatus::Done(r) = self.step_segment()? {
                return Ok(r);
            }
        }
    }

    /// [`SimEngine::begin`] + [`SimEngine::run_to_end`] — the
    /// uninterrupted supervised run, equivalent to the facades'
    /// `run_checked`.
    fn run_checked(
        &mut self,
        max_cycles: u64,
        no_progress_limit: u64,
    ) -> Result<RunResult, SimError> {
        self.begin(max_cycles, no_progress_limit);
        self.run_to_end()
    }

    /// Serializes a snapshot of the current boundary into the framed
    /// PR 8 wire format ([`SimSnapshot`] for the sequential/parallel
    /// engines, [`BatchSnapshot`] for the batch engine). Feed it back
    /// through [`restore_engine`] with the same [`EngineKind`].
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// The blended observable report (for the batch engine: the
    /// golden run's report; per-lane reports live in
    /// [`SimEngine::batch_report`]).
    fn report(&self) -> SocReport;

    /// Telemetry snapshot, if the engine was built with a sink.
    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot>;

    /// Reads `len` words of global memory at `base` (golden image for
    /// the batch engine).
    fn gmem_read(&self, base: usize, len: usize) -> Vec<u64>;

    /// Blended fault statistics over channels matching `pat` (the
    /// injected vector's pattern for the sequential/parallel engines).
    fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError>;

    /// The per-lane batch report once the batch engine has settled;
    /// `None` for non-batch engines or before completion.
    fn batch_report(&self) -> Option<&BatchReport> {
        None
    }
}

impl SimEngine for Soc {
    fn kind(&self) -> EngineKind {
        EngineKind::Soc
    }

    fn config(&self) -> &SocConfig {
        self.config()
    }

    fn begin(&mut self, max_cycles: u64, no_progress_limit: u64) {
        self.begin_checked(max_cycles, no_progress_limit);
    }

    fn session_open(&self) -> bool {
        Soc::session_open(self)
    }

    fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        Soc::step_segment(self)
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        self.checkpoint().to_bytes()
    }

    fn report(&self) -> SocReport {
        Soc::report(self)
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Soc::telemetry_snapshot(self)
    }

    fn gmem_read(&self, base: usize, len: usize) -> Vec<u64> {
        Soc::gmem_read(self, base, len)
    }

    fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError> {
        Soc::fault_stats(self, pat)
    }
}

impl SimEngine for ParallelSoc {
    fn kind(&self) -> EngineKind {
        // Honest kind recovery: adaptive facades are `:auto` whatever
        // cut they currently sit on; a non-strip static cut is the
        // explicit-spec kind; only the historical strips are plain
        // `parallel:N`.
        let spec = self.partition_spec();
        if self.auto_repartition() {
            EngineKind::ParallelAuto {
                threads: self.threads(),
            }
        } else if PartitionSpec::vertical_strips_checked(self.threads()) == Some(spec) {
            EngineKind::Parallel {
                threads: self.threads(),
            }
        } else {
            EngineKind::ParallelSpec { spec }
        }
    }

    fn config(&self) -> &SocConfig {
        self.config()
    }

    fn begin(&mut self, max_cycles: u64, no_progress_limit: u64) {
        self.begin_checked(max_cycles, no_progress_limit);
    }

    fn session_open(&self) -> bool {
        ParallelSoc::session_open(self)
    }

    fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        ParallelSoc::step_segment(self)
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        self.checkpoint().to_bytes()
    }

    fn report(&self) -> SocReport {
        ParallelSoc::report(self)
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        ParallelSoc::telemetry_snapshot(self)
    }

    fn gmem_read(&self, base: usize, len: usize) -> Vec<u64> {
        ParallelSoc::gmem_read(self, base, len)
    }

    fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError> {
        ParallelSoc::fault_stats(self, pat)
    }
}

impl SimEngine for BatchSoc {
    fn kind(&self) -> EngineKind {
        EngineKind::Batch
    }

    fn config(&self) -> &SocConfig {
        self.config()
    }

    fn begin(&mut self, max_cycles: u64, no_progress_limit: u64) {
        BatchSoc::begin(self, max_cycles, no_progress_limit);
    }

    fn session_open(&self) -> bool {
        self.golden().session_open()
    }

    fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        BatchSoc::step_segment(self)
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        self.checkpoint().to_bytes()
    }

    fn report(&self) -> SocReport {
        self.golden().report()
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.golden().telemetry_snapshot()
    }

    fn gmem_read(&self, base: usize, len: usize) -> Vec<u64> {
        self.golden().gmem_read(base, len)
    }

    fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError> {
        // The golden run carries shadow banks, not real injectors;
        // per-lane statistics come from the settled batch report.
        self.golden().fault_stats(pat)
    }

    fn batch_report(&self) -> Option<&BatchReport> {
        self.last_report()
    }
}

/// The cut a `parallel:<threads>:auto` engine starts on; `None` when
/// `threads` is outside `1..=MAX_SHARDS`.
fn auto_seed_cut(threads: usize) -> Option<PartitionSpec> {
    (1..=MAX_SHARDS)
        .contains(&threads)
        .then(|| PartitionSpec::balanced(threads))
}

/// Builds a fresh engine of `kind` with every fault vector in
/// `faults` injected before the first cycle. For the sequential and
/// parallel engines each [`LaneSpec`] arms a real injector on the one
/// simulation; for the batch engine the specs *are* the lockstep
/// lanes. `telemetry` attaches a sink (per-worker sinks on the
/// parallel engine).
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
    // Every parallel spelling is one facade on a starting cut, adaptive
    // or not.
    let parallel = |spec: PartitionSpec, auto: bool| -> Result<Box<dyn SimEngine>, EngineError> {
        spec.validate_for(&cfg)?;
        let mut soc =
            ParallelSoc::build_partitioned(cfg, program, staging_init, gmem_init, spec, telemetry);
        soc.set_auto_repartition(auto);
        for f in faults {
            soc.inject_fault(&f.pattern, f.cfg, f.seed)?;
        }
        Ok(Box::new(soc))
    };
    match kind {
        EngineKind::Soc => {
            let tel = telemetry.then(Telemetry::new);
            let mut soc = Soc::build_with_telemetry(cfg, program, staging_init, gmem_init, tel);
            for f in faults {
                soc.inject_fault(&f.pattern, f.cfg, f.seed)?;
            }
            Ok(Box::new(soc))
        }
        EngineKind::Parallel { threads } => parallel(
            PartitionSpec::vertical_strips_checked(threads)
                .ok_or(EngineError::BadThreads(threads))?,
            false,
        ),
        EngineKind::ParallelAuto { threads } => parallel(
            auto_seed_cut(threads).ok_or(EngineError::BadThreads(threads))?,
            true,
        ),
        EngineKind::ParallelSpec { spec } => parallel(spec, false),
        EngineKind::Batch => {
            if faults.is_empty() {
                return Err(EngineError::EmptyBatch);
            }
            let tel = telemetry.then(Telemetry::new);
            let batch = BatchSoc::build_with_telemetry(
                cfg,
                program,
                staging_init,
                gmem_init,
                faults.to_vec(),
                tel,
            )?;
            Ok(Box::new(batch))
        }
    }
}

/// Revives an engine of `kind` from [`SimEngine::snapshot_bytes`]:
/// decodes the framed snapshot, rebuilds, deterministically replays
/// to the capture boundary and verifies the architectural digest. An
/// open session resumes exactly where the capture left it. Feeding
/// bytes of the wrong snapshot kind (a batch frame to a non-batch
/// engine, or vice versa) is a typed [`CheckpointError::WrongKind`].
pub fn restore_engine(
    kind: EngineKind,
    bytes: &[u8],
    telemetry: bool,
) -> Result<Box<dyn SimEngine>, CheckpointError> {
    let parallel =
        |spec: PartitionSpec, auto: bool| -> Result<Box<dyn SimEngine>, CheckpointError> {
            let snap = SimSnapshot::from_bytes(bytes)?;
            let mut soc = ParallelSoc::restore_partitioned(&snap, spec, telemetry)?;
            soc.set_auto_repartition(auto);
            Ok(Box::new(soc))
        };
    let bad_threads = |threads: usize| {
        CheckpointError::Malformed(format!("no cut for engine thread count {threads}"))
    };
    match kind {
        EngineKind::Soc => {
            let snap = SimSnapshot::from_bytes(bytes)?;
            let tel = telemetry.then(Telemetry::new);
            Ok(Box::new(Soc::restore_with_telemetry(&snap, tel)?))
        }
        EngineKind::Parallel { threads } => parallel(
            PartitionSpec::vertical_strips_checked(threads).ok_or_else(|| bad_threads(threads))?,
            false,
        ),
        EngineKind::ParallelAuto { threads } => parallel(
            auto_seed_cut(threads).ok_or_else(|| bad_threads(threads))?,
            true,
        ),
        EngineKind::ParallelSpec { spec } => parallel(spec, false),
        EngineKind::Batch => {
            let snap = BatchSnapshot::from_bytes(bytes)?;
            Ok(Box::new(BatchSoc::restore(&snap)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

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
        for kind in [
            EngineKind::Soc,
            EngineKind::Batch,
            EngineKind::Parallel { threads: 4 },
            EngineKind::ParallelAuto { threads: 3 },
            EngineKind::ParallelAuto { threads: 16 },
            EngineKind::ParallelSpec {
                spec: PartitionSpec::parse("0000111122223333").unwrap(),
            },
            EngineKind::ParallelSpec {
                spec: PartitionSpec::balanced(5),
            },
        ] {
            assert_eq!(EngineKind::parse(&kind.to_string()).unwrap(), kind);
        }
        assert_eq!(
            EngineKind::parse("parallel").unwrap(),
            EngineKind::Parallel { threads: 2 }
        );
        assert_eq!(
            EngineKind::parse("parallel:4:auto").unwrap(),
            EngineKind::ParallelAuto { threads: 4 }
        );
        assert!(matches!(
            EngineKind::parse("fpga"),
            Err(EngineError::UnknownEngine(_))
        ));
    }

    #[test]
    fn every_malformed_wire_form_is_a_typed_rejection() {
        // Unknown spellings and truncated/garbled thread counts.
        for s in [
            "parallel:",
            "parallel:x",
            "parallel:2.5",
            "parallel:-2",
            "parallel:4:bogus",
            "parallel:4:auto:extra",
            "parallel:auto",
            "parallel::auto",
            "Parallel:4",
            "soc:2",
        ] {
            assert!(
                matches!(EngineKind::parse(s), Err(EngineError::UnknownEngine(_))),
                "{s:?} should be UnknownEngine, got {:?}",
                EngineKind::parse(s)
            );
        }
        // Auto thread counts outside 1..=16 are typed range errors.
        for s in ["parallel:0:auto", "parallel:17:auto"] {
            assert!(
                matches!(EngineKind::parse(s), Err(EngineError::BadThreads(_))),
                "{s:?} should be BadThreads"
            );
        }
        // Explicit-spec forms surface the partition grammar's own
        // typed errors.
        assert_eq!(
            EngineKind::parse("parallel:spec:"),
            Err(EngineError::BadPartition(PartitionError::WrongLength {
                got: 0
            }))
        );
        assert_eq!(
            EngineKind::parse("parallel:spec:0000"),
            Err(EngineError::BadPartition(PartitionError::WrongLength {
                got: 4
            }))
        );
        assert_eq!(
            EngineKind::parse("parallel:spec:00001111222233334"),
            Err(EngineError::BadPartition(PartitionError::WrongLength {
                got: 17
            }))
        );
        assert_eq!(
            EngineKind::parse("parallel:spec:000011112222333z"),
            Err(EngineError::BadPartition(PartitionError::BadDigit {
                pos: 15,
                ch: 'z'
            }))
        );
        // Non-dense shard numbering (shard 1 empty while 2 is named).
        assert_eq!(
            EngineKind::parse("parallel:spec:0000000000000002"),
            Err(EngineError::BadPartition(PartitionError::EmptyShard {
                shard: 1
            }))
        );
        // Every rejection renders a human-readable message.
        for e in [
            EngineError::BadThreads(17),
            EngineError::BadPartition(PartitionError::WrongLength { got: 4 }),
            EngineError::UnknownEngine("parallel:x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

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
            assert_eq!(eng.kind(), kind);
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

    #[test]
    fn preempt_restore_round_trip_matches_uninterrupted() {
        let (program, staging, gmem) = build_inputs();
        let cfg = SocConfig {
            checkpoint_every: Some(400),
            ..SocConfig::default()
        };
        for kind in [
            EngineKind::Soc,
            EngineKind::Parallel { threads: 2 },
            EngineKind::Batch,
        ] {
            let faults = [LaneSpec::new(
                "l11p3->15",
                craft_connections::FaultConfig::bit_flip(0.01),
                11,
            )];
            let mut base =
                build_engine(kind, cfg, &program, &staging, &gmem, &faults, false).unwrap();
            let base_res = base.run_checked(8_000_000, 50_000).expect("clean run");

            let mut eng =
                build_engine(kind, cfg, &program, &staging, &gmem, &faults, false).unwrap();
            eng.begin(8_000_000, 50_000);
            assert!(matches!(
                eng.step_segment().expect("first segment"),
                SegmentStatus::Boundary
            ));
            // Preempt: serialize, drop the engine, revive elsewhere.
            let bytes = eng.snapshot_bytes();
            drop(eng);
            let mut revived = restore_engine(kind, &bytes, false).expect("snapshot restores");
            assert!(revived.session_open(), "{kind}: session survives");
            let res = revived.run_to_end().expect("resumed run");
            assert_eq!(res.cycles, base_res.cycles, "{kind}: cycle-identical");
            assert_eq!(res.completed, base_res.completed);
            assert_eq!(
                revived.report().to_json(),
                base.report().to_json(),
                "{kind}: bit-identical report"
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

        // The new parallel spellings reject a batch frame the same
        // way the plain one does.
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
        let batch_bytes = batch.snapshot_bytes();
        for kind in [
            EngineKind::ParallelAuto { threads: 2 },
            EngineKind::ParallelSpec {
                spec: PartitionSpec::balanced(3),
            },
        ] {
            assert!(
                matches!(
                    restore_engine(kind, &batch_bytes, false),
                    Err(CheckpointError::WrongKind { .. })
                ),
                "{kind}: batch frame must be WrongKind"
            );
        }
        // A thread count with no cut is a typed malformed error on
        // restore, not a panic.
        for kind in [
            EngineKind::ParallelAuto { threads: 0 },
            EngineKind::Parallel { threads: 3 },
        ] {
            assert!(
                matches!(
                    restore_engine(kind, &bytes, false),
                    Err(CheckpointError::Malformed(_))
                ),
                "{kind}: must be Malformed"
            );
        }
    }

    #[test]
    fn spec_and_auto_engines_run_and_recover_their_kind() {
        let (program, staging, gmem) = build_inputs();
        let wl = vec_mul();
        // A deliberately asymmetric (non-strip) 3-shard cut: row 0 on
        // shard 1, node 5 on shard 2, the rest (hub included) on 0.
        let spec = PartitionSpec::parse("1111020000000000").unwrap();
        let auto = EngineKind::ParallelAuto { threads: 2 };
        for kind in [EngineKind::ParallelSpec { spec }, auto] {
            let mut eng = build_engine(
                kind,
                SocConfig::default(),
                &program,
                &staging,
                &gmem,
                &[],
                false,
            )
            .expect("engine builds");
            assert_eq!(eng.kind(), kind, "kind survives the trait");
            let res = eng.run_checked(8_000_000, 50_000).expect("clean run");
            assert!(res.completed);
            for (base, expect) in &wl.expected {
                assert_eq!(&eng.gmem_read(*base, expect.len()), expect, "{kind}: gmem");
            }
        }
    }
}
