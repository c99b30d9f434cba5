//! GALS-sharded parallel simulation of the prototype SoC.
//!
//! [`ParallelSoc`] partitions the 4x4 mesh at latency-insensitive
//! channel boundaries — by default into vertical strips, or into any
//! validated [`PartitionSpec`] cut — and simulates each shard on its
//! own worker thread with a private event wheel, synchronized by
//! the conservative epoch protocol in [`craft_sim::run_parallel`]. The
//! lookahead that makes one-instant epochs safe comes from the LI
//! discipline itself: every cross-shard link is a buffered channel
//! (capacity >= 1) whose push is staged at evaluate and committed at
//! commit, so a token produced at instant *t* is never observable
//! before *t*+1 — each worker may evaluate instant *t* knowing only
//! tokens committed at *t*-1, which the mailbox exchange delivers at
//! the epoch boundary.
//!
//! The partition is **bit- and cycle-identical** to the sequential
//! [`Soc`]: every worker builds the full clock table and channel
//! registry (so clock indices and fault seeds line up), components are
//! instantiated only on their owning shard, and channels crossing a
//! boundary are split into mailbox-coupled halves whose staged/commit
//! semantics match the local channel exactly (see
//! [`craft_connections::MailboxHub`]). Equivalence over workloads,
//! fidelities, clockings and fault campaigns is asserted by
//! `tests/parallel_equiv_proptest.rs`; equivalence over *arbitrary*
//! LI cuts (and repartition-at-checkpoint) by
//! `tests/partition_proptest.rs`.
//!
//! Profile-guided adaptive sharding closes the loop ROADMAP item 5
//! opened: [`ParallelSoc::repartition`] captures a coordinated
//! epoch-boundary snapshot, rebuilds the worker set under a new
//! [`PartitionSpec`] and deterministically replays — and with
//! [`ParallelSoc::set_auto_repartition`] a segmented supervised run
//! re-costs itself from its own merged report at every checkpoint
//! boundary ([`NodeCosts::from_report`] +
//! [`crate::partition::partition_search`]) and rebalances whenever the
//! modeled makespan strictly improves.
//!
//! As a [`SimEngine`] the facade supplies only what differs from the
//! sequential engine: `advance` is one `Cmd::Run` epoch broadcast,
//! its position is hub cycles with no kernel digest (so captures are
//! hub-cycle targeted), and the architectural view is merged from the
//! shards through one closure call (`on_hub` / `on_all`) instead of a
//! command per accessor. Session, segments, captures and replay are the
//! shared driver's.

use crate::checkpoint::{Recipe, SessionState, SimSnapshot};
use crate::controller::CtrlStatus;
use crate::engine::{current_capture, revive, Advance, EngineKind, Position, RunCore, SimEngine};
use crate::msg::{HUB_NODE, N_NODES};
use crate::partition::{partition_search, NodeCosts, PartitionSpec};
use crate::pe::Fidelity;
use crate::soc::{
    merge_fault_stats, FaultPatternError, FaultReport, NocReport, RunResult, ShardSpec, Soc,
    SocConfig, SocReport,
};
use craft_connections::{FaultConfig, FaultStats, MailboxHub};
use craft_matchlib::router::NocFlit;
use craft_sim::checkpoint::{CheckpointError, WatchdogState};
use craft_sim::cover::Coverage;
use craft_sim::telemetry::{MetricKind, MetricRow};
use craft_sim::{
    publish_hang_idle, ClockId, EpochSync, EpochVerdict, EpochWorker, HangReport, Picoseconds,
    SimError, Simulator, Telemetry, TelemetrySnapshot, WaitHist,
};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Epoch-loop statistics for one shard, accumulated over every run of
/// a [`ParallelSoc`] — the observability feed for the
/// `sim.shard.<i>.*` telemetry probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Global instants this worker synchronized through.
    pub instants: u64,
    /// Instants at which this worker's kernel actually fired an edge.
    pub fired_instants: u64,
    /// Cross-shard tokens drained from mailboxes into receive halves.
    pub drained_tokens: u64,
    /// Wall-clock nanoseconds spent waiting at epoch barriers.
    pub barrier_wait_ns: u64,
    /// Per-instant barrier-wait histogram (one sample per traversed
    /// instant) — the per-phase imbalance view behind the
    /// `sim.shard.<i>.barrier_wait.{p50,p95,max}_ns` probes. The flat
    /// `barrier_wait_ns` sum stays as the compatibility probe.
    pub barrier_hist: WaitHist,
}

/// One run's outcome as reported by a worker thread.
struct RunOut {
    /// Hub-clock cycles elapsed during this run.
    cycles: u64,
    /// Absolute hub-clock cycle count after the run.
    abs_cycles: u64,
    /// Simulated time after the run.
    now: Picoseconds,
    verdict: Option<EpochVerdict>,
    instants: u64,
    fired_instants: u64,
    barrier_wait_ns: u64,
    barrier_hist: WaitHist,
    drained_tokens: u64,
    fatal: Option<SimError>,
    hang: Option<HangReport>,
    /// Final watchdog idle count (valid when `watchdog` was set).
    idle: u64,
    /// Aggregated progress bit of the run's final instant — the one
    /// the epoch protocol's decide lag leaves unconsumed. Fed back as
    /// `carried` when the next `Cmd::Run` continues the same session.
    last_progress: bool,
}

/// A call to run against a worker's shard; it carries its own reply
/// channel (see [`ParallelSoc::call`]).
type ShardCall = Box<dyn FnOnce(&mut Soc) + Send>;

enum Cmd {
    /// One epoch-synchronized run — the only command that needs every
    /// shard in flight at once.
    Run {
        max_cycles: u64,
        watchdog: Option<u64>,
        /// Watchdog idle count carried over a segment seam (0 fresh).
        init_idle: u64,
        /// Progress bit of the seam instant (`None` on a fresh run).
        carried: Option<bool>,
    },
    /// Anything else: read or poke the shard's [`Soc`].
    Call(ShardCall),
}

/// A shard worker; dropping `cmd` ends its command loop.
struct Worker {
    cmd: mpsc::Sender<Cmd>,
    ran: mpsc::Receiver<Box<RunOut>>,
    join: thread::JoinHandle<()>,
}

/// The multi-threaded SoC simulator: a drop-in counterpart of [`Soc`]
/// whose `run`/`run_checked`/`report`/`gmem_read`/fault/coverage
/// surface produces **bit-identical, cycle-identical** results, with
/// the mesh sharded across one worker thread per shard of its
/// [`PartitionSpec`]. See the [module docs](self) for the epoch model.
/// The supervised run (`begin`, `step_segment`, `run_checked`,
/// `inject_fault`, `checkpoint`, …) is the [`SimEngine`] driver's.
pub struct ParallelSoc {
    workers: Vec<Worker>,
    hub_worker: usize,
    spec: PartitionSpec,
    /// Re-cost and rebalance at segment boundaries when set.
    auto_repartition: bool,
    /// Completed repartition-at-checkpoint rebuilds so far.
    repartitions: u64,
    sync: Arc<EpochSync>,
    has_telemetry: bool,
    shard_stats: Vec<ShardStats>,
    /// Recipe, fault log, session, last capture, odometers: the facade
    /// is the single entry point for runs and injections, so it keeps
    /// the whole deterministic replay log itself.
    core: RunCore,
    /// Absolute hub cycles (mirrors the hub worker's kernel).
    hub_cycles: u64,
    /// Absolute global instants traversed (equals the sequential
    /// kernel's instant count — the merged sequence is identical).
    hub_instants: u64,
}

impl ParallelSoc {
    /// Builds the SoC sharded over `threads` worker threads. Arguments
    /// mirror [`Soc::build`]; `threads` must be 1, 2, 4 or 8.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation, any init region is out of
    /// range, or `threads` is unsupported.
    pub fn build(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        threads: usize,
    ) -> ParallelSoc {
        Self::build_with_telemetry(cfg, program, staging_init, gmem_init, threads, false)
    }

    /// Like [`ParallelSoc::build`], but each worker additionally
    /// publishes into a private [`Telemetry`] sink;
    /// [`SimEngine::telemetry_snapshot`] merges the per-worker
    /// snapshots and injects the `sim.shard.<i>.*` epoch probes.
    /// (Sinks are per-worker because [`Telemetry`] is a
    /// single-threaded `Rc` handle.)
    pub fn build_with_telemetry(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        threads: usize,
        telemetry: bool,
    ) -> ParallelSoc {
        Self::build_partitioned(
            cfg,
            program,
            staging_init,
            gmem_init,
            PartitionSpec::vertical_strips(threads),
            telemetry,
        )
    }

    /// Builds the SoC sharded under an arbitrary validated
    /// [`PartitionSpec`]: one worker per shard, each node's components
    /// living on `spec.owner_of(node)`, the hub's shard deciding the
    /// epoch protocol. Any LI-boundary cut is bit- and cycle-identical
    /// to the sequential [`Soc`] — every worker still builds the full
    /// clock table and channel registry, so clock indices and fault
    /// seeds are partition-independent.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation or `spec` fails
    /// [`PartitionSpec::validate_for`] against it.
    pub fn build_partitioned(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        spec: PartitionSpec,
        telemetry: bool,
    ) -> ParallelSoc {
        let recipe = Recipe::new(cfg, program, staging_init, gmem_init);
        Self::from_recipe(recipe, spec, telemetry)
    }

    /// [`ParallelSoc::build_partitioned`] from a shared [`Recipe`]:
    /// every shard worker points at the one copy of the images.
    pub(crate) fn from_recipe(
        recipe: Arc<Recipe>,
        spec: PartitionSpec,
        telemetry: bool,
    ) -> ParallelSoc {
        let cfg = recipe.cfg;
        if let Err(e) = cfg.validate() {
            panic!("invalid SocConfig: {e}");
        }
        if let Err(e) = spec.validate_for(&cfg) {
            panic!("invalid PartitionSpec: {e}");
        }
        let threads = spec.shards();
        let hub_worker = spec.hub_shard();
        // One clock slot per domain, identical on every worker: just
        // the hub clock when synchronous, hub + 15 node domains under
        // either GALS scheme.
        let clocks = match cfg.clocking {
            crate::soc::ClockingMode::Synchronous => 1,
            _ => N_NODES as usize,
        };
        let sync = Arc::new(EpochSync::new(threads, clocks));
        // Split-channel halves pair up through one shared mailbox
        // registry; compiled plans share one cache across shards.
        let mailboxes: MailboxHub<NocFlit> = MailboxHub::default();
        let plan_cache =
            (cfg.fidelity == Fidelity::RtlCompiled).then(crate::rtlplan::PlanCache::handle);
        let workers = (0..threads)
            .map(|shard| {
                let (cmd, cmds) = mpsc::channel();
                let (ran_tx, ran) = mpsc::channel();
                let shard_spec = ShardSpec {
                    shard,
                    owner: spec.owner_vec(),
                    mailboxes: mailboxes.clone(),
                    plan_cache: plan_cache.clone(),
                };
                let (sync, recipe) = (Arc::clone(&sync), Arc::clone(&recipe));
                let join = thread::Builder::new()
                    .name(format!("soc-shard-{shard}"))
                    .spawn(move || {
                        worker_main(shard_spec, &sync, recipe, telemetry, &cmds, &ran_tx)
                    })
                    .expect("spawn shard worker");
                Worker { cmd, ran, join }
            })
            .collect();
        ParallelSoc {
            workers,
            hub_worker,
            spec,
            auto_repartition: false,
            repartitions: 0,
            sync,
            has_telemetry: telemetry,
            shard_stats: vec![ShardStats::default(); threads],
            core: RunCore::new(recipe),
            hub_cycles: 0,
            hub_instants: 0,
        }
    }

    /// Worker-thread count of this build.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The node→shard cut this worker set was built under.
    pub fn partition_spec(&self) -> PartitionSpec {
        self.spec
    }

    /// Enables (or disables) profile-guided rebalancing: at each
    /// segment boundary of a supervised run the facade derives
    /// [`NodeCosts`] from its own merged report, searches for a better
    /// cut with the same shard count, and
    /// [`repartition`](Self::repartition)s whenever the modeled
    /// makespan strictly improves.
    pub fn set_auto_repartition(&mut self, on: bool) {
        self.auto_repartition = on;
    }

    /// Whether profile-guided rebalancing is enabled.
    pub fn auto_repartition(&self) -> bool {
        self.auto_repartition
    }

    /// Completed repartition-at-checkpoint rebuilds over this facade's
    /// lifetime (manual and automatic).
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Per-shard epoch-loop statistics accumulated over every run so
    /// far: synchronized instants, fired instants, mailbox tokens and
    /// barrier wait time.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shard_stats
    }

    /// Runs until the controller halts or `max_cycles` hub cycles.
    /// Bit- and cycle-identical to [`Soc::run`].
    ///
    /// # Panics
    /// Panics if a supervised session is open — finish it with
    /// [`SimEngine::run_to_end`] first.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        assert!(
            self.core.session.is_none(),
            "finish the open supervised session before ParallelSoc::run"
        );
        let t0 = Instant::now();
        let end = self
            .run_inner(max_cycles, None, 0, None)
            .expect("unchecked parallel run cannot fail");
        RunResult {
            cycles: end.cycles,
            wall: t0.elapsed(),
            ctrl: self.ctrl_status(),
            completed: end.verdict == Some(EpochVerdict::Predicate),
        }
    }

    /// One `Cmd::Run` broadcast: every shard runs the epoch loop until
    /// the hub shard's verdict. With `watchdog` set, every flit channel
    /// is a progress source and `no_progress_limit` consecutive hub
    /// cycles without data-plane progress *anywhere in the worker set*
    /// produce a [`SimError::Hang`] whose report merges every shard's
    /// component/channel diagnosis. The watchdog aggregates each
    /// instant's progress bits at the *next* epoch boundary, so
    /// detection can lag the sequential kernel by one instant; the
    /// verdict and the diagnosed state are the same. Returns the hub
    /// shard's outcome.
    fn run_inner(
        &mut self,
        max_cycles: u64,
        watchdog: Option<u64>,
        init_idle: u64,
        carried: Option<bool>,
    ) -> Result<Box<RunOut>, SimError> {
        self.sync.reset();
        for w in &self.workers {
            w.cmd
                .send(Cmd::Run {
                    max_cycles,
                    watchdog,
                    init_idle,
                    carried,
                })
                .expect("shard worker hung up");
        }
        let mut outs: Vec<Box<RunOut>> = self
            .workers
            .iter()
            .map(|w| w.ran.recv().expect("shard worker died"))
            .collect();
        for (acc, o) in self.shard_stats.iter_mut().zip(&outs) {
            acc.instants += o.instants;
            acc.fired_instants += o.fired_instants;
            acc.drained_tokens += o.drained_tokens;
            acc.barrier_wait_ns += o.barrier_wait_ns;
            acc.barrier_hist.merge(&o.barrier_hist);
        }
        let hub = &outs[self.hub_worker];
        self.hub_cycles = hub.abs_cycles;
        self.hub_instants += hub.instants;
        // A kernel arithmetic fault outranks every other outcome, as
        // in the sequential `run_until_checked`.
        if let Some(i) = outs.iter().position(|o| o.fatal.is_some()) {
            return Err(outs[i].fatal.take().expect("just checked"));
        }
        let hub = &outs[self.hub_worker];
        if hub.verdict == Some(EpochVerdict::Hang) {
            let (cycle, now) = (hub.abs_cycles, hub.now);
            let mut report = HangReport {
                idle_cycles: 0,
                components: Vec::new(),
                channels: Vec::new(),
            };
            for o in &mut outs {
                if let Some(h) = o.hang.take() {
                    report.idle_cycles = report.idle_cycles.max(h.idle_cycles);
                    report.components.extend(h.components);
                    report.channels.extend(h.channels);
                }
            }
            return Err(SimError::Hang {
                clock: "hub".into(),
                cycle,
                now,
                report,
            });
        }
        Ok(outs.swap_remove(self.hub_worker))
    }

    /// Queues `f` against `shard`'s [`Soc`] and returns where its result
    /// will arrive — the one way the facade reads or pokes worker state
    /// between runs.
    fn call<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut Soc) -> R + Send + 'static,
    ) -> mpsc::Receiver<R> {
        let (tx, rx) = mpsc::channel();
        let call: ShardCall = Box::new(move |soc| {
            let _ = tx.send(f(soc));
        });
        let cmd = &self.workers[shard].cmd;
        cmd.send(Cmd::Call(call)).expect("shard worker hung up");
        rx
    }

    /// Runs `f` on the hub's shard — where the controller and global
    /// memory live.
    fn on_hub<R: Send + 'static>(&self, f: impl FnOnce(&mut Soc) -> R + Send + 'static) -> R {
        let reply = self.call(self.hub_worker, f);
        reply.recv().expect("shard worker died")
    }

    /// Runs `f` on every shard, all in flight at once; results in
    /// worker order.
    fn on_all<R: Send + 'static>(
        &self,
        f: impl Fn(&mut Soc) -> R + Clone + Send + 'static,
    ) -> Vec<R> {
        let replies: Vec<_> = (0..self.workers.len())
            .map(|shard| self.call(shard, f.clone()))
            .collect();
        replies
            .into_iter()
            .map(|reply| reply.recv().expect("shard worker died"))
            .collect()
    }

    /// Rebuilds a sharded SoC from `snap` and deterministically
    /// replays it to the capture boundary, verifying the architectural
    /// digest. Accepts sequential captures too (the digest is
    /// portable); `threads` need not match the capturing build. An
    /// open session is reinstated, ready for
    /// [`SimEngine::run_to_end`].
    pub fn restore(snap: &SimSnapshot, threads: usize) -> Result<ParallelSoc, CheckpointError> {
        Self::restore_partitioned(snap, PartitionSpec::vertical_strips(threads), false)
    }

    /// [`ParallelSoc::restore`] under an arbitrary cut, optionally with
    /// per-worker telemetry sinks: the worker set need not match the
    /// capturing build's partition at all — a snapshot taken on
    /// vertical strips (or by the sequential `Soc`) revives on any
    /// valid [`PartitionSpec`], because replay is pure recipe + fault
    /// log + cycle target and the architectural digest is
    /// partition-independent.
    pub fn restore_partitioned(
        snap: &SimSnapshot,
        spec: PartitionSpec,
        telemetry: bool,
    ) -> Result<ParallelSoc, CheckpointError> {
        revive(snap, |recipe| {
            spec.validate_for(&recipe.cfg)
                .map_err(|e| CheckpointError::Malformed(format!("invalid partition: {e}")))?;
            Ok(Self::from_recipe(recipe, spec, telemetry))
        })
    }

    /// Repartition-at-checkpoint: takes the coordinated epoch-boundary
    /// capture of where the run stands (the boundary's own when called
    /// from one), rebuilds the worker set under `spec` and
    /// deterministically replays to the same boundary — the open
    /// session (if any) crosses the rebuild intact, so a supervised
    /// run resumed afterwards is identical to one that never
    /// repartitioned. The replay re-runs the snapshot's history from
    /// cycle zero, so the rebuild costs one full replay — cheap at
    /// checkpoint cadence, not per instant.
    ///
    /// Checkpoint/repartition odometers carry over; the per-shard
    /// [`ShardStats`] accumulators restart for the new worker layout
    /// (they describe workers, and the workers are new).
    pub fn repartition(&mut self, spec: PartitionSpec) -> Result<(), CheckpointError> {
        if spec == self.spec {
            return Ok(());
        }
        let at = current_capture(self);
        let mut next = Self::restore_partitioned(&at.snapshot, spec, self.has_telemetry)?;
        next.auto_repartition = self.auto_repartition;
        next.repartitions = self.repartitions + 1;
        next.core.ckpt = self.core.ckpt.clone();
        next.core.last = Some(at);
        *self = next;
        Ok(())
    }

    /// The functional-coverage map merged across every shard's
    /// collector (bin counts sum; see [`Coverage::absorb`]).
    pub fn coverage(&self) -> Coverage {
        let cov = Coverage::new();
        for bins in self.on_all(|soc| soc.coverage().bins()) {
            cov.absorb(&bins);
        }
        cov
    }
}

/// The sharded engine: a set of kernels with no single instant count
/// to address, captured only between `Cmd::Run` broadcasts — so its
/// snapshots carry a hub-cycle target and no kernel digest.
impl SimEngine for ParallelSoc {
    fn kind(&self) -> EngineKind {
        // Honest kind recovery: adaptive facades are `:auto` whatever
        // cut they currently sit on; a non-strip static cut is the
        // explicit-spec kind; only the historical strips are plain
        // `parallel:N`.
        let threads = self.threads();
        if self.auto_repartition {
            EngineKind::ParallelAuto { threads }
        } else if PartitionSpec::vertical_strips_checked(threads) == Some(self.spec) {
            EngineKind::Parallel { threads }
        } else {
            EngineKind::ParallelSpec { spec: self.spec }
        }
    }

    fn core(&self) -> &RunCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RunCore {
        &mut self.core
    }

    /// One watchdog-supervised `Cmd::Run` broadcast. The idle count
    /// and the seam instant's progress bit cross each seam in
    /// `session`, so a segmented run trips on exactly the cycle an
    /// unsegmented one would (the seam contract on `run_one`).
    fn advance(&mut self, budget: u64, session: &mut SessionState) -> Result<Advance, SimError> {
        let end = self.run_inner(
            budget,
            Some(session.no_progress_limit),
            session.wd.idle,
            session.carried_progress,
        )?;
        session.wd = WatchdogState {
            idle: end.idle,
            last_cycle: self.hub_cycles,
        };
        session.carried_progress = Some(end.last_progress);
        Ok(Advance {
            cycles: end.cycles,
            ended: match end.verdict {
                Some(EpochVerdict::MaxCycles) => None,
                v => Some(v == Some(EpochVerdict::Predicate)),
            },
        })
    }

    fn position(&self) -> Position {
        Position {
            instants: self.hub_instants,
            hub_cycles: self.hub_cycles,
            progress_set: false,
            kernel: None,
        }
    }

    /// Runs unsupervised to exactly `hub_cycles` (always reachable:
    /// shard sets are only ever captured at a cycle boundary).
    fn seek(&mut self, _instants: Option<u64>, hub_cycles: u64) -> Result<(), CheckpointError> {
        if hub_cycles < self.hub_cycles {
            return Err(CheckpointError::Malformed(format!(
                "replay target cycle {hub_cycles} is behind the current cycle {}",
                self.hub_cycles
            )));
        }
        if hub_cycles > self.hub_cycles {
            self.run_inner(hub_cycles - self.hub_cycles, None, 0, None)
                .map_err(|e| CheckpointError::Malformed(format!("replay failed: {e}")))?;
        }
        if self.hub_cycles != hub_cycles {
            return Err(CheckpointError::ReplayDivergence {
                field: "arch.hub_cycles".to_string(),
                expected: hub_cycles,
                found: self.hub_cycles,
            });
        }
        Ok(())
    }

    /// The match count and per-channel seeds are registry-wide, so
    /// every worker answers alike and as the sequential build would;
    /// each injector arms on the worker owning the producer end of its
    /// channel.
    fn arm_fault(
        &mut self,
        pat: &str,
        cfg: FaultConfig,
        seed: u64,
    ) -> Result<usize, FaultPatternError> {
        let pat = pat.to_string();
        let mut results = self.on_all(move |soc| soc.arm_fault(&pat, cfg, seed));
        results.swap_remove(0)
    }

    /// Merged run report, field-for-field identical to the sequential
    /// [`Soc::report`]: hub/plan sections come from the hub's shard,
    /// per-PE rows are concatenated, and NoC/fault/gate counters are
    /// summed (each channel's counters live on exactly one worker —
    /// split halves own disjoint fields).
    fn report(&self) -> SocReport {
        let reports = self.on_all(|soc| soc.report());
        let hub = &reports[self.hub_worker];
        let mut merged = SocReport {
            hub: hub.hub.clone(),
            plan: hub.plan,
            noc: NocReport {
                channels: hub.noc.channels,
                ..NocReport::default()
            },
            faults: FaultReport::default(),
            ..SocReport::default()
        };
        for r in &reports {
            merged.pes.extend(r.pes.iter().copied());
            merged.noc.transfers += r.noc.transfers;
            merged.noc.backpressure += r.noc.backpressure;
            merged.noc.pop_empty += r.noc.pop_empty;
            merged.noc.stall_cycles += r.noc.stall_cycles;
            merged.faults.armed_channels += r.faults.armed_channels;
            merge_fault_stats(&mut merged.faults.stats, &r.faults.stats);
            merged.charged_gates += r.charged_gates;
            merged.total_work_units += r.total_work_units;
        }
        merged.pes.sort_by_key(|p| p.node);
        merged
    }

    fn ctrl_status(&self) -> CtrlStatus {
        self.on_hub(|soc| soc.ctrl_status())
    }

    fn gmem_read(&self, base: usize, len: usize) -> Vec<u64> {
        self.on_hub(move |soc| soc.gmem_read(base, len))
    }

    /// Summed across shards — identical to [`Soc::fault_stats`].
    fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError> {
        let pat = pat.to_string();
        let mut total = FaultStats::default();
        for s in self.on_all(move |soc| soc.fault_stats(&pat)) {
            merge_fault_stats(&mut total, &s?);
        }
        Ok(total)
    }

    /// Merged telemetry snapshot across every worker's sink, `None`
    /// unless built with telemetry. Rows with the same path (the two
    /// halves of a split channel) sum their values; span events and
    /// profiles concatenate; the cycle stamp is the hub shard's. The
    /// facade then appends its own epoch probes per shard `i`:
    /// `sim.shard.<i>.ticks` (fired instants),
    /// `sim.shard.<i>.mailbox_tokens` and
    /// `sim.shard.<i>.barrier_wait_ns`.
    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.has_telemetry {
            return None;
        }
        let mut snaps = self.on_all(|soc| soc.telemetry_snapshot());
        let mut base = snaps[self.hub_worker].take()?;
        for snap in snaps.into_iter().flatten() {
            for row in snap.metrics {
                match base.metrics.iter_mut().find(|m| m.path == row.path) {
                    Some(m) => {
                        m.value += row.value;
                        m.p50 = m.p50.max(row.p50);
                        m.p99 = m.p99.max(row.p99);
                    }
                    None => base.metrics.push(row),
                }
            }
            base.spans.extend(snap.spans);
            base.spans_recorded += snap.spans_recorded;
            base.spans_dropped += snap.spans_dropped;
            base.profile.extend(snap.profile);
        }
        let mut facade_row = |path: String, kind: MetricKind, value: u64| {
            base.metrics.push(MetricRow {
                path,
                kind,
                value,
                p50: None,
                p99: None,
            });
        };
        for (i, st) in self.shard_stats.iter().enumerate() {
            for (field, value) in [
                ("ticks", st.fired_instants),
                ("mailbox_tokens", st.drained_tokens),
                ("barrier_wait_ns", st.barrier_wait_ns),
            ] {
                facade_row(format!("sim.shard.{i}.{field}"), MetricKind::Counter, value);
            }
            // Per-instant wait distribution: imbalance per phase, not
            // just in aggregate (the flat sum above stays for
            // compatibility).
            for (field, value) in [
                ("barrier_wait.p50_ns", st.barrier_hist.quantile_ns(0.50)),
                ("barrier_wait.p95_ns", st.barrier_hist.quantile_ns(0.95)),
                ("barrier_wait.max_ns", st.barrier_hist.max_ns()),
            ] {
                facade_row(format!("sim.shard.{i}.{field}"), MetricKind::Probe, value);
            }
        }
        facade_row(
            "sim.repartitions".to_string(),
            MetricKind::Counter,
            self.repartitions,
        );
        // The checkpoint odometers live on the facade (workers never
        // capture); fold them into the zero-valued probe rows the hub
        // worker publishes, so the merged snapshot matches the
        // sequential layout.
        for (path, value) in self.core.ckpt.rows() {
            let row = base.metrics.iter_mut().find(|m| m.path == path);
            row.expect("the hub shard publishes sim.ckpt.*").value += value;
        }
        base.metrics.sort_by(|a, b| a.path.cmp(&b.path));
        Some(base)
    }

    /// The auto-repartition step: re-cost from the merged report,
    /// search at the same shard count, rebuild only on strict
    /// modeled-makespan improvement. Replay of a snapshot we just
    /// captured cannot diverge unless determinism itself is broken, so
    /// a failure here is a bug, not an input error.
    fn at_boundary(&mut self) {
        if !self.auto_repartition {
            return;
        }
        let costs = NodeCosts::from_report(&self.report());
        let pen = costs.default_cut_penalty();
        let cand = partition_search(&costs, self.threads(), pen);
        if costs.makespan(&cand, pen) < costs.makespan(&self.spec, pen) {
            self.repartition(cand)
                .expect("auto repartition replay diverged");
        }
    }
}

impl Drop for ParallelSoc {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.cmd);
            let _ = w.join.join();
        }
    }
}

/// One worker thread: builds its shard of the SoC, then serves
/// commands until the facade hangs up.
fn worker_main(
    spec: ShardSpec,
    sync: &EpochSync,
    recipe: Arc<Recipe>,
    telemetry: bool,
    cmds: &mpsc::Receiver<Cmd>,
    ran: &mpsc::Sender<Box<RunOut>>,
) {
    let (shard, is_hub) = (spec.shard, spec.owner[HUB_NODE as usize] == spec.shard);
    let sink = telemetry.then(Telemetry::new);
    let mut soc = Soc::from_recipe(recipe, sink, Some(&spec));
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Run {
                max_cycles,
                watchdog,
                init_idle,
                carried,
            } => {
                let out = run_one(
                    &mut soc, sync, shard, is_hub, max_cycles, watchdog, init_idle, carried,
                );
                if ran.send(Box::new(out)).is_err() {
                    break;
                }
            }
            Cmd::Call(f) => f(&mut soc),
        }
    }
}

/// Drives one epoch-synchronized run on this worker's kernel. The hub
/// shard is the decider: its closure replays the sequential
/// `run_until_checked` decision order — watchdog, then the halt
/// predicate, then the cycle budget — at each instant boundary.
///
/// Seam contract (segmented sessions): the epoch loop hands the
/// decider a hardwired `progressed = true` twice — at the startup
/// boundary and at the first in-loop boundary, whose previous-instant
/// bank does not exist within this run. An uninterrupted run really
/// has no information at those points, but a *resumed* segment does:
/// the startup boundary re-decides the seam boundary the previous
/// segment already accounted (so the watchdog update is skipped, with
/// `idle` seeded from `init_idle`), and the first in-loop boundary's
/// missing bank bit is exactly the previous segment's final-instant
/// bit, passed in as `carried`. With both carried across, a segmented
/// watchdog trips on the same cycle as an unsegmented one.
#[allow(clippy::too_many_arguments)]
fn run_one(
    soc: &mut Soc,
    sync: &EpochSync,
    shard: usize,
    is_hub: bool,
    max_cycles: u64,
    watchdog: Option<u64>,
    init_idle: u64,
    carried: Option<bool>,
) -> RunOut {
    if watchdog.is_some() {
        soc.arm_progress_taps();
    }
    let hub_clock = soc.hub_clock();
    let owned: Vec<ClockId> = soc.owned_clocks().to_vec();
    let worker = EpochWorker {
        sync,
        index: shard,
        owned_clocks: &owned,
        decider: is_hub,
    };
    let ctrl = soc.ctrl_handle();
    let start = soc.sim().cycles(hub_clock);
    let limit = start + max_cycles;
    let mut idle: u64 = init_idle;
    let mut last_cycle = start;
    let mut boundary: u64 = 0;
    let mut decide = |sim: &mut Simulator, progressed: bool| -> Option<EpochVerdict> {
        let cycle = sim.cycles(hub_clock);
        let nb = boundary;
        boundary += 1;
        if let Some(np) = watchdog {
            let progressed = match nb {
                0 => None,
                1 => Some(carried.unwrap_or(progressed)),
                _ => Some(progressed),
            };
            if let Some(p) = progressed {
                if p {
                    idle = 0;
                } else {
                    idle += cycle - last_cycle;
                }
                if idle >= np {
                    publish_hang_idle(sync, idle);
                    return Some(EpochVerdict::Hang);
                }
            }
        }
        last_cycle = cycle;
        if ctrl.borrow().halted {
            return Some(EpochVerdict::Predicate);
        }
        if cycle >= limit {
            return Some(EpochVerdict::MaxCycles);
        }
        None
    };
    let out = soc.run_epochs(&worker, &mut decide);
    // The final instant's aggregated bit was never consumed by the
    // decide lag; every worker computes it (all bank writes are
    // barrier-ordered before the loop exits), the facade uses the
    // hub's.
    let last_progress = sync.aggregate_progress(out.instants);
    RunOut {
        cycles: soc.sim().cycles(hub_clock) - start,
        abs_cycles: soc.sim().cycles(hub_clock),
        now: soc.sim().now(),
        verdict: out.verdict,
        instants: out.instants,
        fired_instants: out.fired_instants,
        barrier_wait_ns: out.barrier_wait_ns,
        barrier_hist: out.barrier_hist,
        drained_tokens: out.drained_tokens,
        fatal: out.fatal,
        hang: out.hang,
        idle,
        last_progress,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    #[test]
    fn segmented_checkpoint_run_matches_unsegmented() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        let mut base = ParallelSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, 2);
        let base_res = base.run_checked(2_000_000, 100_000).expect("clean run");
        assert!(base_res.completed);

        let cfg = SocConfig::builder()
            .checkpoint_every(Some(250))
            .build()
            .expect("valid config");
        let mut seg = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, 2);
        let seg_res = seg.run_checked(2_000_000, 100_000).expect("clean run");
        assert_eq!(
            seg_res.cycles, base_res.cycles,
            "segmentation changed cycles"
        );
        assert_eq!(seg_res.ctrl, base_res.ctrl);
        assert_eq!(
            seg.report(),
            base.report(),
            "segmentation changed the report"
        );
        let snap = seg.last_checkpoint().expect("auto checkpoint taken");
        assert!(
            snap.instants.is_none(),
            "parallel capture is cycle-targeted"
        );
        assert!(
            snap.session.is_some(),
            "mid-run capture carries the session"
        );

        // Restore the mid-run snapshot and resume: the blended result
        // must equal the uninterrupted run's.
        let mut back = ParallelSoc::restore(snap, 2).expect("restores");
        assert!(back.session_open());
        let back_res = back.run_to_end().expect("clean resume");
        assert!(back_res.completed);
        assert_eq!(
            back_res.cycles, base_res.cycles,
            "resume changed total cycles"
        );
        assert_eq!(back_res.ctrl, base_res.ctrl);
        assert_eq!(back.report(), base.report(), "restored report diverged");
        for (gbase, expect) in &wl.expected {
            assert_eq!(&back.gmem_read(*gbase, expect.len()), expect);
        }
    }

    #[test]
    fn parallel_restore_replays_fault_log() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::default();

        let mut soc = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, 2);
        soc.begin(2_000_000, 100_000);
        soc.inject_fault("l11p3->15", FaultConfig::bit_flip(0.01), 7)
            .expect("pattern matches");
        let snap = {
            // Advance a partial segment by bounding the budget through
            // checkpoint_every-free manual segmentation: run a short
            // checked slice via a temporary session budget.
            let res = soc.run_to_end().expect("clean run");
            assert!(res.completed);
            soc.checkpoint()
        };
        let stats = soc.fault_stats("l11p3->15").expect("stats");
        assert!(stats.tokens > 0, "fault injector saw traffic");

        let back = ParallelSoc::restore(&snap, 2).expect("restores");
        assert_eq!(
            back.fault_stats("l11p3->15").expect("stats"),
            stats,
            "replayed fault stream diverged"
        );
        assert_eq!(back.report(), soc.report());
    }

    #[test]
    fn two_shards_match_sequential_vec_mul() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::default();

        let mut seq = Soc::build(cfg, &program, &table, &wl.gmem_init);
        let seq_res = seq.run(2_000_000);
        assert!(seq_res.completed);

        let mut par = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, 2);
        let par_res = par.run(2_000_000);
        assert!(par_res.completed, "parallel run did not complete");
        assert_eq!(par_res.cycles, seq_res.cycles, "cycle count diverged");
        assert_eq!(par_res.ctrl, seq_res.ctrl);
        for (base, expect) in &wl.expected {
            assert_eq!(&par.gmem_read(*base, expect.len()), expect);
        }
        assert_eq!(par.report(), seq.report(), "SocReport diverged");
    }
}
