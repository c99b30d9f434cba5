//! Top-level prototype-SoC assembly (Fig. 5): 15 PEs and a hub on a
//! 4x4 wormhole-routed mesh, a RISC-V controller on a MatchLib AXI
//! bus (staging memory + hub slave), and either fully synchronous or
//! fine-grained GALS clocking with pausible bisynchronous FIFOs on
//! every router-to-router link.

use crate::batch::Lanes;
use crate::checkpoint::{FaultEvent, Recipe, SessionState};
use crate::controller::{Controller, CtrlHandle, CtrlStatus};
use crate::engine::{Capture, CkptOdometers};
use crate::hub::{Hub, HubAxiSlave, HubHandle, HubState, CTRL_PAGE};
use crate::msg::{HUB_NODE, MESH_WIDTH, N_NODES};
use crate::pe::{Fidelity, PeConfig, ProcessingElement};
use crate::rtlplan::{PlanCache, PlanCacheHandle, PlanStats, SignalPlan};
use craft_connections::{channel, ChannelHandle, ChannelKind, FaultStats, In, Out};
use craft_gals::pausible_fifo;
use craft_matchlib::axi::{
    axi_link, AddrRange, AxiBus, AxiMaster, AxiMasterHandle, AxiMemorySlave,
};
use craft_matchlib::router::{port, xy_route, NocFlit, SfRouter, WhvcConfig, WhvcRouter};
use craft_riscv::FlatMemory;
use craft_sim::{
    ActivityToken, ClockId, ClockSpec, Picoseconds, Simulator, Telemetry, TelemetrySnapshot,
};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// AXI word-address base of the staging memory slave.
pub const STAGING_AXI_BASE: u64 = 0;
/// AXI word-address base of the hub slave (gmem + control page).
pub const HUB_AXI_BASE: u64 = 0x0020_0000;

/// Words of controller RAM, where the program image loads at 0 — the
/// one size the build allocates and a snapshot's recipe is checked
/// against.
pub(crate) const CTRL_RAM_WORDS: usize = 1 << 18;

/// CPU byte address of the staging memory window.
pub const STAGING_CPU_BASE: u32 = crate::controller::AXI_WINDOW_BASE;
/// CPU byte address of global memory through the hub slave.
pub const GMEM_CPU_BASE: u32 = crate::controller::AXI_WINDOW_BASE + (HUB_AXI_BASE as u32) * 4;
/// CPU byte address of the hub control page.
pub const CTRL_CPU_BASE: u32 = GMEM_CPU_BASE + (CTRL_PAGE as u32) * 4;

/// NoC router microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Wormhole with virtual channels (the paper's WHVCRouter).
    Wormhole,
    /// Store-and-forward baseline (whole packet buffered per hop).
    StoreForward,
}

/// Clocking scheme for the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockingMode {
    /// One global clock; router links are plain buffered channels.
    Synchronous,
    /// Fine-grained GALS: each mesh node owns a local clock domain
    /// (periods spread by up to `spread_ppm` parts-per-million around
    /// nominal) and every router-to-router link crosses domains
    /// through a pausible bisynchronous FIFO.
    Gals {
        /// Maximum deviation from the nominal period, in ppm.
        spread_ppm: u32,
    },
    /// GALS with supply-noise-adaptive local clock generators on every
    /// PE node (paper §3.1 cite \[7\]): each node's ring oscillator
    /// stretches its period as its local supply droops. Timing varies
    /// cycle to cycle; function is preserved by the LI design.
    GalsAdaptive {
        /// Supply-noise seed (deterministic per seed).
        noise_seed: u64,
    },
}

/// SoC build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    /// Datapath/simulation fidelity (the Fig. 6 axis).
    pub fidelity: Fidelity,
    /// Clocking scheme.
    pub clocking: ClockingMode,
    /// Nominal clock period.
    pub period: Picoseconds,
    /// PE vector lanes.
    pub lanes: usize,
    /// Global memory words (must fit the 12-bit command fields).
    pub gmem_words: usize,
    /// Staging (controller table) memory words.
    pub staging_words: usize,
    /// Router link channel depth.
    pub link_depth: usize,
    /// NoC router microarchitecture.
    pub router: RouterKind,
    /// Quiescence gating: skip idle PEs/routers/hub and elide no-op
    /// channel commits, at every fidelity (an RTL PE or hub never
    /// sleeps, its routers and clean channels do). Results and cycle
    /// counts are bit-identical either way (the differential oracle's
    /// gated model, `crates/soc/tests/oracle/gating.rs`); wall clock
    /// and the kernel's ticks-delivered accounting change, and so do
    /// two known observables (ROADMAP item 4): a hang may trip later
    /// gated, since a sleeper's wake-up counts as watchdog progress,
    /// and an idle gated hub does not poll its empty eject channel, so
    /// `noc.pop_empty` reads lower.
    pub gating: bool,
    /// Hub-side PE failure detection: cycles a dispatched command may
    /// stay unacknowledged before its PE is declared failed and the
    /// command is remapped to a healthy PE (graceful degradation).
    /// `None` (the default) disables detection; set it well above the
    /// worst-case command latency to avoid false positives.
    pub pe_timeout: Option<u64>,
    /// Vestige: selects nothing. The kernel has one dispatch loop
    /// (`craft_sim`'s kernel docs), so both values build and run the
    /// same SoC. The field and its snapshot byte stay only because
    /// `benchmark/` names them (ROADMAP item 1c).
    pub compiled_schedule: bool,
    /// Periodic auto-checkpoint interval for supervised runs, in hub
    /// cycles: `Some(k)` makes a supervised run on any engine
    /// ([`Soc::run_checked`]) capture a [`crate::SimSnapshot`]
    /// every `k` cycles — the boundaries a scheduler may preempt at —
    /// retrievable via [`Soc::last_checkpoint_bytes`]. Captures are
    /// observation-only — results, cycle counts, reports and the
    /// watchdog's trip point are bit-identical with or without them
    /// (the segmented-run equivalence the differential oracle's restored
    /// cases pin, `crates/soc/tests/oracle/restore.rs`).
    /// `None` (the default) disables auto-capture.
    pub checkpoint_every: Option<u64>,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            fidelity: Fidelity::SimAccurate,
            clocking: ClockingMode::Synchronous,
            period: Picoseconds::new(909), // 1.1 GHz signoff clock
            lanes: 4,
            gmem_words: 4096,
            staging_words: 4096,
            link_depth: 4,
            router: RouterKind::Wormhole,
            gating: true,
            pe_timeout: None,
            compiled_schedule: false,
            checkpoint_every: None,
        }
    }
}

/// Why a [`SocConfig`] failed validation (see [`SocConfig::builder`]).
///
/// Every variant names the offending field and, where meaningful, the
/// limit — these render as actionable messages instead of the free-text
/// asserts the build path used before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `gmem_words` exceeds the 12-bit `PeCommand` address fields.
    GmemTooLarge {
        /// Requested global-memory size in words.
        words: usize,
        /// Largest size the command encoding can address.
        max: usize,
    },
    /// Zero vector lanes: the datapath could never retire a work unit.
    ZeroLanes,
    /// Zero-depth router links cannot carry flits.
    ZeroLinkDepth,
    /// A zero clock period is not schedulable.
    ZeroPeriod,
    /// A zero auto-checkpoint interval would capture every cycle
    /// forever; use `None` to disable auto-capture instead.
    ZeroCheckpointInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::GmemTooLarge { words, max } => write!(
                f,
                "gmem_words = {words} exceeds the {max}-word 12-bit PeCommand address space"
            ),
            ConfigError::ZeroLanes => write!(f, "lanes must be at least 1"),
            ConfigError::ZeroLinkDepth => write!(f, "link_depth must be at least 1"),
            ConfigError::ZeroPeriod => write!(f, "period must be non-zero"),
            ConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint_every must be at least 1 cycle (or None)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl SocConfig {
    /// Starts a chained builder seeded with [`SocConfig::default`].
    /// Unlike struct-literal construction, [`SocConfigBuilder::build`]
    /// validates and returns a typed [`ConfigError`] instead of letting
    /// a bad value panic deep inside [`Soc::build`].
    pub fn builder() -> SocConfigBuilder {
        SocConfigBuilder {
            cfg: SocConfig::default(),
        }
    }

    /// Checks this configuration against the invariants [`Soc::build`]
    /// relies on. Builder-produced configs are always valid; literal
    /// ones can use this before committing to a build.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gmem_words > 4096 {
            return Err(ConfigError::GmemTooLarge {
                words: self.gmem_words,
                max: 4096,
            });
        }
        if self.lanes == 0 {
            return Err(ConfigError::ZeroLanes);
        }
        if self.link_depth == 0 {
            return Err(ConfigError::ZeroLinkDepth);
        }
        if self.period.as_ps() == 0 {
            return Err(ConfigError::ZeroPeriod);
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        Ok(())
    }
}

/// Chained builder for [`SocConfig`] with validated construction.
///
/// ```
/// use craft_soc::soc::SocConfig;
/// let cfg = SocConfig::builder().lanes(8).gmem_words(2048).build().unwrap();
/// assert_eq!(cfg.lanes, 8);
/// assert!(SocConfig::builder().lanes(0).build().is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SocConfigBuilder {
    cfg: SocConfig,
}

impl SocConfigBuilder {
    /// Sets the datapath/simulation fidelity.
    pub fn fidelity(mut self, v: Fidelity) -> Self {
        self.cfg.fidelity = v;
        self
    }

    /// Sets the clocking scheme.
    pub fn clocking(mut self, v: ClockingMode) -> Self {
        self.cfg.clocking = v;
        self
    }

    /// Sets the nominal clock period.
    pub fn period(mut self, v: Picoseconds) -> Self {
        self.cfg.period = v;
        self
    }

    /// Sets the PE vector lane count.
    pub fn lanes(mut self, v: usize) -> Self {
        self.cfg.lanes = v;
        self
    }

    /// Sets the global-memory size in words.
    pub fn gmem_words(mut self, v: usize) -> Self {
        self.cfg.gmem_words = v;
        self
    }

    /// Sets the staging (controller table) memory size in words.
    pub fn staging_words(mut self, v: usize) -> Self {
        self.cfg.staging_words = v;
        self
    }

    /// Sets the router link channel depth.
    pub fn link_depth(mut self, v: usize) -> Self {
        self.cfg.link_depth = v;
        self
    }

    /// Sets the NoC router microarchitecture.
    pub fn router(mut self, v: RouterKind) -> Self {
        self.cfg.router = v;
        self
    }

    /// Enables or disables quiescence gating.
    pub fn gating(mut self, v: bool) -> Self {
        self.cfg.gating = v;
        self
    }

    /// Arms hub-side PE failure detection with the given timeout.
    pub fn pe_timeout(mut self, v: Option<u64>) -> Self {
        self.cfg.pe_timeout = v;
        self
    }

    /// Sets the periodic auto-checkpoint interval for supervised runs.
    pub fn checkpoint_every(mut self, v: Option<u64>) -> Self {
        self.cfg.checkpoint_every = v;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SocConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A fault-injection pattern that matched no NoC channel — almost
/// always a typo in the channel name, which the old `usize` return let
/// campaigns silently ignore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPatternError {
    /// No NoC channel name contains the pattern.
    NoMatch {
        /// The pattern as given.
        pattern: String,
    },
}

impl fmt::Display for FaultPatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPatternError::NoMatch { pattern } => {
                write!(f, "fault pattern {pattern:?} matched no NoC channel")
            }
        }
    }
}

impl std::error::Error for FaultPatternError {}

/// Derives the per-channel fault-injector seed from a campaign seed
/// and the channel's registry index. One definition shared by
/// [`Soc::inject_fault`] and the batched lockstep backend's shadow
/// banks ([`crate::batch`]) — the two decision streams must be
/// bit-identical for lane convergence to mean anything.
pub(crate) fn lane_fault_seed(seed: u64, registry_index: usize) -> u64 {
    seed ^ (registry_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Result of one SoC run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles elapsed on the hub clock until the controller halted.
    pub cycles: u64,
    /// Wall-clock simulation time.
    pub wall: Duration,
    /// Controller status snapshot.
    pub ctrl: CtrlStatus,
    /// Whether the controller actually halted (false = timeout).
    pub completed: bool,
}

/// Hub-side view of one run: command flow and memory/NoC traffic as
/// the hub observed them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubReport {
    /// Commands dispatched to PEs (the old `hub_counters().0`).
    pub dispatched: u64,
    /// Commands acknowledged as done (the old `hub_counters().1`).
    pub retired: u64,
    /// Commands remapped away from failed PEs (graceful degradation).
    pub remapped: u64,
    /// PE nodes declared failed by the timeout detector.
    pub failed_pes: Vec<u16>,
    /// Global-memory read/write operations served.
    pub gmem_ops: u64,
    /// NoC flits that crossed the hub's local port.
    pub noc_flits: u64,
    /// Memory-service jobs completed (the latency histogram's total).
    pub jobs: u64,
    /// Median service latency upper bound, in hub cycles.
    pub latency_p50: u64,
    /// 99th-percentile service latency upper bound, in hub cycles.
    pub latency_p99: u64,
}

/// Per-PE execution statistics, tagged with the mesh node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeReport {
    /// Mesh node index of this PE.
    pub node: u16,
    /// Commands completed.
    pub commands: u64,
    /// Cycles spent not idle.
    pub busy_cycles: u64,
    /// Datapath work units executed.
    pub work_units: u64,
    /// Gate equivalents charged to the RTL cost ledger.
    pub gates_charged: u64,
}

/// NoC transport statistics aggregated over every flit channel (mesh
/// links, GALS crossings and endpoint ports; stubs excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocReport {
    /// Flit channels in the registry.
    pub channels: usize,
    /// Successful flit transfers (counted at pop).
    pub transfers: u64,
    /// Failed pushes (producer saw backpressure).
    pub backpressure: u64,
    /// Failed pops (consumer found the channel empty or stalled).
    pub pop_empty: u64,
    /// Cycles spent under an injected stall.
    pub stall_cycles: u64,
}

/// Fault-injection summary across the NoC channel registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Channels with an injector armed.
    pub armed_channels: usize,
    /// Aggregated injector counters over all armed channels.
    pub stats: FaultStats,
}

/// Typed report of everything observable about a SoC run — the one
/// structured answer that replaced the old grab-bag of tuple-returning
/// accessors (`hub_counters()`, `degradation()`, ... — removed; see
/// [`Soc::report`] for the compile-fail pins).
///
/// The shapes are plain nested data (serde-ready); [`SocReport::to_json`]
/// renders them without a serde dependency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocReport {
    /// Hub command flow and traffic counters.
    pub hub: HubReport,
    /// Per-PE execution statistics, one entry per PE node.
    pub pes: Vec<PeReport>,
    /// Aggregated NoC channel statistics.
    pub noc: NocReport,
    /// Fault-injection summary (zeroed when no injector is armed).
    pub faults: FaultReport,
    /// Compile-plan lowering statistics ([`Fidelity::RtlCompiled`] only).
    pub plan: Option<PlanStats>,
    /// Total gate equivalents charged across PEs, hub and routers.
    pub charged_gates: u64,
    /// Total PE datapath work units executed.
    pub total_work_units: u64,
}

impl SocReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        let h = &self.hub;
        let _ = writeln!(
            s,
            "  \"hub\": {{\"dispatched\": {}, \"retired\": {}, \"remapped\": {}, \
             \"failed_pes\": [{}], \"gmem_ops\": {}, \"noc_flits\": {}, \"jobs\": {}, \
             \"latency_p50\": {}, \"latency_p99\": {}}},",
            h.dispatched,
            h.retired,
            h.remapped,
            h.failed_pes
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            h.gmem_ops,
            h.noc_flits,
            h.jobs,
            h.latency_p50,
            h.latency_p99
        );
        s.push_str("  \"pes\": [\n");
        for (i, p) in self.pes.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"node\": {}, \"commands\": {}, \"busy_cycles\": {}, \
                 \"work_units\": {}, \"gates_charged\": {}}}{}",
                p.node,
                p.commands,
                p.busy_cycles,
                p.work_units,
                p.gates_charged,
                if i + 1 == self.pes.len() { "" } else { "," }
            );
        }
        s.push_str("  ],\n");
        let n = &self.noc;
        let _ = writeln!(
            s,
            "  \"noc\": {{\"channels\": {}, \"transfers\": {}, \"backpressure\": {}, \
             \"pop_empty\": {}, \"stall_cycles\": {}}},",
            n.channels, n.transfers, n.backpressure, n.pop_empty, n.stall_cycles
        );
        let f = &self.faults;
        let _ = writeln!(
            s,
            "  \"faults\": {{\"armed_channels\": {}, \"tokens\": {}, \"flips\": {}, \
             \"drops\": {}, \"dups\": {}}},",
            f.armed_channels, f.stats.tokens, f.stats.flips, f.stats.drops, f.stats.dups
        );
        match &self.plan {
            Some(p) => {
                let _ = writeln!(
                    s,
                    "  \"plan\": {{\"ops_lowered\": {}, \"cache_hits\": {}, \
                     \"word_steps\": {}, \"max_levels\": {}, \"signal_plans\": {}, \
                     \"signal_word_ops\": {}}},",
                    p.ops_lowered,
                    p.cache_hits,
                    p.word_steps,
                    p.max_levels,
                    p.signal_plans,
                    p.signal_word_ops
                );
            }
            None => s.push_str("  \"plan\": null,\n"),
        }
        let _ = write!(
            s,
            "  \"charged_gates\": {},\n  \"total_work_units\": {}\n}}\n",
            self.charged_gates, self.total_work_units
        );
        s
    }
}

/// RTL-mode per-router signal-evaluation load (no architectural
/// effect; wall-clock fidelity only). In compiled RTL mode the per
/// cycle walk runs through a [`SignalPlan`] instead of the interpreted
/// [`crate::bitrtl::RtlCost::step`]; either way the same gate count is
/// charged to the ledger, mirrored out through `charged` so the SoC
/// can audit the totals after the run.
struct RouterActivity {
    name: String,
    cost: crate::bitrtl::RtlCost,
    gates: u64,
    plan: Option<SignalPlan>,
    charged: Rc<Cell<u64>>,
}

impl craft_sim::Component for RouterActivity {
    fn name(&self) -> &str {
        &self.name
    }
    fn tick(&mut self, _ctx: &mut craft_sim::TickCtx<'_>) {
        match &mut self.plan {
            Some(plan) => plan.burn(&mut self.cost),
            None => self.cost.step(self.gates),
        }
        self.charged.set(self.cost.charged());
    }
}

/// A built prototype SoC ready to run.
///
/// It is also the one engine: the supervised-run driver
/// ([`crate::engine`]) works on its run state below, and a batch is a
/// `Soc` carrying a lane table ([`crate::batch`]).
pub struct Soc {
    pub(crate) sim: Simulator,
    pub(crate) hub_clock: ClockId,
    hub: HubHandle,
    pub(crate) ctrl: CtrlHandle,
    pe_stats: Vec<(u16, Rc<RefCell<crate::pe::PeStats>>)>,
    coverage: craft_sim::cover::Coverage,
    plan_cache: Option<PlanCacheHandle>,
    router_charged: Vec<Rc<Cell<u64>>>,
    /// The NoC channel registry (name, handle), in registration order —
    /// the index is the per-channel fault-seed salt, and a batch walks
    /// it to attach shadow fault-lane banks.
    pub(crate) noc_channels: Vec<(String, ChannelHandle<NocFlit>)>,
    telemetry: Option<Telemetry>,
    /// The shared build inputs, which every restore and lane replay of
    /// this run builds from too.
    pub(crate) recipe: Arc<Recipe>,
    /// Every fault injected so far, in order — the replay log.
    pub(crate) faults: Vec<FaultEvent>,
    /// The open supervised session, if any.
    pub(crate) session: Option<SessionState>,
    /// The last segment boundary's capture.
    pub(crate) last: Option<Capture>,
    pub(crate) ckpt: CkptOdometers,
    /// A batch's lane table; `None` for the sequential engine.
    pub(crate) lanes: Option<Box<Lanes>>,
}

impl Soc {
    /// Builds the SoC, loading `program` into controller RAM at 0,
    /// `staging_init` into the staging memory and `gmem_init` regions
    /// into global memory.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SocConfig::validate`] or any init region
    /// is out of range. Use [`SocConfig::builder`] to catch bad configs
    /// as typed errors instead.
    pub fn build(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
    ) -> Soc {
        Self::build_with_telemetry(cfg, program, staging_init, gmem_init, None)
    }

    /// Like [`Soc::build`], but publishes every observable into `tel`
    /// when one is given: hub and plan-cache counters and per-PE stats
    /// as lazily polled probes (`soc.hub.*`, `soc.plan.*`,
    /// `soc.pe<n>.*`), every NoC channel's statistics under
    /// `noc.<channel>`, and command-lifetime spans from the hub
    /// (`cmd.pe<n>`: dispatch → retire/timeout, with a `remapped`
    /// point) and the PEs (`pe<n>.exec`: accept → compute → done). When
    /// the sink has profiling enabled ([`Telemetry::set_profiling`])
    /// the kernel's per-component tick-time profiler is armed too.
    ///
    /// Telemetry is observation-only: results, cycle counts and charged
    /// gates are bit-identical with and without a sink (the differential
    /// oracle's telemetry model, `crates/soc/tests/oracle.rs`), and probes are evaluated only at snapshot
    /// time, so an attached-but-unread sink costs nothing per cycle.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SocConfig::validate`] or any init region
    /// is out of range.
    pub fn build_with_telemetry(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        telemetry: Option<Telemetry>,
    ) -> Soc {
        let recipe = Recipe::new(cfg, program, staging_init, gmem_init);
        Self::from_recipe(recipe, telemetry)
    }

    /// Builds from a shared [`Recipe`] — what every engine, lane replay
    /// and restore builds from.
    ///
    /// # Panics
    /// Panics if the recipe's config fails [`SocConfig::validate`] or
    /// any init region is out of range.
    pub(crate) fn from_recipe(recipe: Arc<Recipe>, telemetry: Option<Telemetry>) -> Soc {
        let Recipe {
            cfg,
            program,
            staging: staging_init,
            gmem_init,
        } = &*recipe;
        let cfg = *cfg;
        if let Err(e) = cfg.validate() {
            panic!("invalid SocConfig: {e}");
        }
        let mut sim = Simulator::new();
        // Gating means the same at every fidelity. An RTL PE or hub
        // re-evaluates (and charges) every gate each cycle, so each
        // answers `Sleep::No` from its own `can_sleep`; routers, the
        // controller, the AXI plane and clean channels still sleep
        // (`crates/soc/tests/oracle/rtl.rs`).
        sim.set_gating(cfg.gating);

        // --- Clock domains ---
        let hub_clock = sim.add_clock(ClockSpec::new("hub", cfg.period));
        let mut node_clock: Vec<ClockId> = Vec::with_capacity(N_NODES as usize);
        for n in 0..N_NODES {
            let clk = match cfg.clocking {
                ClockingMode::Synchronous => hub_clock,
                ClockingMode::Gals { spread_ppm } => {
                    if n == HUB_NODE {
                        hub_clock
                    } else {
                        // Deterministic spread: node n deviates by
                        // ((n * 37) % (2*spread+1)) - spread ppm.
                        let spread = i64::from(spread_ppm);
                        let dev = (i64::from(n) * 37) % (2 * spread + 1) - spread;
                        let ps = cfg.period.as_ps() as i64;
                        let period = ps + ps * dev / 1_000_000;
                        sim.add_clock(ClockSpec::new(
                            format!("node{n}"),
                            Picoseconds::new(period.max(1) as u64),
                        ))
                    }
                }
                ClockingMode::GalsAdaptive { .. } => {
                    if n == HUB_NODE {
                        hub_clock
                    } else {
                        sim.add_clock(ClockSpec::new(format!("node{n}"), cfg.period))
                    }
                }
            };
            node_clock.push(clk);
        }
        // Adaptive mode: one local clock generator per PE node, each
        // tracking its own supply-noise waveform.
        if let ClockingMode::GalsAdaptive { noise_seed } = cfg.clocking {
            for n in 0..N_NODES {
                if n == HUB_NODE {
                    continue;
                }
                let noise = Rc::new(RefCell::new(craft_gals::SupplyNoise::typical(
                    noise_seed ^ u64::from(n),
                )));
                sim.add_component(
                    node_clock[n as usize],
                    craft_gals::LocalClockGenerator::new(
                        format!("clkgen{n}"),
                        node_clock[n as usize],
                        cfg.period,
                        craft_gals::ClockStyle::Adaptive { residue: 0.2 },
                        noise,
                    ),
                );
            }
        }

        // --- Mesh link channels ---
        // For each node and direction, the router's In/Out ports.
        let mut rin: Vec<Vec<Option<In<NocFlit>>>> = (0..N_NODES)
            .map(|_| (0..port::COUNT).map(|_| None).collect())
            .collect();
        let mut rout: Vec<Vec<Option<Out<NocFlit>>>> = (0..N_NODES)
            .map(|_| (0..port::COUNT).map(|_| None).collect())
            .collect();

        let kind = ChannelKind::Buffer(cfg.link_depth);
        // Registry of every NoC flit channel by name: the fault
        // campaign's injection point ([`Soc::inject_fault`]) and the
        // watchdog's progress taps ([`Soc::run_checked`]).
        let mut noc_channels: Vec<(String, ChannelHandle<NocFlit>)> = Vec::new();
        // Registers a registry channel on `clk` (gated) and records it.
        let mut register =
            |sim: &mut Simulator, clk: ClockId, name: String| -> (Out<NocFlit>, In<NocFlit>) {
                let (tx, rx, h) = channel::<NocFlit>(name.clone(), kind);
                sim.add_sequential_gated(clk, h.sequential(), h.commit_token());
                noc_channels.push((name, h));
                (tx, rx)
            };
        // Directed link from node a (port pa) to node b (port pb).
        let mut link = |sim: &mut Simulator, a: usize, pa: usize, b: usize, pb: usize| {
            let same_domain = node_clock[a] == node_clock[b];
            if same_domain {
                let (tx, rx) = register(sim, node_clock[a], format!("l{a}p{pa}->{b}"));
                rout[a][pa] = Some(tx);
                rin[b][pb] = Some(rx);
            } else {
                // GALS crossing: tx channel on a's domain, pausible
                // FIFO, rx channel on b's domain.
                let (tx, mid_rx) = register(sim, node_clock[a], format!("g{a}p{pa}.tx"));
                let (mid_tx, rx) = register(sim, node_clock[b], format!("g{a}p{pa}.rx"));
                let (ptx, prx, _state) = pausible_fifo(
                    &format!("x{a}->{b}"),
                    mid_rx,
                    mid_tx,
                    8,
                    node_clock[b],
                    Picoseconds::new(40),
                );
                sim.add_component(node_clock[a], ptx);
                sim.add_component(node_clock[b], prx);
                rout[a][pa] = Some(tx);
                rin[b][pb] = Some(rx);
            }
        };

        let w = MESH_WIDTH as usize;
        for n in 0..N_NODES as usize {
            let (x, y) = (n % w, n / w);
            if x + 1 < w {
                link(&mut sim, n, port::EAST, n + 1, port::WEST);
                link(&mut sim, n + 1, port::WEST, n, port::EAST);
            }
            if y + 1 < w {
                link(&mut sim, n, port::SOUTH, n + w, port::NORTH);
                link(&mut sim, n + w, port::NORTH, n, port::SOUTH);
            }
        }

        // Local ports: node <-> its endpoint (PE or hub).
        let mut ep_in: Vec<Option<In<NocFlit>>> = (0..N_NODES).map(|_| None).collect();
        let mut ep_out: Vec<Option<Out<NocFlit>>> = (0..N_NODES).map(|_| None).collect();
        for n in 0..N_NODES as usize {
            let (tx, rx) = register(&mut sim, node_clock[n], format!("n{n}.eject"));
            rout[n][port::LOCAL] = Some(tx);
            ep_in[n] = Some(rx);
            let (tx2, rx2) = register(&mut sim, node_clock[n], format!("n{n}.inject"));
            ep_out[n] = Some(tx2);
            rin[n][port::LOCAL] = Some(rx2);
        }

        // Fill boundary ports with stub channels so routers are square.
        // Gated stubs never see traffic, so their commits are elided
        // for the whole run and reconciled once at the end.
        for n in 0..N_NODES as usize {
            for p in 0..port::COUNT {
                if rin[n][p].is_none() {
                    let (_tx, rx, h) = channel::<NocFlit>(format!("stub_in{n}p{p}"), kind);
                    sim.add_sequential_gated(node_clock[n], h.sequential(), h.commit_token());
                    rin[n][p] = Some(rx);
                }
                if rout[n][p].is_none() {
                    let (tx, _rx, h) = channel::<NocFlit>(format!("stub_out{n}p{p}"), kind);
                    sim.add_sequential_gated(node_clock[n], h.sequential(), h.commit_token());
                    rout[n][p] = Some(tx);
                }
            }
        }

        // --- Routers ---
        // One shared plan cache when the datapaths and signal sets are
        // compiled rather than interpreted: all 15 PEs draw operator
        // plans from it and every always-on signal plan registers its
        // lowering statistics there.
        let plan_cache: Option<PlanCacheHandle> =
            (cfg.fidelity == Fidelity::RtlCompiled).then(PlanCache::handle);
        // In RTL mode every router's signal set is re-evaluated each
        // cycle, like generated RTL in a cycle-driven simulator.
        let mut router_charged: Vec<Rc<Cell<u64>>> = Vec::new();
        if cfg.fidelity.is_rtl() {
            const ROUTER_RTL_GATES: u64 = 4_000;
            for n in 0..N_NODES {
                let plan = (cfg.fidelity == Fidelity::RtlCompiled)
                    .then(|| SignalPlan::from_gate_count(ROUTER_RTL_GATES));
                if let (Some(cache), Some(p)) = (&plan_cache, &plan) {
                    cache.borrow_mut().register_signal_plan(p);
                }
                let charged = Rc::new(Cell::new(0u64));
                router_charged.push(Rc::clone(&charged));
                sim.add_component(
                    node_clock[n as usize],
                    RouterActivity {
                        name: format!("r{n}.rtl"),
                        cost: crate::bitrtl::RtlCost::new(),
                        gates: ROUTER_RTL_GATES,
                        plan,
                        charged,
                    },
                );
            }
        }
        for n in 0..N_NODES {
            let ins: Vec<In<NocFlit>> = rin[n as usize]
                .iter_mut()
                .map(|o| o.take().expect("port wired"))
                .collect();
            let outs: Vec<Out<NocFlit>> = rout[n as usize]
                .iter_mut()
                .map(|o| o.take().expect("port wired"))
                .collect();
            // Every flit entering the router, and space freeing on an
            // output it sleeps backpressured against, rouses it.
            let wake = ActivityToken::new();
            for i in &ins {
                i.set_wake_token(wake.clone());
            }
            for o in &outs {
                o.set_wake_token(wake.clone());
            }
            let id = match cfg.router {
                RouterKind::Wormhole => {
                    let router = WhvcRouter::new(
                        format!("r{n}"),
                        ins,
                        outs,
                        WhvcConfig {
                            vcs: 2,
                            buffer_depth: 4,
                        },
                        move |dst| xy_route(n, dst, MESH_WIDTH),
                    );
                    sim.add_component(node_clock[n as usize], router)
                }
                RouterKind::StoreForward => {
                    let router = SfRouter::new(format!("r{n}"), ins, outs, 4, move |dst| {
                        xy_route(n, dst, MESH_WIDTH)
                    });
                    sim.add_component(node_clock[n as usize], router)
                }
            };
            sim.set_wake_token(id, wake);
        }

        // --- PEs ---
        let coverage = craft_sim::cover::Coverage::new();
        for op in [
            "VecAdd",
            "VecMul",
            "Dot",
            "Reduce",
            "Scale",
            "Conv1d",
            "ArgMinDist",
        ] {
            coverage.declare(format!("pe.op.{op}"));
        }
        let mut pe_stats = Vec::new();
        for n in 0..N_NODES {
            if n == HUB_NODE {
                continue;
            }
            let pe_cfg = PeConfig {
                lanes: cfg.lanes,
                fidelity: cfg.fidelity,
                ..PeConfig::default()
            };
            let pe_in = ep_in[n as usize].take().expect("pe port");
            let pe_out = ep_out[n as usize].take().expect("pe port");
            let wake = ActivityToken::new();
            pe_in.set_wake_token(wake.clone());
            pe_out.set_wake_token(wake.clone());
            let mut pe = ProcessingElement::new(n, pe_in, pe_out, pe_cfg);
            pe.set_coverage(coverage.clone());
            if let Some(cache) = &plan_cache {
                pe.set_plan_cache(cache);
            }
            if let Some(tel) = &telemetry {
                pe.set_telemetry(tel.clone());
            }
            pe_stats.push((n, pe.stats_handle()));
            let id = sim.add_component(node_clock[n as usize], pe);
            sim.set_wake_token(id, wake);
        }

        // --- Hub ---
        let hub_state: HubHandle = Rc::new(RefCell::new(HubState::new(cfg.gmem_words)));
        hub_state.borrow_mut().pe_timeout = cfg.pe_timeout;
        for (base, data) in gmem_init {
            let mut st = hub_state.borrow_mut();
            for (i, &v) in data.iter().enumerate() {
                st.gmem.write(base + i, v);
            }
        }
        let ctrl: CtrlHandle = Rc::new(RefCell::new(CtrlStatus::default()));
        let hub_in = ep_in[HUB_NODE as usize].take().expect("hub port");
        let hub_out = ep_out[HUB_NODE as usize].take().expect("hub port");
        let hub_wake = ActivityToken::new();
        hub_in.set_wake_token(hub_wake.clone());
        hub_out.set_wake_token(hub_wake.clone());
        // Doorbell commits bypass the NoC channels; alias the hub's
        // wake token into the shared state so ctrl writes rouse it.
        hub_state.borrow_mut().activity = hub_wake.clone();
        let mut hub = Hub::new(
            HUB_NODE,
            hub_in,
            hub_out,
            Rc::clone(&hub_state),
            cfg.fidelity,
        );
        if let Some(tel) = &telemetry {
            hub.set_telemetry(tel.clone());
        }
        if let (Some(cache), Some(plan)) = (&plan_cache, hub.signal_plan()) {
            cache.borrow_mut().register_signal_plan(plan);
        }
        let hub_id = sim.add_component(hub_clock, hub);
        sim.set_wake_token(hub_id, hub_wake);

        // --- AXI: controller -> bus -> {staging, hub} ---
        let (m_ports, bus_up, seqs) = axi_link("ctl", 2);
        let (dn_staging, staging_slave_ports, seqs2) = axi_link("bus2stg", 2);
        let (dn_hub, hub_slave_ports, seqs3) = axi_link("bus2hub", 2);
        // Gated registration: AXI channels are idle between
        // transactions, so their commits elide whenever nothing was
        // staged.
        for (s, dirty) in seqs.into_iter().chain(seqs2).chain(seqs3) {
            sim.add_sequential_gated(hub_clock, s, dirty);
        }
        // The AXI plane sleeps between beats: each component wakes
        // on its own ports, the master also on `submit`, the
        // controller on a completed result. None of these channels
        // is a watchdog progress tap, so the controller's
        // `DONE_COUNT` poll loop keeps running without masking a
        // wedged NoC.
        let axi_handle = AxiMasterHandle::new();
        let master_wake = axi_handle.master_wake();
        m_ports.set_wake_token(&master_wake);
        let id = sim.add_component(
            hub_clock,
            AxiMaster::new("ctl.axim", m_ports, axi_handle.clone()),
        );
        sim.set_wake_token(id, master_wake);
        let bus_wake = ActivityToken::new();
        bus_up.set_wake_token(&bus_wake);
        dn_staging.set_wake_token(&bus_wake);
        dn_hub.set_wake_token(&bus_wake);
        let staging_wake = ActivityToken::new();
        staging_slave_ports.set_wake_token(&staging_wake);
        let hub_slave_wake = ActivityToken::new();
        hub_slave_ports.set_wake_token(&hub_slave_wake);
        let id = sim.add_component(
            hub_clock,
            AxiBus::new(
                "bus",
                bus_up,
                vec![
                    (
                        AddrRange {
                            base: STAGING_AXI_BASE,
                            words: cfg.staging_words as u64,
                        },
                        dn_staging,
                    ),
                    (
                        AddrRange {
                            base: HUB_AXI_BASE,
                            words: CTRL_PAGE + 16,
                        },
                        dn_hub,
                    ),
                ],
            ),
        );
        sim.set_wake_token(id, bus_wake);
        let mut staging = AxiMemorySlave::new("staging", staging_slave_ports, cfg.staging_words);
        staging.debug_load(
            0,
            &staging_init
                .iter()
                .map(|&w| u64::from(w))
                .collect::<Vec<_>>(),
        );
        let id = sim.add_component(hub_clock, staging);
        sim.set_wake_token(id, staging_wake);
        let id = sim.add_component(
            hub_clock,
            HubAxiSlave::new("hub.axis", hub_slave_ports, Rc::clone(&hub_state)),
        );
        sim.set_wake_token(id, hub_slave_wake);

        // --- Controller ---
        let mut ram = FlatMemory::new(CTRL_RAM_WORDS * 4);
        ram.load_words(0, program);
        let ctrl_wake = axi_handle.client_wake();
        let id = sim.add_component(
            hub_clock,
            Controller::new("riscv", ram, axi_handle, Rc::clone(&ctrl)),
        );
        sim.set_wake_token(id, ctrl_wake);

        // --- Telemetry publication ---
        // All registry wiring happens here, once, after assembly:
        // probes close over the same shared handles the accessors read,
        // so a snapshot any cycle agrees with `Soc::report`.
        let ckpt = CkptOdometers::default();
        if let Some(tel) = &telemetry {
            macro_rules! hub_probe {
                ($name:literal, $st:ident, $read:expr) => {{
                    let h = Rc::clone(&hub_state);
                    tel.probe(concat!("soc.hub.", $name), move || {
                        let $st = h.borrow();
                        $read
                    });
                }};
            }
            hub_probe!("dispatched", st, st.issued);
            hub_probe!("retired", st, st.done_count);
            hub_probe!("remapped", st, st.remapped);
            hub_probe!("failed_pes", st, st.failed_pes().len() as u64);
            hub_probe!("gmem_ops", st, st.gmem_ops);
            hub_probe!("noc_flits", st, st.noc_flits);
            hub_probe!("jobs", st, st.service_latency.total());
            hub_probe!(
                "latency_p99",
                st,
                st.service_latency.quantile_upper_bound(0.99)
            );
            for (n, stats) in &pe_stats {
                macro_rules! pe_probe {
                    ($name:literal, $field:ident) => {{
                        let s = Rc::clone(stats);
                        tel.probe(format!("soc.pe{n}.{}", $name), move || s.borrow().$field);
                    }};
                }
                pe_probe!("commands", commands);
                pe_probe!("busy_cycles", busy_cycles);
                pe_probe!("work_units", work_units);
                pe_probe!("gates_charged", gates_charged);
            }
            for (name, h) in &noc_channels {
                h.publish_telemetry(tel, &format!("noc.{name}"));
            }
            if let Some(cache) = &plan_cache {
                macro_rules! plan_probe {
                    ($name:literal, $field:ident) => {{
                        let c = Rc::clone(cache);
                        tel.probe(concat!("soc.plan.", $name), move || {
                            c.borrow().stats().$field
                        });
                    }};
                }
                plan_probe!("ops_lowered", ops_lowered);
                plan_probe!("cache_hits", cache_hits);
                plan_probe!("signal_plans", signal_plans);
                plan_probe!("signal_word_ops", signal_word_ops);
            }
            // Ticks elided from components asleep with work in hand
            // (blocked on their ports); exact at run boundaries.
            let blocked = sim.ticks_skipped_blocked_handle();
            tel.probe("sim.kernel.ticks_skipped_blocked", move || blocked.get());
            // Hangs a supervised run proved periodic, and the cycles it
            // advanced over instead of stepping them.
            let (loops, cycles) = sim.loop_skip_handles();
            tel.probe("sim.kernel.loop_skips", move || loops.get());
            tel.probe("sim.kernel.cycles_skipped", move || cycles.get());
            // Checkpoint counters: captures taken, last framed size,
            // last capture latency. Observation-only by construction —
            // probes are lazily polled and capture never mutates sim
            // state (pinned by the checkpoint telemetry tests).
            ckpt.publish(tel);
            sim.set_tick_profiling(tel.profiling());
        }

        Soc {
            sim,
            hub_clock,
            hub: hub_state,
            ctrl,
            pe_stats,
            coverage,
            plan_cache,
            router_charged,
            noc_channels,
            telemetry,
            recipe,
            faults: Vec::new(),
            session: None,
            last: None,
            ckpt,
            lanes: None,
        }
    }

    /// Aggregated fault-injection counters over every NoC channel
    /// whose name contains `pat` (zeroes when the matched channels have
    /// no injector armed), or [`FaultPatternError::NoMatch`] when the
    /// pattern names no channel at all.
    pub fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError> {
        let mut total = FaultStats::default();
        let mut matched = 0;
        for (name, h) in &self.noc_channels {
            if !name.contains(pat) {
                continue;
            }
            matched += 1;
            let Some(s) = h.fault_stats() else { continue };
            merge_fault_stats(&mut total, &s);
        }
        if matched == 0 {
            return Err(FaultPatternError::NoMatch {
                pattern: pat.to_string(),
            });
        }
        Ok(total)
    }

    /// Builds the typed run report: hub command flow, per-PE stats,
    /// aggregated NoC and fault counters, plan statistics and the
    /// charged-gate / work-unit totals — one structured snapshot
    /// replacing the retired tuple accessors. Cheap enough to call
    /// mid-run; every field reads the same shared state the simulation
    /// writes, so a report taken after [`Soc::run`] is final.
    ///
    /// The PR 4 tuple shims are gone — `report().hub` is the only
    /// surface for hub command flow and degradation counters:
    ///
    /// ```compile_fail
    /// # use craft_soc::{Soc, SocConfig};
    /// fn old_caller(soc: &Soc) -> (u64, u64) {
    ///     soc.hub_counters() // removed: use soc.report().hub
    /// }
    /// ```
    ///
    /// ```compile_fail
    /// # use craft_soc::Soc;
    /// fn old_degradation_caller(soc: &Soc) -> (Vec<u16>, u64) {
    ///     soc.degradation() // removed: use soc.report().hub
    /// }
    /// ```
    ///
    /// ```no_run
    /// # use craft_soc::workloads::{run_workload_soc, vec_mul};
    /// # use craft_soc::SocConfig;
    /// let (_, _, soc) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
    /// let hub = soc.report().hub;
    /// let (dispatched, retired) = (hub.dispatched, hub.retired);
    /// let (failed, remapped) = (hub.failed_pes, hub.remapped);
    /// # let _ = (dispatched, retired, failed, remapped);
    /// ```
    pub fn report(&self) -> SocReport {
        let hub = {
            let st = self.hub.borrow();
            HubReport {
                dispatched: st.issued,
                retired: st.done_count,
                remapped: st.remapped,
                failed_pes: st.failed_pes(),
                gmem_ops: st.gmem_ops,
                noc_flits: st.noc_flits,
                jobs: st.service_latency.total(),
                latency_p50: st.service_latency.quantile_upper_bound(0.50),
                latency_p99: st.service_latency.quantile_upper_bound(0.99),
            }
        };
        let pes = self
            .pe_stats
            .iter()
            .map(|(node, s)| {
                let s = s.borrow();
                PeReport {
                    node: *node,
                    commands: s.commands,
                    busy_cycles: s.busy_cycles,
                    work_units: s.work_units,
                    gates_charged: s.gates_charged,
                }
            })
            .collect();
        let mut noc = NocReport {
            channels: self.noc_channels.len(),
            ..NocReport::default()
        };
        let mut faults = FaultReport::default();
        for (_, h) in &self.noc_channels {
            let s = h.stats();
            noc.transfers += s.transfers;
            noc.backpressure += s.push_backpressure;
            noc.pop_empty += s.pop_empty;
            noc.stall_cycles += s.stall_cycles;
            if let Some(f) = h.fault_stats() {
                faults.armed_channels += 1;
                merge_fault_stats(&mut faults.stats, &f);
            }
        }
        SocReport {
            hub,
            pes,
            noc,
            faults,
            plan: self.plan_stats(),
            charged_gates: self.charged_gates(),
            total_work_units: self.total_work_units(),
        }
    }

    /// The telemetry sink this SoC publishes into, when built with one
    /// (see [`Soc::build_with_telemetry`]).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Snapshots the telemetry registry at the current hub cycle,
    /// including the kernel's per-component tick-time profile when
    /// profiling is armed. `None` when built without a sink.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|tel| {
            tel.snapshot_with_profile(self.sim.cycles(self.hub_clock), self.sim.tick_profile())
        })
    }

    /// Compile-plan lowering statistics (operator plans lowered, cache
    /// hits, signal plans compiled). `None` unless the SoC was built
    /// with [`Fidelity::RtlCompiled`].
    pub fn plan_stats(&self) -> Option<PlanStats> {
        self.plan_cache.as_ref().map(|c| c.borrow().stats())
    }

    /// Total gate equivalents charged to the RTL cost ledgers across
    /// PEs, the hub, and the per-router activity models. Zero in
    /// sim-accurate mode; bit-identical between [`Fidelity::Rtl`] and
    /// [`Fidelity::RtlCompiled`] for the same run (the compiled path's
    /// accounting contract).
    pub fn charged_gates(&self) -> u64 {
        let pes: u64 = self
            .pe_stats
            .iter()
            .map(|(_, s)| s.borrow().gates_charged)
            .sum();
        let hub = self.hub.borrow().gates_charged;
        let routers: u64 = self.router_charged.iter().map(|c| c.get()).sum();
        pes + hub + routers
    }

    /// The functional-coverage map collected during the run (PE op
    /// bins are pre-declared; see [`craft_sim::cover::Coverage`]).
    pub fn coverage(&self) -> &craft_sim::cover::Coverage {
        &self.coverage
    }

    /// The configuration this SoC was built from.
    pub fn config(&self) -> &SocConfig {
        &self.recipe.cfg
    }

    /// Read-only view of the underlying kernel, exposing scheduling
    /// and gating counters (instants, ticks delivered/skipped, commits
    /// elided) for the kernel benchmarks and the gating tests.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable kernel access for external drivers (benchmarks) that
    /// arm kernel options such as the tick profiler.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Whether the controller has executed its halt (`ecall`) — the
    /// completion condition [`Soc::run`] polls.
    pub fn halted(&self) -> bool {
        self.ctrl.borrow().halted
    }

    /// The controller's status as of now — what [`RunResult::ctrl`]
    /// carries for a run that returned, readable after one that ended
    /// in an error too.
    pub fn ctrl_status(&self) -> CtrlStatus {
        *self.ctrl.borrow()
    }

    /// The hub (reference) clock of this SoC.
    pub fn hub_clock(&self) -> ClockId {
        self.hub_clock
    }

    /// Runs until the controller halts or `max_cycles` hub cycles.
    ///
    /// # Panics
    /// Panics if a supervised session is open — finish it with
    /// [`Soc::run_to_end`] first, or its cycle accounting would
    /// silently drift.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        assert!(
            self.session.is_none(),
            "finish the open supervised session before Soc::run"
        );
        let t0 = Instant::now();
        let start = self.sim.cycles(self.hub_clock);
        let ctrl = Rc::clone(&self.ctrl);
        let completed = self
            .sim
            .run_until(self.hub_clock, max_cycles, move || ctrl.borrow().halted);
        RunResult {
            cycles: self.sim.cycles(self.hub_clock) - start,
            wall: t0.elapsed(),
            ctrl: *self.ctrl.borrow(),
            completed,
        }
    }

    /// Backdoor read of global memory (harness verification).
    pub fn gmem_read(&self, base: usize, len: usize) -> Vec<u64> {
        let st = self.hub.borrow();
        (0..len).map(|i| st.gmem.read(base + i)).collect()
    }

    /// Sum of PE work units executed (datapath utilization probe).
    pub fn total_work_units(&self) -> u64 {
        self.pe_stats
            .iter()
            .map(|(_, s)| s.borrow().work_units)
            .sum()
    }

    /// Workload energy estimate in nJ (the system-level power-analysis
    /// output of Fig. 1): PE datapath MACs + global-memory accesses +
    /// NoC flit transport (hub-observed flits x mean 3-hop XY route).
    pub fn energy_estimate_nj(&self, lib: &craft_tech::TechLibrary) -> f64 {
        let st = self.hub.borrow();
        let mac = craft_tech::mac_energy_fj(lib, 32) * self.total_work_units() as f64;
        let gmem_macro = craft_tech::SramMacro::new(4096, 64);
        let gmem = gmem_macro.access_energy_fj() * st.gmem_ops as f64;
        let noc = craft_tech::noc_hop_energy_fj(lib, 450.0) * st.noc_flits as f64 * 3.0;
        (mac + gmem + noc) / 1e6
    }
}

/// Accumulates one injector's counters into an aggregate.
pub(crate) fn merge_fault_stats(total: &mut FaultStats, s: &FaultStats) {
    total.tokens += s.tokens;
    total.flips += s.flips;
    total.drops += s.drops;
    total.dups += s.dups;
    total.dups_suppressed += s.dups_suppressed;
    total.stuck_valid_cycles += s.stuck_valid_cycles;
    total.stuck_ready_cycles += s.stuck_ready_cycles;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{orchestrator_program, run_workload, table_words, vec_mul};
    use craft_riscv::asm::{self as rv, A0, A1, T0};

    #[test]
    fn gals_mode_produces_correct_results() {
        let cfg = SocConfig {
            clocking: ClockingMode::Gals { spread_ppm: 2000 },
            ..SocConfig::default()
        };
        let (result, ok) = run_workload(cfg, &vec_mul(), 4_000_000);
        assert!(result.completed, "GALS run did not halt");
        assert!(ok, "GALS results mismatch");
    }

    #[test]
    fn gals_and_synchronous_agree_functionally() {
        let wl = crate::workloads::dot_product();
        let (sync_r, ok1) = run_workload(SocConfig::default(), &wl, 4_000_000);
        let cfg = SocConfig {
            clocking: ClockingMode::Gals { spread_ppm: 5000 },
            ..SocConfig::default()
        };
        let (gals_r, ok2) = run_workload(cfg, &wl, 4_000_000);
        assert!(ok1 && ok2);
        // GALS adds crossing latency; cycle counts differ but stay in
        // the same ballpark (latency-insensitive design guarantee).
        let ratio = gals_r.cycles as f64 / sync_r.cycles as f64;
        assert!(
            (1.0..2.0).contains(&ratio),
            "GALS/sync cycle ratio {ratio:.2} out of plausible range"
        );
    }

    #[test]
    fn controller_reads_and_writes_gmem_over_axi() {
        // Program: read gmem[7] via AXI, add 1, write to gmem[9], halt.
        let mut a = rv::Assembler::new();
        a.emit_all(rv::li(T0, GMEM_CPU_BASE as i32));
        a.emit(rv::lw(A0, T0, 7 * 4));
        a.emit(rv::addi(A1, A0, 1));
        a.emit(rv::sw(A1, T0, 9 * 4));
        a.emit(rv::ecall());
        let program = a.finish();
        let mut soc = Soc::build(SocConfig::default(), &program, &[], &[(7, vec![41])]);
        let r = soc.run(100_000);
        assert!(r.completed);
        assert_eq!(soc.gmem_read(9, 1), vec![42]);
        assert!(r.ctrl.axi_ops >= 2, "AXI must carry the traffic");
        assert!(r.ctrl.axi_stall_cycles > 0, "AXI latency must be visible");
    }

    #[test]
    fn doorbell_drives_a_single_pe() {
        use crate::msg::{PeCommand, PeOp};
        use crate::workloads::TableEntry;
        let entries = vec![
            TableEntry::Cmd {
                pe: 5,
                cmd: PeCommand {
                    op: PeOp::Scale,
                    a: 0,
                    b: 0,
                    out: 100,
                    len: 8,
                    scalar: 3,
                },
            },
            TableEntry::Barrier,
        ];
        let gmem_init = vec![(0usize, (1..=8u64).collect::<Vec<_>>())];
        let mut soc = Soc::build(
            SocConfig::default(),
            &orchestrator_program(),
            &table_words(&entries),
            &gmem_init,
        );
        let r = soc.run(1_000_000);
        assert!(r.completed);
        let expect: Vec<u64> = (1..=8).map(|v| v * 3).collect();
        assert_eq!(soc.gmem_read(100, 8), expect);
        let rep = soc.report();
        assert_eq!((rep.hub.dispatched, rep.hub.retired), (1, 1));
        assert!(rep.total_work_units >= 8);
    }

    #[test]
    fn energy_estimate_scales_with_work() {
        use crate::workloads::{conv1d, kmeans_assign, run_workload_soc};
        let lib = craft_tech::TechLibrary::n16();
        let (_, ok1, soc_small) =
            run_workload_soc(SocConfig::default(), &kmeans_assign(), 4_000_000);
        let (_, ok2, soc_big) = run_workload_soc(SocConfig::default(), &conv1d(), 4_000_000);
        assert!(ok1 && ok2);
        let e_small = soc_small.energy_estimate_nj(&lib);
        let e_big = soc_big.energy_estimate_nj(&lib);
        assert!(e_small > 0.0);
        // conv1d does 256*5 MACs vs kmeans' 128*4 distance ops, and
        // moves more data through gmem and the NoC.
        assert!(e_big > e_small, "{e_big} vs {e_small}");
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = vec_mul();
        let (a, _) = run_workload(SocConfig::default(), &wl, 4_000_000);
        let (b, _) = run_workload(SocConfig::default(), &wl, 4_000_000);
        assert_eq!(a.cycles, b.cycles, "simulation must be deterministic");
        assert_eq!(a.ctrl.instret, b.ctrl.instret);
    }
}

#[cfg(test)]
mod rtl_compiled_tests {
    use super::*;
    use crate::workloads::{run_workload_soc, vec_mul};

    /// The shared plan cache lowers each operator once for the whole
    /// SoC and registers every always-on signal plan (15 PEs + hub +
    /// 16 routers).
    #[test]
    fn plan_stats_report_shared_lowering() {
        let cfg = SocConfig {
            fidelity: Fidelity::RtlCompiled,
            ..SocConfig::default()
        };
        let (_, ok, soc) = run_workload_soc(cfg, &vec_mul(), 8_000_000);
        assert!(ok);
        let stats = soc.plan_stats().expect("compiled mode exposes stats");
        assert_eq!(stats.ops_lowered, 4, "one plan per operator");
        assert_eq!(stats.cache_hits, 14 * 4, "14 PEs hit the shared cache");
        assert_eq!(stats.signal_plans, 15 + 1 + 16, "PEs + hub + routers");
        assert!(stats.signal_word_ops > 0);
        assert!(stats.max_levels >= 2);
        // Interpreted RTL and sim-accurate modes have no plan cache.
        let (_, _, soc_rtl) = run_workload_soc(
            SocConfig {
                fidelity: Fidelity::Rtl,
                ..SocConfig::default()
            },
            &vec_mul(),
            8_000_000,
        );
        assert!(soc_rtl.plan_stats().is_none());
        assert!(soc_rtl.charged_gates() > 0);
        let (_, _, soc_sim) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
        assert_eq!(soc_sim.charged_gates(), 0);
    }
}

#[cfg(test)]
mod compiled_schedule_tests {
    //! The vestigial `compiled_schedule` field selects nothing.
    use super::*;
    use crate::workloads::vec_mul;

    /// The vestige cannot regrow a meaning: `compiled_schedule` true
    /// and false give the same kernel digest, report, telemetry and —
    /// the config byte aside — snapshot bytes.
    #[test]
    fn compiled_schedule_selects_nothing() {
        let wl = vec_mul();
        let run = |compiled_schedule: bool| {
            let cfg = SocConfig {
                compiled_schedule,
                checkpoint_every: Some(300),
                ..SocConfig::default()
            };
            let mut soc = Soc::build_with_telemetry(
                cfg,
                &crate::workloads::orchestrator_program(),
                &crate::workloads::table_words(&wl.entries),
                &wl.gmem_init,
                Some(craft_sim::Telemetry::new()),
            );
            let r = soc.run_checked(8_000_000, 100_000).expect("completes");
            assert!(r.completed);
            let bytes = soc.last_checkpoint_bytes().expect("auto checkpoint");
            let mut snapshot = crate::SimSnapshot::from_bytes(bytes).expect("parses");
            let mut recipe = (*snapshot.recipe).clone();
            recipe.cfg.compiled_schedule = false;
            snapshot.recipe = std::sync::Arc::new(recipe);
            let mut telemetry = soc.telemetry_snapshot().expect("sink attached");
            // The one wall-clock row: how long the last capture took.
            telemetry.metrics.retain(|m| m.path != "sim.ckpt.last_ns");
            (
                soc.sim().kernel_digest(),
                soc.report().to_json(),
                telemetry.to_json(),
                snapshot.to_bytes(),
            )
        };
        let (off, on) = (run(false), run(true));
        assert_eq!(off.0, on.0, "kernel digest");
        assert_eq!(off.1, on.1, "SocReport::to_json");
        assert_eq!(off.2, on.2, "telemetry JSON");
        assert_eq!(off.3, on.3, "snapshot bytes, config byte aside");
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use crate::workloads::{run_workload_soc, six_soc_tests, vec_add_scale};

    /// The six Fig. 6 tests plus the VecAdd/Scale chain cover every PE
    /// operation — the §4 "coverage holes" check for this testbench.
    #[test]
    fn workload_suite_covers_all_pe_ops() {
        let coverage = craft_sim::cover::Coverage::new();
        let mut all = six_soc_tests();
        all.push(vec_add_scale());
        for wl in all {
            let (_, ok, soc) = run_workload_soc(SocConfig::default(), &wl, 8_000_000);
            assert!(ok, "{} failed", wl.name);
            // Merge this run's hits into the campaign map.
            for hole in [
                "VecAdd",
                "VecMul",
                "Dot",
                "Reduce",
                "Scale",
                "Conv1d",
                "ArgMinDist",
            ] {
                let bin = format!("pe.op.{hole}");
                coverage.declare(bin.clone());
                for _ in 0..soc.coverage().count(&bin) {
                    coverage.hit(bin.clone());
                }
            }
        }
        assert!(
            coverage.holes().is_empty(),
            "coverage holes: {:?}\n{}",
            coverage.holes(),
            coverage.report()
        );
        assert_eq!(coverage.percent(), 100.0);
    }

    /// A single workload leaves holes — which the report identifies.
    #[test]
    fn single_workload_has_holes() {
        let (_, ok, soc) = run_workload_soc(
            SocConfig::default(),
            &crate::workloads::vec_mul(),
            8_000_000,
        );
        assert!(ok);
        let holes = soc.coverage().holes();
        assert!(holes.contains(&"pe.op.Dot".to_string()), "{holes:?}");
        assert!(!holes.contains(&"pe.op.VecMul".to_string()));
    }

    /// Hub service-latency histogram is populated and bounded.
    #[test]
    fn hub_latency_histogram_populated() {
        let (_, ok, soc) = run_workload_soc(
            SocConfig::default(),
            &crate::workloads::vec_mul(),
            8_000_000,
        );
        assert!(ok);
        let st = soc.hub.borrow();
        let total = st.service_latency.total();
        // 4 commands x (2 reads + 4 write chunks) = at least 20 jobs.
        assert!(total >= 20, "only {total} jobs recorded");
        assert_eq!(
            st.service_latency.overflow(),
            0,
            "no job should take >256 cycles"
        );
    }
}

#[cfg(test)]
mod router_kind_tests {
    use super::*;
    use crate::workloads::{run_workload, vec_mul};

    /// Both router microarchitectures compute the same results; the
    /// wormhole router is faster because it cuts through instead of
    /// buffering whole packets per hop (the DESIGN.md §5.5 ablation at
    /// system level).
    #[test]
    fn wormhole_beats_store_forward_at_system_level() {
        let wl = vec_mul();
        let (wh, ok1) = run_workload(SocConfig::default(), &wl, 8_000_000);
        let sf_cfg = SocConfig {
            router: RouterKind::StoreForward,
            ..SocConfig::default()
        };
        let (sf, ok2) = run_workload(sf_cfg, &wl, 8_000_000);
        assert!(ok1 && ok2, "both router kinds must verify");
        assert!(
            sf.cycles > wh.cycles,
            "store-and-forward must be slower: {} vs {}",
            sf.cycles,
            wh.cycles
        );
    }
}

#[cfg(test)]
mod adaptive_gals_tests {
    use super::*;
    use crate::workloads::{run_workload, vec_mul};

    /// Adaptive per-node clocks under supply noise stretch and drift,
    /// yet the LI design + pausible crossings keep results exact.
    #[test]
    fn adaptive_clocks_preserve_function() {
        for seed in [1u64, 99] {
            let cfg = SocConfig {
                clocking: ClockingMode::GalsAdaptive { noise_seed: seed },
                ..SocConfig::default()
            };
            let (r, ok) = run_workload(cfg, &vec_mul(), 8_000_000);
            assert!(r.completed && ok, "seed {seed} failed");
        }
    }

    /// Noisy adaptive clocks run slower in wall-time terms (stretched
    /// periods) than the synchronous baseline, measured on hub cycles
    /// elapsed — the run takes more hub cycles because PE domains lag.
    #[test]
    fn adaptive_run_is_deterministic_per_seed() {
        let cfg = SocConfig {
            clocking: ClockingMode::GalsAdaptive { noise_seed: 7 },
            ..SocConfig::default()
        };
        let (a, ok1) = run_workload(cfg, &vec_mul(), 8_000_000);
        let (b, ok2) = run_workload(cfg, &vec_mul(), 8_000_000);
        assert!(ok1 && ok2);
        assert_eq!(a.cycles, b.cycles, "seeded noise must be reproducible");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};
    use craft_connections::FaultConfig;
    use craft_sim::SimError;

    /// Graceful degradation end to end: a PE whose command-delivery
    /// channel is permanently stuck never acknowledges, the hub's
    /// timeout declares it failed and remaps the stranded command to a
    /// healthy PE, and the workload still completes with bit-correct
    /// results — at a measurable cycle overhead, not a hang.
    #[test]
    fn failed_pe_is_detected_and_its_work_remapped() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        let clean_cycles = {
            let mut soc = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
            let r = soc.run(8_000_000);
            assert!(r.completed);
            r.cycles
        };

        let cfg = SocConfig {
            pe_timeout: Some(20_000),
            ..SocConfig::default()
        };
        let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
        // PE 2 never receives anything: its router-to-PE ejection
        // channel has valid stuck low from cycle 0.
        assert_eq!(
            soc.inject_fault("n2.eject", FaultConfig::stuck_valid(0), 7)
                .expect("channel exists"),
            1
        );
        let r = soc
            .run_checked(8_000_000, 200_000)
            .expect("degraded run must recover, not hang");
        assert!(r.completed, "controller must still halt");
        for (base, expect) in &wl.expected {
            assert_eq!(&soc.gmem_read(*base, expect.len()), expect, "results");
        }
        let hub = soc.report().hub;
        assert_eq!(
            hub.failed_pes,
            vec![2],
            "exactly the faulted PE is declared failed"
        );
        assert!(hub.remapped >= 1, "its command must be remapped");
        // Recovery costs at least the timeout, and the overhead is
        // bounded (one timeout + one re-execution, not a meltdown).
        assert!(r.cycles > 20_000, "{} vs {clean_cycles}", r.cycles);
        assert!(
            r.cycles < clean_cycles + 25_000,
            "{} vs {clean_cycles}",
            r.cycles
        );
    }

    /// Without detection armed, total token loss on a PE's delivery
    /// channel turns the run into a diagnosed hang: the watchdog names
    /// the faulted channel and the hub's wait reason pins the exact
    /// command (issued, never done) that is stuck in flight.
    #[test]
    fn flit_loss_hangs_with_noc_level_diagnosis() {
        use crate::msg::{PeCommand, PeOp};
        use crate::workloads::TableEntry;
        let entries = vec![
            TableEntry::Cmd {
                pe: 5,
                cmd: PeCommand {
                    op: PeOp::Scale,
                    a: 0,
                    b: 0,
                    out: 100,
                    len: 8,
                    scalar: 3,
                },
            },
            TableEntry::Barrier,
        ];
        let gmem_init = vec![(0usize, (1..=8u64).collect::<Vec<_>>())];
        let mut soc = Soc::build(
            SocConfig::default(),
            &orchestrator_program(),
            &table_words(&entries),
            &gmem_init,
        );
        assert_eq!(
            soc.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
                .expect("channel exists"),
            1
        );
        let err = soc
            .run_checked(2_000_000, 50_000)
            .expect_err("total flit loss must be detected as a hang");
        let SimError::Hang { report, .. } = &err else {
            panic!("expected Hang, got {err}");
        };
        let ch = report
            .channels
            .iter()
            .find(|c| c.name == "n5.eject")
            .expect("faulted channel diagnosed");
        assert!(ch.note.contains("drop"), "note: {}", ch.note);
        let hub = report
            .components
            .iter()
            .find(|c| c.name == "hub15")
            .expect("hub diagnosed");
        let wait = hub.wait.as_deref().expect("hub explains its wait");
        assert!(wait.contains("inflight=[5]"), "wait: {wait}");
        assert!(wait.contains("done=0"), "wait: {wait}");
    }

    /// The watchdog must never fire on healthy runs: a clean workload
    /// under `run_checked` completes with the same cycle count as the
    /// unsupervised run (progress taps are observation-only).
    #[test]
    fn run_checked_is_invisible_on_healthy_runs() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut plain = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
        let r_plain = plain.run(8_000_000);
        let mut checked = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
        let r_checked = checked
            .run_checked(8_000_000, 10_000)
            .expect("healthy run must not trip the watchdog");
        assert!(r_plain.completed && r_checked.completed);
        assert_eq!(r_plain.cycles, r_checked.cycles, "taps must be invisible");
    }
}

#[cfg(test)]
mod api_tests {
    use super::*;
    use crate::workloads::{orchestrator_program, run_workload_soc, vec_mul};
    use craft_connections::FaultConfig;

    #[test]
    fn builder_validates_configs() {
        let cfg = SocConfig::builder()
            .fidelity(Fidelity::SimAccurate)
            .lanes(8)
            .gmem_words(2048)
            .build()
            .expect("valid config");
        assert_eq!(cfg.lanes, 8);
        assert_eq!(cfg.gmem_words, 2048);

        assert_eq!(
            SocConfig::builder().gmem_words(5000).build(),
            Err(ConfigError::GmemTooLarge {
                words: 5000,
                max: 4096
            })
        );
        assert_eq!(
            SocConfig::builder().lanes(0).build(),
            Err(ConfigError::ZeroLanes)
        );
        assert_eq!(
            SocConfig::builder().link_depth(0).build(),
            Err(ConfigError::ZeroLinkDepth)
        );
        assert_eq!(
            SocConfig::builder().period(Picoseconds::new(0)).build(),
            Err(ConfigError::ZeroPeriod)
        );
        // Errors render as actionable messages naming the values.
        let msg = ConfigError::GmemTooLarge {
            words: 5000,
            max: 4096,
        }
        .to_string();
        assert!(msg.contains("5000") && msg.contains("4096"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid SocConfig")]
    fn build_rejects_invalid_config() {
        let cfg = SocConfig {
            gmem_words: 1 << 16,
            ..SocConfig::default()
        };
        let _ = Soc::build(cfg, &[], &[], &[]);
    }

    #[test]
    fn fault_pattern_mismatch_is_typed() {
        let mut soc = Soc::build(SocConfig::default(), &orchestrator_program(), &[], &[]);
        let err = soc
            .inject_fault("no.such.channel", FaultConfig::drop(1.0), 1)
            .unwrap_err();
        assert_eq!(
            err,
            FaultPatternError::NoMatch {
                pattern: "no.such.channel".into()
            }
        );
        assert!(err.to_string().contains("no.such.channel"));
        assert!(soc.fault_stats("no.such.channel").is_err());
        // A matching pattern with no injector armed reports zeroes.
        assert_eq!(
            soc.fault_stats("n5.eject").expect("channel exists"),
            FaultStats::default()
        );
    }

    #[test]
    fn report_is_consistent_and_json_renders() {
        let (_, ok, soc) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
        assert!(ok);
        let rep = soc.report();
        assert_eq!(
            rep.hub.dispatched, rep.hub.retired,
            "every dispatched command retires on a healthy run"
        );
        assert!(rep.hub.dispatched >= 4);
        assert_eq!(rep.pes.len(), 15, "one entry per PE node");
        let pe_cmds: u64 = rep.pes.iter().map(|p| p.commands).sum();
        assert_eq!(pe_cmds, rep.hub.retired, "PE and hub command counts agree");
        assert_eq!(rep.total_work_units, soc.total_work_units());
        assert_eq!(rep.charged_gates, 0, "sim-accurate charges nothing");
        assert!(rep.noc.transfers > 0, "flits moved");
        assert!(rep.hub.jobs >= 20);
        assert!(rep.hub.latency_p50 <= rep.hub.latency_p99);
        assert_eq!(rep.faults.armed_channels, 0);
        assert!(rep.plan.is_none());

        let json = rep.to_json();
        for key in [
            "\"hub\"",
            "\"dispatched\"",
            "\"pes\"",
            "\"noc\"",
            "\"faults\"",
            "\"plan\": null",
            "\"charged_gates\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    /// The PR 4 tuple-shim replacements stay pinned: the typed
    /// [`HubReport`] accessors cover everything `hub_counters()` /
    /// `degradation()` used to return, with internally consistent
    /// command flow.
    #[test]
    fn report_pins_retired_tuple_accessors() {
        let (_, ok, soc) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
        assert!(ok);
        let rep = soc.report();
        // hub_counters().0/.1 → dispatched/retired.
        assert!(rep.hub.dispatched > 0);
        assert_eq!(rep.hub.dispatched, rep.hub.retired);
        // degradation().0/.1 → failed_pes/remapped (clean run: none).
        assert!(rep.hub.failed_pes.is_empty());
        assert_eq!(rep.hub.remapped, 0);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};
    use craft_connections::FaultConfig;

    /// Degradation leaves a span trail: the timed-out command's span
    /// ends with `timeout_failed` and the re-dispatch carries a
    /// `remapped` point.
    #[test]
    fn spans_capture_timeout_and_remap() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let tel = Telemetry::new();
        let cfg = SocConfig {
            pe_timeout: Some(20_000),
            ..SocConfig::default()
        };
        let mut soc =
            Soc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, Some(tel.clone()));
        soc.inject_fault("n2.eject", FaultConfig::stuck_valid(0), 7)
            .expect("channel exists");
        let r = soc
            .run_checked(8_000_000, 200_000)
            .expect("degraded run recovers");
        assert!(r.completed);
        let snap = soc.telemetry_snapshot().expect("built with telemetry");
        assert!(snap.spans.iter().any(|e| e.label == "timeout_failed"));
        assert!(snap.spans.iter().any(|e| e.label == "remapped"));
        assert!(snap.metric("noc.n2.eject.faults_injected").is_some());
        assert_eq!(snap.metric("soc.hub.failed_pes"), Some(1));
    }
}
