//! One differential oracle for the SoC's golden contract: every way of
//! running a [`Soc`] ends where the **reference** ends — the ungated,
//! uninterrupted, unsupervised sequential `Soc`.
//!
//! A [`Case`] is a workload, a configuration, fault vectors armed
//! before the run or at a segment boundary inside it, optional batch
//! lanes, run limits and an interruption schedule. [`check`] runs the
//! case under every execution model, folds each run into one
//! [`Observed`], and holds it to its baseline as [`CONTRACT`] says:
//! which fields must be equal, under which mask. The models:
//!
//! * **gated** — activity gating on, stepped: idle and blocked
//!   components asleep, clean commits elided (a case may turn gating
//!   off for every model, and then this one is the reference);
//! * **supervised** — gated under the watchdog and segmented by the
//!   case's interval: the one run allowed to prove a hang periodic and
//!   advance over it (the loop skip);
//! * **restored** — the supervised run revived from snapshot bytes at
//!   its last capture or at every boundary, telemetry attached;
//! * **telemetry** — the supervised run with a sink and tick profiling,
//!   whose rendering is held to that of a sink on the reference;
//! * **compiled** — an RTL case at the other RTL fidelity (`Rtl` ↔
//!   `RtlCompiled`);
//! * **lane** / **golden** — each lane of a batch (uninterrupted, and
//!   restored when the schedule restores) against its solo reference,
//!   and the batch's fault-free golden run against the supervised one.
//!
//! Stepped runs (the reference, gated, compiled) count the watchdog's
//! idle cycles themselves off the kernel's progress token, so they end
//! in a hang diagnosis of their own without ever proving a loop.
//!
//! Each deterministic case is one test: the test builds the case, runs
//! every model on it and states what the case must show beyond the
//! contract ([`expect`]). A few cases carry several tests, each stating
//! one expectation and running the models it reads ([`expect_under`]):
//! the default configuration, GALS, the store-and-forward router, the
//! RTL fidelities and the hung lanes. Seeded properties draw the rest
//! ([`drawn`]) and name the models they hold to the contract:
//! those run with the runs the contract holds them to, and every row of
//! [`CONTRACT`] whose two runs both ran is checked. A failure names the
//! model, the first differing field and its first differing line, and
//! prints the case as a `Case` literal that pastes into a new test.
//!
//! This file is the root of one test target (`cargo test -p craft-soc
//! --test oracle`): the oracle, the fault grid, the fail-stop sites and
//! the property that runs every model. The files of `tests/oracle/`
//! hold the other cases by what they exercise ([`oracle`]).

use craft_connections::{FaultConfig, FaultStats};
use craft_riscv::asm::{self as rv, ZERO};
use craft_sim::{HangReport, KernelDigest, ProvedLoop, SimError, Simulator};
use craft_sim::{Telemetry, TelemetrySnapshot};
use craft_soc::checkpoint::SimSnapshot;
use craft_soc::controller::CtrlStatus;
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{orchestrator_program, six_soc_tests, table_words, vec_mul};
use craft_soc::workloads::{vec_add_scale, TableEntry, Workload};
use craft_soc::{build_engine, panic_message, protocol_check, restore_engine, BatchReport};
use craft_soc::{ClockingMode, EngineKind, LaneRun, LaneSpec, PeCommand, PeOp, RouterKind};
use craft_soc::{RunResult, SegmentStatus, Soc, SocConfig, SocReport, PROTOCOL_CHECKS};
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The mesh link into the hub: every result flit crosses it.
const HOT_LINK: &str = "l11p3->15";

// ---------------------------------------------------------------- case

/// One fault vector: a seeded injector on every channel matching
/// `pattern`, armed before the first cycle (`at` 0) or at the segment
/// boundary on hub cycle `at`. As a batch lane, `at` is 0.
#[derive(Debug, Clone, Copy)]
struct Armed {
    at: u64,
    pattern: &'static str,
    fault: FaultConfig,
    seed: u64,
}

/// How the supervised run is interrupted. An interval segments every
/// supervised model; a mid-run fault needs one to be armed at.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Interrupt {
    None,
    Segmented(u64),
    RestoreLast(u64),
    RestoreEvery(u64),
}

impl Interrupt {
    fn every(self) -> Option<u64> {
        use Interrupt::{RestoreEvery as Every, RestoreLast as Last, Segmented};
        match self {
            Interrupt::None => None,
            Segmented(n) | Last(n) | Every(n) => Some(n),
        }
    }

    fn restores(self) -> bool {
        matches!(self, Interrupt::RestoreLast(_) | Interrupt::RestoreEvery(_))
    }
}

#[derive(Debug, Clone)]
struct Case {
    /// A name [`workload`] knows.
    workload: &'static str,
    fidelity: Fidelity,
    clocking: ClockingMode,
    router: RouterKind,
    pe_timeout: Option<u64>,
    /// Whether every model but the reference asks the kernel to gate
    /// (RTL fidelities turn it off regardless); when not, the gated
    /// model is the reference.
    gating: bool,
    faults: Vec<Armed>,
    /// Batch lanes: the batch models run when there are any, and then
    /// `faults` is empty (a batch's golden run is fault-free).
    lanes: Vec<Armed>,
    max_cycles: u64,
    no_progress: u64,
    interrupt: Interrupt,
}

/// `workload` under the default configuration, fault-free, with room
/// to finish and a short watchdog.
fn case(workload: &'static str) -> Case {
    Case {
        workload,
        fidelity: Fidelity::SimAccurate,
        clocking: ClockingMode::Synchronous,
        router: RouterKind::Wormhole,
        pe_timeout: None,
        gating: true,
        faults: vec![],
        lanes: vec![],
        max_cycles: 2_000_000,
        no_progress: 5_000,
        interrupt: Interrupt::None,
    }
}

fn armed(pattern: &'static str, fault: FaultConfig, seed: u64) -> Armed {
    let at = 0;
    Armed {
        at,
        pattern,
        fault,
        seed,
    }
}

impl Case {
    fn with(mut self, edit: impl FnOnce(&mut Case)) -> Case {
        edit(&mut self);
        self
    }

    /// Arms `fault` on `pattern` before the first cycle.
    fn fault(self, pattern: &'static str, fault: FaultConfig, seed: u64) -> Case {
        self.with(|c| c.faults.push(armed(pattern, fault, seed)))
    }

    /// Adds a batch lane on the hot link.
    fn lane(self, fault: FaultConfig, seed: u64) -> Case {
        self.with(|c| c.lanes.push(armed(HOT_LINK, fault, seed)))
    }

    fn fidelity(self, fidelity: Fidelity) -> Case {
        self.with(|c| c.fidelity = fidelity)
    }

    fn watchdog(self, no_progress: u64, interrupt: Interrupt) -> Case {
        self.with(|c| (c.no_progress, c.interrupt) = (no_progress, interrupt))
    }

    /// The configuration every model builds from, gated or not; a
    /// stepped run never opens a session, so its interval captures
    /// nothing.
    fn config(&self, gating: bool) -> SocConfig {
        SocConfig {
            fidelity: self.fidelity,
            clocking: self.clocking,
            router: self.router,
            pe_timeout: self.pe_timeout,
            gating,
            checkpoint_every: self.interrupt.every(),
            ..SocConfig::default()
        }
    }

    /// The case as Rust source, to paste into a test.
    fn literal(&self) -> String {
        let c = self;
        format!(
            "Case {{\n    workload: {:?},\n    fidelity: Fidelity::{:?},\n    \
             clocking: ClockingMode::{:?},\n    router: RouterKind::{:?},\n    \
             pe_timeout: {:?},\n    gating: {},\n    faults: vec!{:?},\n    lanes: vec!{:?},\n    \
             max_cycles: {},\n    no_progress: {},\n    interrupt: Interrupt::{:?},\n}}",
            c.workload,
            c.fidelity,
            c.clocking,
            c.router,
            c.pe_timeout,
            c.gating,
            c.faults,
            c.lanes,
            c.max_cycles,
            c.no_progress,
            c.interrupt,
        )
    }
}

/// The controller program and the workload a case names: the Fig. 6
/// tests and `vec_add_scale` under the orchestrator, `spin` (a
/// controller stuck on `jal zero, 0`, `vec_mul`'s table never read) and
/// `pe5_scale` (one command to PE 5, then a barrier).
fn workload(name: &str) -> (Vec<u32>, Workload) {
    let program = orchestrator_program();
    match name {
        "spin" => {
            let mut spin = vec_mul();
            spin.expected.clear();
            (vec![rv::jal(ZERO, 0)], spin)
        }
        "pe5_scale" => {
            let (op, out, len, scalar) = (PeOp::Scale, 100, 8, 3);
            let cmd = PeCommand {
                op,
                a: 0,
                b: 0,
                out,
                len,
                scalar,
            };
            let wl = Workload {
                name: "pe5_scale",
                gmem_init: vec![(0, (1..=8).collect())],
                entries: vec![TableEntry::Cmd { pe: 5, cmd }, TableEntry::Barrier],
                expected: vec![(100, (1..=8).map(|v| 3 * v).collect())],
            };
            (program, wl)
        }
        _ => {
            let mut all = six_soc_tests().into_iter().chain([vec_add_scale()]);
            let wl = all.find(|w| w.name == name).expect("a known workload");
            (program, wl)
        }
    }
}

/// `vec_mul` with `HOT_LINK` faulted at p = 3e-3.
fn hot_lane(fault: fn(f64) -> FaultConfig, seed: u64) -> Case {
    case("vec_mul").fault(HOT_LINK, fault(3e-3), seed)
}

/// The same case under the limits of claims section E14's raw-NoC
/// sweep (`SOC_MAX_CYCLES` / `SOC_NO_PROGRESS`).
fn e14(case: Case) -> Case {
    case.with(|c| (c.max_cycles, c.no_progress) = (4_000_000, 100_000))
}

/// The eight hot-link lanes that wedge the NoC under E14's limits:
/// `(seed, fault, ungated trip, gated kernel counters at the trip)`.
/// The gated trip is the counters' instant count (one clock, one
/// instant a cycle); the trips are what the benchmark's
/// `campaign_dense` digest pins. On two lanes the gated watchdog trips
/// later ([`across_gating`]). The draws take their lanes from here too.
type HungLane = (u64, fn(f64) -> FaultConfig, u64, [u64; 5]);
#[rustfmt::skip]
const HUNG: [HungLane; 8] = [
    (800, FaultConfig::bit_flip, 100_742, [100_742, 270_126, 3_457_328, 739_984, 12_587_426]),
    (806, FaultConfig::drop, 100_495, [100_495, 267_164, 3_451_151, 1_339_951, 12_558_849]),
    (808, FaultConfig::drop, 100_697, [100_697, 269_557, 3_456_232, 940_127, 12_582_274]),
    (819, FaultConfig::drop, 100_630, [100_630, 268_768, 3_454_542, 1_140_245, 12_574_524]),
    (881, FaultConfig::drop, 100_705, [100_705, 269_805, 3_456_280, 739_900, 12_582_955]),
    (885, FaultConfig::drop, 100_766, [100_770, 270_393, 3_458_097, 240_021, 12_590_804]),
    (871, FaultConfig::duplicate, 100_763, [100_764, 270_338, 3_457_930, 540_022, 12_590_077]),
    (893, FaultConfig::duplicate, 100_495, [100_495, 267_238, 3_451_077, 1_239_803, 12_558_744]),
];

// ------------------------------------------------------------ observed

/// How a run ended. Compared through its `Debug` rendering.
#[derive(Debug, Clone)]
enum Ending {
    Completed(u64),
    /// The watchdog tripped on this cycle with this diagnosis.
    Hang(u64, HangReport),
    /// `max_cycles` ran out at this cycle.
    BudgetOut(u64),
    /// A protocol check's `(site, check)` rejected a corrupt packet.
    FailStop((&'static str, &'static str)),
    /// A panic no protocol check raised: a bug, never a match.
    Panicked(String),
    /// Any other simulation error: a bug too.
    Error(String),
}

/// An observation no run filled in fails like an unexplained panic.
impl Default for Ending {
    fn default() -> Ending {
        Ending::Panicked("no run".into())
    }
}

impl Ending {
    fn of(res: &Result<RunResult, SimError>) -> Ending {
        match res {
            Ok(r) if r.completed => Ending::Completed(r.cycles),
            Ok(r) => Ending::BudgetOut(r.cycles),
            Err(SimError::Hang { cycle, report, .. }) => Ending::Hang(*cycle, report.clone()),
            Err(e) => Ending::Error(format!("{e:?}")),
        }
    }

    /// A run that panicked with `msg`: a fail-stop when a protocol
    /// check raised it.
    fn panicked(msg: &str) -> Ending {
        match protocol_check(msg) {
            Some(i) => Ending::FailStop(PROTOCOL_CHECKS[i]),
            None => Ending::Panicked(msg.to_string()),
        }
    }

    fn hang_cycle(&self) -> Option<u64> {
        match self {
            Ending::Hang(cycle, _) => Some(*cycle),
            _ => None,
        }
    }
}

/// The kernel's work counters — `[instants, ticks_delivered,
/// ticks_skipped, ticks_skipped_blocked, commits_skipped]` — and digest.
#[derive(Debug, Clone, Default, PartialEq)]
struct Kernel {
    counters: [u64; 5],
    digest: KernelDigest,
}

fn kernel(sim: &Simulator) -> Kernel {
    let (instants, delivered, skipped) =
        (sim.instants(), sim.ticks_delivered(), sim.ticks_skipped());
    let (blocked, commits) = (sim.ticks_skipped_blocked(), sim.commits_skipped());
    let counters = [instants, delivered, skipped, blocked, commits];
    Kernel {
        counters,
        digest: sim.kernel_digest(),
    }
}

/// What a run did on the way that no contract compares: the case's own
/// expectations read it.
#[derive(Debug, Clone, Default)]
struct Facts {
    /// Whether the kernel gated (RTL fidelities turn it off).
    gating: bool,
    loop_skips: u64,
    cycles_skipped: u64,
    last_loop: Option<ProvedLoop>,
    /// Stepped runs: ticks delivered since the last progress event.
    tail_ticks: u64,
    path: Path,
    batch: Option<BatchReport>,
}

/// What happened at a supervised run's boundaries.
#[derive(Debug, Clone, Default)]
struct Path {
    boundaries: u64,
    /// `[instants, loop_skips, cycles_skipped]` at the first boundary.
    first_boundary: Option<[u64; 3]>,
    /// The last restore: the capture's hub cycle, its watchdog idle
    /// count and how many faults its log replayed.
    restored_from: Option<(u64, u64, usize)>,
}

/// Everything observable about where one run ended. A fail-stop leaves
/// all but `ending` empty.
#[derive(Debug, Clone, Default)]
struct Observed {
    ending: Ending,
    report: SocReport,
    /// Injector counters, one per armed fault vector (a lane: its own).
    faults: Vec<FaultStats>,
    ctrl: CtrlStatus,
    gmem: Vec<u64>,
    charged_gates: u64,
    coverage: Vec<(String, u64)>,
    kernel: Kernel,
    /// What a sink recorded, if the run had one.
    telemetry: Option<TelemetrySnapshot>,
    facts: Facts,
}

/// Prefixes of the telemetry rows that say how a run was driven, not
/// what it did: its captures (`sim.ckpt.*`), and whether the
/// supervised loop advanced over a hang (`sim.kernel.loop_skips`,
/// `sim.kernel.cycles_skipped`). The wall-clock profile goes too.
const NOT_OBSERVED: [&str; 3] = ["sim.ckpt.", "sim.kernel.loop_", "sim.kernel.cycles_"];

/// `o`'s telemetry as compared: rendered, without [`NOT_OBSERVED`].
fn rendered(o: &Observed) -> String {
    let Some(mut t) = o.telemetry.clone() else {
        return "<no sink>".into();
    };
    t.metrics
        .retain(|m| !NOT_OBSERVED.iter().any(|n| m.path.starts_with(n)));
    t.profile.clear();
    t.to_json()
}

impl Observed {
    fn ended(ending: Ending) -> Observed {
        Observed {
            ending,
            ..Observed::default()
        }
    }

    /// A run whose panic `payload` was caught.
    fn panicked(payload: &(dyn std::any::Any + Send)) -> Observed {
        Observed::ended(Ending::panicked(panic_message(payload)))
    }

    fn of(soc: &Soc, ending: Ending, faults: &[Armed]) -> Observed {
        let sim = soc.sim();
        let stats = |a: &Armed| soc.fault_stats(a.pattern).expect("the pattern matches");
        Observed {
            ending,
            report: soc.report(),
            faults: faults.iter().map(stats).collect(),
            ctrl: soc.ctrl_status(),
            gmem: soc.gmem_read(0, soc.config().gmem_words),
            charged_gates: soc.charged_gates(),
            coverage: soc.coverage().bins(),
            kernel: kernel(sim),
            telemetry: soc.telemetry_snapshot(),
            facts: Facts {
                gating: sim.gating(),
                loop_skips: sim.loop_skips(),
                cycles_skipped: sim.cycles_skipped(),
                last_loop: sim.last_loop(),
                ..Facts::default()
            },
        }
    }

    /// One lane of a settled batch: a lane whose replay panicked ends
    /// as its panic message says.
    fn lane(eng: &Soc, run: &LaneRun) -> Observed {
        let (Some(res), Some(report)) = (&run.result, &run.report) else {
            let msg = run.panic.as_deref().unwrap_or("a lane with no result");
            return Observed::ended(Ending::panicked(msg));
        };
        let gmem = eng.gmem_read_lane(run.lane, 0, eng.config().gmem_words);
        Observed {
            report: report.clone(),
            faults: run.fault_stats.clone().into_iter().collect(),
            gmem: gmem.expect("a settled lane has memory"),
            ending: Ending::of(res),
            ..Observed::default()
        }
    }
}

// -------------------------------------------------------------- models

/// A run stepped instant by instant with no watchdog in the kernel: the
/// idle count is kept here, off the kernel's progress token, so the
/// run ends where a supervised one would but never proves a loop. The
/// SoC stays alive so the reference can be read at a later cycle.
struct Stepper {
    soc: Option<Soc>,
    own: Observed,
    case: Case,
}

fn stepped(case: &Case, gating: bool, sink: bool) -> Stepper {
    let (program, wl) = workload(case.workload);
    let (cfg, table, tel) = (
        case.config(gating),
        table_words(&wl.entries),
        sink.then(Telemetry::new),
    );
    let mut soc = Soc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, tel);
    // An empty session wires every NoC channel's progress tap, which is
    // what the watchdog counts, and steps nothing.
    soc.run_checked(0, 1).expect("an empty session");
    let (soc, own) = match catch_unwind(AssertUnwindSafe(|| step_to_end(&mut soc, case))) {
        Ok((ending, tail_ticks)) => {
            let mut own = Observed::of(&soc, ending, &case.faults);
            own.facts.tail_ticks = tail_ticks;
            (Some(soc), own)
        }
        Err(payload) => (None, Observed::panicked(payload.as_ref())),
    };
    let case = case.clone();
    Stepper { soc, own, case }
}

/// Arms the faults of `faults` due at hub cycle `cycle`.
fn arm(soc: &mut Soc, faults: &[Armed], cycle: u64) {
    for a in faults.iter().filter(|a| a.at == cycle) {
        soc.inject_fault(a.pattern, a.fault, a.seed)
            .expect("the pattern matches");
    }
}

/// Steps `soc` to the end of `case`'s run; returns how it ended and
/// the ticks delivered since the last progress event.
fn step_to_end(soc: &mut Soc, case: &Case) -> (Ending, u64) {
    let hub = soc.hub_clock();
    let token = soc.sim().progress_token();
    let (mut idle, mut last, mut tail, mut due) = (0, 0, 0, 0);
    let hung = loop {
        let cycle = soc.sim().cycles(hub);
        if soc.halted() || cycle >= case.max_cycles {
            break false;
        }
        // A GALS hub cycle spans several instants: arm once, at its first.
        if cycle >= due {
            arm(soc, &case.faults, cycle);
            due = cycle + 1;
        }
        if !soc.sim_mut().step() {
            break false;
        }
        let cycle = soc.sim().cycles(hub);
        if token.take() {
            (idle, tail) = (0, soc.sim().ticks_delivered());
        } else {
            idle += cycle - last;
        }
        last = cycle;
        if idle >= case.no_progress {
            break true;
        }
    };
    soc.sim_mut().flush_skipped_commits();
    let (cycles, sim) = (soc.sim().cycles(hub), soc.sim());
    let ending = match (hung, soc.halted()) {
        (true, _) => Ending::Hang(cycles, sim.diagnose_hang(idle)),
        (false, true) => Ending::Completed(cycles),
        (false, false) => Ending::BudgetOut(cycles),
    };
    (ending, sim.ticks_delivered() - tail)
}

impl Stepper {
    /// Where this run stands at `cycle`, at or after its own hang,
    /// diagnosed as a watchdog tripping there would.
    fn at(&mut self, cycle: u64) -> Observed {
        let soc = self.soc.as_mut().expect("a hung run is alive");
        soc.run(cycle - soc.sim().cycles(soc.hub_clock()));
        let report = soc.sim().diagnose_hang(self.case.no_progress);
        Observed::of(soc, Ending::Hang(cycle, report), &self.case.faults)
    }
}

/// Revives `bytes` and checks what any restore must give: a lossless
/// codec, the open session back, and a replay that stepped.
fn revive(kind: EngineKind, bytes: &[u8], path: &mut Path) -> Soc {
    let snap = SimSnapshot::from_bytes(bytes).expect("the capture decodes");
    assert_eq!(snap.to_bytes(), bytes, "the codec round-trips");
    let session = snap
        .session
        .as_ref()
        .expect("a capture carries its session");
    path.restored_from = Some((snap.arch.hub_cycles, session.wd.idle, snap.faults.len()));
    let eng = restore_engine(kind, bytes, kind == EngineKind::Soc).expect("the capture restores");
    assert!(eng.session_open(), "the session survives the restore");
    assert_eq!(eng.sim().cycles_skipped(), 0, "a replay steps");
    eng
}

/// Drives a built engine's supervised session to its end: arms the
/// mid-run faults at their boundaries and, when `restore` holds,
/// restores as the schedule says. Returns the final engine, its result
/// and what happened at the boundaries.
fn supervise(mut eng: Soc, case: &Case, restore: bool) -> (Soc, Result<RunResult, SimError>, Path) {
    let kind = eng.kind();
    let mut path = Path::default();
    eng.begin(case.max_cycles, case.no_progress);
    let res = loop {
        match eng.step_segment() {
            Ok(SegmentStatus::Boundary) => {
                let sim = eng.sim();
                path.boundaries += 1;
                let first = [sim.instants(), sim.loop_skips(), sim.cycles_skipped()];
                path.first_boundary.get_or_insert(first);
                let cycle = sim.cycles(eng.hub_clock());
                arm(&mut eng, &case.faults, cycle);
                if restore && matches!(case.interrupt, Interrupt::RestoreEvery(_)) {
                    let bytes = eng.snapshot_bytes();
                    drop(eng);
                    eng = revive(kind, &bytes, &mut path);
                }
            }
            Ok(SegmentStatus::Done(r)) => break Ok(r),
            Err(e) => break Err(e),
        }
    };
    let last = eng.last_checkpoint_bytes().map(<[u8]>::to_vec);
    let (true, Interrupt::RestoreLast(_), Some(bytes)) = (restore, case.interrupt, last) else {
        return (eng, res, path);
    };
    // The capture precedes what its boundary armed.
    let mut eng = revive(kind, &bytes, &mut path);
    let (cycle, _, _) = path.restored_from.expect("just restored");
    arm(&mut eng, &case.faults, cycle);
    let res = eng.run_to_end();
    (eng, res, path)
}

/// The sequential engine, supervised and gated as the case asks, with
/// `tel` attached and restored when asked.
fn supervised(case: &Case, restore: bool, tel: Option<Telemetry>) -> Observed {
    let (program, wl) = workload(case.workload);
    let (cfg, table) = (case.config(case.gating), table_words(&wl.entries));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut soc = Soc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, tel);
        arm(&mut soc, &case.faults, 0);
        let (soc, res, path) = supervise(soc, case, restore);
        let mut seen = Observed::of(&soc, Ending::of(&res), &case.faults);
        seen.facts.path = path;
        seen
    }));
    ran.unwrap_or_else(|payload| Observed::panicked(payload.as_ref()))
}

/// A batch of `case`'s lanes: its golden run, carrying the batch report
/// in its facts, and every lane.
fn batch(case: &Case, restore: bool) -> (Observed, Vec<Observed>) {
    let (program, wl) = workload(case.workload);
    let cfg = case.config(case.gating);
    let spec = |l: &Armed| LaneSpec::new(l.pattern, l.fault, l.seed);
    let specs: Vec<LaneSpec> = case.lanes.iter().map(spec).collect();
    let (table, kind) = (table_words(&wl.entries), EngineKind::Batch);
    let eng = build_engine(kind, cfg, &program, &table, &wl.gmem_init, &specs, false);
    let (eng, _, path) = supervise(eng.expect("the lanes match"), case, restore);
    let report = eng.batch_report().expect("the batch settled");
    let lanes = report.lanes.iter().map(|l| Observed::lane(&eng, l));
    let mut golden = Observed::ended(Ending::of(&report.golden));
    (golden.facts.path, golden.facts.batch) = (path, Some(report.clone()));
    (golden, lanes.collect())
}

/// An execution model: one way of running a case.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    Reference,
    Gated,
    Supervised,
    Telemetry,
    Restored,
    Compiled,
    /// Each lane of each batch run; its baseline is its own reference.
    Lane,
    /// Each batch run's golden run.
    Golden,
}

/// Every model: a pinned case runs them all.
const ALL: &[Model] = &[
    M::Reference,
    M::Gated,
    M::Supervised,
    M::Telemetry,
    M::Restored,
    M::Compiled,
    M::Lane,
    M::Golden,
];

/// `models` and, through [`CONTRACT`], the runs they are held to (a
/// lane's reference is its own solo run, not the case's). A baseline's
/// own baseline runs only when it is asked for too.
fn closure(models: &[Model]) -> Vec<Model> {
    let held_to = CONTRACT
        .iter()
        .filter(|(m, ..)| models.contains(m) && *m != M::Lane);
    let mut runs = models.to_vec();
    runs.extend(held_to.map(|&(_, base, ..)| base));
    runs
}

/// One run: its model, its batch run (0 uninterrupted, 1 restored),
/// its lane.
type Seen = (Model, usize, Option<usize>, Observed);

/// Every run of one case, as [`check`] compared them.
struct Runs {
    seen: Vec<Seen>,
}

impl Runs {
    fn get(&self, model: Model) -> &Observed {
        self.find(model, 0, None)
    }

    fn find(&self, model: Model, batch: usize, lane: Option<usize>) -> &Observed {
        find(&self.seen, model, batch, lane).expect("the model ran")
    }
}

/// The run of `model` in batch run `batch`, lane `lane`, if it ran.
fn find(seen: &[Seen], model: Model, batch: usize, lane: Option<usize>) -> Option<&Observed> {
    let key = (model, batch, lane);
    seen.iter().find(|s| (s.0, s.1, s.2) == key).map(|s| &s.3)
}

/// Runs `case` under `models` and the runs they are held to: the
/// reference (kept stepping for [`across_gating`]), each lane's solo
/// reference and every other run.
fn run_models(case: &Case, models: &[Model]) -> (Option<Stepper>, Vec<Stepper>, Vec<Seen>) {
    let runs = closure(models);
    let wants = |m| runs.contains(&m);
    // A sink on the reference only when a telemetry rendering is held
    // to it.
    let reference = wants(M::Reference).then(|| stepped(case, false, wants(M::Telemetry)));
    let one = |model, seen| (model, 0, None, seen);
    let mut seen = vec![];
    if let Some(r) = &reference {
        seen.push(one(M::Reference, r.own.clone()));
    }
    if wants(M::Gated) {
        let gated = match (case.gating, &reference) {
            (false, Some(r)) => r.own.clone(),
            _ => stepped(case, case.gating, false).own,
        };
        seen.push(one(M::Gated, gated));
    }
    if wants(M::Supervised) {
        seen.push(one(M::Supervised, supervised(case, false, None)));
    }
    if wants(M::Telemetry) {
        let profiled = Telemetry::new();
        profiled.set_profiling(true);
        seen.push(one(M::Telemetry, supervised(case, false, Some(profiled))));
    }
    if wants(M::Restored) && case.interrupt.restores() {
        let restored = supervised(case, true, Some(Telemetry::new()));
        seen.push(one(M::Restored, restored));
    }
    if wants(M::Compiled) && case.fidelity.is_rtl() {
        let fidelity = match case.fidelity {
            Fidelity::Rtl => Fidelity::RtlCompiled,
            _ => Fidelity::Rtl,
        };
        let compiled = stepped(&case.clone().fidelity(fidelity), false, false);
        seen.push(one(M::Compiled, compiled.own));
    }
    let mut lanes = vec![];
    if (wants(M::Lane) || wants(M::Golden)) && !case.lanes.is_empty() {
        for (b, restore) in [false, case.interrupt.restores()].into_iter().enumerate() {
            if b == 0 || restore {
                let (golden, lanes) = batch(case, restore);
                seen.push((M::Golden, b, None, golden));
                let lanes = lanes.into_iter().enumerate();
                seen.extend(lanes.map(|(i, lane)| (M::Lane, b, Some(i), lane)));
            }
        }
        for l in &case.lanes {
            let solo = case
                .clone()
                .with(|c| (c.faults, c.lanes) = (vec![*l], vec![]));
            lanes.push(stepped(&solo, false, false));
        }
    }
    (reference, lanes, seen)
}

// ---------------------------------------------------------- comparator

#[derive(Debug, Clone, Copy, PartialEq)]
enum Field {
    Ending,
    Report,
    Faults,
    Ctrl,
    Gmem,
    Gates,
    Coverage,
    Kernel,
    Telemetry,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mask {
    None,
    /// [`across_gating`].
    Gating,
    /// The compile plan's lowering statistics, which only the compiled
    /// path has.
    Plan,
}

use Field as F;
use Model as M;

/// Every field of a run's state: all but the telemetry rendering.
#[rustfmt::skip]
const STATE: &[Field] =
    &[F::Ending, F::Report, F::Faults, F::Ctrl, F::Gmem, F::Gates, F::Coverage, F::Kernel];
const LANE: &[Field] = &[F::Ending, F::Report, F::Faults, F::Gmem];

/// The contract: each model, the run it is held to, on which fields,
/// under which mask.
#[rustfmt::skip]
const CONTRACT: [(Model, Model, &[Field], Mask); 9] = [
    (M::Gated,      M::Reference,  STATE,             Mask::Gating),
    (M::Compiled,   M::Reference,  STATE,             Mask::Plan),
    (M::Supervised, M::Gated,      STATE,             Mask::None),
    (M::Telemetry,  M::Gated,      STATE,             Mask::None),
    (M::Telemetry,  M::Reference,  &[F::Telemetry],   Mask::Gating),
    (M::Restored,   M::Gated,      STATE,             Mask::None),
    (M::Restored,   M::Telemetry,  &[F::Telemetry],   Mask::None),
    (M::Lane,       M::Reference,  LANE,              Mask::Gating),
    (M::Golden,     M::Supervised, &[F::Ending],      Mask::None),
];

/// The one place gating may show; ROADMAP item 4 deletes it. `got` is
/// a gated run, `reference` the ungated one; returns the reference as
/// `got` must match it, both with the same fields blanked:
/// * *the trip cycle* — a sleeper's wake-up counts as watchdog progress
///   and an ungated run has no wake-ups, so a gated hang may trip
///   later (never earlier); it is compared with the reference at its
///   own trip;
/// * `CompDiag::asleep` — which components a diagnosis finds asleep;
/// * `noc.pop_empty` — an ungated idle hub polls its empty eject
///   channel every tick, a gated one does not (the report's total and
///   each channel's telemetry row);
/// * the kernel counters, which must *account* instead: the same
///   instants, and delivered + skipped ticks are what the ungated run
///   delivers (their `sim.kernel.*` telemetry rows are left out).
fn across_gating(got: &mut Observed, reference: &mut Stepper) -> Result<Observed, String> {
    let mut want = match (got.ending.hang_cycle(), reference.own.ending.hang_cycle()) {
        (Some(g), Some(u)) if g < u => {
            return Err(format!("gated trip {g} before the ungated {u}"))
        }
        (Some(g), Some(u)) if g > u => reference.at(g),
        _ => reference.own.clone(),
    };
    for o in [&mut *got, &mut want] {
        o.report.noc.pop_empty = 0;
        if let Some(t) = &mut o.telemetry {
            t.metrics
                .retain(|m| !m.path.ends_with(".pop_empty") && !m.path.starts_with("sim.kernel."));
        }
        if let Ending::Hang(_, report) = &mut o.ending {
            report.components.iter_mut().for_each(|c| c.asleep = false);
        }
        let k = &mut o.kernel;
        let [instants, delivered, skipped, _, _] = k.counters;
        k.counters = [instants, delivered + skipped, 0, 0, 0];
        k.digest.ticks_delivered += k.digest.ticks_skipped;
        (k.digest.ticks_skipped, k.digest.commits_skipped) = (0, 0);
    }
    Ok(want)
}

/// The first line where `got` and `want` differ, both shown.
fn line_diff(got: &str, want: &str) -> Option<String> {
    let (g, w): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let i = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i))?;
    let (g, w) = (g.get(i).unwrap_or(&"<end>"), w.get(i).unwrap_or(&"<end>"));
    Some(format!("line {}:\n   got: {g}\n  want: {w}", i + 1))
}

/// `None` when `got` and `want` agree on `field`, else where they part.
fn diff(field: Field, got: &Observed, want: &Observed) -> Option<String> {
    let debug = |g: &dyn std::fmt::Debug, w: &dyn std::fmt::Debug| {
        line_diff(&format!("{g:#?}"), &format!("{w:#?}"))
    };
    match field {
        F::Ending => match (&got.ending, &want.ending) {
            (Ending::Panicked(m), _) | (_, Ending::Panicked(m)) => {
                Some(format!("a panic no protocol check raised: {m}"))
            }
            (Ending::Error(e), _) | (_, Ending::Error(e)) => {
                Some(format!("a simulation error no case expects: {e}"))
            }
            (Ending::Completed(g), Ending::Completed(w))
            | (Ending::BudgetOut(g), Ending::BudgetOut(w))
                if g != w =>
            {
                Some(format!("cycle {g}, not {w}"))
            }
            (g, w) => debug(g, w),
        },
        F::Report => line_diff(&got.report.to_json(), &want.report.to_json())
            .or_else(|| debug(&got.report, &want.report)),
        F::Faults => debug(&got.faults, &want.faults),
        F::Ctrl => debug(&got.ctrl, &want.ctrl),
        F::Gmem => (0..got.gmem.len().max(want.gmem.len()))
            .find(|&i| got.gmem.get(i) != want.gmem.get(i))
            .map(|i| format!("word {i}: {:?}", (got.gmem.get(i), want.gmem.get(i)))),
        F::Gates => debug(&got.charged_gates, &want.charged_gates),
        F::Coverage => debug(&got.coverage, &want.coverage),
        F::Kernel => debug(&got.kernel, &want.kernel),
        F::Telemetry => line_diff(&rendered(got), &rendered(want)),
    }
}

/// Fails the check of `case` with `what`, printing the case to paste
/// into a test.
fn fail(case: &Case, what: String) -> ! {
    panic!("{what}\ncase:\n{}", case.literal())
}

/// Holds every model of `seen` to [`CONTRACT`], wherever its baseline
/// ran too; the first breach panics with the model, the field, where
/// it differs and the case.
fn compare(
    case: &Case,
    mut reference: Option<&mut Stepper>,
    lane_refs: &mut [Stepper],
    seen: &[Seen],
) {
    for (model, baseline, fields, mask) in CONTRACT {
        for (_, batch, lane, got) in seen.iter().filter(|s| s.0 == model) {
            let name = match lane {
                Some(i) => format!("{model:?} {i} of batch run {batch}"),
                None => format!("{model:?}"),
            };
            let mut got = got.clone();
            let mut want = match baseline {
                M::Reference => {
                    let r = match lane {
                        Some(i) => &mut lane_refs[*i],
                        None => match reference.as_deref_mut() {
                            Some(r) => r,
                            None => continue,
                        },
                    };
                    match mask {
                        Mask::Gating => across_gating(&mut got, r)
                            .unwrap_or_else(|e| fail(case, format!("{name}: {e}"))),
                        _ => r.own.clone(),
                    }
                }
                _ => match find(seen, baseline, 0, None) {
                    Some(want) => want.clone(),
                    None => continue,
                },
            };
            if mask == Mask::Plan {
                (got.report.plan, want.report.plan) = (None, None);
            }
            for &field in fields {
                if let Some(d) = diff(field, &got, &want) {
                    let what = format!("{name} against {baseline:?}: {field:?} differs at {d}");
                    fail(case, what);
                }
            }
        }
    }
}

/// Runs `case` under `models` and the runs they are held to, holds
/// each to the contract, and checks what holds of every case: the
/// ungated reference elides nothing, and a fault-free sequential run
/// that completes verifies.
fn check(case: &Case, models: &[Model]) -> Runs {
    if !case.lanes.is_empty() && !case.faults.is_empty() {
        fail(case, "a batch arms its faults as lanes".into());
    }
    let (mut reference, mut lanes, seen) = run_models(case, models);
    compare(case, reference.as_mut(), &mut lanes, &seen);
    if let Some(reference) = &reference {
        let [_, _, skipped, blocked, commits] = reference.own.kernel.counters;
        if (skipped, blocked, commits) != (0, 0, 0) {
            fail(case, "the ungated reference elided work".into());
        }
    }
    let (_, wl) = workload(case.workload);
    let sequential = seen.iter().filter(|s| s.2.is_none() && s.0 != M::Golden);
    for (model, _, _, o) in sequential {
        if case.faults.is_empty() && matches!(o.ending, Ending::Completed(_)) {
            for (base, expect) in &wl.expected {
                if o.gmem[*base..*base + expect.len()] != expect[..] {
                    fail(
                        case,
                        format!("{model:?}: {} does not verify", case.workload),
                    );
                }
            }
        }
    }
    Runs { seen }
}

/// Checks `case` under every model and holds it to `holds`, what it
/// must show beyond the contract. A breach prints the case.
fn expect(case: Case, holds: impl FnOnce(&Runs)) {
    expect_under(case, ALL, holds);
}

/// [`expect`] under `models` and the runs they are held to: a case
/// whose expectations several tests state splits its models among them.
fn expect_under(case: Case, models: &[Model], holds: impl FnOnce(&Runs)) {
    let runs = check(&case, models);
    if let Err(e) = catch_unwind(AssertUnwindSafe(|| holds(&runs))) {
        fail(&case, panic_message(e.as_ref()).to_string());
    }
}

// --------------------------------------------------------- expectations

fn skipped(o: &Observed) -> u64 {
    o.kernel.counters[2]
}

/// The model's telemetry row `path`, 0 when it has none.
fn metric(o: &Observed, path: &str) -> u64 {
    let tel = o.telemetry.as_ref().expect("a sink");
    tel.metric(path).unwrap_or(0)
}

/// Every sequential run fail-stops at the protocol check whose panic
/// message says `check`.
fn fails_at(r: &Runs, check: &str) {
    for model in [M::Reference, M::Supervised, M::Telemetry] {
        let ending = &r.get(model).ending;
        let at = matches!(ending, Ending::FailStop((_, c)) if *c == check);
        assert!(at, "{model:?}: {ending:?}");
    }
}

// --------------------------------------------------------------- drawn

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

fn between(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// A flip, drop or duplicate at a probability drawn from `ps`.
fn token_fault(rng: &mut TestRng, ps: &[f64]) -> FaultConfig {
    let classes = [
        FaultConfig::bit_flip,
        FaultConfig::drop,
        FaultConfig::duplicate,
    ];
    pick(rng, &classes)(pick(rng, ps))
}

/// A fault class at a drawn intensity: rare flips, drops and
/// duplicates, total loss, or a stuck wire from a drawn cycle on.
fn draw_fault(rng: &mut TestRng) -> FaultConfig {
    let p = pick(rng, &[1e-4, 1e-3, 3e-3, 1e-2, 0.05]);
    match rng.index(6) {
        0 => FaultConfig::bit_flip(p),
        1 => FaultConfig::drop(p),
        2 => FaultConfig::duplicate(p),
        3 => FaultConfig::drop(1.0),
        4 => FaultConfig::stuck_valid(between(rng, 0, 6_000)),
        _ => FaultConfig::stuck_ready(between(rng, 0, 6_000)),
    }
}

/// RTL cycles are dear: an RTL case runs `vec_mul`, hangs fast and
/// restores from its last capture at most.
fn rtl_limits(c: &mut Case, rng: &mut TestRng) {
    (c.workload, c.no_progress) = ("vec_mul", between(rng, 1_000, 1_500));
    if let Interrupt::RestoreEvery(every) = c.interrupt {
        c.interrupt = Interrupt::RestoreLast(every);
    }
    if let Interrupt::RestoreLast(every) = &mut c.interrupt {
        *every = (*every).min(c.no_progress / 2);
    }
}

fn draw(rng: &mut TestRng) -> Case {
    let names: Vec<_> = six_soc_tests()
        .iter()
        .map(|w| w.name)
        .chain(["vec_add_scale"])
        .collect();
    let mut c = case(pick(rng, &names));
    let (spread_ppm, noise_seed) = (between(rng, 100, 5_000) as u32, rng.next_u64() % 1_000_000);
    let gals = [
        ClockingMode::Gals { spread_ppm },
        ClockingMode::GalsAdaptive { noise_seed },
    ];
    c.clocking = *gals.get(rng.index(4)).unwrap_or(&ClockingMode::Synchronous);
    c.router = [RouterKind::Wormhole, RouterKind::StoreForward][rng.index(2)];
    c.pe_timeout = [None, Some(20_000)][rng.index(2)];
    c.gating = rng.index(4) != 0;
    // A sim-accurate hang may run a long idle tail the loop probe
    // advances over. A budget ends before a probe can prove anything,
    // inside the stretch an advance would cover, or where no hang
    // reaches.
    c.no_progress = between(rng, 1_500, 120_000);
    let (short, long) = (between(rng, 500, 8_000), between(rng, 8_000, 110_000));
    c.max_cycles = [short, long, 4_000_000][rng.index(3)];
    let every = pick(rng, &[100, 300, 600, 5_000, 30_000]);
    c.interrupt = match rng.index(5) {
        0 => Interrupt::Segmented(every),
        // Every restore replays from cycle 0: keep chains short.
        1 if c.no_progress <= 5_000 => Interrupt::RestoreEvery(every.clamp(300, 3_000)),
        1 | 2 => Interrupt::RestoreLast(every.min(c.no_progress / 2)),
        _ => Interrupt::None,
    };
    match rng.index(8) {
        0 | 1 => {
            // A batch: lanes on the hot link, some of whose faults never
            // fire (they ride the golden run), and one certain to de-opt.
            c.clocking = ClockingMode::Synchronous;
            c.fidelity = pick(
                rng,
                &[Fidelity::SimAccurate, Fidelity::Rtl, Fidelity::RtlCompiled],
            );
            if c.fidelity.is_rtl() {
                rtl_limits(&mut c, rng);
            }
            let lanes = 2 + rng.index(3);
            let ps = [0.0, 0.0, 0.002, 0.01, 0.25];
            c.lanes = (0..lanes)
                .map(|_| armed(HOT_LINK, token_fault(rng, &ps), rng.next_u64()))
                .collect();
            c.lanes
                .push(armed(HOT_LINK, FaultConfig::bit_flip(1.0), rng.next_u64()));
        }
        2 | 3 => {
            // A hot-link lane on a gated SoC: half the time one known to
            // wedge the NoC, so that advances happen.
            let (seed, fault, ..) = HUNG[rng.index(HUNG.len())];
            let mut lane = armed(HOT_LINK, fault(3e-3), seed);
            if rng.index(2) == 0 {
                let fault = token_fault(rng, &[3e-4, 3e-3, 1e-2]);
                lane = armed(HOT_LINK, fault, rng.next_u64());
            }
            (c.workload, c.clocking, c.gating) = ("vec_mul", ClockingMode::Synchronous, true);
            c.faults = vec![lane];
        }
        draw => {
            if draw == 4 {
                c.fidelity = [Fidelity::Rtl, Fidelity::RtlCompiled][rng.index(2)];
                rtl_limits(&mut c, rng);
            }
            // A GALS mesh links its nodes through clock-domain crossings.
            let link = match c.clocking {
                ClockingMode::Synchronous => "->",
                _ => ".tx",
            };
            let ports = ["n5.eject", "n9.inject", "n15.eject", ".eject"];
            let patterns = [&[HOT_LINK][..usize::from(link == "->")], &ports, &[link]].concat();
            let faults = rng.index(3);
            let fault =
                |rng: &mut TestRng| armed(pick(rng, &patterns), draw_fault(rng), rng.next_u64());
            c.faults = (0..faults).map(|_| fault(rng)).collect();
            if let (Some(every), Some(first)) = (c.interrupt.every(), c.faults.first_mut()) {
                first.at = [0, every, 2 * every][rng.index(3)];
            }
        }
    }
    c
}

/// Which drawn cases a property keeps.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Any,
    /// A batch of hot-link lanes.
    Batch,
    /// A batch restored from snapshot bytes.
    RestoredBatch,
    /// A sequential run restored from snapshot bytes.
    Restored,
    /// A sequential run with no fault.
    FaultFree,
    /// A sequential run with a fault vector.
    Faulted,
    /// A fault on the hot link of a gated, synchronous, sim-accurate
    /// SoC — often one of the [`HUNG`] lanes, so that advances happen.
    Hung,
    /// A fault certain to wedge what it hits — total loss or a stuck
    /// wire — on such a SoC, where the loop probe can advance over the
    /// hang.
    Wedged,
}

impl Draw {
    fn keeps(self, c: &Case) -> bool {
        let certain = |a: &Armed| {
            let f = a.fault;
            f.drop >= 1.0 || f.stuck_valid_from.is_some() || f.stuck_ready_from.is_some()
        };
        // An RTL PE or hub never sleeps and presents no state, so the
        // loop probe cannot prove an RTL hang periodic.
        let probed = c.gating && c.clocking == ClockingMode::Synchronous && !c.fidelity.is_rtl();
        let batch = !c.lanes.is_empty();
        match self {
            Draw::Any => true,
            Draw::Batch => batch,
            Draw::RestoredBatch => batch && c.interrupt.restores(),
            Draw::Restored => !batch && c.interrupt.restores(),
            Draw::FaultFree => !batch && c.faults.is_empty(),
            Draw::Faulted => !c.faults.is_empty(),
            Draw::Hung => probed && c.faults.iter().any(|a| a.pattern == HOT_LINK),
            Draw::Wedged => probed && c.faults.iter().any(certain),
        }
    }
}

/// Checks `models` on `cases` cases that `keep` keeps of those drawn
/// for `property`, whose name seeds the draw.
fn drawn(property: &str, cases: usize, keep: Draw, models: &[Model]) {
    let mut rng = TestRng::new(property);
    for _ in 0..cases {
        let case = loop {
            let case = draw(&mut rng);
            if keep.keeps(&case) {
                break case;
            }
        };
        let runs = check(&case, models);
        // An advance needs two periods of 2 048 cycles proved and a
        // third to spare, all within one call.
        let every = case.interrupt.every().unwrap_or(u64::MAX);
        let short = case.no_progress.min(case.max_cycles).min(every) < 3 * 2_048;
        let supervised = find(&runs.seen, M::Supervised, 0, None);
        if short && supervised.is_some_and(|o| o.facts.loop_skips > 0) {
            fail(&case, "an advance within too short a call".into());
        }
        for (_, _, _, golden) in runs.seen.iter().filter(|s| s.0 == M::Golden) {
            if golden.facts.batch.as_ref().expect("a report").deopt_lanes == 0 {
                fail(&case, "the certain lane did not de-opt".into());
            }
        }
    }
}

// ------------------------------------------------------ the oracle's own

/// Each fault class at campaign-like intensity on the hub's hot link,
/// every PE eject port, every inject port and every mesh link, on both
/// workloads: the grid must reach every way a faulted run can end.
#[test]
fn the_fault_grid_reaches_every_ending() {
    let classes = [
        FaultConfig::bit_flip(3e-3),
        FaultConfig::drop(3e-3),
        FaultConfig::duplicate(3e-3),
        FaultConfig::stuck_valid(150),
        FaultConfig::stuck_ready(150),
    ];
    let mut endings = [0usize; 3]; // completed, hung, fail-stopped
    for wl in ["vec_mul", "dot_product"] {
        for pattern in [HOT_LINK, ".eject", ".inject", "->"] {
            for (i, fault) in classes.into_iter().enumerate() {
                let c = case(wl).fault(pattern, fault, 800 + i as u64);
                match &check(&c, ALL).get(M::Reference).ending {
                    Ending::Completed(_) => endings[0] += 1,
                    Ending::Hang(..) => endings[1] += 1,
                    Ending::FailStop(_) => endings[2] += 1,
                    e => fail(&c, format!("{e:?}")),
                }
            }
        }
    }
    assert!(endings.iter().all(|&n| n > 0), "{endings:?}");
}

/// A corrupted `MemRead` / `MemWrite` header fail-stops at the hub's
/// range check, not at the memory array's own assert.
#[test]
fn a_corrupt_address_fails_stop_at_the_hub_range_check() {
    let c = case("vec_mul").fault(HOT_LINK, FaultConfig::bit_flip(1.0), 167_080);
    expect(c, |r| fails_at(r, "outside global memory"));
}

/// A corrupted command fail-stops at the PE's state check.
#[test]
fn a_corrupt_command_fails_stop_at_the_pe_state_check() {
    let c = case("vec_mul").fault(HOT_LINK, FaultConfig::bit_flip(0.25), 436_898);
    expect(c, |r| fails_at(r, "cannot handle"));
}

/// A telemetry sink never perturbs the run it observes: every model on
/// drawn cases, the telemetry model against the gated run on every
/// field and against a sink on the reference on what it rendered.
#[test]
fn telemetry_never_perturbs_the_run() {
    drawn("telemetry_never_perturbs_the_run", 6, Draw::Any, ALL);
}

/// The cases by what they exercise, one file each in `tests/oracle/`.
mod oracle {
    mod batch;
    mod gating;
    mod hung;
    mod restore;
    mod rtl;
}
