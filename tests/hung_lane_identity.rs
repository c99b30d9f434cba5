//! Hung fault lanes end identically however the kernel schedules them.
//!
//! Eight `fault_campaign` lanes that wedge the NoC (vec_mul, hot link
//! into the hub, p = 3e-3, the campaign's limits) are run gated and
//! ungated.
//!
//! * The gated kernel — where blocked routers, PEs and the AXI plane
//!   sleep — must end exactly as it did before blocked components
//!   could sleep and before its two dispatchers became one loop: same
//!   watchdog trip cycle (the values the benchmark's `campaign_dense`
//!   digest pins) and same kernel counters, both written down in
//!   [`CASES`].
//! * Against the ungated reference the gated kernel is compared *at
//!   the same cycle*: [`SocReport`], fault counters, controller
//!   status, global memory and hang diagnosis must agree but for which
//!   components were asleep (`CompDiag::asleep`, masked) and one report
//!   field documented at [`Ending::across_gating`].
//! * The *supervised* gated run — the one a watchdog drives, and the
//!   only one allowed to prove a hang periodic and advance over it —
//!   is compared with the *unsupervised* gated run stepped to the same
//!   cycle, unmasked: everything above plus `CompDiag::asleep`,
//!   `noc.pop_empty`, the five kernel counters and the
//!   [`craftflow::sim::KernelDigest`].
//! * The trip cycle itself is pinned per spelling and not compared
//!   across the switch. The kernel has always counted an idle
//!   component's wake-up as watchdog progress; an ungated run has no
//!   wake-ups, so on two of the eight lanes (seeds 885 and 871) the
//!   gated watchdog has always tripped 4 and 1 cycles after the
//!   ungated one. The blocked sleeps this test was written for must
//!   not move either number.
//!
//! A hung lane is also where blocked-sleep gating earns its keep: the
//! second test counts the ticks the gated kernel delivers over the
//! watchdog's idle tail and bounds them by the AXI plane's share (the
//! controller polls `DONE_COUNT` forever; the wedged NoC must cost
//! nothing). The third bounds what is left of the tail itself: the
//! poll loop repeats every 2 048 cycles, the supervised run proves
//! that and advances to the deadline, and the instants it actually
//! steps are counted. Counts are deterministic, so neither guard can
//! flake the way a timing gate would.

use craftflow::connections::{FaultConfig, FaultStats};
use craftflow::sim::{HangReport, SimError};
use craftflow::soc::controller::CtrlStatus;
use craftflow::soc::workloads::{orchestrator_program, table_words, vec_mul};
use craftflow::soc::{Soc, SocConfig, SocReport};

/// The mesh link into the hub: every result flit crosses it.
const HOT_LINK: &str = "l11p3->15";
const P: f64 = 3e-3;
/// `fault_campaign`'s `SOC_MAX_CYCLES` / `SOC_NO_PROGRESS`.
const MAX_CYCLES: u64 = 4_000_000;
const NO_PROGRESS: u64 = 100_000;
/// Controller, AXI master, bus, staging slave, hub AXI slave.
const AXI_PLANE_COMPONENTS: u64 = 5;
/// Instants a hung lane may really step: the ≈ 750 cycles to the
/// wedge, 1 024 idle ones before the probe opens, two periods of 2 048
/// to prove the loop, and less than two more to the trip — 9 916 at
/// most, with headroom.
const STEPPED_INSTANTS: u64 = 12_000;

#[derive(Debug, Clone, Copy)]
enum Mode {
    Flip,
    Drop,
    Dup,
}

/// `(instants, ticks_delivered, ticks_skipped, ticks_skipped_blocked,
/// commits_skipped)` of a run, as [`craftflow::sim::Simulator`]
/// reports them.
type Counters = (u64, u64, u64, u64, u64);

/// `(seed, fault mode, gated trip cycle, ungated trip cycle, gated
/// kernel counters at the trip)`: the trip cycles as the kernel
/// produced them before blocked components could sleep, the counters
/// as the gated kernel produced them before its two dispatchers
/// became one loop.
const CASES: [(u64, Mode, u64, u64, Counters); 8] = [
    (
        800,
        Mode::Flip,
        100_742,
        100_742,
        (100_742, 270_126, 3_457_328, 739_984, 12_587_426),
    ),
    (
        806,
        Mode::Drop,
        100_495,
        100_495,
        (100_495, 267_164, 3_451_151, 1_339_951, 12_558_849),
    ),
    (
        808,
        Mode::Drop,
        100_697,
        100_697,
        (100_697, 269_557, 3_456_232, 940_127, 12_582_274),
    ),
    (
        819,
        Mode::Drop,
        100_630,
        100_630,
        (100_630, 268_768, 3_454_542, 1_140_245, 12_574_524),
    ),
    (
        881,
        Mode::Drop,
        100_705,
        100_705,
        (100_705, 269_805, 3_456_280, 739_900, 12_582_955),
    ),
    (
        885,
        Mode::Drop,
        100_770,
        100_766,
        (100_770, 270_393, 3_458_097, 240_021, 12_590_804),
    ),
    (
        871,
        Mode::Dup,
        100_764,
        100_763,
        (100_764, 270_338, 3_457_930, 540_022, 12_590_077),
    ),
    (
        893,
        Mode::Dup,
        100_495,
        100_495,
        (100_495, 267_238, 3_451_077, 1_239_803, 12_558_744),
    ),
];

fn fault(mode: Mode) -> FaultConfig {
    match mode {
        Mode::Flip => FaultConfig::bit_flip(P),
        Mode::Drop => FaultConfig::drop(P),
        Mode::Dup => FaultConfig::duplicate(P),
    }
}

fn build(cfg: SocConfig, seed: u64, mode: Mode) -> Soc {
    let wl = vec_mul();
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    soc.inject_fault(HOT_LINK, fault(mode), seed)
        .expect("the hot link exists");
    soc
}

/// Everything observable about a hung run.
#[derive(Debug, PartialEq)]
struct Ending {
    trip_cycle: u64,
    report: SocReport,
    faults: FaultStats,
    ctrl: CtrlStatus,
    gmem: Vec<u64>,
    hang: String,
}

impl Ending {
    /// The comparison across the gating switch. One report field is
    /// not gating-invariant and was not before blocked components
    /// slept: an idle hub polls its empty eject channel on every
    /// delivered tick, so `noc.pop_empty` counts the idle hub ticks a
    /// gated kernel elides. Both spellings' values are pinned as they
    /// are by the benchmark's digests (`fig6_sim` runs gated,
    /// `fig6_rtl` ungated), so the field is masked here.
    fn across_gating(mut self) -> Ending {
        self.report.noc.pop_empty = 0;
        self
    }

    /// Field-by-field, so a failure names what moved.
    fn assert_same(&self, want: &Ending, what: &str) {
        assert_eq!(self.trip_cycle, want.trip_cycle, "{what}: trip cycle");
        let (got_json, want_json) = (self.report.to_json(), want.report.to_json());
        for (g, w) in got_json.lines().zip(want_json.lines()) {
            assert_eq!(g, w, "{what}: SocReport::to_json");
        }
        assert_eq!(self.report, want.report, "{what}: SocReport");
        assert_eq!(self.faults, want.faults, "{what}: FaultStats");
        assert_eq!(self.ctrl, want.ctrl, "{what}: CtrlStatus");
        assert_eq!(self.gmem, want.gmem, "{what}: gmem");
        for (g, w) in self.hang.lines().zip(want.hang.lines()) {
            assert_eq!(g, w, "{what}: HangReport");
        }
        assert_eq!(self, want, "{what}");
    }
}

/// `Debug` rendering with the one field gating may change blanked.
fn masked(report: &HangReport) -> String {
    let mut r = report.clone();
    for c in &mut r.components {
        c.asleep = false;
    }
    format!("{r:#?}")
}

fn ending(soc: &Soc, trip_cycle: u64, report: &HangReport) -> Ending {
    ending_with(soc, trip_cycle, masked(report))
}

fn ending_with(soc: &Soc, trip_cycle: u64, hang: String) -> Ending {
    Ending {
        trip_cycle,
        report: soc.report(),
        faults: soc.fault_stats(HOT_LINK).expect("the hot link exists"),
        ctrl: soc.ctrl_status(),
        gmem: soc.gmem_read(0, soc.config().gmem_words),
        hang,
    }
}

fn counters(soc: &Soc) -> Counters {
    let sim = soc.sim();
    (
        sim.instants(),
        sim.ticks_delivered(),
        sim.ticks_skipped(),
        sim.ticks_skipped_blocked(),
        sim.commits_skipped(),
    )
}

fn run_to_hang(cfg: SocConfig, seed: u64, mode: Mode) -> (Ending, Soc) {
    let mut soc = build(cfg, seed, mode);
    let err = soc
        .run_checked(MAX_CYCLES, NO_PROGRESS)
        .expect_err("these lanes hang");
    let SimError::Hang { cycle, report, .. } = err else {
        panic!("seed {seed} {mode:?}: expected a hang, got {err}");
    };
    (ending(&soc, cycle, &report), soc)
}

/// The same lane, unsupervised, stopped at `cycle` and diagnosed there.
fn run_to_cycle(cfg: SocConfig, seed: u64, mode: Mode, cycle: u64) -> Ending {
    let mut soc = build(cfg, seed, mode);
    let r = soc.run(cycle);
    assert!(!r.completed && r.cycles == cycle);
    ending(&soc, cycle, &soc.sim().diagnose_hang(NO_PROGRESS))
}

fn spelling(gating: bool) -> SocConfig {
    SocConfig {
        gating,
        ..SocConfig::default()
    }
}

#[test]
fn hung_lanes_end_identically_under_every_kernel_spelling() {
    for (seed, mode, gated_trip, ungated_trip, gated_counters) in CASES {
        let lane = format!("seed {seed} {mode:?}");
        let (gated, soc_gated) = run_to_hang(spelling(true), seed, mode);
        assert_eq!(
            counters(&soc_gated),
            gated_counters,
            "{lane}: gated kernel counters"
        );
        assert_eq!(gated.trip_cycle, gated_trip, "{lane}: gated trip cycle");
        assert!(
            soc_gated.sim().ticks_skipped_blocked() > 0,
            "{lane}: no blocked component slept"
        );

        let (ungated, soc_ungated) = run_to_hang(spelling(false), seed, mode);
        assert_eq!(
            ungated.trip_cycle, ungated_trip,
            "{lane}: ungated trip cycle"
        );
        assert_eq!(soc_ungated.sim().ticks_skipped(), 0);
        run_to_cycle(spelling(true), seed, mode, ungated_trip)
            .across_gating()
            .assert_same(
                &ungated.across_gating(),
                &format!("{lane}: gated against ungated at cycle {ungated_trip}"),
            );
    }
}

/// The watchdog's run against the plain stepped one at the trip cycle,
/// nothing masked: whatever the supervised loop does to get through the
/// idle tail, it ends where stepping every cycle ends.
#[test]
fn a_supervised_hang_ends_where_the_stepped_run_does() {
    for (seed, mode, trip, _, gated_counters) in CASES {
        let lane = format!("seed {seed} {mode:?}");
        let cfg = spelling(true);
        let mut supervised = build(cfg, seed, mode);
        let err = supervised
            .run_checked(MAX_CYCLES, NO_PROGRESS)
            .expect_err("these lanes hang");
        let SimError::Hang { cycle, report, .. } = err else {
            panic!("{lane}: expected a hang, got {err}");
        };
        assert_eq!(cycle, trip, "{lane}: trip cycle");

        let mut stepped = build(cfg, seed, mode);
        let r = stepped.run(trip);
        assert!(!r.completed && r.cycles == trip);
        let diagnosis = stepped.sim().diagnose_hang(NO_PROGRESS);

        ending_with(&supervised, cycle, format!("{report:#?}")).assert_same(
            &ending_with(&stepped, trip, format!("{diagnosis:#?}")),
            &format!("{lane}: supervised against stepped at cycle {trip}"),
        );
        assert_eq!(
            counters(&supervised),
            counters(&stepped),
            "{lane}: kernel counters"
        );
        assert_eq!(counters(&supervised), gated_counters, "{lane}: pinned");
        assert_eq!(
            supervised.sim().kernel_digest(),
            stepped.sim().kernel_digest(),
            "{lane}: KernelDigest"
        );
    }
}

#[test]
fn a_wedged_noc_costs_no_ticks_over_the_watchdog_tail() {
    for (seed, mode, trip, _, _) in CASES {
        let cfg = spelling(true);
        // The last progress event is `NO_PROGRESS` cycles before
        // the trip; a second, unsupervised run stops there.
        let mut head = build(cfg, seed, mode);
        let r = head.run(trip - NO_PROGRESS);
        assert!(!r.completed);
        let (ending, full) = run_to_hang(cfg, seed, mode);
        assert_eq!(ending.trip_cycle, trip);
        let tail = full.sim().ticks_delivered() - head.sim().ticks_delivered();
        assert!(
            tail <= AXI_PLANE_COMPONENTS * NO_PROGRESS,
            "seed {seed} {mode:?}: {tail} ticks over the idle tail, more than the AXI \
             plane's {AXI_PLANE_COMPONENTS} a cycle"
        );
    }
}

/// The watchdog's 100 000 idle cycles are not stepped: every lane is
/// proved periodic once and advanced. A change that stops the AXI
/// plane's state from recurring — a new field presented as state that
/// never repeats, a component that turns opaque — fails a count here,
/// not a timing somewhere else.
#[test]
fn a_hung_lane_steps_a_fraction_of_its_watchdog_tail() {
    for (seed, mode, trip, _, _) in CASES {
        let (ending, soc) = run_to_hang(spelling(true), seed, mode);
        assert_eq!(ending.trip_cycle, trip);
        let sim = soc.sim();
        assert!(
            sim.loop_skips() >= 1,
            "seed {seed} {mode:?}: the hang was not proved periodic"
        );
        let stepped = sim.instants() - sim.cycles_skipped();
        assert!(
            stepped <= STEPPED_INSTANTS,
            "seed {seed} {mode:?}: {stepped} instants stepped of {trip}"
        );
    }
}
