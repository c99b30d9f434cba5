//! Property tests for the kernel loop's reference contract: the gated
//! loop — idle and blocked components asleep, clean channel commits
//! elided — must be **bit-, cycle- and report-identical** to its own
//! ungated mode, in which nothing sleeps and every sequential commits:
//! same cycle counts, same memory results, same `SocReport` down to
//! per-channel fault statistics, same coverage bins — across
//! workloads, fidelities, clocking schemes and router kinds, through a
//! watchdog-diagnosed hang, under seeded fault injection armed before
//! the run or in the middle of it, and through checkpoint / restore.
//!
//! Completed runs are compared exactly. Hung runs are compared the way
//! `tests/hung_lane_identity.rs` does: at the same cycle, with
//! `CompDiag::asleep` masked, and without comparing the trip cycle
//! itself — an idle component's wake-up counts as watchdog progress
//! and an ungated run has no wake-ups, so the gated watchdog may trip
//! a few cycles later. One report field is masked throughout:
//! `noc.pop_empty` counts the idle hub's polls of its empty eject
//! channel, which a gated kernel elides.
//!
//! (The file name is historical: these suites used to compare two
//! values of `SocConfig::compiled_schedule`, which selects nothing any
//! more.)

use craft_connections::{FaultConfig, FaultStats};
use craft_riscv::asm::{self as rv, ZERO};
use craft_sim::{HangReport, SimError};
use craft_soc::checkpoint::SimSnapshot;
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{dot_product, orchestrator_program, table_words, vec_mul, Workload};
use craft_soc::{
    restore_engine, ClockingMode, EngineKind, RouterKind, RunResult, SegmentStatus, Soc, SocConfig,
    SocReport,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn ungated(cfg: SocConfig) -> SocConfig {
    SocConfig {
        gating: false,
        ..cfg
    }
}

/// `report` with the one field gating may change blanked.
fn across_gating(mut report: SocReport) -> SocReport {
    report.noc.pop_empty = 0;
    report
}

/// `Debug` rendering with the one field gating may change blanked.
fn masked(report: &HangReport) -> String {
    let mut r = report.clone();
    for c in &mut r.components {
        c.asleep = false;
    }
    format!("{r:#?}")
}

/// Everything observable about one completed run that gating may not
/// change.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    cycles: u64,
    completed: bool,
    verified: bool,
    report: SocReport,
    coverage: Vec<(String, u64)>,
}

/// The kernel's work counters of one sequential run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Work {
    instants: u64,
    ticks_delivered: u64,
    ticks_skipped: u64,
    commits_skipped: u64,
}

fn work(soc: &Soc) -> Work {
    let sim = soc.sim();
    Work {
        instants: sim.instants(),
        ticks_delivered: sim.ticks_delivered(),
        ticks_skipped: sim.ticks_skipped(),
        commits_skipped: sim.commits_skipped(),
    }
}

/// The two modes walk the same instants; delivered + skipped accounts
/// for every component edge, which is what the ungated mode delivers.
fn assert_work_accounts(gated: Work, reference: Work, tag: &str) {
    assert_eq!(gated.instants, reference.instants, "{tag}: instants");
    assert_eq!(
        (reference.ticks_skipped, reference.commits_skipped),
        (0, 0),
        "{tag}: the ungated mode elides nothing"
    );
    assert_eq!(
        gated.ticks_delivered + gated.ticks_skipped,
        reference.ticks_delivered,
        "{tag}: component edges"
    );
}

fn run_seq(cfg: SocConfig, wl: &Workload, max: u64) -> (Outcome, Work) {
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    let r = soc.run(max);
    let mut verified = r.completed;
    for (base, expect) in &wl.expected {
        if &soc.gmem_read(*base, expect.len()) != expect {
            verified = false;
        }
    }
    let outcome = Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: across_gating(soc.report()),
        coverage: soc.coverage().bins(),
    };
    (outcome, work(&soc))
}

/// How a supervised faulted run ended. A completed run folds to its
/// deterministic fields; a hang to its trip cycle and masked diagnosis.
#[derive(Debug, Clone, PartialEq)]
enum Ending {
    Finished(String),
    Hung { trip: u64, report: String },
}

/// Everything observable about one faulted run that gating may not
/// change (the trip cycle of a hang aside, see the module docs).
#[derive(Debug, Clone, PartialEq)]
struct FaultedOutcome {
    ending: Ending,
    report_json: String,
    stats: FaultStats,
}

const FAULT_MAX_CYCLES: u64 = 2_000_000;
const FAULT_NO_PROGRESS: u64 = 5_000;

fn observe_faulted(soc: &Soc, ending: Ending, pattern: &str) -> FaultedOutcome {
    FaultedOutcome {
        ending,
        report_json: across_gating(soc.report()).to_json(),
        stats: soc.fault_stats(pattern).expect("pattern matches"),
    }
}

fn ending_of(res: Result<RunResult, SimError>) -> Ending {
    match res {
        Ok(r) => Ending::Finished(format!("{:?}", (r.cycles, r.completed, r.ctrl))),
        Err(SimError::Hang { cycle, report, .. }) => Ending::Hung {
            trip: cycle,
            report: masked(&report),
        },
        Err(e) => Ending::Finished(format!("{e:?}")),
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn build_faulted(
    cfg: SocConfig,
    wl: &Workload,
    pattern: &str,
    fault: FaultConfig,
    seed: u64,
) -> Soc {
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    soc.inject_fault(pattern, fault, seed)
        .expect("pattern matches");
    soc
}

/// Builds `wl` under `cfg`, arms `fault` on `pattern` before the first
/// cycle and runs under the watchdog. A fail-stop (a corrupt packet's
/// decode panics) folds to `Err(panic message)`.
fn run_faulted(
    cfg: SocConfig,
    wl: &Workload,
    pattern: &str,
    fault: FaultConfig,
    seed: u64,
) -> Result<(FaultedOutcome, Work), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut soc = build_faulted(cfg, wl, pattern, fault, seed);
        let res = soc.run_checked(FAULT_MAX_CYCLES, FAULT_NO_PROGRESS);
        (observe_faulted(&soc, ending_of(res), pattern), work(&soc))
    }))
    .map_err(panic_message)
}

/// The same faulted run, unsupervised, stopped at `cycle` and diagnosed
/// there as the watchdog would have.
fn run_faulted_to_cycle(
    cfg: SocConfig,
    wl: &Workload,
    pattern: &str,
    fault: FaultConfig,
    seed: u64,
    cycle: u64,
) -> FaultedOutcome {
    let mut soc = build_faulted(cfg, wl, pattern, fault, seed);
    let r = soc.run(cycle);
    assert!(!r.completed && r.cycles == cycle);
    let ending = Ending::Hung {
        trip: cycle,
        report: masked(&soc.sim().diagnose_hang(FAULT_NO_PROGRESS)),
    };
    observe_faulted(&soc, ending, pattern)
}

/// Runs one fault vector under `cfg` as given and ungated and asserts
/// the module-doc contract. Returns how the run ended: 0 completed,
/// 1 hung, 2 fail-stopped.
fn assert_faulted_matches_ungated(
    cfg: SocConfig,
    wl: &Workload,
    pattern: &str,
    fault: FaultConfig,
    seed: u64,
) -> usize {
    let tag = format!("{} {pattern} {fault} seed {seed} ({cfg:?})", wl.name);
    let reference = run_faulted(ungated(cfg), wl, pattern, fault, seed);
    let gated = run_faulted(cfg, wl, pattern, fault, seed);
    match (reference, gated) {
        (Err(r), Err(g)) => {
            assert_eq!(g, r, "{tag}: fail-stop message");
            2
        }
        (Ok((r, rw)), Ok((g, gw))) => match (&r.ending, &g.ending) {
            (Ending::Finished(_), Ending::Finished(_)) => {
                assert_eq!(g, r, "{tag}");
                assert_work_accounts(gw, rw, &tag);
                0
            }
            (
                Ending::Hung { trip, .. },
                Ending::Hung {
                    trip: gated_trip, ..
                },
            ) => {
                assert!(
                    gated_trip >= trip,
                    "{tag}: wake-ups only ever add watchdog progress"
                );
                let at = run_faulted_to_cycle(cfg, wl, pattern, fault, seed, *trip);
                assert_eq!(at, r, "{tag}: gated against ungated at cycle {trip}");
                1
            }
            _ => panic!("{tag}: endings differ in kind\n{r:?}\n{g:?}"),
        },
        (r, g) => panic!("{tag}: only one mode fail-stopped\n{r:?}\n{g:?}"),
    }
}

/// The five fault classes at campaign-like intensity.
fn fault_classes() -> [FaultConfig; 5] {
    [
        FaultConfig::bit_flip(3e-3),
        FaultConfig::drop(3e-3),
        FaultConfig::duplicate(3e-3),
        FaultConfig::stuck_valid(150),
        FaultConfig::stuck_ready(150),
    ]
}

/// The hub's hot ingress link, every PE eject port, every inject port,
/// every mesh link.
const FAULT_PATTERNS: [&str; 4] = ["l11p3->15", ".eject", ".inject", "->"];

/// The default regime, exhaustively: every fault class on every channel
/// pattern on both workloads, at sim-accurate fidelity under
/// synchronous clocking.
#[test]
fn faulted_runs_stay_armed_and_identical_to_interpreted() {
    let mut endings = [0usize; 3]; // completed, hung, fail-stopped
    for wl in [vec_mul(), dot_product()] {
        for pattern in FAULT_PATTERNS {
            for (i, fault) in fault_classes().into_iter().enumerate() {
                let seed = 800 + i as u64;
                endings[assert_faulted_matches_ungated(
                    SocConfig::default(),
                    &wl,
                    pattern,
                    fault,
                    seed,
                )] += 1;
            }
        }
    }
    assert!(
        endings.iter().all(|&n| n > 0),
        "grid must cover completed, hung and fail-stopped runs: {endings:?}"
    );
}

/// A fault injected mid-run, then re-armed from the snapshot's fault
/// log by `restore_engine`: the gated segmented run is the ungated one, and
/// the restored run is the direct gated run down to the kernel's work
/// counters.
#[test]
fn mid_run_injection_survives_checkpoint_restore_armed() {
    const PATTERN: &str = "n5.eject";
    let wl = dot_product();
    let run = |gating: bool| {
        let cfg = SocConfig {
            gating,
            checkpoint_every: Some(300),
            ..SocConfig::default()
        };
        let mut soc = Soc::build(
            cfg,
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
        );
        soc.begin(FAULT_MAX_CYCLES, FAULT_NO_PROGRESS);
        assert!(matches!(soc.step_segment(), Ok(SegmentStatus::Boundary)));
        soc.inject_fault(PATTERN, FaultConfig::bit_flip(0.05), 11)
            .expect("pattern matches");
        assert!(matches!(soc.step_segment(), Ok(SegmentStatus::Boundary)));
        let snap = soc
            .last_checkpoint_bytes()
            .expect("auto checkpoint")
            .to_vec();
        let res = soc.run_to_end();
        (
            observe_faulted(&soc, ending_of(res), PATTERN),
            work(&soc),
            snap,
        )
    };
    let (reference, reference_work, _) = run(false);
    let (gated, gated_work, snap) = run(true);
    assert!(reference.stats.flips > 0, "the mid-run injector fired");
    assert!(matches!(gated.ending, Ending::Finished(_)));
    assert_eq!(gated, reference, "gated mid-run injection diverged");
    assert_work_accounts(gated_work, reference_work, "mid-run injection");
    assert!(gated_work.ticks_skipped > 0, "gating engaged");

    let decoded = SimSnapshot::from_bytes(&snap).expect("parses");
    assert_eq!(decoded.faults.len(), 1, "the injection is in the fault log");
    let mut back = restore_engine(EngineKind::Soc, &snap, false).expect("restores");
    let res = back.run_to_end();
    assert_eq!(observe_faulted(&back, ending_of(res), PATTERN), gated);
    assert_eq!(work(&back), gated_work, "restored kernel counters");
}

proptest! {
    // Each case is two full-SoC runs in debug mode — keep the case
    // count low; the fidelity/clocking/router axes each get drawn
    // within a few cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault vectors across every axis (RTL fidelities auto-disable
    /// gating, GALS spreads the clocks): a faulted run observes
    /// nothing of whether the kernel gates.
    #[test]
    fn faulted_compiled_schedule_is_identical_on_every_axis(
        fidelity in prop::sample::select(vec![
            Fidelity::SimAccurate,
            Fidelity::Rtl,
            Fidelity::RtlCompiled,
        ]),
        clocking in prop_oneof![
            Just(ClockingMode::Synchronous),
            (100u32..5_000).prop_map(|spread_ppm| ClockingMode::Gals { spread_ppm }),
            (0u64..1_000_000).prop_map(|noise_seed| ClockingMode::GalsAdaptive { noise_seed }),
        ],
        pick_dot: bool,
        pattern in prop::sample::select(FAULT_PATTERNS.to_vec()),
        fault in prop_oneof![
            (1u32..200).prop_map(|p| FaultConfig::bit_flip(f64::from(p) / 1e4)),
            (1u32..200).prop_map(|p| FaultConfig::drop(f64::from(p) / 1e4)),
            (1u32..200).prop_map(|p| FaultConfig::duplicate(f64::from(p) / 1e4)),
            (0u64..600).prop_map(FaultConfig::stuck_valid),
            (0u64..600).prop_map(FaultConfig::stuck_ready),
        ],
        seed in 0u64..1_000_000,
    ) {
        let cfg = SocConfig { fidelity, clocking, ..SocConfig::default() };
        let wl = if pick_dot { dot_product() } else { vec_mul() };
        assert_faulted_matches_ungated(cfg, &wl, pattern, fault, seed);
    }

    /// Gating changes nothing observable, whatever the configuration.
    #[test]
    fn compiled_schedule_is_bit_and_cycle_identical(
        fidelity in prop::sample::select(vec![
            Fidelity::SimAccurate,
            Fidelity::Rtl,
            Fidelity::RtlCompiled,
        ]),
        clocking in prop_oneof![
            Just(ClockingMode::Synchronous),
            (100u32..5_000).prop_map(|spread_ppm| ClockingMode::Gals { spread_ppm }),
            (0u64..1_000_000).prop_map(|noise_seed| ClockingMode::GalsAdaptive { noise_seed }),
        ],
        router in prop::sample::select(vec![RouterKind::Wormhole, RouterKind::StoreForward]),
        pick_dot: bool,
    ) {
        let cfg = SocConfig { fidelity, clocking, router, ..SocConfig::default() };
        let wl = if pick_dot { dot_product() } else { vec_mul() };
        let (reference, reference_work) = run_seq(ungated(cfg), &wl, 4_000_000);
        let (gated, gated_work) = run_seq(cfg, &wl, 4_000_000);
        prop_assert!(reference.verified, "ungated reference must verify ({cfg:?})");
        prop_assert_eq!(&gated, &reference, "gated run diverged ({:?})", cfg);
        assert_work_accounts(gated_work, reference_work, &format!("{cfg:?}"));
    }
}

/// The loop elides work exactly where gating is on — under GALS too,
/// whose per-node periods no steady-state schedule could describe —
/// and nowhere else (RTL fidelities auto-disable gating).
#[test]
fn plan_arms_exactly_in_the_steady_state_regime() {
    for (fidelity, clocking, gating, expect_gated) in [
        (Fidelity::SimAccurate, ClockingMode::Synchronous, true, true),
        (
            Fidelity::SimAccurate,
            ClockingMode::Synchronous,
            false,
            false,
        ),
        // 2000 ppm is enough spread that per-node periods differ after
        // integer rounding.
        (
            Fidelity::SimAccurate,
            ClockingMode::Gals { spread_ppm: 2_000 },
            true,
            true,
        ),
        (Fidelity::Rtl, ClockingMode::Synchronous, true, false),
    ] {
        let cfg = SocConfig {
            fidelity,
            clocking,
            gating,
            ..SocConfig::default()
        };
        let (outcome, work) = run_seq(cfg, &vec_mul(), 4_000_000);
        assert!(outcome.verified, "{cfg:?}");
        assert_eq!(work.ticks_skipped > 0, expect_gated, "ticks for {cfg:?}");
        assert_eq!(
            work.commits_skipped > 0,
            expect_gated,
            "commits for {cfg:?}"
        );
    }
}

/// A run that wedges produces the *same* typed hang diagnosis gated and
/// ungated — the watchdog reads the sleep flags the loop maintains, so
/// only `CompDiag::asleep` tells the two reports apart. The controller
/// spins on `jal zero, 0`, so no NoC traffic ever counts as progress,
/// nothing ever wakes, and both modes trip on the same cycle.
#[test]
fn hang_diagnosis_is_identical_under_the_compiled_plan() {
    let spin = vec![rv::jal(ZERO, 0)];
    let wl = vec_mul();
    let run = |gating: bool| {
        let cfg = SocConfig {
            gating,
            ..SocConfig::default()
        };
        let mut soc = Soc::build(cfg, &spin, &table_words(&wl.entries), &wl.gmem_init);
        let err = soc
            .run_checked(2_000_000, 20_000)
            .expect_err("a spinning controller must be diagnosed as hung");
        let SimError::Hang { cycle, report, .. } = err else {
            panic!("expected Hang, got {err}");
        };
        (cycle, report, across_gating(soc.report()))
    };
    let (reference_cycle, reference, reference_report) = run(false);
    let (gated_cycle, gated, gated_report) = run(true);
    assert_eq!(
        reference_cycle, gated_cycle,
        "hang detected at different cycles"
    );
    assert_eq!(masked(&reference), masked(&gated), "hang diagnoses differ");
    assert_eq!(reference_report, gated_report);
    assert!(reference.components.iter().all(|c| !c.asleep));
    assert!(
        gated.components.iter().filter(|c| c.asleep).count() > 30,
        "the gated diagnosis names the sleepers: {gated:#?}"
    );
}
