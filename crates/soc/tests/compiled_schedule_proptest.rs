//! Property tests for the compiled instant-plan's golden-reference
//! contract: with [`SocConfig::compiled_schedule`] on, the kernel's
//! dispatch-free fast path must be **bit-, cycle- and
//! report-identical** to the interpreted two-phase loop — same cycle
//! counts, same memory results, same `SocReport` down to per-channel
//! fault statistics, same coverage bins and the same gating counters —
//! across workloads, fidelities, clocking schemes and gating settings,
//! under the parallel sharded simulator, through a watchdog-
//! diagnosed hang (where the trip de-opts and the interpreted
//! diagnosis machinery takes over), and under seeded fault injection —
//! which is *not* a de-opt: a faulted run keeps the plan armed until
//! it completes or the watchdog trips.

use craft_connections::{FaultConfig, FaultStats};
use craft_riscv::asm::{self as rv, ZERO};
use craft_sim::{PlanDeopt, SimError};
use craft_soc::checkpoint::SimSnapshot;
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{dot_product, orchestrator_program, table_words, vec_mul, Workload};
use craft_soc::{
    ClockingMode, ParallelSoc, RunResult, SegmentStatus, SimEngine, Soc, SocConfig, SocReport,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything observable about one run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    cycles: u64,
    completed: bool,
    verified: bool,
    report: SocReport,
    coverage: Vec<(String, u64)>,
    ticks_delivered: u64,
    ticks_skipped: u64,
    commits_skipped: u64,
}

fn run_seq(cfg: SocConfig, wl: &Workload, max: u64) -> Outcome {
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
    Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: soc.report(),
        coverage: soc.coverage().bins(),
        ticks_delivered: soc.sim().ticks_delivered(),
        ticks_skipped: soc.sim().ticks_skipped(),
        commits_skipped: soc.sim().commits_skipped(),
    }
}

fn run_par(cfg: SocConfig, wl: &Workload, max: u64, threads: usize) -> Outcome {
    let mut soc = ParallelSoc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        threads,
    );
    let r = soc.run(max);
    let mut verified = r.completed;
    for (base, expect) in &wl.expected {
        if &soc.gmem_read(*base, expect.len()) != expect {
            verified = false;
        }
    }
    Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: soc.report(),
        coverage: soc.coverage().bins(),
        // The parallel harness has no merged gating counters; keep the
        // comparison on the architectural observables.
        ticks_delivered: 0,
        ticks_skipped: 0,
        commits_skipped: 0,
    }
}

/// Everything observable about one faulted run. `result` folds a
/// `RunResult` to its deterministic fields and an error to its debug
/// rendering, which for [`SimError::Hang`] carries the whole
/// `HangReport`.
#[derive(Debug, PartialEq)]
struct FaultedOutcome {
    result: Result<String, String>,
    report_json: String,
    stats: FaultStats,
    /// `instants`, `ticks_delivered`, `ticks_skipped`, `commits_skipped`.
    kernel: [u64; 4],
}

const FAULT_MAX_CYCLES: u64 = 2_000_000;
const FAULT_NO_PROGRESS: u64 = 5_000;

fn observe_faulted(soc: &Soc, res: Result<RunResult, SimError>, pattern: &str) -> FaultedOutcome {
    let sim = soc.sim();
    FaultedOutcome {
        result: res
            .map(|r| format!("{:?}", (r.cycles, r.completed, r.ctrl)))
            .map_err(|e| format!("{e:?}")),
        report_json: soc.report().to_json(),
        stats: soc.fault_stats(pattern).expect("pattern matches"),
        kernel: [
            sim.instants(),
            sim.ticks_delivered(),
            sim.ticks_skipped(),
            sim.commits_skipped(),
        ],
    }
}

/// The plan contract of a faulted run that armed at build: still armed
/// with no de-opt if the run ended by itself, exactly one de-opt —
/// the watchdog's — if it hung.
fn assert_armed_until_completion_or_trip(soc: &Soc, armed_at_build: bool, hung: bool, tag: &str) {
    let sim = soc.sim();
    assert_eq!(sim.plan_armed(), armed_at_build && !hung, "{tag}: armed");
    let trips = u64::from(armed_at_build && hung);
    assert_eq!(sim.plan_deopt_count(), trips, "{tag}: de-opts");
    assert_eq!(
        sim.plan_deopts().get(PlanDeopt::WatchdogTrip),
        trips,
        "{tag}"
    );
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
) -> Result<FaultedOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut soc = Soc::build(
            cfg,
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
        );
        let armed = soc.sim().plan_armed();
        soc.inject_fault(pattern, fault, seed)
            .expect("pattern matches");
        assert_eq!(soc.sim().plan_armed(), armed, "injection must not de-opt");
        let res = soc.run_checked(FAULT_MAX_CYCLES, FAULT_NO_PROGRESS);
        let tag = format!("{pattern} {fault} seed {seed}");
        assert_armed_until_completion_or_trip(&soc, armed, res.is_err(), &tag);
        observe_faulted(&soc, res, pattern)
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
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

/// The armed regime, exhaustively: every fault class on every channel
/// pattern on both workloads, at sim-accurate fidelity under
/// synchronous clocking — where `compiled_schedule` actually arms.
#[test]
fn faulted_runs_stay_armed_and_identical_to_interpreted() {
    let base = SocConfig::default();
    let compiled = SocConfig {
        compiled_schedule: true,
        ..base
    };
    let mut endings = [0usize; 3]; // completed, hung, fail-stopped
    for wl in [vec_mul(), dot_product()] {
        for pattern in FAULT_PATTERNS {
            for (i, fault) in fault_classes().into_iter().enumerate() {
                let seed = 800 + i as u64;
                let interp = run_faulted(base, &wl, pattern, fault, seed);
                let fast = run_faulted(compiled, &wl, pattern, fault, seed);
                assert_eq!(interp, fast, "{} {pattern} {fault}", wl.name);
                endings[match &fast {
                    Ok(o) if o.result.is_ok() => 0,
                    Ok(_) => 1,
                    Err(_) => 2,
                }] += 1;
            }
        }
    }
    assert!(
        endings.iter().all(|&n| n > 0),
        "grid must cover completed, hung and fail-stopped runs: {endings:?}"
    );
}

/// A fault injected mid-run on an armed SoC, then re-armed from the
/// snapshot's fault log by `restore`: the plan stays armed through the
/// injection, the replay and the resumed run, and the outcome is the
/// interpreted segmented run's.
#[test]
fn mid_run_injection_survives_checkpoint_restore_armed() {
    const PATTERN: &str = "n5.eject";
    let wl = dot_product();
    let run = |compiled_schedule: bool| {
        let cfg = SocConfig {
            compiled_schedule,
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
        let snap = soc.last_checkpoint().expect("auto checkpoint").clone();
        let res = soc.run_to_end();
        assert_armed_until_completion_or_trip(&soc, compiled_schedule, res.is_err(), "direct");
        (observe_faulted(&soc, res, PATTERN), snap)
    };
    let (interp, _) = run(false);
    let (fast, snap) = run(true);
    assert!(interp.stats.flips > 0, "the mid-run injector fired");
    assert_eq!(interp, fast, "armed mid-run injection diverged");

    assert_eq!(snap.faults.len(), 1, "the injection is in the fault log");
    let snap = SimSnapshot::from_bytes(&snap.to_bytes()).expect("parses");
    let mut back = Soc::restore(&snap).expect("restores");
    assert!(
        back.sim().plan_armed(),
        "replayed injection must not de-opt"
    );
    let res = back.run_to_end();
    assert_armed_until_completion_or_trip(&back, true, res.is_err(), "restored");
    assert_eq!(observe_faulted(&back, res, PATTERN), fast);
}

proptest! {
    // Each case is two full-SoC runs in debug mode — keep the case
    // count low; the fidelity/clocking/gating axes each get drawn
    // within a few cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault vectors across the axes where the plan may or may not
    /// arm (RTL fidelities auto-disable gating, GALS spreads the
    /// clocks): whatever `compiled_schedule` does at build, a faulted
    /// run observes nothing of it.
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
        let base = SocConfig { fidelity, clocking, ..SocConfig::default() };
        let compiled = SocConfig { compiled_schedule: true, ..base };
        let wl = if pick_dot { dot_product() } else { vec_mul() };
        let interp = run_faulted(base, &wl, pattern, fault, seed);
        let fast = run_faulted(compiled, &wl, pattern, fault, seed);
        prop_assert_eq!(interp, fast, "faulted compiled schedule diverged ({:?})", base);
    }

    /// The compiled plan (or its refusal to arm) changes nothing
    /// observable, whatever the configuration.
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
        gating: bool,
        pick_dot: bool,
    ) {
        let base = SocConfig { fidelity, clocking, gating, ..SocConfig::default() };
        let compiled = SocConfig { compiled_schedule: true, ..base };
        let wl = if pick_dot { dot_product() } else { vec_mul() };
        let interp = run_seq(base, &wl, 4_000_000);
        let fast = run_seq(compiled, &wl, 4_000_000);
        prop_assert!(interp.verified, "interpreted baseline must verify ({base:?})");
        prop_assert_eq!(interp, fast, "compiled schedule diverged ({:?})", base);
    }
}

/// The plan arms exactly in the steady-state regime: uniform clocks
/// with gating on (RTL fidelities auto-disable gating and so never
/// arm).
#[test]
fn plan_arms_exactly_in_the_steady_state_regime() {
    for (fidelity, clocking, gating, expect_armed) in [
        (Fidelity::SimAccurate, ClockingMode::Synchronous, true, true),
        (
            Fidelity::SimAccurate,
            ClockingMode::Synchronous,
            false,
            false,
        ),
        // 2000 ppm is enough spread that per-node periods differ after
        // integer rounding; a smaller spread can round back to uniform
        // clocks, and the plan then (correctly) arms.
        (
            Fidelity::SimAccurate,
            ClockingMode::Gals { spread_ppm: 2_000 },
            true,
            false,
        ),
        (Fidelity::Rtl, ClockingMode::Synchronous, true, false),
    ] {
        let cfg = SocConfig {
            fidelity,
            clocking,
            gating,
            compiled_schedule: true,
            ..SocConfig::default()
        };
        let wl = vec_mul();
        let soc = Soc::build(
            cfg,
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
        );
        assert_eq!(
            soc.sim().plan_armed(),
            expect_armed,
            "arming mismatch for {cfg:?}"
        );
    }
}

/// Satellite: a compiled-schedule run that wedges produces the *same*
/// typed hang diagnosis as the interpreted run — the watchdog trip
/// de-opts (one `deopt_count` increment) and the interpreted
/// diagnosis machinery reads identical state. The controller spins on
/// `jal zero, 0`, so no NoC traffic ever counts as progress and the
/// plan stays armed right up to the trip.
#[test]
fn hang_diagnosis_is_identical_under_the_compiled_plan() {
    let spin = vec![rv::jal(ZERO, 0)];
    let wl = vec_mul();
    let run = |compiled: bool| {
        let cfg = SocConfig {
            compiled_schedule: compiled,
            ..SocConfig::default()
        };
        let mut soc = Soc::build(cfg, &spin, &table_words(&wl.entries), &wl.gmem_init);
        assert_eq!(soc.sim().plan_armed(), compiled);
        let err = soc
            .run_checked(2_000_000, 20_000)
            .expect_err("a spinning controller must be diagnosed as hung");
        (err, soc)
    };
    let (interp_err, _) = run(false);
    let (compiled_err, compiled_soc) = run(true);
    let SimError::Hang {
        cycle: ci,
        report: ri,
        ..
    } = &interp_err
    else {
        panic!("expected Hang, got {interp_err}");
    };
    let SimError::Hang {
        cycle: cc,
        report: rc,
        ..
    } = &compiled_err
    else {
        panic!("expected Hang, got {compiled_err}");
    };
    assert_eq!(ci, cc, "hang detected at different cycles");
    // `HangReport` has no `PartialEq`; its Debug form carries every
    // field (idle cycles, per-component and per-channel diagnoses).
    assert_eq!(
        format!("{ri:?}"),
        format!("{rc:?}"),
        "hang diagnoses differ"
    );
    assert!(
        !compiled_soc.sim().plan_armed(),
        "watchdog trip must de-opt before diagnosing"
    );
    assert_eq!(compiled_soc.sim().plan_deopt_count(), 1);
}

/// The compiled plan composes with the GALS-sharded parallel
/// simulator: each shard arms its own plan under synchronous clocking
/// and the merged outcome still matches the sequential interpreted
/// run.
#[test]
fn compiled_schedule_composes_with_parallel_soc() {
    let wl = dot_product();
    let base = SocConfig::default();
    let compiled = SocConfig {
        compiled_schedule: true,
        ..base
    };
    let interp = run_seq(base, &wl, 4_000_000);
    assert!(interp.verified, "sequential baseline must verify");
    for threads in [2usize, 8] {
        let mut par = run_par(compiled, &wl, 4_000_000, threads);
        // Zeroed in run_par for the parallel side; copy over so the
        // struct equality below compares the architectural fields.
        par.ticks_delivered = interp.ticks_delivered;
        par.ticks_skipped = interp.ticks_skipped;
        par.commits_skipped = interp.commits_skipped;
        assert_eq!(
            interp, par,
            "parallel compiled run diverged ({threads} threads)"
        );
    }
}
