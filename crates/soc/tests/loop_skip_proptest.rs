//! Property test for the supervised loop's one liberty: **skipped ≡
//! stepped**. A run under the watchdog may prove its hang periodic and
//! advance over whole periods arithmetically
//! ([`craft_sim::Simulator::run_until_checked`]); the plain
//! [`Soc::run`] never does. Whatever the fault lane, the watchdog
//! limit, the cycle budget and the checkpoint interval, the supervised
//! run must end exactly where the unsupervised one stands at the same
//! cycle — [`SocReport`], fault counters, controller status, global
//! memory, the five kernel counters, the [`craft_sim::KernelDigest`]
//! and, for a hang, the whole diagnosis, nothing masked.
//!
//! Half the draws are the eight hot-link lanes known to wedge the NoC
//! under the limits of claims section E14's raw-NoC sweep
//! (`tests/hung_lane_identity.rs`), so advances really happen;
//! the rest are arbitrary lanes, where runs that complete, run out of
//! budget or fail-stop on a corrupt packet ride along as the cases in
//! which nothing may be skipped. A second property draws the hang
//! itself: any of the six Fig. 6 tests, any link, stuck wires and total
//! loss included, with and without a PE timeout — wedges that leave
//! other components awake, asleep or counting towards a deadline.

use craft_connections::{FaultConfig, FaultStats};
use craft_sim::{KernelDigest, SimError};
use craft_soc::controller::CtrlStatus;
use craft_soc::workloads::{orchestrator_program, six_soc_tests, table_words, vec_mul, Workload};
use craft_soc::{Soc, SocConfig, SocReport};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The mesh link into the hub: every result flit crosses it.
const HOT_LINK: &str = "l11p3->15";

#[derive(Debug, Clone, Copy)]
enum Mode {
    Flip,
    Drop,
    Dup,
}

/// `(seed, mode, p)` of one fault lane.
type Lane = (u64, Mode, f64);

/// The lanes `tests/hung_lane_identity.rs` pins, at their `p`.
const HUNG: [(u64, Mode); 8] = [
    (800, Mode::Flip),
    (806, Mode::Drop),
    (808, Mode::Drop),
    (819, Mode::Drop),
    (881, Mode::Drop),
    (885, Mode::Drop),
    (871, Mode::Dup),
    (893, Mode::Dup),
];

fn build(lane: Lane, checkpoint_every: Option<u64>) -> Soc {
    let (seed, mode, p) = lane;
    let fault = match mode {
        Mode::Flip => FaultConfig::bit_flip(p),
        Mode::Drop => FaultConfig::drop(p),
        Mode::Dup => FaultConfig::duplicate(p),
    };
    let cfg = SocConfig {
        checkpoint_every,
        ..SocConfig::default()
    };
    build_on(&vec_mul(), cfg, HOT_LINK, fault, seed)
}

fn build_on(wl: &Workload, cfg: SocConfig, link: &str, fault: FaultConfig, seed: u64) -> Soc {
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    soc.inject_fault(link, fault, seed)
        .expect("the link pattern matches");
    soc
}

/// Everything observable about where a run stands.
#[derive(Debug, PartialEq)]
struct Standing {
    cycles: u64,
    report: SocReport,
    faults: FaultStats,
    ctrl: CtrlStatus,
    gmem: Vec<u64>,
    /// `(instants, ticks_delivered, ticks_skipped,
    /// ticks_skipped_blocked, commits_skipped)`.
    counters: (u64, u64, u64, u64, u64),
    digest: KernelDigest,
}

fn standing(soc: &Soc, link: &str) -> Standing {
    let sim = soc.sim();
    Standing {
        cycles: sim.cycles(soc.hub_clock()),
        report: soc.report(),
        faults: soc.fault_stats(link).expect("the link pattern matches"),
        ctrl: soc.ctrl_status(),
        gmem: soc.gmem_read(0, soc.config().gmem_words),
        counters: (
            sim.instants(),
            sim.ticks_delivered(),
            sim.ticks_skipped(),
            sim.ticks_skipped_blocked(),
            sim.commits_skipped(),
        ),
        digest: sim.kernel_digest(),
    }
}

/// Runs `supervised` under the watchdog and `stepped` plainly to the
/// cycle the first one stopped at, and compares everything.
fn supervised_stands_where_stepped_does(
    supervised: &mut Soc,
    stepped: &mut Soc,
    link: &str,
    max_cycles: u64,
    no_progress_limit: u64,
    what: &str,
) {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        supervised.run_checked(max_cycles, no_progress_limit)
    }));
    let Ok(res) = ran else {
        // A corrupt packet fail-stopped the run. Nothing was idle for
        // long, and the stepped run dies the same death.
        assert_eq!(supervised.sim().loop_skips(), 0);
        let again = catch_unwind(AssertUnwindSafe(|| stepped.run(max_cycles)));
        assert!(
            again.is_err(),
            "{what}: only the supervised run fail-stopped"
        );
        return;
    };
    let got = standing(supervised, link);
    let r = stepped.run(got.cycles);
    assert_eq!(r.cycles, got.cycles);
    assert_eq!(&got, &standing(stepped, link), "{}", what);
    match res {
        Ok(r) => {
            assert_eq!(r.cycles, got.cycles);
            assert_eq!(r.completed, stepped.halted());
            assert!(r.completed || r.cycles == max_cycles);
        }
        Err(SimError::Hang { cycle, report, .. }) => {
            assert_eq!(cycle, got.cycles);
            assert_eq!(report.idle_cycles, no_progress_limit);
            assert_eq!(
                format!("{report:#?}"),
                format!("{:#?}", stepped.sim().diagnose_hang(no_progress_limit)),
                "{}: the diagnosis",
                what
            );
        }
        Err(e) => panic!("{what}: unexpected {e}"),
    }
}

proptest! {
    // Each case is one supervised and one stepped full-SoC run; the
    // stepped one walks every cycle of a hang's tail.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_supervised_run_stands_where_the_stepped_one_does(
        lane in prop_oneof![
            prop::sample::select(HUNG.to_vec()).prop_map(|(seed, mode)| (seed, mode, 3e-3)),
            (
                0u64..1_000_000,
                prop::sample::select(vec![Mode::Flip, Mode::Drop, Mode::Dup]),
                prop::sample::select(vec![3e-4, 3e-3, 1e-2]),
            ),
        ],
        no_progress_limit in 1_500u64..120_000,
        // A budget that ends before a probe can prove anything, one
        // that ends inside the stretch an advance would cover, and one
        // no hang reaches.
        max_cycles in prop_oneof![
            500u64..8_000,
            8_000u64..110_000,
            Just(4_000_000u64),
        ],
        checkpoint_every in prop::sample::select(vec![None, Some(300), Some(5_000), Some(30_000)]),
    ) {
        let mut supervised = build(lane, checkpoint_every);
        let mut stepped = build(lane, None);
        let what = format!("{lane:?}");
        supervised_stands_where_stepped_does(
            &mut supervised, &mut stepped, HOT_LINK, max_cycles, no_progress_limit, &what,
        );
        // An advance needs two periods of 2 048 cycles proved and a
        // third to spare, all within one call.
        let roomy = checkpoint_every.is_none_or(|every| every >= 30_000);
        if !roomy || no_progress_limit.min(max_cycles) < 3 * 2_048 {
            prop_assert_eq!(supervised.sim().loop_skips(), 0);
        }
    }

    /// Hangs of every shape: whichever components the wedge leaves
    /// awake, whatever the controller was doing when it set in, a stuck
    /// wire whose onset lies before, inside or after the probe, a PE
    /// timeout that keeps the hub counting (and so never advances).
    #[test]
    fn any_hang_ends_where_the_stepped_run_does(
        workload in 0usize..6,
        link in prop::sample::select(vec![HOT_LINK, "n5.eject", "n9.inject", "n15.eject", "->"]),
        fault in prop_oneof![
            (1u32..40).prop_map(|p| FaultConfig::drop(f64::from(p) / 100.0)),
            Just(FaultConfig::drop(1.0)),
            (1u32..40).prop_map(|p| FaultConfig::duplicate(f64::from(p) / 100.0)),
            (0u64..6_000).prop_map(FaultConfig::stuck_valid),
            (0u64..6_000).prop_map(FaultConfig::stuck_ready),
        ],
        seed in 0u64..1_000_000,
        pe_timeout in prop::sample::select(vec![None, None, Some(20_000)]),
        no_progress_limit in 8_000u64..60_000,
    ) {
        let wl = &six_soc_tests()[workload];
        let cfg = SocConfig { pe_timeout, ..SocConfig::default() };
        let mut supervised = build_on(wl, cfg, link, fault, seed);
        let mut stepped = build_on(wl, cfg, link, fault, seed);
        let what = format!("{} {link} {fault} seed {seed} pe_timeout {pe_timeout:?}", wl.name);
        supervised_stands_where_stepped_does(
            &mut supervised, &mut stepped, link, 1_000_000, no_progress_limit, &what,
        );
    }
}

/// The draws above would be vacuous if no case ever advanced: the
/// pinned lanes under the campaign's own limits all do.
#[test]
fn the_pinned_lanes_advance() {
    for (seed, mode) in HUNG {
        let mut soc = build((seed, mode, 3e-3), None);
        let res = soc.run_checked(4_000_000, 100_000);
        assert!(matches!(res, Err(SimError::Hang { .. })), "seed {seed}");
        let proved = soc.sim().last_loop().expect("proved periodic");
        assert_eq!(proved.period, 2_048, "seed {seed}: {proved:?}");
    }
}
