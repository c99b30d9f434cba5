//! Restore-then-run is the uninterrupted run: the restored model,
//! revived from snapshot bytes at its last capture or at every
//! boundary, against the gated run on every field and against the
//! telemetry model on what its sink rendered.

use crate::*;
use Interrupt::{RestoreEvery, RestoreLast};

/// The restored model's last restore: capture cycle, idle count and
/// faults logged.
fn restored_from(r: &Runs) -> (u64, u64, usize) {
    let path = &r.get(M::Restored).facts.path;
    path.restored_from.expect("a capture was restored")
}

/// The capture restored lies between the hang's onset and its trip.
fn in_tail(r: &Runs) {
    let trip = r.get(M::Supervised).ending.hang_cycle().expect("a hang");
    let (cycle, idle, _) = restored_from(r);
    assert!(idle > 0 && cycle < trip, "captured at {cycle}, idle {idle}");
}

/// A fault armed mid-run fired, and the restore replayed its injection
/// from the snapshot's fault log: the restored run is the direct gated
/// run down to the kernel's work counters.
#[test]
fn a_mid_run_injection_is_replayed_from_the_fault_log() {
    let fault = FaultConfig::bit_flip(0.05);
    let c = case("dot_product")
        .fault("n5.eject", fault, 11)
        .with(|c| c.faults[0].at = 300)
        .watchdog(5_000, RestoreLast(300));
    expect(c, |r| {
        let fired = r.get(M::Supervised).faults[0].flips > 0;
        assert!(fired, "the injector fired");
        assert!(skipped(r.get(M::Gated)) > 0, "gating engaged");
        let (cycle, _, logged) = restored_from(r);
        let replayed = cycle > 300 && logged == 1;
        assert!(replayed, "the restore replays the injection");
    });
}

/// Telemetry is part of the restore-then-run contract: the restored
/// run renders what the uninterrupted one does, and the `sim.ckpt.*`
/// probes count captures without perturbing the run — the capturing
/// telemetry model records them, the reference none.
#[test]
fn telemetry_is_invariant_across_restore() {
    expect(case("vec_mul").watchdog(5_000, RestoreLast(300)), |r| {
        let captures = |model| metric(r.get(model), "sim.ckpt.count");
        assert!(captures(M::Telemetry) >= 2, "periodic captures are counted");
        let bytes = metric(r.get(M::Telemetry), "sim.ckpt.bytes");
        assert!(bytes > 0, "bytes recorded");
        assert_eq!(captures(M::Reference), 0, "the reference never captures");
        let (cycle, _, _) = restored_from(r);
        assert!(cycle > 0, "restored mid-run");
    });
}

/// Restored at three boundaries or more, a faulted run ends as the
/// uninterrupted one.
#[test]
fn restore_at_every_boundary_matches_uninterrupted() {
    let fault = FaultConfig::bit_flip(0.01);
    let c = case("vec_mul")
        .fault(HOT_LINK, fault, 11)
        .watchdog(50_000, RestoreEvery(200));
    expect(c, |r| {
        assert!(r.get(M::Restored).facts.path.boundaries >= 3)
    });
}

/// A restore chain through a hang reproduces its diagnosis.
#[test]
fn a_restore_chain_through_a_hang_reproduces_the_diagnosis() {
    let c = hot_lane(FaultConfig::bit_flip, 800).watchdog(5_000, RestoreEvery(1_000));
    expect(c, |r| {
        assert!(r.get(M::Supervised).ending.hang_cycle().is_some())
    });
}

/// A checkpoint taken between a hang's onset and the watchdog's
/// diagnosis resumes into the identical diagnosis.
#[test]
fn a_capture_in_a_hang_tail_reproduces_the_diagnosis() {
    let c = case("pe5_scale")
        .fault("n5.eject", FaultConfig::drop(1.0), 3)
        .watchdog(20_000, RestoreLast(5_000));
    expect(c, in_tail);
}

/// The same at RTL fidelity, where every cycle of the tail is stepped.
#[test]
fn a_capture_in_an_rtl_hang_tail_reproduces_the_diagnosis() {
    let c = case("vec_mul")
        .fault(HOT_LINK, FaultConfig::bit_flip(1.0), 505_387)
        .fidelity(Fidelity::Rtl)
        .watchdog(1_000, RestoreLast(400));
    expect(c, in_tail);
}

/// A capture after the supervised loop advanced over a hang restores
/// by stepped replay into the same trip: the first segment advanced
/// over the hung lane's poll loop, and the trip is the pinned one.
#[test]
fn a_snapshot_taken_after_a_loop_skip_restores_by_stepped_replay() {
    let c = e14(hot_lane(FaultConfig::bit_flip, 800)).watchdog(100_000, RestoreLast(30_000));
    expect(c, |r| {
        let supervised = r.get(M::Supervised);
        assert_eq!(supervised.ending.hang_cycle(), Some(100_742));
        let [instants, skips, cycles] = supervised.facts.path.first_boundary.unwrap();
        assert_eq!((instants, skips), (30_000, 1), "the first segment advanced");
        assert!(cycles >= 20_000, "{cycles}");
    });
}

/// Sequential engine: a fresh process restored from the byte codec of
/// a mid-run capture finishes identically — completed, corrupted or
/// hung.
#[test]
fn sequential_restore_then_run_is_identical() {
    let property = "sequential_restore_then_run_is_identical";
    drawn(property, 6, Draw::Restored, &[M::Supervised, M::Restored]);
}
