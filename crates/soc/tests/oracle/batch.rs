//! A batch is its lanes run alone: every lane of a lockstep batch —
//! uninterrupted, and restored when the schedule restores — ends as its
//! solo reference, fail-stop sites included, and the batch's golden
//! run ends as the supervised one.

use crate::*;
use Interrupt::{RestoreEvery, RestoreLast};

/// The report of the uninterrupted batch run.
fn batch_report(r: &Runs) -> &BatchReport {
    let golden = r.find(M::Golden, 0, None);
    golden.facts.batch.as_ref().expect("a batch report")
}

/// Lane `lane` of the restored batch hangs.
fn lane_hangs(r: &Runs, lane: usize) {
    assert!(r.find(M::Lane, 1, Some(lane)).ending.hang_cycle().is_some());
}

/// The batch, restored at three boundaries or more, ends as the
/// uninterrupted one.
#[test]
fn a_batch_restored_at_every_boundary_matches_uninterrupted() {
    let c = case("vec_mul")
        .lane(FaultConfig::bit_flip(0.01), 11)
        .watchdog(50_000, RestoreEvery(200));
    expect(c, |r| {
        assert!(r.find(M::Golden, 1, None).facts.path.boundaries >= 3);
    });
}

/// A restore chain through a hang reproduces the diagnosis on a batch
/// lane.
#[test]
fn a_batch_lane_hangs_through_a_restore_chain() {
    let c = case("vec_mul")
        .lane(FaultConfig::bit_flip(3e-3), 800)
        .watchdog(5_000, RestoreEvery(1_000));
    expect(c, |r| lane_hangs(r, 0));
}

/// Convergence is tracked per lane, not batch-global: the two lanes
/// whose faults never fire ride the golden run, and the lane whose
/// fault fires de-opts alone.
#[test]
fn deopt_is_per_lane_not_batch_global() {
    let c = case("vec_mul")
        .lane(FaultConfig::bit_flip(0.0), 1)
        .lane(FaultConfig::drop(1.0), 2)
        .lane(FaultConfig::duplicate(0.0), 3);
    expect(c, |r| {
        let report = batch_report(r);
        let deopted: Vec<bool> = report.lanes.iter().map(|l| l.deopted).collect();
        assert_eq!(deopted, [false, true, false]);
        assert_eq!((report.converged_lanes, report.deopt_lanes), (2, 1));
        assert_eq!(report.lanes[0].report, report.lanes[2].report);
    });
}

/// A one-lane batch settles its one lane on the golden run, and lane
/// and golden run end as the sequential reference does.
#[test]
fn a_one_lane_batch_settles_on_the_golden_run() {
    let c = case("vec_mul").lane(FaultConfig::bit_flip(0.0), 7);
    expect(c, |r| {
        let report = batch_report(r);
        assert_eq!((report.lanes.len(), report.deopt_lanes), (1, 0));
    });
}

/// An RTL batch whose forced lane hangs around the capture restores
/// every lane — golden-riding and de-opted alike — into its solo run.
#[test]
fn rtl_lanes_restore_around_a_hang() {
    let c = case("vec_mul")
        .lane(FaultConfig::duplicate(0.01), 861_853)
        .lane(FaultConfig::drop(0.002), 465_289)
        .lane(FaultConfig::bit_flip(1.0), 505_387)
        .fidelity(Fidelity::Rtl)
        .watchdog(1_000, RestoreLast(240));
    expect(c, |r| lane_hangs(r, 2));
}

/// Every batch lane ≡ its solo run, for every observable; one lane of
/// each drawn batch is certain to de-opt.
#[test]
fn every_lane_is_bit_identical_to_its_solo_run() {
    let property = "every_lane_is_bit_identical_to_its_solo_run";
    drawn(property, 5, Draw::Batch, &[M::Lane, M::Golden]);
}

/// The golden snapshot plus per-lane shadow state restores into a
/// batch whose every lane finishes identical to its solo run.
#[test]
fn batch_restore_then_run_is_identical() {
    let property = "batch_restore_then_run_is_identical";
    drawn(property, 3, Draw::RestoredBatch, &[M::Lane, M::Golden]);
}
