//! Hung fault lanes end identically however the kernel schedules them:
//! the eight hot-link lanes of [`HUNG`] that wedge the NoC under the
//! limits of claims section E14's raw-NoC sweep, and drawn hangs. The
//! contract holds the gated run to the ungated reference under its one
//! gating mask and the supervised run to the stepped one, nothing
//! masked; the lanes' tests read their pinned trips, counters and tail
//! costs off the same runs.

use crate::*;

/// Components that poll on a wedged NoC: the controller, AXI master,
/// bus, staging slave and the hub's AXI slave.
const AXI_PLANE_COMPONENTS: u64 = 5;

/// Instants a hung lane may really step: the ≈ 750 cycles to the
/// wedge, 1 024 idle ones before the probe opens, two periods of 2 048
/// to prove the loop and less than two more to the trip.
const STEPPED_INSTANTS: u64 = 12_000;

fn lane(seed: u64) -> &'static HungLane {
    HUNG.iter().find(|l| l.0 == seed).expect("a hung lane")
}

/// The supervised run proved the poll loop's 2 048-cycle period and
/// advanced over it.
fn advances(r: &Runs) {
    let f = &r.get(M::Supervised).facts;
    assert!(f.loop_skips >= 1, "proved periodic");
    assert_eq!(f.last_loop.map(|l| l.period), Some(2_048));
}

/// Each lane under E14's limits, checked under `models` and held to
/// `holds` with its pinned trips and kernel counters. Only a model held
/// to the ungated reference steps a lane's idle tail ungated, the
/// costliest run of it.
fn each_lane_under_e14(models: &[Model], holds: fn(&Runs, &HungLane)) {
    for lane in &HUNG {
        let &(seed, fault, ..) = lane;
        expect_under(e14(hot_lane(fault, seed)), models, |r| holds(r, lane));
    }
}

/// Both spellings trip where they always have: the ungated and gated
/// trips and the gated kernel counters are pinned, and blocked
/// components slept; a sink on the supervised run renders what one on
/// the reference does.
#[test]
fn hung_lanes_end_identically_under_every_kernel_spelling() {
    each_lane_under_e14(
        &[M::Gated, M::Telemetry],
        |r, &(_, _, ungated_trip, counters)| {
            let gated = r.get(M::Gated);
            let ungated = r.get(M::Reference).ending.hang_cycle();
            assert_eq!(ungated, Some(ungated_trip), "ungated trip");
            assert_eq!(gated.ending.hang_cycle(), Some(counters[0]), "gated trip");
            assert_eq!(gated.kernel.counters, counters, "gated kernel counters");
            assert!(counters[3] > 0, "a blocked component slept");
        },
    );
}

/// Whatever the supervised loop does to get through the idle tail, it
/// ends where stepping every cycle ends, on the pinned trip with the
/// pinned kernel counters (the contract holds it to the stepped run on
/// every field).
#[test]
fn a_supervised_hang_ends_where_the_stepped_run_does() {
    each_lane_under_e14(&[M::Supervised], |r, &(_, _, _, counters)| {
        let supervised = r.get(M::Supervised);
        assert_eq!(supervised.ending.hang_cycle(), Some(counters[0]), "trip");
        assert_eq!(supervised.kernel.counters, counters, "kernel counters");
    });
}

/// A wedged NoC costs nothing over the watchdog's idle tail but the AXI
/// plane's polls: the gated run, here the supervised run's baseline.
#[test]
fn a_wedged_noc_costs_no_ticks_over_the_watchdog_tail() {
    each_lane_under_e14(&[M::Supervised], |r, _| {
        let tail = r.get(M::Gated).facts.tail_ticks;
        assert!(tail <= AXI_PLANE_COMPONENTS * 100_000, "{tail} tail ticks");
    });
}

/// The watchdog's 100 000 idle cycles are not stepped: every lane is
/// proved periodic once and advanced. Counts are deterministic, so the
/// bound cannot flake the way a timing gate would.
#[test]
fn a_hung_lane_steps_a_fraction_of_its_watchdog_tail() {
    each_lane_under_e14(&[M::Supervised], |r, _| {
        advances(r);
        let supervised = r.get(M::Supervised);
        let stepped = supervised.kernel.counters[0] - supervised.facts.cycles_skipped;
        assert!(stepped <= STEPPED_INSTANTS, "{stepped} instants stepped");
    });
}

/// The lane `seed` at a watchdog of 10 000 idle cycles, still room to
/// prove the poll loop and advance: the draws below would be vacuous if
/// no case ever advanced.
fn at_a_short_watchdog(seed: u64) {
    let &(_, fault, ..) = lane(seed);
    expect(
        hot_lane(fault, seed).watchdog(10_000, Interrupt::None),
        advances,
    );
}

#[test]
fn lane_800_advances_at_a_short_watchdog() {
    at_a_short_watchdog(800);
}

#[test]
fn lane_806_advances_at_a_short_watchdog() {
    at_a_short_watchdog(806);
}

#[test]
fn lane_808_advances_at_a_short_watchdog() {
    at_a_short_watchdog(808);
}

#[test]
fn lane_819_advances_at_a_short_watchdog() {
    at_a_short_watchdog(819);
}

#[test]
fn lane_881_advances_at_a_short_watchdog() {
    at_a_short_watchdog(881);
}

#[test]
fn lane_885_advances_at_a_short_watchdog() {
    at_a_short_watchdog(885);
}

#[test]
fn lane_871_advances_at_a_short_watchdog() {
    at_a_short_watchdog(871);
}

#[test]
fn lane_893_advances_at_a_short_watchdog() {
    at_a_short_watchdog(893);
}

/// The lanes known to wedge the NoC, under drawn watchdog limits,
/// budgets and checkpoint intervals, so that advances really happen.
#[test]
fn a_supervised_run_stands_where_the_stepped_one_does() {
    let property = "a_supervised_run_stands_where_the_stepped_one_does";
    drawn(property, 64, Draw::Hung, &[M::Supervised]);
}

/// Hangs of every shape: total loss or a stuck wire on any link of any
/// workload, with and without a PE timeout.
#[test]
fn any_hang_ends_where_the_stepped_run_does() {
    let property = "any_hang_ends_where_the_stepped_run_does";
    drawn(property, 64, Draw::Wedged, &[M::Supervised]);
}
