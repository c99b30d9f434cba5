//! Hung fault lanes end identically however the kernel schedules them:
//! the eight hot-link lanes that wedge the NoC under the limits of
//! claims section E14's raw-NoC sweep, pinned cases of the differential
//! oracle (`crates/soc/tests/support/oracle.rs`). The oracle holds the
//! gated run to the ungated reference under its one gating mask and the
//! supervised run to the stepped one, nothing masked; these tests read
//! the lanes' pinned trips, counters and tail costs off the same runs.

#[path = "../crates/soc/tests/support/oracle.rs"]
mod oracle;

use oracle::each_hung_lane;

#[test]
fn hung_lanes_end_identically_under_every_kernel_spelling() {
    each_hung_lane(false, oracle::trips_are_pinned);
}

/// Whatever the supervised loop does to get through the idle tail, it
/// ends where stepping every cycle ends, on the pinned trip.
#[test]
fn a_supervised_hang_ends_where_the_stepped_run_does() {
    each_hung_lane(false, oracle::supervised_is_pinned);
}

#[test]
fn a_wedged_noc_costs_no_ticks_over_the_watchdog_tail() {
    each_hung_lane(false, oracle::tail_costs_the_axi_plane);
}

/// The watchdog's 100 000 idle cycles are not stepped: every lane is
/// proved periodic once and advanced. Counts are deterministic, so the
/// bound cannot flake the way a timing gate would.
#[test]
fn a_hung_lane_steps_a_fraction_of_its_watchdog_tail() {
    each_hung_lane(false, oracle::tail_is_advanced);
}
