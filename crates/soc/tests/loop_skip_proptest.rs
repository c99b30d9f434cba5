//! The supervised loop's one liberty — proving a hang periodic and
//! advancing over whole periods — is invisible: a supervised run ends
//! where the stepped one stands at the same cycle, nothing masked. The
//! supervised model of the differential oracle (`support/oracle.rs`).

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{Draw, Model};

/// The lanes known to wedge the NoC, under drawn watchdog limits,
/// budgets and checkpoint intervals, so that advances really happen.
#[test]
fn a_supervised_run_stands_where_the_stepped_one_does() {
    oracle::drawn(
        "a_supervised_run_stands_where_the_stepped_one_does",
        64,
        Draw::Hung,
        &[Model::Supervised],
    );
}

/// Hangs of every shape: total loss or a stuck wire on any link of any
/// workload, with and without a PE timeout.
#[test]
fn any_hang_ends_where_the_stepped_run_does() {
    oracle::drawn(
        "any_hang_ends_where_the_stepped_run_does",
        64,
        Draw::Wedged,
        &[Model::Supervised],
    );
}

/// The draws above would be vacuous if no case ever advanced: the
/// pinned lanes, at a watchdog with room for it, all do.
#[test]
fn the_pinned_lanes_advance() {
    oracle::each_hung_lane(true, oracle::advances);
}
