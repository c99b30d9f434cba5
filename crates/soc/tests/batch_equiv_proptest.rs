//! A batch is its lanes run alone: every lane of a lockstep batch ends
//! as its solo run, and de-opt is per lane. The lane and golden models
//! of the differential oracle (`support/oracle.rs`).

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{Draw, Model};

/// Every batch lane ≡ its solo run, for every observable; one lane of
/// each drawn batch is certain to de-opt.
#[test]
fn every_lane_is_bit_identical_to_its_solo_run() {
    oracle::drawn(
        "every_lane_is_bit_identical_to_its_solo_run",
        5,
        Draw::Batch,
        &[Model::Lane, Model::Golden],
    );
}

/// A lane whose fault never fires must ride the golden run (no
/// de-opt), and one that fires must be evicted alone — convergence
/// tracking is per lane, not batch-global.
#[test]
fn deopt_is_per_lane_not_batch_global() {
    oracle::expect("de-opt is per lane", oracle::per_lane);
}
