//! The differential oracle's own cases (`support/oracle.rs`): the
//! fault grid, and the fail-stops named by their protocol check.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{expect, fails_at};

#[test]
fn the_fault_grid_reaches_every_ending() {
    oracle::fault_grid();
}

/// A corrupted `MemRead` / `MemWrite` header fail-stops at the hub's
/// range check, not at the memory array's own assert.
#[test]
fn a_corrupt_address_fails_stop_at_the_hub_range_check() {
    expect("hub range check", fails_at("outside global memory"));
}

/// A corrupted command fail-stops at the PE's state check.
#[test]
fn a_corrupt_command_fails_stop_at_the_pe_state_check() {
    expect("PE state check", fails_at("cannot handle"));
}
