//! Gating changes nothing observable: the kernel's gated loop against
//! its ungated mode, whatever the configuration, the faults and the
//! way the run ends. The gated model of the differential oracle
//! (`support/oracle.rs`); the fault grid is `tests/oracle.rs`'.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{expect, Draw, Model};

/// Gating changes nothing observable, whatever the configuration.
#[test]
fn compiled_schedule_is_bit_and_cycle_identical() {
    oracle::drawn(
        "compiled_schedule_is_bit_and_cycle_identical",
        8,
        Draw::FaultFree,
        &[Model::Gated, Model::Compiled],
    );
}

/// Fault vectors across every axis (RTL fidelities auto-disable
/// gating, GALS spreads the clocks): a faulted run observes nothing of
/// whether the kernel gates.
#[test]
fn faulted_compiled_schedule_is_identical_on_every_axis() {
    let property = "faulted_compiled_schedule_is_identical_on_every_axis";
    oracle::drawn(property, 8, Draw::Faulted, &[Model::Gated, Model::Compiled]);
}

/// A fault injected mid-run, then re-armed from the snapshot's fault
/// log on restore: the restored run is the direct gated run down to
/// the kernel's work counters.
#[test]
fn mid_run_injection_survives_checkpoint_restore_armed() {
    expect("mid-run injection, restored", oracle::mid_run);
}

/// The loop elides nothing where gating is off, synchronous or GALS.
/// That it elides ticks and commits where gating is on, GALS included,
/// and nothing at RTL fidelities, which turn gating off, is pinned once,
/// in craft-soc's unit tests (`soc::compiled_schedule_tests`).
#[test]
fn plan_arms_exactly_in_the_steady_state_regime() {
    expect("ungated", oracle::elides_nothing);
    expect("ungated GALS", oracle::elides_nothing);
}

/// A run that wedges produces the same typed hang diagnosis gated and
/// ungated but for which components were asleep.
#[test]
fn hang_diagnosis_is_identical_under_the_compiled_plan() {
    expect("a spinning controller", oracle::spinning);
}
