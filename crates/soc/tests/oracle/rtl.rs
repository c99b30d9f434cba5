//! The two RTL fidelities keep the gating they ask for, like every
//! other configuration: routers, the controller, the AXI plane and
//! clean channel commits sleep, while an RTL PE or hub answers
//! `Sleep::No` from its own `can_sleep`, since it re-evaluates (and
//! charges) every gate each cycle. The contract's `Report` comparison
//! of the gated model against the ungated reference (`gates_charged`)
//! is what proves no RTL unit slept. Each RTL fidelity is also held to
//! the other on every field but the compile plan's statistics — same
//! cycles, same verified results, same charged gates.

use super::gating::{elides_commits, engaged, keeps_gating};
use crate::*;

/// The RTL path charges gates.
fn charges_gates(r: &Runs) {
    assert!(
        r.get(M::Reference).charged_gates > 0,
        "the RTL path charges gates"
    );
}

/// Gating kept, ticks and clean commits elided, and the RTL path
/// charges gates.
fn rtl(r: &Runs) {
    elides_commits(r);
    keeps_gating(r);
    charges_gates(r);
}

/// Interpreted RTL's supervised run, and a sink on it, keep the gating
/// they ask for and elide ticks and clean commits.
#[test]
fn interpreted_rtl_keeps_gating() {
    let c = case("vec_mul").fidelity(Fidelity::Rtl);
    expect_under(c, &[M::Supervised, M::Telemetry], rtl);
}

/// Interpreted RTL against compiled RTL: same cycles, same verified
/// results, same charged gates.
#[test]
fn interpreted_rtl_compiles_alike() {
    let c = case("vec_mul").fidelity(Fidelity::Rtl);
    expect_under(c, &[M::Compiled], charges_gates);
}

#[test]
fn compiled_rtl_keeps_gating_and_interprets_alike() {
    expect(case("vec_mul").fidelity(Fidelity::RtlCompiled), rtl);
}

#[test]
fn compiled_rtl_dot_product_interprets_alike() {
    expect(case("dot_product").fidelity(Fidelity::RtlCompiled), rtl);
}

/// At either RTL fidelity the gated model sleeps through idle routers
/// and is the ungated run on every observed field, charged gates
/// included; and both fidelities sleep the same ticks and commits, as
/// their units differ only in how they evaluate a gate.
#[test]
fn either_rtl_fidelity_gates_alike() {
    let mut counters = vec![];
    for fidelity in [Fidelity::Rtl, Fidelity::RtlCompiled] {
        expect_under(case("vec_mul").fidelity(fidelity), &[M::Gated], |r| {
            engaged(r);
            charges_gates(r);
            counters.push(r.get(M::Gated).kernel.counters);
        });
    }
    assert_eq!(counters[0], counters[1], "the gated kernel counters");
}
