//! The two RTL fidelities: each is held to the other on every field
//! but the compile plan's statistics — same cycles, same verified
//! results, same charged gates — and an RTL fidelity turns activity
//! gating off, since its PEs and hub re-evaluate every gate each cycle
//! and never quiesce.

use crate::*;

/// Nothing sleeps in the supervised run, which asked for gating.
fn gates_nothing(r: &Runs) {
    let supervised = r.get(M::Supervised);
    assert!(
        !supervised.facts.gating && skipped(supervised) == 0,
        "RTL gates nothing"
    );
}

/// The RTL path charges gates.
fn charges_gates(r: &Runs) {
    assert!(
        r.get(M::Reference).charged_gates > 0,
        "the RTL path charges gates"
    );
}

/// Nothing sleeps, and the RTL path charges gates.
fn rtl(r: &Runs) {
    gates_nothing(r);
    charges_gates(r);
}

/// Interpreted RTL's supervised run, and a sink on it, asked for gating
/// and got none: nothing sleeps.
#[test]
fn interpreted_rtl_gates_nothing() {
    let c = case("vec_mul").fidelity(Fidelity::Rtl);
    expect_under(c, &[M::Supervised, M::Telemetry], gates_nothing);
}

/// Interpreted RTL against compiled RTL: same cycles, same verified
/// results, same charged gates.
#[test]
fn interpreted_rtl_compiles_alike() {
    let c = case("vec_mul").fidelity(Fidelity::Rtl);
    expect_under(c, &[M::Compiled], charges_gates);
}

#[test]
fn compiled_rtl_gates_nothing_and_interprets_alike() {
    expect(case("vec_mul").fidelity(Fidelity::RtlCompiled), rtl);
}

#[test]
fn compiled_rtl_dot_product_interprets_alike() {
    expect(case("dot_product").fidelity(Fidelity::RtlCompiled), rtl);
}

/// At either RTL fidelity the gated model is the ungated run: nothing
/// sleeps, and the RTL path charges gates.
#[test]
fn either_rtl_fidelity_gates_alike() {
    for fidelity in [Fidelity::Rtl, Fidelity::RtlCompiled] {
        expect_under(case("vec_mul").fidelity(fidelity), &[M::Gated], |r| {
            let gated = r.get(M::Gated);
            assert!(
                !gated.facts.gating && skipped(gated) == 0,
                "RTL gates nothing"
            );
            charges_gates(r);
        });
    }
}

/// Only an RTL fidelity turns gating off: both RTL fidelities' supervised
/// runs gate nothing, and a sim-accurate one keeps the gating it asks
/// for.
#[test]
fn only_an_rtl_fidelity_turns_gating_off() {
    for fidelity in [Fidelity::Rtl, Fidelity::RtlCompiled] {
        expect_under(
            case("vec_mul").fidelity(fidelity),
            &[M::Gated, M::Supervised],
            rtl,
        );
    }
    expect_under(case("vec_mul"), &[M::Gated, M::Supervised], |r| {
        assert!(r.get(M::Supervised).facts.gating, "gating stays on");
        assert!(skipped(r.get(M::Gated)) > 0, "the gated run elides work");
        assert!(
            !r.get(M::Reference).facts.gating,
            "the reference is ungated"
        );
    });
}
