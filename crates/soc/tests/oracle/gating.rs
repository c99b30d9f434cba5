//! Gating changes nothing observable: the gated model against the
//! ungated reference, on every configuration axis and however the run
//! ends, and the gating each configuration keeps.

use crate::*;

/// Gating engaged: the gated run slept through over 10 000 ticks.
pub(super) fn engaged(r: &Runs) {
    assert!(skipped(r.get(M::Gated)) > 10_000, "gating engaged");
}

/// Gating elided ticks and clean commits alike, and the supervised run
/// was the default one: gated, with no sink.
pub(super) fn elides_commits(r: &Runs) {
    engaged(r);
    assert!(
        r.get(M::Gated).kernel.counters[4] > 10_000,
        "commits elided"
    );
    let supervised = r.get(M::Supervised);
    assert!(
        supervised.facts.gating && supervised.telemetry.is_none(),
        "gated, no sink"
    );
}

/// An ungated configuration elides nothing, under any model.
fn elides_nothing(r: &Runs) {
    assert!(!r.get(M::Supervised).facts.gating, "gating stays off");
    for (model, _, _, o) in &r.seen {
        let [_, _, skipped, blocked, commits] = o.kernel.counters;
        assert_eq!((skipped, blocked, commits), (0, 0, 0), "{model:?}");
    }
}

/// A configuration keeps the gating it asks for, at any fidelity, and
/// the gated run elides work; the ungated reference does not gate.
pub(super) fn keeps_gating(r: &Runs) {
    assert!(r.get(M::Supervised).facts.gating, "gating stays on");
    assert!(skipped(r.get(M::Gated)) > 0, "the gated run elides work");
    assert!(
        !r.get(M::Reference).facts.gating,
        "the reference is ungated"
    );
}

/// The telemetry model observed the run it did not perturb: metrics,
/// spans and a tick profile.
fn observed_by_telemetry(r: &Runs) {
    let o = r.get(M::Telemetry);
    let tel = o.telemetry.as_ref().expect("a sink");
    assert!(
        tel.spans_recorded > 0 && !tel.profile.is_empty(),
        "spans and profile"
    );
    assert!(metric(o, "soc.hub.dispatched") >= 4 && metric(o, "soc.pe3.commands") > 0);
    assert_eq!(
        metric(o, "soc.hub.retired"),
        metric(o, "soc.hub.dispatched")
    );
    assert!(metric(o, "noc.n15.eject.transfers") > 0);
    for label in ["retire", "done"] {
        assert!(tel.spans.iter().any(|e| e.label == label), "{label}");
    }
}

/// `vec_mul` on the default configuration, gated against the ungated
/// reference: gating engaged.
#[test]
fn the_default_regime_gates_alike() {
    expect_under(case("vec_mul"), &[M::Gated], engaged);
}

/// The default configuration's supervised run: ticks and clean commits
/// elided, the run gated and sink-free, and a sim-accurate run keeps
/// the gating it asks for.
#[test]
fn the_default_regime_elides_ticks_and_commits() {
    expect_under(case("vec_mul"), &[M::Gated, M::Supervised], |r| {
        elides_commits(r);
        keeps_gating(r);
    });
}

/// A sink observes the default configuration's run without perturbing
/// it: the telemetry model against the gated run, and what it recorded.
#[test]
fn a_sink_observes_the_default_regime_without_perturbing_it() {
    expect_under(case("vec_mul"), &[M::Telemetry], observed_by_telemetry);
}

/// With gating off no model elides a tick or a commit, synchronous or
/// GALS.
#[test]
fn ungated_elides_nothing() {
    expect(case("vec_mul").with(|c| c.gating = false), elides_nothing);
}

#[test]
fn ungated_gals_elides_nothing() {
    let gals = ClockingMode::Gals { spread_ppm: 2_000 };
    let c = case("vec_mul").with(|c| (c.gating, c.clocking) = (false, gals));
    expect(c, elides_nothing);
}

#[test]
fn dot_product_gates() {
    expect(case("dot_product"), engaged);
}

/// A store-and-forward router, gated against the ungated reference.
#[test]
fn a_store_forward_router_is_gating_invariant() {
    let c = case("vec_mul").with(|c| c.router = RouterKind::StoreForward);
    expect_under(c, &[M::Gated], engaged);
}

/// A store-and-forward router's supervised run, and a sink on it, end
/// where the stepped gated run does.
#[test]
fn a_supervised_store_forward_router_ends_as_stepped() {
    let c = case("vec_mul").with(|c| c.router = RouterKind::StoreForward);
    expect_under(c, &[M::Supervised, M::Telemetry], elides_commits);
}

/// The configurations no steady-state schedule could describe —
/// per-node GALS periods, supply-noise-stretched clocks, PE-failure
/// detection with its remap storms — run the same gated loop as
/// everything else, and it elides ticks and clean commits there too.
#[test]
fn gals_elides_ticks_and_commits() {
    let gals = ClockingMode::Gals { spread_ppm: 2_000 };
    let c = case("vec_mul").with(|c| c.clocking = gals);
    expect_under(c, &[M::Supervised, M::Telemetry], elides_commits);
}

/// Per-node GALS periods, gated against the ungated reference: gating
/// engaged.
#[test]
fn gals_is_gating_invariant() {
    let gals = ClockingMode::Gals { spread_ppm: 2_000 };
    let c = case("vec_mul").with(|c| c.clocking = gals);
    expect_under(c, &[M::Gated], engaged);
}

#[test]
fn adaptive_gals_elides_ticks_and_commits() {
    let adaptive = ClockingMode::GalsAdaptive { noise_seed: 7 };
    expect(
        case("vec_mul").with(|c| c.clocking = adaptive),
        elides_commits,
    );
}

#[test]
fn an_armed_pe_timeout_elides_ticks_and_commits() {
    let c = case("vec_mul").with(|c| c.pe_timeout = Some(20_000));
    expect(c, elides_commits);
}

/// Fault injection changes what a channel commits, not how the kernel
/// schedules: a faulted run still finishes, its injector fired, gating
/// engaged, and the gated run is the ungated one, report and fault
/// counters included.
#[test]
fn a_faulted_run_finishes_gating_invariant() {
    let c = case("vec_mul").fault(HOT_LINK, FaultConfig::bit_flip(0.01), 7);
    expect(c, |r| {
        let gated = r.get(M::Gated);
        assert!(matches!(gated.ending, Ending::Completed(_)));
        assert!(gated.faults[0].injected() > 0 && skipped(gated) > 0);
    });
}

/// A controller spinning on `jal zero, 0`: no NoC traffic ever counts
/// as progress and nothing ever wakes, so gated and ungated trip on the
/// same cycle with the same typed diagnosis, and only the gated one
/// names sleepers.
#[test]
fn a_spinning_controller_hangs_alike_gated_and_ungated() {
    expect(case("spin"), |r| {
        let (reference, gated) = (r.get(M::Reference), r.get(M::Gated));
        assert!(reference.ending.hang_cycle().is_some());
        assert_eq!(gated.ending.hang_cycle(), reference.ending.hang_cycle());
        let asleep = |o: &Observed| match &o.ending {
            Ending::Hang(_, report) => report.components.iter().filter(|c| c.asleep).count(),
            _ => unreachable!(),
        };
        assert_eq!(asleep(reference), 0);
        assert!(asleep(gated) > 30, "the gated diagnosis names the sleepers");
    });
}

/// Gating changes nothing observable, whatever the configuration.
#[test]
fn gating_changes_nothing_observable() {
    let property = "compiled_schedule_is_bit_and_cycle_identical";
    drawn(property, 8, Draw::FaultFree, &[M::Gated, M::Compiled]);
}

/// Fault vectors across every axis (RTL fidelities, GALS clocks): a
/// faulted run observes nothing of whether the kernel gates.
#[test]
fn a_faulted_run_observes_nothing_of_gating() {
    let property = "faulted_compiled_schedule_is_identical_on_every_axis";
    drawn(property, 8, Draw::Faulted, &[M::Gated, M::Compiled]);
}
