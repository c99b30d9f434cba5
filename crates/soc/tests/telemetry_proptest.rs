//! A telemetry sink never perturbs the run it observes: the telemetry
//! model of the differential oracle (`support/oracle.rs`) on drawn
//! cases, against the gated run on every field and against a sink on
//! the reference on what it rendered.

#[path = "support/oracle.rs"]
mod oracle;

#[test]
fn telemetry_never_perturbs_the_run() {
    oracle::drawn(
        "telemetry_never_perturbs_the_run",
        6,
        oracle::Draw::Any,
        oracle::ALL,
    );
}
