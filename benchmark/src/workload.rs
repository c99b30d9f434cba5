//! One run of one workload: set-up, the recorded-digest gate, the measured
//! window (untraced) or the traced window plus the per-layer experiments,
//! and the result line.

use crate::campaign::Campaign;
use crate::fig6::Fig6;
use crate::harness::{measure, time_ms, InProc};
use crate::metrics::{
    end_to_end_rows, metrics_object, peak_rss_mb, per_layer_rows, result_line, LayerValues, Row,
    Samples,
};
use crate::serve::{checkpoint_layers, Serve};
use crate::trace::{self, Span, Tracer};
use crate::{stats, EXPECT_PANICS};
use craft_soc::pe::Fidelity;
use std::sync::atomic::Ordering;
use std::time::Instant;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub correct: bool,
    /// `{"sim_digest": .., "whole_window": {..}}`: the hash of the golden
    /// references this run's set-up computed and the un-gated whole-window
    /// statistics (none on a traced run). Printed before the result line.
    pub info: String,
    /// The result line: last line of the run's standard output.
    pub line: String,
}

/// Set-ups per untraced run; `setup_s` is their median. One set-up of a few
/// tens of milliseconds does not repeat from run to run.
const SETUPS: usize = 3;

/// `(workload, digest)`: the hash of every golden reference a set-up
/// computed — simulated cycles, `SocReport`s, expected memory, per-lane
/// classifications. A change that moves any simulated statistic fails this
/// gate instead of passing as "faster". The digests hold at every seed: the
/// seed only reorders the work.
pub const DIGESTS: [(&str, u64); 6] = [
    ("fig6_sim", 0x5ad5_27fb_e6b5_4858),
    ("fig6_rtl", 0xf7ff_dd0b_4290_e95e),
    ("campaign_sparse", 0xe808_1bd5_99ce_7e67),
    ("campaign_dense", 0x8dc0_d52b_c9d7_a07a),
    ("serve_tcp", 0x44ad_0c8e_81de_2742),
    ("serve_contended", 0x5865_d579_71a9_2fee),
];

fn digest_gate(name: &str, digest: u64) -> bool {
    let want = DIGESTS.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
    if want != Some(digest) {
        eprintln!(
            "{name}: sim_digest {digest:#018x} differs from the recorded {:#018x}",
            want.unwrap_or(0)
        );
    }
    want == Some(digest)
}

/// Warm-up, the last part of a set-up: a process's first ops run slow (page
/// faults, cold caches) and would otherwise sit in the measured window.
fn warmed<W: InProc>(mut w: W) -> Result<W, String> {
    for i in 0..w.round_len().min(4) {
        w.op(i, &mut Tracer::off())?;
    }
    Ok(w)
}

/// Sets up `SETUPS` times (once when tracing), keeping the last; returns the
/// median set-up time in seconds.
fn set_up<W>(opts: &Opts, setup: &dyn Fn() -> Result<W, String>) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    loop {
        let (w, ms) = time_ms(setup);
        let w = w?;
        times.push(ms / 1e3);
        if opts.trace || times.len() == SETUPS {
            return Ok((w, stats::median(&times)));
        }
        // The next set-up must not share a port or memory with this one.
        drop(w);
    }
}

fn write_spans(name: &str, spans: &[Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans_{name}.json"));
    std::fs::write(&path, trace::to_json(name, spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{name}: {} spans written to {}",
        spans.len(),
        path.display()
    );
    eprintln!(
        "{name}: {:<20} {:>8} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (span, (calls, total_ns, self_ns)) in trace::by_name(spans) {
        eprintln!(
            "{name}: {span:<20} {calls:>8} {:>12.3} {:>12.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    Ok(())
}

fn overhead_frac(plain: &Samples, traced: &Samples) -> f64 {
    if plain.ops.is_empty() || traced.ops.is_empty() {
        return 0.0;
    }
    stats::median(&traced.op_ms()) / stats::median(&plain.op_ms()) - 1.0
}

/// Prints the rows and seals the result line. `runs` are the measured
/// windows of the run (two when tracing); `whole` is empty when tracing.
fn finish(name: &str, digest: u64, runs: &[&Samples], rows: Vec<Row>, whole: Vec<Row>) -> Outcome {
    for (metric, value, unit) in rows.iter().chain(&whole) {
        eprintln!("{name}: {metric} = {value} {unit}");
    }
    let attempted: u64 = runs.iter().map(|s| s.attempted()).sum();
    let failed: u64 = runs.iter().map(|s| s.failed).sum();
    eprintln!("{name}: {attempted} ops attempted, {failed} failed");
    let correct = digest_gate(name, digest) && failed == 0 && attempted > 0;
    Outcome {
        correct,
        info: format!(
            "{{\"sim_digest\": \"{digest:#018x}\", \"whole_window\": {}}}",
            metrics_object(&whole)
        ),
        line: result_line(correct, attempted.max(1), failed, &rows),
    }
}

/// The rows of an untraced run, with a word on stderr about how many samples
/// each 95th percentile rests on: ten beyond it are wanted.
fn untraced(name: &str, digest: u64, s: &Samples, setup_s: f64) -> Outcome {
    let rows = end_to_end_rows(s, peak_rss_mb(), setup_s);
    for (metric, samples) in [
        ("op_p95_ms", s.ops.len()),
        ("quiet_op_p95_ms", rows.quiet_ops),
    ] {
        let beyond = stats::samples_beyond(samples, 95.0);
        eprintln!(
            "{name}: {metric} rests on {samples} ops, {beyond} beyond it{}",
            match stats::highest_supported_percentile(samples) {
                _ if beyond >= 10 => String::new(),
                Some(p) => format!(" (ten are wanted: p{p} is the most these ops support)"),
                None => " (ten are wanted: these ops support no percentile)".into(),
            }
        );
    }
    finish(name, digest, &[s], rows.gated, rows.whole)
}

fn run_inproc<W: InProc>(
    name: &str,
    opts: &Opts,
    setup: &dyn Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    let (mut w, setup_s) = set_up(opts, setup)?;
    let digest = w.digest();
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    if !opts.trace {
        let s = measure(&mut w, opts.seconds, &mut off);
        return Ok(untraced(name, digest, &s, setup_s));
    }
    // A quarter untraced, a quarter traced, the rest for the experiments.
    let plain = measure(&mut w, opts.seconds / 4.0, &mut off);
    let mut tr = Tracer::new(true, epoch);
    let traced = measure(&mut w, opts.seconds / 4.0, &mut tr);
    let spans = tr.into_spans();
    let mut out = LayerValues::new();
    out.insert("trace.overhead_frac", overhead_frac(&plain, &traced));
    w.layers(&spans, opts.seconds / 2.0, &mut out);
    write_spans(name, &spans)?;
    let rows = per_layer_rows(&out);
    Ok(finish(name, digest, &[&plain, &traced], rows, Vec::new()))
}

fn run_serve(name: &str, opts: &Opts, workers: usize, contended: bool) -> Result<Outcome, String> {
    let (mut s, setup_s) = set_up(opts, &|| Serve::setup(workers, contended, opts.seed))?;
    let digest = s.digest();
    let epoch = Instant::now();
    if !opts.trace {
        let (samples, ..) = s.closed_loop(opts.seconds, false, epoch, false);
        return Ok(untraced(name, digest, &samples, setup_s));
    }
    let (plain, ..) = s.closed_loop(opts.seconds / 4.0, false, epoch, false);
    let mut out = LayerValues::new();
    let (traced, spans) = s.layers(epoch, opts.seconds / 4.0, opts.seconds / 4.0, &mut out)?;
    out.insert("trace.overhead_frac", overhead_frac(&plain, &traced));
    if contended {
        checkpoint_layers(&mut out)?;
    }
    write_spans(name, &spans)?;
    let rows = per_layer_rows(&out);
    Ok(finish(name, digest, &[&plain, &traced], rows, Vec::new()))
}

/// Runs workload `name` once and returns its result line.
pub fn run(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let seed = opts.seed;
    match name {
        "fig6_sim" => run_inproc(name, opts, &|| {
            Fig6::setup(Fidelity::SimAccurate, seed).and_then(warmed)
        }),
        "fig6_rtl" => run_inproc(name, opts, &|| {
            Fig6::setup(Fidelity::RtlCompiled, seed).and_then(warmed)
        }),
        "campaign_sparse" | "campaign_dense" => {
            EXPECT_PANICS.store(true, Ordering::Relaxed);
            // Fault probability on the hot link.
            let p = if name == "campaign_sparse" {
                3e-4
            } else {
                3e-3
            };
            run_inproc(name, opts, &|| Campaign::setup(p, seed).and_then(warmed))
        }
        "serve_tcp" => run_serve(name, opts, 2, false),
        "serve_contended" => run_serve(name, opts, 1, true),
        _ => Err(format!(
            "unknown workload {name:?}; the workloads are {:?}",
            crate::metrics::WORKLOADS.map(|w| w.name)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// A near-zero-length run of `name`, untraced then traced, at a seed
    /// other than the default: the golden references are recomputed and hash
    /// to the recorded digest, every op verifies, and the result line carries
    /// exactly the table's metrics.
    fn smoke(name: &str) {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.2,
                trace,
            };
            let out = run(name, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.correct, "{name}: incorrect run: {}", out.line);
            craftflow_core::validate_json(&out.line).expect("valid JSON");
            assert!(fields::num(&out.line, "attempted").unwrap() >= 1.0);
            assert_eq!(fields::num(&out.line, "failed"), Some(0.0));
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(out.line.matches("\"value\": ").count(), want.len());
            for metric in want {
                assert!(
                    fields::metric(&out.line, metric).is_some(),
                    "{name}: {metric} missing"
                );
            }
        }
    }

    #[test]
    fn fig6_sim_smoke() {
        smoke("fig6_sim");
    }

    #[test]
    fn fig6_rtl_smoke() {
        smoke("fig6_rtl");
    }

    #[test]
    fn campaign_sparse_smoke() {
        smoke("campaign_sparse");
    }

    #[test]
    fn campaign_dense_smoke() {
        smoke("campaign_dense");
    }

    #[test]
    fn serve_tcp_smoke() {
        smoke("serve_tcp");
    }

    #[test]
    fn serve_contended_smoke() {
        smoke("serve_contended");
    }

    #[test]
    fn unknown_workloads_and_digest_drift_are_refused() {
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        assert!(run("fig7", &opts).is_err());
        for (name, digest) in DIGESTS {
            assert!(digest_gate(name, digest));
            assert!(!digest_gate(name, digest ^ 1));
        }
        assert!(!digest_gate("fig7", 0));
    }
}
