//! The measuring loop shared by the in-process workloads, and the timing
//! helpers the per-layer experiments use.

use crate::metrics::{LayerValues, OpSample, Samples};
use crate::stats;
use crate::trace::{Span, Tracer};
use craft_soc::workloads::{table_words, Workload};
use craft_soc::{Soc, SocConfig};
use std::time::{Duration, Instant};

/// Run limits of the fault-free workloads: the job server's defaults.
pub const MAX_CYCLES: u64 = 8_000_000;
pub const NO_PROGRESS: u64 = 50_000;

/// Whether every region `wl` expects reads back as its independent Rust
/// reference computed it. `read` yields `None` where there is no memory to
/// read (a batch lane whose replay panicked).
pub fn gmem_matches(wl: &Workload, read: impl Fn(usize, usize) -> Option<Vec<u64>>) -> bool {
    wl.expected
        .iter()
        .all(|(base, expect)| read(*base, expect.len()).as_ref() == Some(expect))
}

/// Golden reference of one fault-free test: its simulated cycles and full
/// report, from a solo `Soc` run that must itself verify.
pub fn golden_run(cfg: SocConfig, program: &[u32], wl: &Workload) -> Result<(u64, String), String> {
    let mut soc = Soc::build(cfg, program, &table_words(&wl.entries), &wl.gmem_init);
    let res = soc
        .run_checked(MAX_CYCLES, NO_PROGRESS)
        .map_err(|e| format!("{}: golden run failed: {e}", wl.name))?;
    if !res.completed || !gmem_matches(wl, |b, n| Some(soc.gmem_read(b, n))) {
        return Err(format!("{}: golden run does not verify", wl.name));
    }
    Ok((res.cycles, soc.report().to_json()))
}

/// An in-process workload: a fixed round of ops, each checked against the
/// golden reference its set-up computed.
pub trait InProc {
    /// Ops per round. The loop only stops at a round boundary, so every
    /// simulated statistic summed over a run is a whole multiple of the
    /// round's and repeats exactly.
    fn round_len(&self) -> usize;

    /// Runs op `i` of the round and verifies it. `Ok` carries the simulated
    /// hub cycles delivered; `Err` says what did not match.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String>;

    /// Hash of every golden reference the set-up computed.
    fn digest(&self) -> u64;

    /// Per-layer numbers: span-derived costs from `spans` (the traced
    /// measuring loop) plus separate passes of about `budget_s`.
    fn layers(&self, spans: &[Span], budget_s: f64, out: &mut LayerValues);
}

/// Runs whole rounds of `w` until `seconds` have passed (at least one round).
pub fn measure(w: &mut dyn InProc, seconds: f64, tr: &mut Tracer) -> Samples {
    let mut s = Samples {
        round_len: w.round_len(),
        ..Samples::default()
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds.max(0.0));
    let mut n = 0u32;
    loop {
        for i in 0..w.round_len() {
            tr.set_op(n);
            n += 1;
            let t0 = Instant::now();
            let out = tr.span("bench.op", |tr| w.op(i, tr));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(cycles) => s.ops.push(OpSample {
                    end_s: start.elapsed().as_secs_f64(),
                    ms,
                    cycles,
                }),
                Err(why) => {
                    s.failed += 1;
                    eprintln!("op {i} failed verification: {why}");
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    s.window_s = start.elapsed().as_secs_f64();
    s
}

/// Milliseconds `f` takes.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs `a` and `b` alternately — so drift hits both alike — until
/// `budget_s` is spent, at least `min_reps` times each, and returns the
/// median milliseconds of each.
pub fn alternate(
    budget_s: f64,
    min_reps: usize,
    a: &mut dyn FnMut(),
    b: &mut dyn FnMut(),
) -> (f64, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s.max(0.0));
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    while ta.len() < min_reps || Instant::now() < deadline {
        ta.push(time_ms(&mut *a).1);
        tb.push(time_ms(&mut *b).1);
    }
    (stats::median(&ta), stats::median(&tb))
}

/// Median milliseconds of `reps` calls of `f`.
pub fn repeat_ms(reps: usize, f: &mut dyn FnMut()) -> f64 {
    let t: Vec<f64> = (0..reps.max(1)).map(|_| time_ms(&mut *f).1).collect();
    stats::median(&t)
}
