//! `campaign_sparse` and `campaign_dense`: one op is a 24-lane fault campaign
//! on vec_mul through the batched lockstep engine, the way a verification
//! engineer runs seeds and waits for them.
//!
//! The traffic is `fault_campaign`'s (crates/bench): its hot link, its frozen
//! seed base, its run limits, lane `l` of op `o` carrying seed
//! `SEED_BASE + 24·o + l`, the fault mode rotating bit_flip / drop / duplicate
//! per op. Nothing is dealt or filtered: how many lanes fire, fail-stop or
//! hang is whatever those seeds give.
//!
//! Both workloads use the same `BatchSoc` layer the other way round. Sparse
//! (p = 3e-4, 8 % of lanes de-opt) spends its typical op in the lockstep
//! golden pass with its shadow lane banks; dense (p = 3e-3, 60 %) spends it
//! replaying de-opted lanes solo from t = 0. In both, a lane that hangs idles
//! until the watchdog's 100 000 cycles are up — 50 to 120 ms against a 4 ms
//! clean op — and that wait is most of a campaign's wall time.
//!
//! `--seed` rotates where in the round a run starts; it does not move the
//! seed base. A round's cost is set by its handful of hung lanes (5 in the
//! sparse round; 2 to 10 at other bases), so a base drawn from `--seed` moves
//! `ops_per_s` by tens of percent from seed to seed — input wobble that a
//! spread taken across seeds would book as measurement noise.

use crate::harness::{alternate, gmem_matches, InProc};
use crate::metrics::LayerValues;
use crate::stats;
use crate::trace::{per_op_ms, Span, Tracer};
use craft_connections::FaultConfig;
use craft_sim::checkpoint::fnv64;
use craft_sim::SimError;
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul, Workload};
use craft_soc::{BatchSoc, LaneRun, LaneSpec, Soc, SocConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The mesh link into the hub: every result flit crosses it.
const HOT_LINK: &str = "l11p3->15";
pub const LANES: usize = 24;
const MODES: usize = 3;
/// Distinct ops in a round; the measuring loop cycles through them. Enough
/// that the slow end of the op times is a spread of ops and not one op's
/// repeats.
const ROUND_OPS: usize = 48;
/// `fault_campaign`'s `BATCH_SEED_BASE`, `SOC_MAX_CYCLES`, `SOC_NO_PROGRESS`.
const SEED_BASE: u64 = 800;
const MAX_CYCLES: u64 = 4_000_000;
const NO_PROGRESS: u64 = 100_000;

/// How one lane's run ended — the taxonomy of `fault_campaign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Clean,
    Masked,
    Mismatch,
    Hang,
    Failstop,
    Stall,
}

impl Outcome {
    fn detected(self) -> bool {
        matches!(self, Outcome::Mismatch | Outcome::Hang | Outcome::Failstop)
    }
}

/// Golden classification of one lane, from a solo interpreted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    outcome: Outcome,
    injected: u64,
    cycles: u64,
}

struct Op {
    specs: Vec<LaneSpec>,
    golden: Vec<Verdict>,
}

pub struct Campaign {
    cfg: SocConfig,
    wl: Workload,
    program: Vec<u32>,
    table: Vec<u32>,
    /// Fault-free run length; a batch delivers this many cycles per lane.
    clean_cycles: u64,
    /// The round, in seed order.
    ops: Vec<Op>,
    /// Where in the round this run starts (from the seed).
    rotation: usize,
}

fn fault(mode: usize, p: f64) -> FaultConfig {
    match mode {
        0 => FaultConfig::bit_flip(p),
        1 => FaultConfig::drop(p),
        _ => FaultConfig::duplicate(p),
    }
}

fn classify(
    wl: &Workload,
    res: &Result<craft_soc::RunResult, SimError>,
    injected: u64,
    gmem_ok: impl FnOnce() -> bool,
) -> Result<Verdict, String> {
    let (outcome, cycles) = match res {
        Err(SimError::Hang { cycle, .. }) => (Outcome::Hang, *cycle),
        Err(e) => return Err(format!("{}: unexpected simulation error: {e}", wl.name)),
        Ok(r) if !r.completed => (Outcome::Stall, r.cycles),
        Ok(r) => {
            let outcome = match (gmem_ok(), injected) {
                (true, 0) => Outcome::Clean,
                (true, _) => Outcome::Masked,
                (false, _) => Outcome::Mismatch,
            };
            (outcome, r.cycles)
        }
    };
    Ok(Verdict {
        outcome,
        injected,
        cycles,
    })
}

/// A panic that unwound through a run before its counters could be read: at
/// least one corrupt packet was decoded (fail-stop).
const FAILSTOP: Verdict = Verdict {
    outcome: Outcome::Failstop,
    injected: 1,
    cycles: 0,
};

impl Campaign {
    /// Builds the round at fault probability `p` and classifies every lane
    /// with the solo reference run, on up to two threads.
    pub fn setup(p: f64, seed: u64) -> Result<Campaign, String> {
        let wl = vec_mul();
        let mut c = Campaign {
            // The golden lockstep pass carries no real injector, so the
            // compiled instant plan stays armed; each replay de-opts itself.
            cfg: SocConfig {
                compiled_schedule: true,
                ..SocConfig::default()
            },
            program: orchestrator_program(),
            table: table_words(&wl.entries),
            clean_cycles: 0,
            ops: Vec::new(),
            rotation: (seed % ROUND_OPS as u64) as usize,
            wl,
        };
        c.clean_cycles = c.solo(&LaneSpec::new(HOT_LINK, fault(0, 0.0), 0))?.cycles;

        let specs: Vec<Vec<LaneSpec>> = (0..ROUND_OPS)
            .map(|o| {
                (0..LANES)
                    .map(|l| {
                        let seed = SEED_BASE + (LANES * o + l) as u64;
                        LaneSpec::new(HOT_LINK, fault(o % MODES, p), seed)
                    })
                    .collect()
            })
            .collect();
        // Ops go to the classifier threads alternately: hung lanes, which
        // cost a hundred clean ones, come up in both shares.
        let threads = crate::host::nproc().min(2);
        let share = |t: usize| -> Result<Vec<(usize, Vec<Verdict>)>, String> {
            (t..ROUND_OPS)
                .step_by(threads)
                .map(|o| {
                    Ok((
                        o,
                        specs[o]
                            .iter()
                            .map(|s| c.solo(s))
                            .collect::<Result<_, _>>()?,
                    ))
                })
                .collect()
        };
        let share = &share;
        let mut golden = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|t| s.spawn(move || share(t))).collect();
            let mut all = share(0)?;
            for h in others {
                all.extend(h.join().expect("classifier thread")?);
            }
            Ok::<_, String>(all)
        })?;
        golden.sort_by_key(|(o, _)| *o);
        c.ops = specs
            .into_iter()
            .zip(golden)
            .map(|(specs, (_, golden))| Op { specs, golden })
            .collect();
        Ok(c)
    }

    /// The solo reference: a fresh interpreted `Soc` with a real injector.
    fn solo(&self, spec: &LaneSpec) -> Result<Verdict, String> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut soc = Soc::build(self.cfg, &self.program, &self.table, &self.wl.gmem_init);
            soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
                .map_err(|e| e.to_string())?;
            let res = soc.run_checked(MAX_CYCLES, NO_PROGRESS);
            let injected = soc
                .fault_stats(&spec.pattern)
                .map_err(|e| e.to_string())?
                .injected();
            classify(&self.wl, &res, injected, || {
                gmem_matches(&self.wl, |b, n| Some(soc.gmem_read(b, n)))
            })
        }));
        run.unwrap_or(Ok(FAILSTOP))
    }

    fn batch_verdict(&self, batch: &BatchSoc, lane: &LaneRun) -> Result<Verdict, String> {
        if lane.panicked {
            return Ok(FAILSTOP);
        }
        let (Some(res), Some(stats)) = (&lane.result, &lane.fault_stats) else {
            return Err(format!(
                "lane {}: no result from a lane that did not panic",
                lane.lane
            ));
        };
        classify(&self.wl, res, stats.injected(), || {
            gmem_matches(&self.wl, |b, n| batch.gmem_read_lane(lane.lane, b, n))
        })
    }

    /// One batch over `specs`, classified lane by lane.
    fn batch(
        &self,
        specs: &[LaneSpec],
        tr: &mut Tracer,
    ) -> Result<(Vec<Verdict>, Vec<bool>), String> {
        let mut batch = tr
            .span("soc.batch.build", |_| {
                BatchSoc::build(
                    self.cfg,
                    &self.program,
                    &self.table,
                    &self.wl.gmem_init,
                    specs.to_vec(),
                )
            })
            .map_err(|e| e.to_string())?;
        let rep = tr.span("soc.batch.run", |_| batch.run(MAX_CYCLES, NO_PROGRESS));
        match &rep.golden {
            Ok(r) if r.completed && r.cycles == self.clean_cycles => {}
            other => return Err(format!("lockstep golden pass went wrong: {other:?}")),
        }
        tr.span("bench.classify", |_| {
            let verdicts = rep
                .lanes
                .iter()
                .map(|l| self.batch_verdict(&batch, l))
                .collect::<Result<_, _>>()?;
            Ok((verdicts, rep.lanes.iter().map(|l| l.deopted).collect()))
        })
    }
}

impl InProc for Campaign {
    fn round_len(&self) -> usize {
        self.ops.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let op = &self.ops[(i + self.rotation) % self.ops.len()];
        let (verdicts, deopted) = self.batch(&op.specs, tr)?;
        for (lane, (got, want)) in verdicts.iter().zip(&op.golden).enumerate() {
            if got != want {
                return Err(format!(
                    "lane {lane}: batch says {got:?}, solo run says {want:?}"
                ));
            }
            if deopted[lane] != (want.outcome != Outcome::Clean) {
                return Err(format!(
                    "lane {lane}: de-opted {} but is {want:?}",
                    deopted[lane]
                ));
            }
        }
        Ok(self.clean_cycles * LANES as u64)
    }

    /// Hash of the round's golden references, in seed order whatever the
    /// rotation.
    fn digest(&self) -> u64 {
        let text: String = self
            .ops
            .iter()
            .map(|op| format!("{:?}{:?}\n", op.specs, op.golden))
            .collect();
        fnv64(format!("{}|{text}", self.clean_cycles).as_bytes())
    }

    /// Per-layer numbers: span-derived costs from the traced loop plus
    /// separate passes of about `budget_s`.
    fn layers(&self, spans: &[Span], budget_s: f64, out: &mut LayerValues) {
        out.insert(
            "soc.batch.build_ms",
            stats::median(&per_op_ms(spans, "soc.batch.build", 1)),
        );
        let op_ms = stats::mean(&per_op_ms(spans, "bench.op", 1));

        // Exact counts over one round.
        let lanes = (self.ops.len() * LANES) as f64;
        let all = || self.ops.iter().flat_map(|op| &op.golden);
        let fired: Vec<&Verdict> = all().filter(|v| v.outcome != Outcome::Clean).collect();
        out.insert("soc.batch.deopt_lane_frac", fired.len() as f64 / lanes);
        out.insert(
            "soc.batch.replayed_cycles_per_useful_cycle",
            fired.iter().map(|v| v.cycles).sum::<u64>() as f64 / (lanes * self.clean_cycles as f64),
        );
        out.insert(
            "soc.batch.detected_frac",
            fired.iter().filter(|v| v.outcome.detected()).count() as f64
                / fired.len().max(1) as f64,
        );
        out.insert(
            "soc.batch.masked_count",
            all().filter(|v| v.outcome == Outcome::Masked).count() as f64,
        );

        // Lockstep alone: the same op with nothing firing, at 24 lanes and 1.
        let quiet = |n: usize| -> Vec<LaneSpec> {
            (0..n as u64)
                .map(|l| LaneSpec::new(HOT_LINK, fault(0, 0.0), l))
                .collect()
        };
        let (wide, narrow) = (quiet(LANES), quiet(1));
        let run = |specs: &[LaneSpec]| {
            self.batch(specs, &mut Tracer::off())
                .expect("a batch that verified in the loop verifies again");
        };
        let (wide_ms, narrow_ms) =
            alternate(budget_s / 2.0, 5, &mut || run(&wide), &mut || run(&narrow));
        out.insert("soc.batch.lockstep_ms", wide_ms);
        out.insert("soc.batch.replay_ms", op_ms - wide_ms);
        out.insert(
            "connections.lanebank.ns_per_lane_cycle",
            (wide_ms - narrow_ms) * 1e6 / (LANES - 1) as f64 / self.clean_cycles as f64,
        );

        // Batch against a per-seed solo loop, on the first two ops (48 seeds).
        let sample = &self.ops[..2.min(self.ops.len())];
        let (batch_ms, serial_ms) = alternate(
            budget_s / 2.0,
            2,
            &mut || {
                for op in sample {
                    run(&op.specs);
                }
            },
            &mut || {
                for spec in sample.iter().flat_map(|op| &op.specs) {
                    self.solo(spec).expect("a classified seed classifies again");
                }
            },
        );
        out.insert("soc.batch.speedup_vs_serial_x", serial_ms / batch_ms);
    }
}
