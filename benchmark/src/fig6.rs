//! `fig6_sim` and `fig6_rtl`: the six Fig. 6 SoC tests on the sequential
//! engine at one fidelity, the way a designer runs the SoC regression suite
//! and waits for it. One op is one test — build, run, report, verify — and a
//! round is one sweep of the six.
//!
//! The op is a test and not a sweep so that the slow end of the latency
//! distribution belongs to the workload (matvec is half a sweep's cycles):
//! sweeps are all alike, and the 95th percentile of identical ops is the
//! host's noise and nothing else (it moved 31 % from run to run).

use crate::harness::{
    alternate, gmem_matches, golden_run, repeat_ms, time_ms, InProc, MAX_CYCLES, NO_PROGRESS,
};
use crate::metrics::LayerValues;
use crate::stats;
use crate::trace::{per_op_ms, Span, Tracer};
use craft_sim::checkpoint::fnv64;
use craft_sim::TickProfile;
use craft_soc::pe::Fidelity;
use craft_soc::rtlplan::{DpOp, EvalPlan, DP_WIDTH};
use craft_soc::workloads::{orchestrator_program, six_soc_tests, table_words, Workload};
use craft_soc::{build_engine, EngineKind, PlanStats, Soc, SocConfig};

struct Test {
    wl: Workload,
    table: Vec<u32>,
    /// Golden reference: simulated cycles and the full report.
    cycles: u64,
    report_json: String,
}

pub struct Fig6 {
    cfg: SocConfig,
    program: Vec<u32>,
    tests: Vec<Test>,
}

/// Counters of one sweep run on the concrete `Soc` facade, which exposes the
/// kernel's exact counts that `dyn SimEngine` does not.
#[derive(Default)]
struct Sweep {
    cycles: u64,
    run_ns: u64,
    instants: u64,
    ticks_delivered: u64,
    ticks_skipped: u64,
    commits_skipped: u64,
    plan_instants: u64,
    deopts: u64,
    profile: Vec<TickProfile>,
    plan: Option<PlanStats>,
}

impl Fig6 {
    /// Materialises the six tests and computes each one's golden reference.
    /// The seed only rotates the order the tests run in.
    pub fn setup(fidelity: Fidelity, seed: u64) -> Result<Fig6, String> {
        let cfg = SocConfig {
            fidelity,
            ..SocConfig::default()
        };
        let program = orchestrator_program();
        let mut tests = Vec::new();
        for wl in six_soc_tests() {
            let (cycles, report_json) = golden_run(cfg, &program, &wl)?;
            tests.push(Test {
                table: table_words(&wl.entries),
                cycles,
                report_json,
                wl,
            });
        }
        let n = tests.len();
        tests.rotate_left((seed % n as u64) as usize);
        Ok(Fig6 {
            cfg,
            program,
            tests,
        })
    }

    fn sweep_cycles(&self) -> u64 {
        self.tests.iter().map(|t| t.cycles).sum()
    }

    /// The op: one test through `build_engine`, compared with its golden
    /// reference; returns the simulated cycles.
    fn engine_test(&self, t: &Test, tr: &mut Tracer) -> Result<u64, String> {
        let name = t.wl.name;
        let mut eng = tr
            .span("soc.build_engine", |_| {
                build_engine(
                    EngineKind::Soc,
                    self.cfg,
                    &self.program,
                    &t.table,
                    &t.wl.gmem_init,
                    &[],
                    false,
                )
            })
            .map_err(|e| format!("{name}: {e}"))?;
        tr.span("soc.begin", |_| eng.begin(MAX_CYCLES, NO_PROGRESS));
        let res = tr
            .span("soc.run_to_end", |_| eng.run_to_end())
            .map_err(|e| format!("{name}: {e}"))?;
        let report = tr.span("soc.report", |_| eng.report().to_json());
        let gmem_ok = tr.span("soc.gmem_read", |_| {
            gmem_matches(&t.wl, |b, n| Some(eng.gmem_read(b, n)))
        });
        if !res.completed || res.cycles != t.cycles {
            return Err(format!(
                "{name}: {} cycles, golden {}",
                res.cycles, t.cycles
            ));
        }
        if report != t.report_json {
            return Err(format!("{name}: report differs from golden"));
        }
        if !gmem_ok {
            return Err(format!("{name}: global memory differs from golden"));
        }
        Ok(res.cycles)
    }

    /// One sweep on the concrete `Soc`, collecting the kernel's counters.
    fn soc_sweep(&self, cfg: SocConfig, profile: bool) -> Sweep {
        let mut s = Sweep::default();
        for t in &self.tests {
            let mut soc = Soc::build(cfg, &self.program, &t.table, &t.wl.gmem_init);
            soc.sim_mut().set_tick_profiling(profile);
            let (res, ms) = time_ms(|| soc.run_checked(MAX_CYCLES, NO_PROGRESS));
            let res = res.expect("a sweep that verified in set-up runs clean");
            assert!(gmem_matches(&t.wl, |b, n| Some(soc.gmem_read(b, n))));
            s.cycles += res.cycles;
            s.run_ns += (ms * 1e6) as u64;
            let sim = soc.sim();
            s.instants += sim.instants();
            s.ticks_delivered += sim.ticks_delivered();
            s.ticks_skipped += sim.ticks_skipped();
            s.commits_skipped += sim.commits_skipped();
            s.plan_instants += sim.plan_instants();
            s.deopts += sim.plan_deopt_count();
            s.profile.extend(sim.tick_profile());
            s.plan = soc.report().plan;
        }
        s
    }

    /// craft-sim kernel, plan and telemetry, on the sim-accurate sweep.
    fn sim_layers(&self, run_ms: f64, budget_s: f64, out: &mut LayerValues) {
        let base = self.soc_sweep(self.cfg, false);
        let cycles = base.cycles as f64;
        out.insert(
            "sim.kernel.ns_per_instant",
            run_ms * 1e6 / base.instants as f64,
        );
        out.insert(
            "sim.kernel.ticks_delivered_per_cycle",
            base.ticks_delivered as f64 / cycles,
        );
        out.insert(
            "sim.kernel.ticks_skipped_frac",
            base.ticks_skipped as f64 / (base.ticks_delivered + base.ticks_skipped) as f64,
        );
        out.insert(
            "sim.kernel.commits_skipped_per_cycle",
            base.commits_skipped as f64 / cycles,
        );

        // Gating, the instant plan and telemetry must not move a cycle.
        let sweep = |cfg: SocConfig, telemetry: bool| {
            let cycles = self.variant_sweep(cfg, EngineKind::Soc, telemetry);
            assert_eq!(
                cycles.iter().sum::<u64>(),
                base.cycles,
                "variant changed cycles"
            );
        };
        let third = budget_s / 3.0;
        let ungated = SocConfig {
            gating: false,
            ..self.cfg
        };
        let (gated_ms, ungated_ms) =
            alternate(third, 2, &mut || sweep(self.cfg, false), &mut || {
                sweep(ungated, false)
            });
        out.insert("sim.kernel.gating_speedup_x", ungated_ms / gated_ms);

        let planned = SocConfig {
            compiled_schedule: true,
            ..self.cfg
        };
        let (interp_ms, plan_ms) = alternate(third, 2, &mut || sweep(self.cfg, false), &mut || {
            sweep(planned, false)
        });
        out.insert("sim.plan.speedup_x", interp_ms / plan_ms);
        let armed = self.soc_sweep(planned, false);
        out.insert(
            "sim.plan.armed_frac",
            armed.plan_instants as f64 / armed.instants as f64,
        );
        out.insert(
            "sim.plan.deopts_per_run",
            armed.deopts as f64 / self.tests.len() as f64,
        );

        let (plain_ms, tel_ms) = alternate(third, 2, &mut || sweep(self.cfg, false), &mut || {
            sweep(self.cfg, true)
        });
        out.insert("sim.telemetry.overhead_frac", tel_ms / plain_ms - 1.0);
    }

    /// craft-soc rtlplan, the Fig. 6 claim and the parallel engine, on the
    /// compiled-RTL sweep.
    fn rtl_layers(&self, run_ms: f64, budget_s: f64, out: &mut LayerValues) {
        let cycles = self.sweep_cycles() as f64;
        out.insert("soc.rtlplan.ns_per_cycle", run_ms * 1e6 / cycles);
        let plan = self
            .soc_sweep(self.cfg, false)
            .plan
            .expect("rtl_compiled reports plan statistics");
        out.insert(
            "soc.rtlplan.word_ops_per_cycle",
            plan.signal_word_ops as f64,
        );
        out.insert(
            "soc.rtlplan.cache_hit_frac",
            plan.cache_hits as f64 / (plan.cache_hits + plan.ops_lowered) as f64,
        );
        out.insert(
            "soc.rtlplan.lower_ms",
            repeat_ms(5, &mut || {
                for op in [DpOp::Add, DpOp::Mul, DpOp::Lt, DpOp::AbsDiff] {
                    std::hint::black_box(EvalPlan::lower_dp(op, DP_WIDTH));
                }
            }),
        );

        let sweep = |cfg: SocConfig, kind: EngineKind| self.variant_sweep(cfg, kind, false);
        let with = |fidelity| SocConfig {
            fidelity,
            ..self.cfg
        };

        // Interpreted RTL is the reference the paper's speed-up is against:
        // three sweeps, fewer only when the budget is a smoke test's.
        let reps = if budget_s >= 2.0 { 3 } else { 1 };
        let mut rtl_cycles = Vec::new();
        let rtl_ms = repeat_ms(reps, &mut || {
            rtl_cycles = sweep(with(Fidelity::Rtl), EngineKind::Soc);
        });
        out.insert("soc.rtl_interp.cycles_per_s", cycles / (rtl_ms / 1e3));
        let mut sim_cycles = Vec::new();
        let (compiled_ms, sim_ms) = alternate(
            budget_s / 8.0,
            3,
            &mut || {
                sweep(self.cfg, EngineKind::Soc);
            },
            &mut || sim_cycles = sweep(with(Fidelity::SimAccurate), EngineKind::Soc),
        );
        out.insert("soc.rtlplan.speedup_x", rtl_ms / compiled_ms);
        out.insert("soc.fig6.speedup_x", rtl_ms / sim_ms);
        let errs: Vec<f64> = rtl_cycles
            .iter()
            .zip(&sim_cycles)
            .map(|(&r, &s)| (r as f64 - s as f64) / r as f64 * 100.0)
            .collect();
        out.insert(
            "soc.fig6.cycle_err_max_pct",
            errs.iter().copied().fold(0.0, f64::max),
        );
        out.insert("soc.fig6.cycle_err_mean_pct", stats::mean(&errs));

        let (seq_ms, par_ms) = alternate(
            budget_s / 4.0,
            2,
            &mut || {
                sweep(self.cfg, EngineKind::Soc);
            },
            &mut || {
                sweep(self.cfg, EngineKind::Parallel { threads: 2 });
            },
        );
        out.insert("soc.parallel2.speedup_x", seq_ms / par_ms);
    }

    /// A sweep under another configuration or engine: results are verified
    /// against the independent reference (reports may differ: ungated runs
    /// count idle pops), cycles are returned per test.
    fn variant_sweep(&self, cfg: SocConfig, kind: EngineKind, telemetry: bool) -> Vec<u64> {
        self.tests
            .iter()
            .map(|t| {
                let mut eng = build_engine(
                    kind,
                    cfg,
                    &self.program,
                    &t.table,
                    &t.wl.gmem_init,
                    &[],
                    telemetry,
                )
                .expect("engine builds");
                let res = eng
                    .run_checked(MAX_CYCLES, NO_PROGRESS)
                    .expect("variant sweep runs clean");
                assert!(res.completed && gmem_matches(&t.wl, |b, n| Some(eng.gmem_read(b, n))));
                res.cycles
            })
            .collect()
    }
}

impl InProc for Fig6 {
    fn round_len(&self) -> usize {
        self.tests.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        self.engine_test(&self.tests[i], tr)
    }

    /// Hash of every simulated statistic of the sweep, independent of the
    /// order the seed chose.
    fn digest(&self) -> u64 {
        let mut tests: Vec<&Test> = self.tests.iter().collect();
        tests.sort_by_key(|t| t.wl.name);
        let mut text = String::new();
        for t in tests {
            text.push_str(&format!(
                "{}|{}|{}|{:?}\n",
                t.wl.name, t.cycles, t.report_json, t.wl.expected
            ));
        }
        fnv64(text.as_bytes())
    }

    /// Per-layer numbers for this fidelity: span-derived costs from `spans`
    /// (the traced measuring loop) plus separate passes of about `budget_s`.
    fn layers(&self, spans: &[Span], budget_s: f64, out: &mut LayerValues) {
        // Per sweep: the loop ran whole rounds of six ops.
        let p50 = |name| stats::median(&per_op_ms(spans, name, self.tests.len() as u32));
        out.insert("soc.build_ms", p50("soc.build_engine"));
        let run_ms = p50("soc.run_to_end");
        out.insert("soc.run_ms", run_ms);
        out.insert("soc.verify_ms", p50("soc.gmem_read") + p50("soc.report"));

        // Tick-profiler pass: where an instant goes.
        let prof = self.soc_sweep(self.cfg, true);
        let tick_ns: u64 = prof.profile.iter().map(|r| r.nanos).sum();
        let run_ns = prof.run_ns.max(1) as f64;
        let share = |pick: &dyn Fn(&str) -> bool| {
            let ns: u64 = prof
                .profile
                .iter()
                .filter(|r| pick(&r.name))
                .map(|r| r.nanos)
                .sum();
            ns as f64 / run_ns
        };
        let numbered = |name: &str, prefix: &str| {
            name.strip_prefix(prefix)
                .is_some_and(|rest| rest.as_bytes().first().is_some_and(u8::is_ascii_digit))
        };
        out.insert("soc.tick.pe_frac", share(&|n| numbered(n, "pe")));
        out.insert("soc.tick.router_frac", share(&|n| numbered(n, "r")));
        out.insert("soc.tick.hub_frac", share(&|n| n.starts_with("hub")));
        out.insert(
            "soc.tick.controller_frac",
            share(&|n| ["riscv", "ctl.axim", "bus", "staging"].contains(&n)),
        );

        match self.cfg.fidelity {
            Fidelity::SimAccurate => {
                out.insert("sim.kernel.dispatch_frac", 1.0 - tick_ns as f64 / run_ns);
                self.sim_layers(run_ms, budget_s, out);
            }
            _ => self.rtl_layers(run_ms, budget_s, out),
        }
    }
}
