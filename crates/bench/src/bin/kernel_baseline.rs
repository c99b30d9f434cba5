//! Simulation-kernel performance baseline: emits `BENCH_sim_kernel.json`.
//!
//! Runs 16-node (15 PE + hub) Fig. 6 workloads in all three fidelity
//! modes with quiescence gating on and off, recording wall clock,
//! evaluate/commit instants per second, and the kernel's gating
//! counters. The headline number is the gated/ungated wall-clock
//! speedup on a quiescence-heavy bursty workload — the perf floor
//! later PRs must not regress.
//!
//! Run with `--release` from the repo root:
//!
//! ```text
//! cargo run --release -p craft-bench --bin kernel_baseline
//! cargo run --release -p craft-bench --bin kernel_baseline -- --workload vec_mul
//! ```
//!
//! `--workload <name>` restricts the run to one workload (CI smoke
//! runs use this; the JSON is only written for full runs so a filtered
//! smoke never clobbers the committed baseline with partial rows).
//! `smoke` is an alias for the cheapest workload (vec_mul).
//! `--compiled-schedule` runs a compiled-plan smoke instead of the
//! full sweep: interpreted vs compiled instant plan on the selected
//! workloads, asserting cycle-identical results, a clean (de-opt-free)
//! armed run, and a wall-clock win.
//! `--deopt-smoke` verifies the plan's automatic fallback: a hang
//! watchdog trip on an armed SoC must de-opt to the interpreted path
//! before diagnosing, observed via the reason-coded
//! `sim.plan.deopt.watchdog_trip` telemetry probe.
//! `--armed-faults-smoke` verifies the opposite for fault injection: a
//! seeded `bit_flip` on `n5.eject` leaves the plan armed end to end
//! (`sim.plan.armed == 1`, `sim.plan.deopt_count == 0`) and the run
//! reports exactly what the interpreted run reports.
//! `--telemetry <path>` additionally runs one instrumented pass (hub /
//! PE / NoC probes, command spans, kernel tick profiling) and writes
//! the validated snapshot JSON to `<path>`; full runs always emit one
//! as `BENCH_sim_kernel_telemetry.json`.
//! `--threads <n>` runs a parallel smoke instead of the full sweep:
//! the selected workloads on the GALS-sharded multi-threaded
//! simulator with `n` workers (1, 2, 4 or 8), asserting cycle counts
//! identical to the sequential kernel. Full runs always emit a
//! thread-scaling section (1/2/4/8 workers × workload × fidelity)
//! into the JSON, tagged with `host_cores` so scaling numbers are
//! interpreted against the machine that produced them.
//! `--batch` runs a batched-lockstep smoke instead of the full sweep:
//! one [`BatchSoc`] fault batch per selected workload, spot-checking a
//! lane against its solo replay. Full runs always emit a `batched`
//! lane-scaling section (1/4/16/64 lanes on vec_mul) into the JSON.
//! `--partition` runs a profile-guided partition smoke instead of the
//! full sweep: per selected workload, calibrate per-node costs from a
//! sequential run, model the fixed vertical strip against the
//! searched cut, then execute both (possibly asymmetric) cuts end to
//! end asserting cycle counts identical to the sequential kernel.
//! `--repartition-smoke` forces a repartition-at-checkpoint resume: a
//! 2-strip run is stopped at its first checkpoint boundary, rebuilt
//! under an asymmetric 3-shard cut, resumed, and the blended result
//! is asserted bit-identical to the uninterrupted run. Full runs
//! always emit a `partition` section (strip vs searched modeled
//! makespan, the adopted engine wire spelling, measured per-shard
//! `barrier_wait` p50/p95/max) into the JSON; on hosts with fewer
//! than 4 cores the wall-clock columns there measure OS time-slicing
//! and the modeled makespan is the load-bearing comparison.
//!
//! Cycle counts are asserted identical gating on vs off (gating is a
//! wall-clock optimisation, never a semantic one) and identical
//! between the interpreted and compiled RTL modes (the compiled path's
//! accuracy contract).

use craft_bench::{json_meta_block, validate_json};
use craft_connections::FaultConfig;
use craft_sim::{SimError, Telemetry};
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{
    dot_product, orchestrator_program, run_workload_soc, table_words, vec_mul, Workload,
};
use craft_soc::{
    build_engine, partition_search, replay_lane_solo, BatchSoc, EngineKind, LaneSpec, NodeCosts,
    ParallelSoc, PartitionSpec, SegmentStatus, Soc, SocConfig,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct Row {
    workload: &'static str,
    mode: &'static str,
    gating: bool,
    cycles: u64,
    wall_s: f64,
    instants: u64,
    instants_per_sec: f64,
    ticks_delivered: u64,
    ticks_skipped: u64,
    commits_skipped: u64,
}

fn mode_name(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Rtl => "rtl",
        Fidelity::RtlCompiled => "rtl_compiled",
        Fidelity::SimAccurate => "sim_accurate",
    }
}

/// One thread-scaling datapoint: the gated workload on the sharded
/// parallel simulator.
struct ScalingRow {
    workload: &'static str,
    mode: &'static str,
    threads: usize,
    cycles: u64,
    wall_s: f64,
    speedup: f64,
    /// More workers than host cores: the OS time-slices them, so the
    /// wall clock measures contention, not scaling. Summary numbers
    /// skip degraded rows.
    degraded_host: bool,
}

/// One compiled-instant-plan datapoint (sim-accurate, gated), with its
/// wall-clock ratios against the interpreted rows.
struct CompiledRow {
    workload: &'static str,
    cycles: u64,
    wall_s: f64,
    instants: u64,
    instants_per_sec: f64,
    plan_instants: u64,
    deopts: u64,
    vs_interpreted_gated: f64,
    vs_interpreted_ungated: f64,
}

/// Runs `wl` under the compiled instant plan (sim-accurate, gated) and
/// returns the row skeleton; the caller fills in the interpreted
/// ratios. A steady-state run must arm at build, never de-opt, and
/// execute every instant on the fast path.
fn run_compiled_one(wl: &Workload) -> CompiledRow {
    let cfg = SocConfig {
        fidelity: Fidelity::SimAccurate,
        gating: true,
        compiled_schedule: true,
        ..SocConfig::default()
    };
    let (result, ok, soc) = run_workload_soc(cfg, wl, 8_000_000);
    assert!(ok && result.completed, "{}: compiled run failed", wl.name);
    assert!(
        soc.sim().plan_armed(),
        "{}: steady-state run must stay on the fast path",
        wl.name
    );
    assert_eq!(
        soc.sim().plan_deopt_count(),
        0,
        "{}: clean run must not de-opt",
        wl.name
    );
    let wall_s = result.wall.as_secs_f64();
    let instants = soc.sim().instants();
    assert_eq!(
        soc.sim().plan_instants(),
        instants,
        "{}: every instant must execute compiled",
        wl.name
    );
    CompiledRow {
        workload: wl.name,
        cycles: result.cycles,
        wall_s,
        instants,
        instants_per_sec: instants as f64 / wall_s.max(1e-9),
        plan_instants: soc.sim().plan_instants(),
        deopts: 0,
        vs_interpreted_gated: 0.0,
        vs_interpreted_ungated: 0.0,
    }
}

/// Hot mesh link / fault rate / seed base of the batched-lockstep
/// rows, matching the fault_campaign bench so the two artifacts
/// describe the same regime.
const BATCH_LINK: &str = "l11p3->15";
const BATCH_FAULT_P: f64 = 0.0003;
const BATCH_SEED_BASE: u64 = 800;

/// One batched-lockstep lane-scaling datapoint.
struct BatchRow {
    workload: &'static str,
    lanes: u64,
    deopt_lanes: usize,
    golden_cycles: u64,
    wall_s: f64,
    seeds_per_sec: f64,
}

/// Runs one `lanes`-wide [`BatchSoc`] fault batch over `wl` (compiled
/// golden schedule, sim-accurate) and spot-checks lane 0 against its
/// solo replay.
fn run_batch_one(wl: &Workload, lanes: u64) -> BatchRow {
    let cfg = SocConfig {
        compiled_schedule: true,
        ..SocConfig::default()
    };
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let specs: Vec<LaneSpec> = (0..lanes)
        .map(|s| {
            LaneSpec::new(
                BATCH_LINK,
                FaultConfig::bit_flip(BATCH_FAULT_P),
                BATCH_SEED_BASE + s,
            )
        })
        .collect();
    let t0 = Instant::now();
    let mut batch = BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs.clone())
        .expect("hot link exists");
    let rep = batch.run(8_000_000, 100_000);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        rep.converged_lanes + rep.deopt_lanes,
        lanes as usize,
        "{}: every lane must converge or de-opt",
        wl.name
    );
    let golden_cycles = rep.golden.as_ref().expect("fault-free golden run").cycles;
    // Spot check: lane 0's batched observables equal its solo replay.
    let (s_res, s_rep, s_stats, _) =
        replay_lane_solo(&batch.replay_inputs(), &specs[0], 8_000_000, 100_000);
    let lane0 = &rep.lanes[0];
    assert_eq!(
        lane0
            .result
            .as_ref()
            .map(|r| r.as_ref().map(|x| x.cycles).ok()),
        Some(s_res.as_ref().map(|x| x.cycles).ok()),
        "{}: lane 0 cycles diverged from its solo replay",
        wl.name
    );
    assert_eq!(
        (lane0.report.as_ref(), lane0.fault_stats.as_ref()),
        (Some(&s_rep), Some(&s_stats)),
        "{}: lane 0 report diverged from its solo replay",
        wl.name
    );
    BatchRow {
        workload: wl.name,
        lanes,
        deopt_lanes: rep.deopt_lanes,
        golden_cycles,
        wall_s,
        seeds_per_sec: lanes as f64 / wall_s.max(1e-9),
    }
}

/// One measured cut of the partition analysis: the modeled makespan
/// plus the executed run's wall clock and per-shard barrier-wait
/// quantiles (predicted vs measured for the same cut).
struct CutMeasure {
    role: &'static str,
    spec: PartitionSpec,
    makespan_model: u64,
    cycles: u64,
    wall_s: f64,
    /// Per shard: `(p50_ns, p95_ns, max_ns)` of the epoch barrier
    /// wait, from the `sim.shard.<i>.barrier_wait.*` probes.
    barrier: Vec<(u64, u64, u64)>,
}

/// One workload × shard-count row of the `partition` section: the
/// fixed vertical strip against the profile-guided searched cut.
struct PartitionRow {
    workload: &'static str,
    shards: usize,
    seq_cycles: u64,
    seq_wall_s: f64,
    /// Wire spelling of the cut a scheduler should adopt.
    adopted: String,
    /// Strip makespan / searched makespan under the calibrated model.
    model_gain: f64,
    improved: bool,
    cuts: Vec<CutMeasure>,
}

/// Executes `wl` under `spec` with telemetry attached and returns the
/// measured cut row. Cycle counts are asserted identical to the
/// sequential calibration run — the golden contract for any valid
/// LI-boundary cut.
fn measure_cut(
    wl: &Workload,
    cfg: SocConfig,
    spec: PartitionSpec,
    role: &'static str,
    makespan_model: u64,
    seq_cycles: u64,
) -> CutMeasure {
    let mut par = ParallelSoc::build_partitioned(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        spec,
        true,
    );
    let t0 = Instant::now();
    let r = par.run(8_000_000);
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(r.completed, "{}: {role} cut run incomplete", wl.name);
    assert_eq!(
        r.cycles, seq_cycles,
        "{}: {role} cut diverged from sequential",
        wl.name
    );
    let snap = par.telemetry_snapshot().expect("telemetry attached");
    let probe = |path: String| {
        snap.metrics
            .iter()
            .find(|m| m.path == path)
            .unwrap_or_else(|| panic!("missing probe {path}"))
            .value
    };
    let barrier = (0..spec.shards())
        .map(|i| {
            (
                probe(format!("sim.shard.{i}.barrier_wait.p50_ns")),
                probe(format!("sim.shard.{i}.barrier_wait.p95_ns")),
                probe(format!("sim.shard.{i}.barrier_wait.max_ns")),
            )
        })
        .collect();
    CutMeasure {
        role,
        spec,
        makespan_model,
        cycles: r.cycles,
        wall_s,
        barrier,
    }
}

/// Profile-guided partition analysis for one workload × shard count:
/// calibrate per-node costs from a sequential run, model strip vs
/// searched makespan, then execute both cuts (the searched cut only
/// when it differs from the strip).
fn run_partition_one(wl: &Workload, shards: usize) -> PartitionRow {
    let cfg = SocConfig {
        fidelity: Fidelity::SimAccurate,
        gating: true,
        ..SocConfig::default()
    };
    let (seq, ok, soc) = run_workload_soc(cfg, wl, 8_000_000);
    assert!(ok && seq.completed, "{}: calibration run failed", wl.name);
    let costs = NodeCosts::from_report(&soc.report());
    let pen = costs.default_cut_penalty();
    let strip = PartitionSpec::vertical_strips(shards);
    let searched = partition_search(&costs, shards, pen);
    let strip_mk = costs.makespan(&strip, pen);
    let searched_mk = costs.makespan(&searched, pen);
    let improved = searched_mk < strip_mk;
    let adopted = if improved {
        format!("parallel:spec:{searched}")
    } else {
        format!("parallel:{shards}")
    };
    let mut cuts = vec![measure_cut(wl, cfg, strip, "strip", strip_mk, seq.cycles)];
    if searched != strip {
        cuts.push(measure_cut(
            wl,
            cfg,
            searched,
            "searched",
            searched_mk,
            seq.cycles,
        ));
    }
    PartitionRow {
        workload: wl.name,
        shards,
        seq_cycles: seq.cycles,
        seq_wall_s: seq.wall.as_secs_f64(),
        adopted,
        model_gain: strip_mk as f64 / searched_mk.max(1) as f64,
        improved,
        cuts,
    }
}

fn print_partition_row(row: &PartitionRow) {
    for c in &row.cuts {
        let worst = c.barrier.iter().map(|b| b.2).max().unwrap_or(0);
        println!(
            "{} x{} {:<8}: modeled makespan {:>9}, {:>8.2} ms, worst shard barrier max {} ns ({})",
            row.workload,
            row.shards,
            c.role,
            c.makespan_model,
            c.wall_s * 1e3,
            worst,
            c.spec
        );
    }
    println!(
        "{} x{}: adopt {} (model gain {:.2}x{})",
        row.workload,
        row.shards,
        row.adopted,
        row.model_gain,
        if row.improved { "" } else { ", strip kept" }
    );
}

/// Forced repartition-at-checkpoint resume: stop a 2-strip run at its
/// first automatic checkpoint boundary, rebuild the worker set under
/// an asymmetric 3-shard cut, resume, and require the blended result
/// to be bit-identical to the uninterrupted 2-strip run.
fn run_repartition_smoke(wl: &Workload) {
    let cfg = SocConfig {
        checkpoint_every: Some(250),
        ..SocConfig::default()
    };
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let strip = PartitionSpec::vertical_strips(2);
    let next = PartitionSpec::parse("0001011101220222").expect("valid 3-shard cut");

    let mut base =
        ParallelSoc::build_partitioned(cfg, &program, &table, &wl.gmem_init, strip, false);
    let base_res = base
        .run_checked(8_000_000, 200_000)
        .expect("uninterrupted run healthy");
    let base_report = base.report();

    let mut soc =
        ParallelSoc::build_partitioned(cfg, &program, &table, &wl.gmem_init, strip, false);
    soc.begin_checked(8_000_000, 200_000);
    let mut swapped = false;
    let res = loop {
        match soc.step_segment().expect("supervised segment healthy") {
            SegmentStatus::Boundary => {
                if !swapped {
                    soc.repartition(next).expect("repartition at boundary");
                    swapped = true;
                    assert_eq!(soc.partition_spec(), next, "new cut must be live");
                    assert_eq!(soc.threads(), 3, "worker set must match the new cut");
                }
            }
            SegmentStatus::Done(r) => break r,
        }
    };
    assert!(
        swapped,
        "checkpoint grain must produce at least one boundary"
    );
    assert_eq!(soc.repartitions(), 1, "exactly one rebuild");
    assert!(
        res.completed,
        "{}: repartitioned resume incomplete",
        wl.name
    );
    assert_eq!(
        res.cycles, base_res.cycles,
        "{}: repartitioned resume diverged from the uninterrupted run",
        wl.name
    );
    assert_eq!(
        soc.report(),
        base_report,
        "{}: repartitioned report diverged",
        wl.name
    );
    println!(
        "repartition smoke OK: {} stopped at a checkpoint boundary, rebuilt 2 strips -> \
         3-shard cut {next}, finished bit-identical in {} cycles",
        wl.name, res.cycles
    );
}

/// Builds `wl` on an instrumented SoC with the instant plan
/// requested, for the two plan smokes below.
fn plan_smoke_soc(wl: &Workload, program: &[u32], compiled_schedule: bool) -> Soc {
    Soc::build_with_telemetry(
        SocConfig {
            compiled_schedule,
            ..SocConfig::default()
        },
        program,
        &table_words(&wl.entries),
        &wl.gmem_init,
        Some(Telemetry::new()),
    )
}

/// One `sim.plan.*` probe row of `soc`'s telemetry snapshot.
fn plan_probe(soc: &Soc, path: &str) -> u64 {
    let snap = soc.telemetry_snapshot().expect("telemetry attached");
    snap.metric(path)
        .unwrap_or_else(|| panic!("missing probe {path}"))
}

/// De-opt smoke: wedge an armed SoC (the controller spins on
/// `jal zero, 0`, so nothing ever counts as progress) and observe the
/// watchdog trip's automatic fallback through the reason-coded
/// `sim.plan.deopt.*` telemetry probes.
fn run_deopt_smoke(wl: &Workload) {
    let spin = [craft_riscv::asm::jal(craft_riscv::asm::ZERO, 0)];
    let mut soc = plan_smoke_soc(wl, &spin, true);
    assert!(soc.sim().plan_armed(), "plan must arm at build");
    let err = soc
        .run_checked(2_000_000, 20_000)
        .expect_err("a spinning controller must be diagnosed as hung");
    assert!(matches!(err, SimError::Hang { .. }), "expected Hang: {err}");
    assert_eq!(plan_probe(&soc, "sim.plan.armed"), 0, "the trip de-opts");
    assert_eq!(plan_probe(&soc, "sim.plan.deopt.watchdog_trip"), 1);
    assert_eq!(
        plan_probe(&soc, "sim.plan.deopt_count"),
        1,
        "and nothing else did"
    );
    println!(
        "de-opt smoke OK: {} watchdog trip diagnosed interpreted \
         (sim.plan.deopt.watchdog_trip = 1, {} compiled instants before the trip)",
        wl.name,
        plan_probe(&soc, "sim.plan.instants")
    );
}

/// Armed-faults smoke: a fault injector on an armed SoC is not a
/// de-opt — the plan runs the whole faulted workload and the report
/// is the interpreted run's.
fn run_armed_faults_smoke(wl: &Workload) {
    let run = |compiled: bool| {
        let mut soc = plan_smoke_soc(wl, &orchestrator_program(), compiled);
        let touched = soc
            .inject_fault("n5.eject", FaultConfig::bit_flip(0.02), 11)
            .expect("NoC channel exists");
        assert_eq!(touched, 1, "one eject channel armed with faults");
        let r = soc.run(8_000_000);
        assert!(r.completed, "degraded run must still complete");
        (r.cycles, soc.report().to_json(), soc)
    };
    let (interp_cycles, interp_report, _) = run(false);
    let (cycles, report, soc) = run(true);
    assert_eq!(
        plan_probe(&soc, "sim.plan.armed"),
        1,
        "still armed at the end"
    );
    assert_eq!(plan_probe(&soc, "sim.plan.deopt_count"), 0, "no de-opt");
    assert_eq!(
        plan_probe(&soc, "sim.plan.instants"),
        soc.sim().instants(),
        "every instant ran compiled"
    );
    assert_eq!((cycles, &report), (interp_cycles, &interp_report));
    let flips = soc.report().faults.stats.flips;
    assert!(flips > 0, "{}: no traffic on n5.eject to fault", wl.name);
    println!(
        "armed-faults smoke OK: {} ran {} cycles with {flips} bit flips on n5.eject, \
         plan armed throughout, report identical to the interpreted run",
        wl.name, cycles
    );
}

fn run_one(wl: &Workload, fidelity: Fidelity, gating: bool) -> Row {
    let cfg = SocConfig {
        fidelity,
        gating,
        ..SocConfig::default()
    };
    let (result, ok, soc) = run_workload_soc(cfg, wl, 8_000_000);
    assert!(ok && result.completed, "{}: run failed", wl.name);
    let wall_s = result.wall.as_secs_f64();
    let instants = soc.sim().instants();
    Row {
        workload: wl.name,
        mode: mode_name(fidelity),
        gating,
        cycles: result.cycles,
        wall_s,
        instants,
        instants_per_sec: instants as f64 / wall_s.max(1e-9),
        ticks_delivered: soc.sim().ticks_delivered(),
        ticks_skipped: soc.sim().ticks_skipped(),
        commits_skipped: soc.sim().commits_skipped(),
    }
}

/// Runs `wl` through the unified [`craft_soc::SimEngine`] facade —
/// `kind` selects the backend, no per-engine dispatch here — and
/// returns `(cycles, wall seconds)`, asserting the run completes and
/// every expected memory region verifies.
fn run_engine_one(wl: &Workload, fidelity: Fidelity, kind: EngineKind) -> (u64, f64) {
    let cfg = SocConfig {
        fidelity,
        gating: true,
        ..SocConfig::default()
    };
    let mut eng = build_engine(
        kind,
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        &[],
        false,
    )
    .unwrap_or_else(|e| panic!("{}: engine rejected: {e}", wl.name));
    let result = eng
        .run_checked(8_000_000, 200_000)
        .unwrap_or_else(|e| panic!("{}: {kind} run failed: {e:?}", wl.name));
    assert!(result.completed, "{}: {kind} run incomplete", wl.name);
    for (base, expect) in &wl.expected {
        assert_eq!(
            &eng.gmem_read(*base, expect.len()),
            expect,
            "{}: {kind} result mismatch",
            wl.name
        );
    }
    (result.cycles, result.wall.as_secs_f64())
}

/// True when the bare presence flag `--<flag>` is on the command line.
fn has_flag(flag: &str) -> bool {
    let bare = format!("--{flag}");
    std::env::args().skip(1).any(|a| a == bare)
}

/// Parses `--<flag> <value>` (or `--<flag>=<value>`) from the command
/// line, if present. A flag with no trailing value is a typed error,
/// not a panic.
fn flag_value(flag: &str) -> Result<Option<String>, String> {
    let bare = format!("--{flag}");
    let eq = format!("--{flag}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == bare {
            return match args.next() {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{bare} needs a value")),
            };
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// One telemetry-instrumented pass over `wl`: attaches a profiling
/// sink, runs to completion, validates the snapshot JSON and writes it
/// to `path`. IO failures surface as typed errors.
fn emit_telemetry_snapshot(wl: &Workload, path: &str) -> Result<(), String> {
    let tel = Telemetry::new();
    tel.set_profiling(true);
    let mut soc = Soc::build_with_telemetry(
        SocConfig::default(),
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        Some(tel),
    );
    let r = soc.run(8_000_000);
    assert!(r.completed, "{}: instrumented run failed", wl.name);
    let snap = soc.telemetry_snapshot().expect("telemetry attached");
    assert!(!snap.profile.is_empty(), "tick profiling must capture");
    let json = snap.to_json();
    validate_json(&json).expect("telemetry snapshot must be valid JSON");
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "telemetry: {} metrics, {} spans, {} profiled components -> {path}",
        snap.metrics.len(),
        snap.spans.len(),
        snap.profile.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kernel_baseline: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    // dot_product is the quiescence-heavy headline: 8-PE waves with
    // barriers, then a long single-PE reduce tail during which 14 PEs
    // and most routers are idle. vec_mul (4 active PEs per wave) is
    // the second datapoint.
    // `smoke` aliases the cheapest workload so CI invocations don't
    // hard-code a workload name.
    let filter = flag_value("workload")?.map(|f| {
        if f == "smoke" {
            "vec_mul".to_string()
        } else {
            f
        }
    });
    let telemetry_path = flag_value("telemetry")?;
    let workloads: Vec<Workload> = [dot_product(), vec_mul()]
        .into_iter()
        .filter(|wl| filter.as_deref().is_none_or(|f| f == wl.name))
        .collect();
    if workloads.is_empty() {
        return Err(format!(
            "no workload matches filter {filter:?} (try dot_product or vec_mul)"
        ));
    }

    // --deopt-smoke: a watchdog trip must fall back to the
    // interpreted path, observed through telemetry (CI check).
    if has_flag("deopt-smoke") {
        run_deopt_smoke(&workloads[workloads.len() - 1]);
        return Ok(());
    }

    // --armed-faults-smoke: fault injection must *not* (CI check).
    if has_flag("armed-faults-smoke") {
        run_armed_faults_smoke(&workloads[0]);
        return Ok(());
    }

    // --batch: batched-lockstep smoke (CI regression check). One
    // 8-lane fault batch per selected workload with a lane-0 solo
    // spot check inside run_batch_one.
    if has_flag("batch") {
        for wl in &workloads {
            let b = run_batch_one(wl, 8);
            println!(
                "{}: 8-lane batch in {:.2} ms ({:.0} seeds/s, {} de-opts, \
                 golden {} cycles, lane 0 solo-identical)",
                wl.name,
                b.wall_s * 1e3,
                b.seeds_per_sec,
                b.deopt_lanes,
                b.golden_cycles
            );
        }
        println!("batch smoke OK");
        return Ok(());
    }

    // --compiled-schedule: compiled-plan smoke (CI regression check).
    // Interpreted vs compiled on each selected workload: identical
    // cycles, clean armed run, and a wall-clock win.
    if has_flag("compiled-schedule") {
        for wl in &workloads {
            let gated = run_one(wl, Fidelity::SimAccurate, true);
            let compiled = run_compiled_one(wl);
            assert_eq!(
                gated.cycles, compiled.cycles,
                "{}: compiled schedule changed cycle counts",
                wl.name
            );
            println!(
                "{}: compiled {:.0} instants/s vs interpreted gated {:.0} \
                 ({:.2}x, {} instants, 0 de-opts)",
                wl.name,
                compiled.instants_per_sec,
                gated.instants_per_sec,
                gated.wall_s / compiled.wall_s.max(1e-9),
                compiled.instants
            );
        }
        println!("compiled-schedule smoke OK");
        return Ok(());
    }

    // --threads N: parallel smoke only (CI barrier-regression check).
    // Covers the degenerate single-shard partition at N=1.
    if let Some(threads) = flag_value("threads")? {
        let threads: usize = threads
            .parse()
            .map_err(|_| format!("--threads takes 1, 2, 4 or 8, got {threads:?}"))?;
        for wl in &workloads {
            for fidelity in [Fidelity::SimAccurate, Fidelity::Rtl] {
                let seq = run_one(wl, fidelity, true);
                let (par_cycles, par_wall) =
                    run_engine_one(wl, fidelity, EngineKind::Parallel { threads });
                assert_eq!(
                    seq.cycles, par_cycles,
                    "{} {}: {threads}-thread run diverged from sequential",
                    wl.name, seq.mode
                );
                println!(
                    "{} {} x{threads}: {par_cycles} cycles (sequential-identical), \
                     {:.2} ms vs {:.2} ms sequential",
                    wl.name,
                    seq.mode,
                    par_wall * 1e3,
                    seq.wall_s * 1e3
                );
            }
        }
        println!("parallel smoke OK ({threads} threads)");
        return Ok(());
    }

    // --partition: profile-guided partition smoke (CI asymmetric-cut
    // check). Models strip vs searched makespan from calibrated
    // per-node costs and executes both cuts, asserting sequential
    // identity.
    if has_flag("partition") {
        for wl in &workloads {
            for shards in [2usize, 4] {
                print_partition_row(&run_partition_one(wl, shards));
            }
        }
        println!("partition smoke OK");
        return Ok(());
    }

    // --repartition-smoke: forced repartition-at-checkpoint resume
    // (CI bit-identity check across a mid-run worker-set rebuild).
    if has_flag("repartition-smoke") {
        run_repartition_smoke(&workloads[0]);
        return Ok(());
    }
    let mut rows = Vec::new();
    for wl in &workloads {
        for fidelity in [Fidelity::SimAccurate, Fidelity::Rtl, Fidelity::RtlCompiled] {
            let on = run_one(wl, fidelity, true);
            let off = run_one(wl, fidelity, false);
            assert_eq!(
                on.cycles, off.cycles,
                "{}: gating changed cycle counts",
                wl.name
            );
            rows.push(on);
            rows.push(off);
        }
        // The two RTL modes must be cycle-identical: compiled plans
        // change wall clock only, never timing.
        let cycles_of = |mode: &str| {
            rows.iter()
                .find(|r| r.workload == wl.name && r.mode == mode)
                .map(|r| r.cycles)
                .expect("mode row present")
        };
        assert_eq!(
            cycles_of("rtl"),
            cycles_of("rtl_compiled"),
            "{}: compiled RTL changed cycle counts",
            wl.name
        );
    }

    // Compiled instant plan: the sim-accurate gated schedule lowered
    // to the dispatch-free fast path. Cycle counts must match the
    // interpreted rows exactly (the golden-reference contract); the
    // ratios are recorded against both interpreted baselines.
    let mut compiled_rows: Vec<CompiledRow> = Vec::new();
    for wl in &workloads {
        let interp = |gating: bool| {
            rows.iter()
                .find(|r| r.workload == wl.name && r.mode == "sim_accurate" && r.gating == gating)
                .expect("sim_accurate row present")
        };
        let mut c = run_compiled_one(wl);
        assert_eq!(
            c.cycles,
            interp(true).cycles,
            "{}: compiled schedule changed cycle counts",
            wl.name
        );
        c.vs_interpreted_gated = interp(true).wall_s / c.wall_s.max(1e-9);
        c.vs_interpreted_ungated = interp(false).wall_s / c.wall_s.max(1e-9);
        compiled_rows.push(c);
    }

    // Thread-scaling sweep: the same gated workloads on the sharded
    // parallel simulator, 1/2/4/8 workers. Cycle counts must be
    // identical to the sequential rows (the determinism contract);
    // wall-clock scaling depends on the host's core count, recorded
    // alongside so the numbers are interpretable.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scaling: Vec<ScalingRow> = Vec::new();
    for wl in &workloads {
        for fidelity in [Fidelity::SimAccurate, Fidelity::Rtl, Fidelity::RtlCompiled] {
            let seq_cycles = rows
                .iter()
                .find(|r| r.workload == wl.name && r.mode == mode_name(fidelity) && r.gating)
                .map(|r| r.cycles)
                .expect("sequential row present");
            let mut base_wall = 0.0f64;
            for threads in [1usize, 2, 4, 8] {
                let (cycles, wall_s) =
                    run_engine_one(wl, fidelity, EngineKind::Parallel { threads });
                assert_eq!(
                    cycles,
                    seq_cycles,
                    "{} {}: {threads}-thread run diverged from sequential",
                    wl.name,
                    mode_name(fidelity)
                );
                if threads == 1 {
                    base_wall = wall_s;
                }
                scaling.push(ScalingRow {
                    workload: wl.name,
                    mode: mode_name(fidelity),
                    threads,
                    cycles,
                    wall_s,
                    speedup: base_wall / wall_s.max(1e-9),
                    degraded_host: host_cores < threads,
                });
            }
        }
    }

    println!(
        "{:<12} {:<13} {:>6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "workload",
        "mode",
        "gating",
        "cycles",
        "wall ms",
        "instants/s",
        "ticks del",
        "ticks skip",
        "commits/k"
    );
    for r in &rows {
        println!(
            "{:<12} {:<13} {:>6} {:>10} {:>10.2} {:>12.0} {:>12} {:>12} {:>10}",
            r.workload,
            r.mode,
            r.gating,
            r.cycles,
            r.wall_s * 1e3,
            r.instants_per_sec,
            r.ticks_delivered,
            r.ticks_skipped,
            r.commits_skipped / 1000
        );
    }

    // Batched lockstep lane scaling: one bit-flip fault batch per lane
    // count on vec_mul, same link/rate/seed regime as fault_campaign.
    // Full runs only — the filtered smoke never writes the JSON.
    let batch_rows: Vec<BatchRow> = if filter.is_none() {
        let wl = vec_mul();
        [1u64, 4, 16, 64]
            .iter()
            .map(|&lanes| run_batch_one(&wl, lanes))
            .collect()
    } else {
        Vec::new()
    };
    for b in &batch_rows {
        println!(
            "{} batched x{}: {:.2} ms, {:.0} seeds/s ({} de-opts)",
            b.workload,
            b.lanes,
            b.wall_s * 1e3,
            b.seeds_per_sec,
            b.deopt_lanes
        );
    }

    // Profile-guided partition analysis: strip vs searched cut under
    // the calibrated makespan model, both executed end to end. On a
    // host with fewer than 4 cores the wall-clock columns measure OS
    // time-slicing, not the cut (`degraded_host` in the JSON); the
    // modeled makespan is the load-bearing comparison there.
    let partition_rows: Vec<PartitionRow> = if filter.is_none() {
        workloads
            .iter()
            .flat_map(|wl| [2usize, 4].map(|shards| run_partition_one(wl, shards)))
            .collect()
    } else {
        Vec::new()
    };
    for row in &partition_rows {
        print_partition_row(row);
    }
    if filter.is_none() {
        // The adaptive-sharding headline: the searched cut must model
        // strictly better than the fixed strip on >= 2 workloads.
        let improved_workloads = workloads
            .iter()
            .filter(|wl| {
                partition_rows
                    .iter()
                    .any(|r| r.workload == wl.name && r.improved)
            })
            .count();
        assert!(
            improved_workloads >= 2,
            "profile-guided cut must model better than the strip on >= 2 workloads, \
             got {improved_workloads}"
        );
    }

    let mut json = format!(
        "{{\n  {}\n  \"bench\": \"sim_kernel\",\n  \"unit\": \"seconds\",\n  \"rows\": [\n",
        json_meta_block("kernel_baseline")
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"gating\": {}, \"cycles\": {}, \"wall_s\": {:.6}, \"instants\": {}, \"instants_per_sec\": {:.0}, \"ticks_delivered\": {}, \"ticks_skipped\": {}, \"commits_skipped\": {}}}",
            r.workload,
            r.mode,
            r.gating,
            r.cycles,
            r.wall_s,
            r.instants,
            r.instants_per_sec,
            r.ticks_delivered,
            r.ticks_skipped,
            r.commits_skipped
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"speedups\": [\n");
    let mut headline = 0.0f64;
    let pairs: Vec<(usize, usize)> = (0..rows.len() / 2).map(|i| (2 * i, 2 * i + 1)).collect();
    for (i, &(on_i, off_i)) in pairs.iter().enumerate() {
        let (on, off) = (&rows[on_i], &rows[off_i]);
        let speedup = off.wall_s / on.wall_s.max(1e-9);
        if on.mode == "sim_accurate" {
            headline = headline.max(speedup);
        }
        println!(
            "{} {}: gating speedup {:.2}x ({:.2} ms -> {:.2} ms)",
            on.workload,
            on.mode,
            speedup,
            off.wall_s * 1e3,
            on.wall_s * 1e3
        );
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"gating_speedup\": {:.3}}}",
            on.workload, on.mode, speedup
        );
        json.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"headline_gating_speedup\": {headline:.3},\n"
    );

    let mut headline_compiled = 0.0f64;
    json.push_str("  \"compiled_schedule\": [\n");
    for (i, c) in compiled_rows.iter().enumerate() {
        headline_compiled = headline_compiled.max(c.vs_interpreted_ungated);
        println!(
            "{} compiled plan: {:.0} instants/s, {:.2}x vs interpreted gated, \
             {:.2}x vs interpreted ungated ({} instants, {} de-opts)",
            c.workload,
            c.instants_per_sec,
            c.vs_interpreted_gated,
            c.vs_interpreted_ungated,
            c.plan_instants,
            c.deopts
        );
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"mode\": \"sim_accurate\", \"cycles\": {}, \"wall_s\": {:.6}, \"instants\": {}, \"instants_per_sec\": {:.0}, \"plan_instants\": {}, \"deopts\": {}, \"vs_interpreted_gated\": {:.3}, \"vs_interpreted_ungated\": {:.3}}}",
            c.workload,
            c.cycles,
            c.wall_s,
            c.instants,
            c.instants_per_sec,
            c.plan_instants,
            c.deopts,
            c.vs_interpreted_gated,
            c.vs_interpreted_ungated
        );
        json.push_str(if i + 1 < compiled_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        json,
        "  ],\n  \"headline_compiled_speedup\": {headline_compiled:.3},\n"
    );

    println!(
        "\n{:<12} {:<13} {:>7} {:>10} {:>10} {:>9}",
        "workload", "mode", "threads", "cycles", "wall ms", "speedup"
    );
    for s in &scaling {
        println!(
            "{:<12} {:<13} {:>7} {:>10} {:>10.2} {:>8.2}x{}",
            s.workload,
            s.mode,
            s.threads,
            s.cycles,
            s.wall_s * 1e3,
            s.speedup,
            if s.degraded_host {
                "  (degraded: threads > host cores)"
            } else {
                ""
            }
        );
    }
    // Degraded rows (more workers than cores) measure OS time-slicing,
    // not scaling: they are recorded for completeness but never enter
    // the summary numbers.
    let parallel_speedup_rtl = scaling
        .iter()
        .filter(|s| s.mode != "sim_accurate" && s.threads == 4 && !s.degraded_host)
        .map(|s| s.speedup)
        .fold(0.0f64, f64::max);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"scaling\": [\n");
    for (i, s) in scaling.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \"cycles\": {}, \"wall_s\": {:.6}, \"speedup\": {:.3}, \"degraded_host\": {}}}",
            s.workload, s.mode, s.threads, s.cycles, s.wall_s, s.speedup, s.degraded_host
        );
        json.push_str(if i + 1 < scaling.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"parallel_speedup_rtl\": {parallel_speedup_rtl:.3},\n"
    );
    let _ = write!(
        json,
        "  \"batched\": {{\n    \"link\": \"{BATCH_LINK}\", \"fault_p\": {BATCH_FAULT_P}, \
         \"fidelity\": \"sim_accurate\", \"compiled_schedule\": true, \"rows\": [\n"
    );
    for (i, b) in batch_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"workload\": \"{}\", \"lanes\": {}, \"deopt_lanes\": {}, \
             \"golden_cycles\": {}, \"wall_s\": {:.6}, \"seeds_per_sec\": {:.3}}}",
            b.workload, b.lanes, b.deopt_lanes, b.golden_cycles, b.wall_s, b.seeds_per_sec
        );
        json.push_str(if i + 1 < batch_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"partition\": {{\n    \"fidelity\": \"sim_accurate\", \"gating\": true, \
         \"cut_penalty\": \"cost_total/256\", \"degraded_host\": {},\n    \"rows\": [",
        host_cores < 4
    );
    for (i, row) in partition_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workload\": \"{}\", \"shards\": {}, \"seq_cycles\": {}, \
             \"seq_wall_s\": {:.6}, \"adopted_engine\": \"{}\", \"model_gain\": {:.3}, \
             \"improved\": {}, \"cuts\": [",
            row.workload,
            row.shards,
            row.seq_cycles,
            row.seq_wall_s,
            row.adopted,
            row.model_gain,
            row.improved
        );
        for (j, c) in row.cuts.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"role\": \"{}\", \"spec\": \"{}\", \"makespan_model\": {}, \
                 \"cycles\": {}, \"wall_s\": {:.6}, \"barrier_wait_ns\": [",
                c.role, c.spec, c.makespan_model, c.cycles, c.wall_s
            );
            for (k, (p50, p95, max)) in c.barrier.iter().enumerate() {
                let _ = write!(
                    json,
                    "{{\"shard\": {k}, \"p50\": {p50}, \"p95\": {p95}, \"max\": {max}}}"
                );
                if k + 1 < c.barrier.len() {
                    json.push_str(", ");
                }
            }
            json.push_str("]}");
            json.push_str(if j + 1 < row.cuts.len() { ",\n" } else { "\n" });
        }
        json.push_str("      ]}");
        json.push_str(if i + 1 < partition_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  }\n}\n");
    // The >=2x RTL-workload scaling gate is meaningful only where the
    // OS can actually schedule 4 workers concurrently.
    if host_cores >= 4 {
        assert!(
            parallel_speedup_rtl >= 2.0,
            "4-thread RTL speedup {parallel_speedup_rtl:.2}x below the 2x gate \
             (host has {host_cores} cores)"
        );
    } else {
        println!(
            "\nhost has {host_cores} core(s): thread scaling here validates \
             determinism, not wall clock; the >=2x RTL gate needs >=4 cores"
        );
    }

    if let Some(path) = &telemetry_path {
        emit_telemetry_snapshot(&workloads[0], path)?;
    }

    if filter.is_none() {
        validate_json(&json).expect("scaling rows must keep the baseline well-formed");
        std::fs::write("BENCH_sim_kernel.json", &json)
            .map_err(|e| format!("write BENCH_sim_kernel.json: {e}"))?;
        if telemetry_path.is_none() {
            emit_telemetry_snapshot(&workloads[0], "BENCH_sim_kernel_telemetry.json")?;
        }
        println!("\nheadline sim-accurate gating speedup: {headline:.2}x (target >= 1.5x)");
        println!(
            "headline compiled-schedule speedup vs interpreted ungated: {headline_compiled:.2}x"
        );
        println!("wrote BENCH_sim_kernel.json");
    } else {
        println!("\nheadline sim-accurate gating speedup: {headline:.2}x (target >= 1.5x)");
        println!("workload filter active: BENCH_sim_kernel.json not rewritten");
    }
    if headline < 1.5 {
        eprintln!("warning: headline speedup below 1.5x — run with --release on an idle machine");
    }
    Ok(())
}
