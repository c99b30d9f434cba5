//! The serving contract, property-tested: a job preempted at
//! checkpoint boundaries and resumed under load (possibly many
//! times, as the engine parked on its worker or by replaying the
//! snapshot bytes on another) finishes with a
//! [`craft_soc::SocReport`] **bit-identical** to an uninterrupted
//! run of the same submission — across engine × workload × fidelity
//! × checkpoint grain, with and without fault vectors.
//!
//! A case costs milliseconds, so the property deals the 12 engine ×
//! workload × fidelity cells round-robin over 36 cases, three deals a
//! cell, with the other axes drawn. A deal whose fault fail-stops the
//! run is skipped; the shim's fixed seed still serves every cell.

use craft_connections::FaultConfig;
use craft_serve::{DeterministicScheduler, JobSpec, WorkloadId};
use craft_soc::{EngineKind, Fidelity, LaneSpec, SocConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const MAX_CYCLES: u64 = 2_000_000;
const NO_PROGRESS: u64 = 50_000;

/// The next engine × workload × fidelity cell, dealt round-robin.
fn next_cell() -> (EngineKind, WorkloadId, Fidelity) {
    static DEALT: AtomicUsize = AtomicUsize::new(0);
    const ENGINES: [EngineKind; 2] = [EngineKind::Soc, EngineKind::Batch];
    const WORKLOADS: [WorkloadId; 3] = [
        WorkloadId::VecMul,
        WorkloadId::DotProduct,
        WorkloadId::Reduction,
    ];
    const FIDELITIES: [Fidelity; 2] = [Fidelity::SimAccurate, Fidelity::RtlCompiled];
    let i = DEALT.fetch_add(1, Ordering::Relaxed);
    (ENGINES[i % 2], WORKLOADS[i / 2 % 3], FIDELITIES[i / 6 % 2])
}

/// Uninterrupted reference run of `spec` straight through the engine
/// [`JobSpec::build_engine`] hands out — no scheduler, no preemption. Returns `None`
/// when the drawn fault fail-stops the run (a panic is that
/// contract, not a serving observable).
fn reference(spec: &JobSpec) -> Option<(u64, bool, String)> {
    std::panic::catch_unwind(|| {
        let mut eng = spec.build_engine().expect("engine builds");
        let res = eng
            .run_checked(spec.max_cycles, spec.no_progress_limit)
            .expect("no hang in reference");
        (res.cycles, res.completed, eng.report().to_json())
    })
    .ok()
}

proptest! {
    // Each case is one uninterrupted run plus a two-job contended
    // schedule; 36 cases deal each of the 12 cells three times.
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn preempt_resume_is_bit_identical_to_uninterrupted(
        ckpt_every in 150u64..600,
        with_fault: bool,
        seed in 0u64..1_000_000,
    ) {
        let (engine, workload, fidelity) = next_cell();
        let mut spec = JobSpec::new(workload, engine);
        spec.cfg = SocConfig {
            fidelity,
            checkpoint_every: Some(ckpt_every),
            ..SocConfig::default()
        };
        spec.max_cycles = MAX_CYCLES;
        spec.no_progress_limit = NO_PROGRESS;
        // The batch engine needs at least one lane; keep the fault
        // benign enough that runs usually survive (fail-stop draws
        // are skipped via the reference run).
        if with_fault || engine == EngineKind::Batch {
            spec.faults = vec![LaneSpec::new("->", FaultConfig::bit_flip(0.01), seed)];
        }

        let Some((ref_cycles, ref_completed, ref_report)) = reference(&spec) else {
            return Ok(()); // fail-stop draw
        };

        // Serve the same submission on a 1-worker scheduler with a
        // competitor job so every boundary preempts; the one worker
        // resumes its own parked engines and never replays.
        let mut sched = DeterministicScheduler::new(1);
        let target = sched.submit(spec.clone()).expect("accepted");
        let mut rival = JobSpec::new(WorkloadId::VecMul, EngineKind::Soc);
        rival.cfg.checkpoint_every = Some(ckpt_every);
        rival.max_cycles = MAX_CYCLES;
        rival.no_progress_limit = NO_PROGRESS;
        let rival_id = sched.submit(rival).expect("accepted");
        sched.run_until_idle();

        let outcome = sched.outcome(target).expect("finished").as_ref()
            .expect("served run succeeds");
        prop_assert!(outcome.preemptions > 0,
            "contended 1-worker schedule must preempt (engine {engine:?})");
        prop_assert_eq!(outcome.cycles, ref_cycles, "cycle-identical");
        prop_assert_eq!(outcome.completed, ref_completed);
        prop_assert_eq!(&outcome.report.to_json(), &ref_report,
            "served SocReport must be bit-identical to the uninterrupted run");
        prop_assert!(sched.outcome(rival_id).expect("rival finished").is_ok());
        let stats = sched.stats();
        prop_assert_eq!(stats.restores, 0, "a 1-worker schedule never replays");
        prop_assert!(stats.parked_resumes > 0);
    }
}

/// Serves `specs` on a `workers`-slot deterministic scheduler and
/// checks each report against the job's uninterrupted run; returns
/// the server's counters.
fn serve_matches_reference(workers: usize, specs: &[JobSpec]) -> craft_serve::ServeStats {
    let mut sched = DeterministicScheduler::new(workers);
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| sched.submit(s.clone()).expect("accepted"))
        .collect();
    sched.run_until_idle();
    for (spec, id) in specs.iter().zip(ids) {
        let (ref_cycles, ref_completed, ref_report) = reference(spec).expect("no fail-stop");
        let out = sched
            .outcome(id)
            .expect("finished")
            .as_ref()
            .expect("served run succeeds");
        assert_eq!(out.cycles, ref_cycles, "job {id} cycles");
        assert_eq!(out.completed, ref_completed, "job {id} verdict");
        assert_eq!(out.report.to_json(), ref_report, "job {id} report");
    }
    sched.stats()
}

fn checkpointed(workload: WorkloadId) -> JobSpec {
    let mut spec = JobSpec::new(workload, EngineKind::Soc);
    spec.cfg.checkpoint_every = Some(200);
    spec.max_cycles = MAX_CYCLES;
    spec.no_progress_limit = NO_PROGRESS;
    spec
}

/// Three jobs round-robin over two workers: while all three run, each
/// pickup lands on the other worker and replays the snapshot bytes;
/// once one job ends, the other two resume their parked engines. Both
/// resume paths must give the uninterrupted run's report.
#[test]
fn cross_worker_replay_and_parked_resume_are_both_identical() {
    let specs = [
        checkpointed(WorkloadId::VecMul),
        checkpointed(WorkloadId::DotProduct),
        checkpointed(WorkloadId::Matvec),
    ];
    let stats = serve_matches_reference(2, &specs);
    assert!(stats.restores > 0, "{stats:?}");
    assert!(stats.parked_resumes > 0, "{stats:?}");
    assert_eq!(
        stats.restores + stats.parked_resumes,
        stats.preemptions,
        "every preemption resumes exactly once"
    );
}

/// More jobs on one worker than it can keep parked: each pickup finds
/// its engine evicted and replays the bytes, and every report still
/// matches.
#[test]
fn jobs_evicted_from_a_full_lot_replay_identically() {
    let specs: Vec<JobSpec> = [
        WorkloadId::VecMul,
        WorkloadId::DotProduct,
        WorkloadId::Reduction,
        WorkloadId::VecAddScale,
        WorkloadId::Conv1d,
        WorkloadId::Matvec,
    ]
    .into_iter()
    .map(checkpointed)
    .collect();
    let stats = serve_matches_reference(1, &specs);
    assert!(stats.restores > 0, "{stats:?}");
}

/// The same contract through the *threaded* pool: scheduling order is
/// nondeterministic there, which is exactly what must not leak into
/// any job's final report.
#[test]
fn threaded_pool_preserves_report_identity() {
    let mut spec = JobSpec::new(WorkloadId::DotProduct, EngineKind::Soc);
    spec.cfg.checkpoint_every = Some(250);
    spec.max_cycles = MAX_CYCLES;
    spec.no_progress_limit = NO_PROGRESS;
    spec.faults = vec![LaneSpec::new("l11p3->15", FaultConfig::bit_flip(0.01), 11)];
    let (ref_cycles, _, ref_report) =
        reference(&spec).expect("payload-bit fault on a data lane must not fail-stop");

    let pool = craft_serve::ServePool::new(2);
    let ids: Vec<u64> = (0..4)
        .map(|_| pool.submit(spec.clone()).expect("accepted"))
        .collect();
    for id in ids {
        let outcome = pool.wait(id).expect("known job").expect("job succeeds");
        assert_eq!(outcome.cycles, ref_cycles);
        assert_eq!(
            outcome.report.to_json(),
            ref_report,
            "threaded scheduling leaked into the report"
        );
    }
    pool.shutdown();
}
