//! The serving contract, property-tested: a job preempted at
//! checkpoint boundaries and resumed under load (possibly many
//! times, each time from serialized snapshot bytes) finishes with a
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

/// Uninterrupted reference run of `spec` straight through the
/// `SimEngine` facade — no scheduler, no preemption. Returns `None`
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
        // competitor job so every boundary preempts.
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
    }
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
