//! Satellite of the serving PR: N concurrent jobs with mixed engines
//! and deadlines on a 2-worker pool must each produce a report
//! identical to a solo (uncontended) run of the same spec — all in
//! deterministic scheduler mode, so no assertion depends on wall
//! clock or thread interleavings.

use craft_connections::FaultConfig;
use craft_serve::{DeterministicScheduler, JobError, JobSpec, ServeError, WorkloadId};
use craft_soc::{EngineError, EngineKind, LaneSpec};
use craftflow_core::validate_json;

const CKPT: u64 = 300;

fn spec(workload: WorkloadId, engine: EngineKind) -> JobSpec {
    let mut s = JobSpec::new(workload, engine);
    s.cfg.checkpoint_every = Some(CKPT);
    if engine == EngineKind::Batch {
        s.faults = vec![
            LaneSpec::new("->", FaultConfig::bit_flip(0.01), 7),
            LaneSpec::new("->", FaultConfig::drop(0.02), 8),
        ];
    }
    s
}

/// Runs one spec alone (1 worker, empty queue — never preempted) and
/// returns its report rendering plus cycles.
fn solo(s: &JobSpec) -> (String, u64, bool) {
    let mut sched = DeterministicScheduler::new(1);
    let id = sched.submit(s.clone()).expect("accepted");
    sched.run_until_idle();
    let out = sched
        .outcome(id)
        .expect("finished")
        .as_ref()
        .expect("solo run succeeds");
    assert_eq!(out.preemptions, 0, "solo run must never be preempted");
    (out.report.to_json(), out.cycles, out.completed)
}

#[test]
fn mixed_engine_jobs_on_two_workers_match_solo_runs() {
    let specs = [
        spec(WorkloadId::VecMul, EngineKind::Soc),
        spec(WorkloadId::DotProduct, EngineKind::Soc),
        spec(WorkloadId::Reduction, EngineKind::Batch),
        spec(WorkloadId::VecAddScale, EngineKind::Soc),
        spec(WorkloadId::Conv1d, EngineKind::Soc),
        spec(WorkloadId::Matvec, EngineKind::Soc),
    ];
    let references: Vec<(String, u64, bool)> = specs.iter().map(solo).collect();

    let mut sched = DeterministicScheduler::new(2);
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| sched.submit(s.clone()).expect("accepted"))
        .collect();
    sched.run_until_idle();

    let mut total_preempts = 0;
    for (i, id) in ids.iter().enumerate() {
        let out = sched
            .outcome(*id)
            .unwrap_or_else(|| panic!("job {i} never finished"))
            .as_ref()
            .unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        let (ref_report, ref_cycles, ref_completed) = &references[i];
        assert_eq!(out.cycles, *ref_cycles, "job {i} cycles diverged");
        assert_eq!(out.completed, *ref_completed, "job {i} verdict diverged");
        assert_eq!(
            &out.report.to_json(),
            ref_report,
            "job {i} report diverged from its solo run"
        );
        total_preempts += out.preemptions;
    }
    assert!(
        total_preempts > 0,
        "6 jobs on 2 workers must contend at least once"
    );

    let stats = sched.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.done, 6);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.preemptions, total_preempts);
    validate_json(&stats.to_json()).expect("stats JSON");
}

#[test]
fn lifecycle_events_are_ordered_and_stream_valid_json() {
    let mut sched = DeterministicScheduler::new(1);
    let a = sched
        .submit(spec(WorkloadId::VecMul, EngineKind::Soc))
        .unwrap();
    let b = sched
        .submit(spec(WorkloadId::DotProduct, EngineKind::Soc))
        .unwrap();
    sched.run_until_idle();

    for id in [a, b] {
        let tags: Vec<&str> = sched.events(id).iter().map(|e| e.tag()).collect();
        assert_eq!(tags.first(), Some(&"queued"), "job {id}: {tags:?}");
        assert_eq!(tags.get(1), Some(&"running"), "job {id}: {tags:?}");
        assert_eq!(tags.last(), Some(&"done"), "job {id}: {tags:?}");
        // Strict alternation: every preempted is followed by resumed.
        for pair in tags.windows(2) {
            if pair[0] == "preempted" {
                assert_eq!(pair[1], "resumed", "job {id}: {tags:?}");
            }
        }
        let preempts = tags.iter().filter(|t| **t == "preempted").count();
        assert!(preempts > 0, "1-worker contention must preempt: {tags:?}");
        for line in sched.lines(id) {
            validate_json(line).unwrap_or_else(|e| panic!("{e} in {line}"));
        }
        // seq numbers are dense and ascending.
        for (i, line) in sched.lines(id).iter().enumerate() {
            assert!(
                line.contains(&format!("\"seq\": {i}")),
                "line {i} of job {id} has wrong seq: {line}"
            );
        }
    }
}

#[test]
fn tiny_deadline_fails_with_deadline_exceeded() {
    let mut sched = DeterministicScheduler::new(1);
    let mut s = spec(WorkloadId::Conv1dHeavy, EngineKind::Soc);
    s.deadline_segments = Some(2);
    let id = sched.submit(s).unwrap();
    // An undeadlined rival shares the worker and still finishes.
    let rival = sched
        .submit(spec(WorkloadId::VecMul, EngineKind::Soc))
        .unwrap();
    sched.run_until_idle();
    match sched.outcome(id) {
        Some(Err(JobError::DeadlineExceeded { deadline: 2 })) => {}
        other => panic!("expected deadline failure, got {other:?}"),
    }
    assert!(sched.outcome(rival).expect("rival finished").is_ok());
    let tags: Vec<&str> = sched.events(id).iter().map(|e| e.tag()).collect();
    assert_eq!(tags.last(), Some(&"failed"));
    let last = sched.lines(id).last().expect("failed line");
    assert!(last.contains("\"verdict\": \"deadline\""), "{last}");
}

#[test]
fn cancel_queued_and_running_jobs() {
    let mut sched = DeterministicScheduler::new(1);
    let run = sched
        .submit(spec(WorkloadId::VecMul, EngineKind::Soc))
        .unwrap();
    let queued = sched
        .submit(spec(WorkloadId::DotProduct, EngineKind::Soc))
        .unwrap();
    // Cancel before any scheduling: the queued job dies immediately.
    sched.cancel(queued).unwrap();
    assert!(matches!(
        sched.outcome(queued),
        Some(Err(JobError::Canceled))
    ));
    sched.run_until_idle();
    assert!(
        sched.outcome(run).expect("finished").is_ok(),
        "survivor must finish after its rival is canceled"
    );
    // Canceling a finished job is a no-op; unknown ids are typed.
    sched.cancel(run).unwrap();
    assert!(sched.outcome(run).expect("still finished").is_ok());
    assert_eq!(sched.cancel(999), Err(ServeError::UnknownJob(999)));
}

#[test]
fn rejected_submissions_never_enter_the_queue() {
    let mut sched = DeterministicScheduler::new(1);
    let bad = JobSpec::new(WorkloadId::VecMul, EngineKind::Parallel { threads: 2 });
    assert!(matches!(
        sched.submit(bad),
        Err(JobError::Rejected(EngineError::UnknownEngine(_)))
    ));
    let mut zero = spec(WorkloadId::VecMul, EngineKind::Soc);
    zero.max_cycles = 0;
    assert!(matches!(sched.submit(zero), Err(JobError::BadLimits)));
    assert_eq!(sched.stats().submitted, 0);
}
