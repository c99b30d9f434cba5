//! The bounded threaded worker pool — the production scheduler
//! behind [`crate::server`] (measured by the benchmark's `serve_tcp`
//! and `serve_contended` workloads).
//!
//! `N` OS worker threads share one mutex-guarded job table
//! (the crate-private `Core` in the scheduler module); each worker
//! builds, restores or resumes its engine and runs segments
//! **outside** the lock, taking it only at segment boundaries to
//! record progress and make the preemption decision. The policy is
//! identical to [`crate::DeterministicScheduler`]: preempt at a
//! checkpoint boundary whenever other jobs wait, park the engine on
//! the preempting worker, and resume it there live — or replay its
//! snapshot bytes when another worker claims the job. Only the
//! interleaving differs (real threads instead of round-robin), which
//! is exactly why the bit-identity proptests run both.
//!
//! A job's record is freed once its result has been delivered — by
//! the [`ServePool::lines_from`] call that returns the sealed stream,
//! or by [`ServePool::wait`] — so memory tracks the jobs in flight,
//! not every job ever submitted. An engine that panics seals its job
//! as [`JobError::Panicked`] and leaves the worker serving.

use crate::job::{JobError, JobSpec, ServeError};
use crate::scheduler::{
    absorb_step, construct, finish, Core, JobOutcome, Lot, ServeStats, StepResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

struct Shared {
    core: Mutex<Core>,
    /// Signals both idle workers (queue work) and waiting clients
    /// (new stream lines / outcomes).
    cv: Condvar,
}

impl Shared {
    /// Every update under the lock is a whole bookkeeping step, so a
    /// guard poisoned by a panicking thread still holds a usable table.
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Core>) -> MutexGuard<'a, Core> {
        self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded pool of `N` worker threads serving jobs from a shared
/// queue with checkpoint-boundary preemption.
pub struct ServePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServePool {
    /// Spawns `workers` worker threads (at least one).
    pub fn new(workers: usize) -> ServePool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            core: Mutex::new(Core::default()),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker thread")
            })
            .collect();
        ServePool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Accepts a job (typed rejection on invalid shapes; refused
    /// while draining) and wakes an idle worker.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        let mut core = self.shared.lock();
        if core.draining {
            return Err(ServeError::ShuttingDown);
        }
        let id = core
            .submit(spec)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// Requests cancellation of `id`.
    pub fn cancel(&self, id: u64) -> Result<(), ServeError> {
        let mut core = self.shared.lock();
        let res = core.cancel(id);
        self.shared.cv.notify_all();
        res
    }

    /// Blocks until job `id` finishes and returns its outcome, freeing
    /// the job's record: the id is unknown afterwards.
    pub fn wait(&self, id: u64) -> Result<Result<JobOutcome, JobError>, ServeError> {
        let mut core = self.shared.lock();
        loop {
            if core.get(id)?.outcome.is_some() {
                let rec = core.release(id).expect("record just read");
                return Ok(rec.outcome.expect("sealed record"));
            }
            core = self.shared.wait(core);
        }
    }

    /// Blocks until job `id` has stream lines past `cursor` (or has
    /// finished), returning the new lines and whether the stream is
    /// complete. Drive with a cursor to tail a job's JSON stream. The
    /// call that returns the sealed stream frees the job's record: the
    /// id is unknown afterwards.
    pub fn lines_from(&self, id: u64, cursor: usize) -> Result<(Vec<String>, bool), ServeError> {
        let mut core = self.shared.lock();
        loop {
            let rec = core.get(id)?;
            if rec.outcome.is_some() {
                let mut rec = core.release(id).expect("record just read");
                return Ok((rec.lines.split_off(cursor.min(rec.lines.len())), true));
            }
            if rec.lines.len() > cursor {
                return Ok((rec.lines[cursor..].to_vec(), false));
            }
            core = self.shared.wait(core);
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.lock().stats()
    }

    /// Stops accepting jobs, fails everything still queued with
    /// [`JobError::Canceled`], lets running jobs finish their current
    /// segment, and joins the workers.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut core = self.shared.lock();
            core.draining = true;
            while let Some(id) = core.queue.pop_front() {
                let rec = core.job_mut(id);
                if rec.outcome.is_none() {
                    finish(rec, Err(JobError::Canceled));
                }
            }
            self.shared.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.stats()
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shared.lock().draining = true;
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs `f`, turning a panic into [`JobError::Panicked`].
fn contained<T>(f: impl FnOnce() -> Result<T, JobError>) -> Result<T, JobError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(JobError::Panicked(msg))
    })
}

fn worker_loop(shared: &Shared, worker: usize) {
    // Engines this worker preempted; `!Send`, so they never leave
    // this thread.
    let mut lot = Lot::default();
    loop {
        // Claim the next ready job (or exit when draining).
        let (id, revive) = {
            let mut core = shared.lock();
            loop {
                if let Some(claimed) = core.claim(worker, &mut lot) {
                    break claimed;
                }
                if core.draining {
                    return;
                }
                core = shared.wait(core);
            }
        };
        shared.cv.notify_all();

        // Build or replay outside the lock (replay is expensive). A
        // panic drops the whole lot: the jobs parked there still have
        // their snapshot bytes.
        let mut engine = match contained(|| construct(revive)) {
            Ok(engine) => engine,
            Err(err) => {
                if matches!(err, JobError::Panicked(_)) {
                    lot = Lot::default();
                }
                finish(shared.lock().job_mut(id), Err(err));
                shared.cv.notify_all();
                continue;
            }
        };

        // Service segments: step unlocked, account under the lock.
        loop {
            let canceled = shared.lock().job_mut(id).canceled;
            let step = (!canceled)
                .then(|| contained(|| engine.step_segment().map_err(JobError::from_sim)));
            if let Some(Err(JobError::Panicked(_))) = step {
                lot = Lot::default();
            }
            let mut core = shared.lock();
            let contend = !core.queue.is_empty();
            let rec = core.job_mut(id);
            let result = match step {
                // Absorbed as an immediate cancellation.
                None => {
                    finish(rec, Err(JobError::Canceled));
                    StepResult::Stop
                }
                Some(step) => absorb_step(rec, &engine, step, contend),
            };
            shared.cv.notify_all();
            if result == StepResult::Stop {
                core.put_back(id, engine, &mut lot);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadId;
    use craft_bench::SilentPanicGuard;
    use craft_connections::FaultConfig;
    use craft_soc::{EngineKind, LaneSpec};

    fn checkpointed(workload: WorkloadId) -> JobSpec {
        let mut spec = JobSpec::new(workload, EngineKind::Soc);
        spec.cfg.checkpoint_every = Some(300);
        spec
    }

    /// Tails `id`'s stream to the end, as the server does.
    fn drain(pool: &ServePool, id: u64) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let (new, finished) = pool.lines_from(id, lines.len()).expect("known job");
            lines.extend(new);
            if finished {
                return lines;
            }
        }
    }

    #[test]
    fn delivered_streams_free_their_records() {
        let pool = ServePool::new(1);
        let ids: Vec<u64> = [WorkloadId::VecMul, WorkloadId::DotProduct]
            .into_iter()
            .map(|w| pool.submit(checkpointed(w)).expect("accepted"))
            .collect();
        for &id in &ids {
            let lines = drain(&pool, id);
            assert!(lines
                .last()
                .expect("a stream")
                .contains(r#""event": "done""#));
        }
        assert!(pool.shared.lock().jobs.is_empty(), "every record released");
        for id in ids {
            assert_eq!(pool.lines_from(id, 0), Err(ServeError::UnknownJob(id)));
            assert_eq!(pool.cancel(id), Err(ServeError::UnknownJob(id)));
        }
        let stats = pool.shutdown();
        assert_eq!((stats.submitted, stats.done, stats.failed), (2, 2, 0));
        assert_eq!(stats.restores, 0, "one worker resumes its parked engines");
        assert_eq!(stats.parked_resumes, stats.preemptions);
    }

    #[test]
    fn an_engine_panic_fails_its_job_and_the_worker_serves_on() {
        let golden = {
            let mut engine = JobSpec::new(WorkloadId::VecMul, EngineKind::Soc)
                .build_engine()
                .expect("builds");
            engine.run_checked(8_000_000, 50_000).expect("runs");
            engine.report().to_json()
        };
        let pool = ServePool::new(1);
        // A dropped flit on the hottest link fail-stops the run.
        let mut doomed = checkpointed(WorkloadId::VecMul);
        doomed.faults = vec![LaneSpec::new("l11p3->15", FaultConfig::drop(0.01), 0)];
        let stream = {
            let _quiet = SilentPanicGuard::new();
            let id = pool.submit(doomed).expect("accepted");
            drain(&pool, id)
        };
        let last = stream.last().expect("a stream");
        assert!(last.contains(r#""event": "failed""#), "{last}");
        assert!(last.contains(r#""verdict": "panicked""#), "{last}");

        let id = pool
            .submit(JobSpec::new(WorkloadId::VecMul, EngineKind::Soc))
            .expect("accepted");
        let outcome = pool.wait(id).expect("known job").expect("job succeeds");
        assert_eq!(outcome.report.to_json(), golden);
        let stats = pool.shutdown();
        assert_eq!((stats.done, stats.failed), (1, 1));
    }
}
