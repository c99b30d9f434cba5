//! The bounded threaded worker pool — the production scheduler
//! behind [`crate::server`] (measured by the benchmark's `serve_tcp`
//! and `serve_contended` workloads).
//!
//! `N` OS worker threads share one mutex-guarded job table
//! (the crate-private `Core` in the scheduler module); each worker
//! builds or restores its engine
//! and runs segments **outside** the lock, taking it only at segment
//! boundaries to record progress and make the preemption decision.
//! The policy is identical to [`crate::DeterministicScheduler`]:
//! preempt at a checkpoint boundary whenever other jobs wait. Only
//! the interleaving differs (real threads instead of round-robin),
//! which is exactly why the bit-identity proptests run both.

use crate::job::{JobError, JobSpec, ServeError};
use crate::scheduler::{
    absorb_step, construct, finish, pickup, Core, JobOutcome, JobPhase, ServeStats, StepResult,
};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct Shared {
    core: Mutex<Core>,
    /// Signals both idle workers (queue work) and waiting clients
    /// (new stream lines / outcomes).
    cv: Condvar,
}

/// A bounded pool of `N` worker threads serving jobs from a shared
/// queue with snapshot-based preemption.
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
        let mut core = self.lock();
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
        let mut core = self.lock();
        let res = core.cancel(id);
        self.shared.cv.notify_all();
        res
    }

    /// Blocks until job `id` finishes, returning its outcome.
    pub fn wait(&self, id: u64) -> Result<Result<JobOutcome, JobError>, ServeError> {
        let mut core = self.lock();
        let idx = core.index(id)?;
        loop {
            if let Some(outcome) = &core.jobs[idx].outcome {
                return Ok(outcome.clone());
            }
            core = self.shared.cv.wait(core).expect("job table lock");
        }
    }

    /// Blocks until job `id` has stream lines past `cursor` (or has
    /// finished), returning the new lines and whether the stream is
    /// complete. Drive with a cursor to tail a job's JSON stream.
    pub fn lines_from(&self, id: u64, cursor: usize) -> Result<(Vec<String>, bool), ServeError> {
        let mut core = self.lock();
        let idx = core.index(id)?;
        loop {
            let rec = &core.jobs[idx];
            let finished = rec.outcome.is_some();
            if rec.lines.len() > cursor || finished {
                return Ok((rec.lines[cursor.min(rec.lines.len())..].to_vec(), finished));
            }
            core = self.shared.cv.wait(core).expect("job table lock");
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServeStats {
        self.lock().stats()
    }

    /// Stops accepting jobs, fails everything still queued with
    /// [`JobError::Canceled`], lets running jobs finish their current
    /// segment, and joins the workers.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut core = self.lock();
            core.draining = true;
            while let Some(idx) = core.queue.pop_front() {
                let rec = &mut core.jobs[idx];
                if rec.outcome.is_none() {
                    finish(rec, Err(JobError::Canceled));
                }
            }
            self.shared.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Core> {
        self.shared.core.lock().expect("job table lock poisoned")
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        let mut core = self.lock();
        core.draining = true;
        self.shared.cv.notify_all();
        drop(core);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        // Claim the next ready job (or exit when draining).
        let idx = {
            let mut core = shared.core.lock().expect("job table lock poisoned");
            loop {
                if let Some(idx) = core.queue.pop_front() {
                    break idx;
                }
                if core.draining {
                    return;
                }
                core = shared.cv.wait(core).expect("job table lock");
            }
        };

        // Record the pickup and copy what engine construction needs,
        // then build/restore outside the lock (replay is expensive).
        let (spec, snapshot) = {
            let mut core = shared.core.lock().expect("job table lock poisoned");
            let rec = &mut core.jobs[idx];
            if rec.canceled {
                finish(rec, Err(JobError::Canceled));
                shared.cv.notify_all();
                continue;
            }
            let prepared = pickup(rec, worker);
            shared.cv.notify_all();
            prepared
        };
        let mut engine = match construct(&spec, snapshot) {
            Ok(e) => e,
            Err(err) => {
                let mut core = shared.core.lock().expect("job table lock poisoned");
                finish(&mut core.jobs[idx], Err(err));
                shared.cv.notify_all();
                continue;
            }
        };

        // Service segments: step unlocked, account under the lock.
        loop {
            let cancel_now = {
                let core = shared.core.lock().expect("job table lock poisoned");
                core.jobs[idx].canceled
            };
            let step = if cancel_now {
                // Absorbed below as an immediate cancellation.
                None
            } else {
                Some(engine.step_segment())
            };
            let mut core = shared.core.lock().expect("job table lock poisoned");
            let contend = !core.queue.is_empty();
            let rec = &mut core.jobs[idx];
            let result = match step {
                None => {
                    finish(rec, Err(JobError::Canceled));
                    StepResult::Stop
                }
                Some(step) => absorb_step(rec, &engine, step, contend),
            };
            if result == StepResult::Stop {
                if rec.phase == JobPhase::Preempted {
                    core.queue.push_back(idx);
                }
                shared.cv.notify_all();
                break;
            }
            shared.cv.notify_all();
        }
    }
}
