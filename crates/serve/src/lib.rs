//! # craft-serve — simulation-as-a-service over the unified engine API
//!
//! ROADMAP item 3's payoff: the deterministic checkpoint/restore work
//! (PR 8) exists so the simulator can be a multi-tenant *service* —
//! many queued experiments sharing a bounded worker pool, long runs
//! preempted at [`craft_soc::SocConfig::checkpoint_every`] boundaries
//! and resumed under load, every result streamed back as validated
//! JSON. This crate is that server, built entirely on the one engine
//! type, [`craft_soc::Soc`], so one scheduler serves both engines
//! (sequential / batched-lockstep: a `Soc` with or without a lane
//! table) without a single per-engine match arm.
//!
//! Layers:
//!
//! * [`job`] — typed submissions ([`JobSpec`]), lifecycle events
//!   ([`JobEvent`]), and the [`JobError`]/[`ServeError`] taxonomy
//!   (rejection, cancellation, deadline, hang verdict, snapshot
//!   corruption).
//! * [`scheduler`] — the engine-free job table and the
//!   [`DeterministicScheduler`]: `W` virtual workers, strict
//!   round-robin, zero wall-clock — the mode every test asserts on.
//! * [`pool`] — [`ServePool`], the bounded thread pool with the same
//!   preemption policy (snapshot at a boundary whenever other jobs
//!   wait; the engine stays parked on its worker, and the job moves
//!   to another worker as bytes because engines are not `Send`).
//! * [`wire`] + [`server`] — the line protocol and the TCP front end
//!   behind the `sim_server` binary.
//!
//! The serving contract, pinned by proptests: a job that is
//! preempted and resumed any number of times produces a final
//! [`craft_soc::SocReport`] **bit-identical** to an uninterrupted run
//! of the same submission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod pool;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use job::{JobError, JobEvent, JobSpec, ServeError, WorkloadId};
pub use pool::ServePool;
pub use scheduler::{BatchSummary, DeterministicScheduler, JobOutcome, JobPhase, ServeStats};
pub use server::SimServer;
pub use wire::{parse_request, parse_submit, Request};
