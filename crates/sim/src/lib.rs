//! # craft-sim — deterministic multi-clock simulation kernel
//!
//! The SystemC substitute underpinning the `craftflow` reproduction of
//! the DAC'18 modular VLSI flow. It provides:
//!
//! * [`Picoseconds`] integer time and [`ClockSpec`] clock domains,
//! * a two-phase (evaluate/commit) cycle-driven [`Simulator`] that is
//!   flip-flop accurate and fully deterministic,
//! * the [`Component`] (clocked process) and [`Sequential`]
//!   (commit-phase state) traits,
//! * pausible-clocking hooks ([`TickCtx::stretch_clock`]) used by the
//!   GALS layer,
//! * quiescence gating with one dispatch loop whose cost is the awake
//!   set: idle and blocked components and clean channel commits are
//!   not visited, on any clock schedule ([`Simulator::set_gating`]
//!   turns it off for the ungated reference),
//! * typed failures ([`SimError`]) with a no-progress hang watchdog
//!   ([`Simulator::run_until_checked`]) that diagnoses deadlocks via a
//!   per-component / per-channel [`HangReport`],
//! * [`Trace`] VCD-lite waveform recording and [`stats`] helpers,
//! * [`par_map`], the order-preserving claim-next fan-out over scoped
//!   threads that every sweep, campaign and batch replay shares,
//! * [`checkpoint`] plumbing — a typed [`CheckpointError`], the
//!   [`Checkpointable`] codec trait, and a length+checksum-framed
//!   snapshot container used by the SoC layer's replay-based
//!   checkpoint/restore.
//!
//! ## Example
//!
//! ```
//! use craft_sim::{ClockSpec, Component, Picoseconds, Simulator, TickCtx};
//!
//! struct Blinker { on: bool }
//! impl Component for Blinker {
//!     fn name(&self) -> &str { "blinker" }
//!     fn tick(&mut self, _ctx: &mut TickCtx<'_>) { self.on = !self.on; }
//! }
//!
//! let mut sim = Simulator::new();
//! let clk = sim.add_clock(ClockSpec::new("core", Picoseconds::from_ghz(1.1)));
//! sim.add_component(clk, Blinker { on: false });
//! sim.run_cycles(clk, 100);
//! assert_eq!(sim.cycles(clk), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
pub mod checkpoint;
mod clock;
mod component;
pub mod cover;
mod error;
mod kernel;
mod par;
pub mod stats;
pub mod telemetry;
mod time;
mod trace;

pub use activity::{ActivityToken, NotifySink};
pub use checkpoint::{
    CheckpointError, Checkpointable, KernelDigest, StateReader, StateWriter, WatchdogState,
};
pub use clock::{ClockId, ClockSpec};
pub use component::{Component, Sequential, Sleep, StateVisitor, TickCtx};
pub use error::{CompDiag, HangReport, SeqDiag, SimError};
pub use kernel::{ComponentId, ProvedLoop, Simulator};
pub use par::{par_map, par_map_with_workers};
pub use telemetry::{TelLaneCounters, Telemetry, TelemetrySnapshot, TickProfile};
pub use time::Picoseconds;
pub use trace::{SignalId, Trace};
