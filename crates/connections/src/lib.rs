//! # craft-connections — latency-insensitive channels
//!
//! Rust reproduction of **Connections**, the LI-channel library at the
//! heart of the DAC'18 modular VLSI flow (§2.3 of the paper). The three
//! headline contributions are all here:
//!
//! 1. **Ports decoupled from channels** — components own [`In`]/[`Out`]
//!    terminals and any [`ChannelKind`] can be wired in later without
//!    touching component code.
//! 2. **A sim-accurate timing model** — [`Transactor`] +
//!    [`TimingModel`] reproduce the paper's signal-accurate vs
//!    sim-accurate cost semantics (Fig. 3).
//! 3. **Stall injection** — [`StallInjector`] randomly withholds
//!    `valid` on any channel to flush out timing-interaction corner
//!    cases without modifying designs or testbenches.
//!
//! On top of these, the robustness layer adds seeded **fault
//! injection** ([`FaultConfig`] / [`ChannelHandle::inject_faults`]:
//! payload bit-flips, token drop/duplication, stuck handshake wires)
//! and a **reliable LI transport** ([`reliable_link`]) that wraps any
//! channel with sequence numbers, checksums and go-back-N retransmit so
//! the wrapped stream is bit-identical to the bare one under any
//! recoverable fault schedule.
//!
//! ## Example
//!
//! ```
//! use craft_connections::{channel, ChannelKind};
//! use craft_sim::{ClockSpec, Picoseconds, Simulator};
//!
//! let mut sim = Simulator::new();
//! let clk = sim.add_clock(ClockSpec::new("core", Picoseconds::from_ghz(1.0)));
//! let (mut tx, mut rx, handle) = channel::<u32>("dut.req", ChannelKind::Buffer(2));
//! sim.add_sequential(clk, handle.sequential());
//!
//! tx.push_nb(42).expect("empty buffer accepts a push");
//! sim.run_cycles(clk, 1); // commit makes the message visible
//! assert_eq!(rx.pop_nb(), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod fault;
mod lanebank;
mod meter;
mod packet;
mod port;
mod reliable;
mod retime;
mod scoreboard;
mod stall;

pub use channel::{channel, ChannelHandle, ChannelKind, ChannelStats, TokenWords};
pub use fault::{FaultConfig, FaultInjector, FaultStats, TokenFaults};
pub use lanebank::{FaultLaneBank, LaneSet, LaneStatus};
pub use meter::{TimingModel, Transactor};
pub use packet::{DePacketizer, Flit, Packetizer, Payload};
pub use port::{In, Out};
pub use reliable::{
    reliable_link, ReliableConfig, ReliableLink, ReliablePacket, ReliableRx, ReliableStats,
    ReliableTx,
};
pub use retime::{retiming_latency, Retimer};
pub use scoreboard::{Scoreboard, ScoreboardHandle, ScoreboardResult};
pub use stall::StallInjector;
