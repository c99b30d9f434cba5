//! # craft-soc — the prototype ML SoC (paper §4, Fig. 5)
//!
//! A full-system simulation model of the paper's 87M-transistor
//! testchip: 15 processing elements ([`ProcessingElement`]) and a
//! global-memory hub ([`hub::Hub`]) on a 4x4 wormhole-routed mesh of
//! MatchLib [`craft_matchlib::router::WhvcRouter`]s, orchestrated by
//! an RV32IM controller ([`controller::Controller`]) over a MatchLib
//! AXI bus, with either synchronous or fine-grained GALS clocking
//! ([`ClockingMode`]) using pausible bisynchronous FIFOs on every
//! router-to-router link.
//!
//! Three fidelities reproduce the Fig. 6 experiment: [`Fidelity::Rtl`]
//! (interpreted bit-level datapaths + per-cycle signal evaluation +
//! pipeline latencies), [`Fidelity::RtlCompiled`] (the same RTL cost
//! model executed through compiled word-level evaluation plans —
//! [`rtlplan`] — cycle- and charge-identical to `Rtl`, only faster),
//! and [`Fidelity::SimAccurate`] (the Connections sim-accurate
//! transaction model), compared on elapsed cycles and wall-clock time
//! over the six SoC-level tests in [`workloads`].
//!
//! ## Example
//!
//! ```no_run
//! use craft_soc::workloads::{run_workload, vec_mul};
//! use craft_soc::SocConfig;
//!
//! // Boot the SoC, let the RISC-V controller orchestrate the PEs,
//! // and verify the results against the golden model.
//! let (result, verified) = run_workload(SocConfig::default(), &vec_mul(), 8_000_000);
//! assert!(result.completed && verified);
//! println!("done in {} cycles", result.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bitrtl;
pub mod checkpoint;
pub mod controller;
pub mod engine;
pub mod hub;
pub mod msg;
pub mod pe;
pub mod rtlplan;
pub mod soc;
pub mod workloads;

pub use batch::{BatchReport, BatchSoc, LaneRun, LaneSpec};
pub use checkpoint::{ArchDigest, FaultEvent, LaneTable, Recipe, SessionState, SimSnapshot};
pub use engine::{build_engine, restore_engine, EngineError, EngineKind, SegmentStatus};
pub use msg::{
    panic_message, protocol_check, NocMsg, PeCommand, PeOp, HUB_NODE, N_PES, PROTOCOL_CHECKS,
};
pub use pe::{Fidelity, PeConfig, PeStats, ProcessingElement};
pub use rtlplan::{DpEval, DpOp, EvalPlan, PlanCache, PlanStats, SignalPlan};
pub use soc::{
    ClockingMode, ConfigError, FaultPatternError, FaultReport, HubReport, NocReport, PeReport,
    RouterKind, RunResult, Soc, SocConfig, SocConfigBuilder, SocReport,
};
pub use workloads::{run_workload, six_soc_tests, Workload};
