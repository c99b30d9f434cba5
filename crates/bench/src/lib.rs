//! # craft-bench — experiment harnesses
//!
//! Shared logic behind the per-figure/per-table binaries (see
//! `src/bin/`) and the Criterion ablations (see `benches/`). How fast
//! the engines run is measured by the repo's `benchmark/` package and
//! nowhere here. Each paper artifact has a regenerator:
//!
//! | artifact | binary |
//! |---|---|
//! | Fig. 3 | `fig3_crossbar_accuracy` |
//! | Table 2 | `table2_matchlib_inventory` |
//! | §2.4 case study | `crossbar_loop_style` |
//! | §2.2 QoR claim | `qor_vs_handrtl` |
//! | §3.1 / Fig. 4 | `gals_overhead` |
//! | Fig. 6 | `fig6_soc_accuracy` |
//! | §4 productivity | `productivity_report` |

use craft_connections::{channel, ChannelKind, In, Out, TimingModel};
use craft_matchlib::{ArbitratedCrossbarRtl, ArbitratedCrossbarTlm, XbarMsg};
use craft_sim::{ClockId, ClockSpec, Picoseconds, Simulator};

/// Which crossbar model the Fig. 3 harness measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XbarModel {
    /// Wire-level FSM (the HLS-generated-RTL stand-in).
    Rtl,
    /// Loosely-timed process with buffered (sim-accurate) handshakes.
    SimAccurate,
    /// Loosely-timed process with in-thread `wait()` (signal-accurate)
    /// handshakes.
    SignalAccurate,
}

impl XbarModel {
    /// Display label matching the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            XbarModel::Rtl => "RTL",
            XbarModel::SimAccurate => "sim-accurate",
            XbarModel::SignalAccurate => "signal-accurate",
        }
    }
}

/// The Fig. 3 testbench around one arbitrated crossbar.
pub struct XbarBench {
    sim: Simulator,
    clk: ClockId,
    inject: Vec<Out<XbarMsg<u32>>>,
    drain: Vec<In<u32>>,
    lanes: usize,
}

impl XbarBench {
    /// Builds an `lanes`-port crossbar of the given model.
    pub fn new(lanes: usize, model: XbarModel) -> Self {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds::new(909)));
        let mut inject = Vec::new();
        let mut xin = Vec::new();
        let mut xout = Vec::new();
        let mut drain = Vec::new();
        for i in 0..lanes {
            let (tx, rx, h) = channel::<XbarMsg<u32>>(format!("in{i}"), ChannelKind::Buffer(2));
            sim.add_sequential(clk, h.sequential());
            inject.push(tx);
            xin.push(rx);
            let (tx2, rx2, h2) = channel::<u32>(format!("out{i}"), ChannelKind::Buffer(2));
            sim.add_sequential(clk, h2.sequential());
            xout.push(tx2);
            drain.push(rx2);
        }
        match model {
            XbarModel::Rtl => {
                sim.add_component(clk, ArbitratedCrossbarRtl::new("xbar", xin, xout, 2));
            }
            XbarModel::SimAccurate => {
                sim.add_component(
                    clk,
                    ArbitratedCrossbarTlm::new("xbar", xin, xout, 2, TimingModel::SimAccurate),
                );
            }
            XbarModel::SignalAccurate => {
                sim.add_component(
                    clk,
                    ArbitratedCrossbarTlm::new("xbar", xin, xout, 2, TimingModel::SignalAccurate),
                );
            }
        }
        XbarBench {
            sim,
            clk,
            inject,
            drain,
            lanes,
        }
    }

    /// Runs `transactions` single-outstanding request/response pairs
    /// through the crossbar and returns mean cycles per transaction —
    /// the paper's Fig. 3 metric.
    ///
    /// # Panics
    /// Panics if a message is lost (indicates a model bug).
    pub fn cycles_per_transaction(&mut self, transactions: u32) -> f64 {
        let mut total = 0u64;
        for t in 0..transactions {
            let src = (t as usize * 5 + 1) % self.lanes;
            let dst = (t as usize * 3 + 2) % self.lanes;
            self.inject[src]
                .push_nb(XbarMsg { dst, data: t })
                .expect("input idle between transactions");
            let mut cycles = 0u64;
            loop {
                self.sim.run_cycles(self.clk, 1);
                cycles += 1;
                if let Some(v) = self.drain[dst].pop_nb() {
                    assert_eq!(v, t, "message corrupted in crossbar");
                    break;
                }
                assert!(cycles < 10_000, "message lost in crossbar");
            }
            total += cycles;
        }
        total as f64 / f64::from(transactions)
    }
}

/// One Fig. 3 data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Port count.
    pub ports: usize,
    /// Model measured.
    pub model: XbarModel,
    /// Mean cycles per transaction.
    pub cycles_per_txn: f64,
}

/// Reproduces the full Fig. 3 sweep: ports in {2,4,8,16}, all three
/// models.
pub fn fig3_sweep(transactions: u32) -> Vec<Fig3Point> {
    let mut out = Vec::new();
    for &ports in &[2usize, 4, 8, 16] {
        for model in [
            XbarModel::Rtl,
            XbarModel::SimAccurate,
            XbarModel::SignalAccurate,
        ] {
            let mut bench = XbarBench::new(ports, model);
            out.push(Fig3Point {
                ports,
                model,
                cycles_per_txn: bench.cycles_per_transaction(transactions),
            });
        }
    }
    out
}

/// Silences the default panic-hook backtrace chatter for the guard's
/// lifetime and **restores the previous hook on drop** — including on
/// unwind out of the guarded scope.
///
/// Fault campaigns classify fail-stop outcomes by running jobs under
/// `catch_unwind`; every expected panic would otherwise spray a
/// backtrace over the progress output. The old ad-hoc
/// `take_hook`/`set_hook` pairs leaked the silent hook on early
/// return, leaving the *rest of the process* (including genuine bugs)
/// silent — the RAII form can't.
pub struct SilentPanicGuard {
    prev: Option<PanicHook>,
}

/// A boxed panic hook, as held by `std::panic::take_hook`.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

impl SilentPanicGuard {
    /// Installs the silent hook, remembering the current one.
    #[allow(clippy::new_without_default)]
    pub fn new() -> SilentPanicGuard {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        SilentPanicGuard { prev: Some(prev) }
    }
}

impl Drop for SilentPanicGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Schema version stamped into the `fault_campaign` row artifact
/// (see [`json_meta_block`]). Bump when a field is renamed, removed or
/// changes meaning; additive fields do not require a bump.
pub const SCHEMA_VERSION: u32 = 5;

/// Host facts recorded alongside the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMeta {
    /// Cores available to this process.
    pub cores: usize,
    /// Fewer than 4 cores.
    pub degraded_host: bool,
}

impl HostMeta {
    /// Probes the current host.
    pub fn detect() -> HostMeta {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostMeta {
            cores,
            degraded_host: cores < 4,
        }
    }
}

/// Renders the JSON artifact header — schema version, generator name
/// and host metadata — as object members (no surrounding braces), for
/// a hand-rolled emitter to splice in first:
///
/// ```
/// let json = format!("{{\n  {}\n  \"rows\": []\n}}\n", craft_bench::json_meta_block("doc"));
/// assert!(craft_bench::validate_json(&json).is_ok());
/// ```
pub fn json_meta_block(generator: &str) -> String {
    let host = HostMeta::detect();
    format!(
        "\"schema_version\": {SCHEMA_VERSION},\n  \"generator\": \"{generator}\",\n  \
         \"host\": {{\"cores\": {}, \"degraded_host\": {}}},",
        host.cores, host.degraded_host
    )
}

/// The JSON well-formedness checker and string escaper live in
/// `craftflow-core` (the job server validates its wire output with
/// the same code).
pub use craftflow_core::{json_escape, validate_json};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_holds() {
        let pts = fig3_sweep(20);
        let get = |ports, model| {
            pts.iter()
                .find(|p| p.ports == ports && p.model == model)
                .expect("point present")
                .cycles_per_txn
        };
        // Sim-accurate matches RTL at every port count.
        for ports in [2, 4, 8, 16] {
            let rtl = get(ports, XbarModel::Rtl);
            let sim = get(ports, XbarModel::SimAccurate);
            assert!(
                (rtl - sim).abs() < 1e-9,
                "sim-accurate must match RTL at {ports} ports: {rtl} vs {sim}"
            );
        }
        // Signal-accurate error grows with port count.
        let sig2 = get(2, XbarModel::SignalAccurate);
        let sig16 = get(16, XbarModel::SignalAccurate);
        let rtl16 = get(16, XbarModel::Rtl);
        assert!(sig16 > sig2, "error must grow with ports");
        assert!(
            sig16 > 2.0 * rtl16,
            "signal-accurate at 16 ports must far exceed RTL: {sig16} vs {rtl16}"
        );
    }

    #[test]
    fn silent_panic_guard_silences_then_restores_the_hook() {
        use std::panic::catch_unwind;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // A marker hook stands in for "whatever hook was installed
        // before the campaign": invocations prove it is active.
        let fired = Arc::new(AtomicUsize::new(0));
        let marker = Arc::clone(&fired);
        let orig = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |_| {
            marker.fetch_add(1, Ordering::SeqCst);
        }));

        {
            let _quiet = SilentPanicGuard::new();
            let _ = catch_unwind(|| panic!("expected fail-stop"));
            assert_eq!(
                fired.load(Ordering::SeqCst),
                0,
                "marker hook must be silenced inside the guard"
            );
        }
        let _ = catch_unwind(|| panic!("after the guard"));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "drop must restore the previous hook"
        );
        std::panic::set_hook(orig);
    }

    #[test]
    fn json_meta_block_is_well_formed_and_versioned() {
        let block = json_meta_block("unit_test");
        let doc = format!("{{\n  {block}\n  \"rows\": [1, 2]\n}}\n");
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(block.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(block.contains("\"cores\":"));
        assert!(block.contains("\"degraded_host\":"));
    }

    #[test]
    fn validate_json_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e+10",
            "\"a \\\"quoted\\\" string\"",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": true}\n",
            "  {\"nested\": {\"deep\": [[[0]]]}}  ",
        ] {
            assert_eq!(validate_json(ok), Ok(()), "{ok}");
        }
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\": 1,}",
            "[1, 2",
            "{\"a\": 1} trailing",
            "{'single': 1}",
            "{\"a\": 01e}",
            "\"unterminated",
            "{\"raw\ncontrol\": 1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
