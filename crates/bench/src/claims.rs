//! The paper's claims as one table.
//!
//! Every claim of the paper, and every ablation of the reproduction, is
//! one [`Row`]: the paper's id and words, the measured values and a
//! [`Bound`] taken from the words. A [`Section`] is one experiment: its
//! rows and the per-point tables behind them, computed by one producer
//! fn. Only deterministic quantities are bounded; a wall-clock figure
//! is an informational row naming the benchmark's `workload / metric`.
//! The `claims` bin prints the table and, with `--write`, renders it
//! into the `<!-- claims:begin KEY -->` … `<!-- claims:end -->` blocks
//! of [`DOCS`]; a test asserts every bound and that the blocks match.

use craft_connections::{channel, ChannelKind, In, Out, TimingModel};
use craft_gals::{
    compare_clocking, margin_experiment, partition_overhead, pausible_fifo, two_flop_mtbf_years,
    ClockStyle, TwoFlopSyncFifo,
};
use craft_hls::{compile, kernels, Constraints};
use craft_matchlib::router::{make_packet, NocFlit, SfRouter, WhvcConfig, WhvcRouter};
use craft_matchlib::{ArbitratedCrossbarRtl, ArbitratedCrossbarTlm, XbarMsg};
use craft_sim::{ClockId, ClockSpec, Picoseconds, Simulator};
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{conv1d_heavy, matvec, run_workload, six_soc_tests, Workload};
use craft_soc::SocConfig;
use craft_tech::{clock_tree, ops, Netlist, SramMacro, TechLibrary};
use craftflow_core::{
    floorplan, run_flow, sta_gals, sta_synchronous, turnaround, Block, Clocking, FlowSpec, UnitSpec,
};
use std::path::PathBuf;

/// The documents holding claims blocks, relative to the repo root.
pub const DOCS: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

/// Key of the block that holds every row (README's headline table);
/// any other key names a [`Section`].
const ALL_ROWS: &str = "all";

/// What every measured value of a row must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// Equal to this.
    Exactly(f64),
    /// Strictly below this.
    Below(f64),
    /// Strictly above this.
    Above(f64),
    /// In `lo..hi`.
    Within(f64, f64),
    /// A wall-clock figure. It depends on the host and on the declared
    /// RTL gate counts, so it carries no number, only the benchmark's
    /// `workload / metric` that measures it.
    Informational(&'static str),
}

/// One claim: the paper's words, the measured values and the bound.
#[derive(Debug)]
pub struct Row {
    /// Paper artifact, e.g. `Fig. 6 error`.
    pub id: &'static str,
    /// The paper's words, or the ablation's claim.
    pub claim: &'static str,
    /// Unit of the values and of the bound.
    pub unit: &'static str,
    /// Every measured point; empty for an informational row.
    pub values: Vec<f64>,
    /// What each value must satisfy.
    pub bound: Bound,
}

impl Row {
    /// Whether the row is informational or every value meets its bound.
    pub fn holds(&self) -> bool {
        let ok = |v: f64| match self.bound {
            Bound::Exactly(x) => v == x,
            Bound::Below(x) => v < x,
            Bound::Above(x) => v > x,
            Bound::Within(lo, hi) => (lo..hi).contains(&v),
            Bound::Informational(_) => true,
        };
        matches!(self.bound, Bound::Informational(_))
            || (!self.values.is_empty() && self.values.iter().all(|&v| ok(v)))
    }

    fn render(&self) -> String {
        let u = self.unit;
        let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let measured = match self.values.len() {
            0 => "host-dependent".to_string(),
            1 => format!("{} {u}", num(lo, u)),
            _ if lo == hi => format!("{} {u} (all)", num(lo, u)),
            _ => format!("{} to {} {u}", num(lo, u), num(hi, u)),
        };
        let bound = match self.bound {
            Bound::Exactly(x) => format!("= {x} {u}"),
            Bound::Below(x) => format!("< {x} {u}"),
            Bound::Above(x) => format!("> {x} {u}"),
            Bound::Within(lo, hi) => format!("[{lo}, {hi}) {u}"),
            Bound::Informational(metric) => format!("none; `{metric}`"),
        };
        format!("{} | {} | {measured} | {bound}", self.id, self.claim)
    }
}

/// One experiment: the tables of its measured points and its rows.
#[derive(Debug)]
pub struct Section {
    /// Experiment id in EXPERIMENTS.md, also the key of its block.
    pub id: &'static str,
    /// Per-point tables, rendered as markdown.
    pub tables: Vec<String>,
    /// The claims.
    pub rows: Vec<Row>,
}

/// Computes every section.
pub fn sections() -> Vec<Section> {
    let producers = [
        fig3,
        table2,
        crossbar_style,
        qor,
        gals,
        fig6,
        productivity,
        back_end,
        ablations,
    ];
    producers.iter().map(|p| p()).collect()
}

/// The repo root, where [`DOCS`] live.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Formats a value with the precision its unit calls for; `+ 0.0`
/// turns a -0.0 into 0.0.
fn num(v: f64, unit: &str) -> String {
    let digits = match unit {
        "%" | "cyc/txn" | "×" => 2,
        "ps" | "h" | "pp" => 1,
        _ => 0,
    };
    format!("{:.digits$}", v + 0.0)
}

/// A markdown table: `head` is the header cells joined by ` | `, each
/// of `rows` likewise.
fn md(head: &str, rows: impl IntoIterator<Item = String>) -> String {
    let sep = vec!["---"; head.split(" | ").count()].join(" | ");
    let mut out = format!("| {head} |\n| {sep} |\n");
    for r in rows {
        out.push_str(&format!("| {r} |\n"));
    }
    out
}

/// Renders rows as one markdown table.
fn render_rows<'a>(rows: impl IntoIterator<Item = &'a Row>) -> String {
    md(
        "claim | paper | measured | bound",
        rows.into_iter().map(Row::render),
    )
}

/// Renders one section: its tables, then its rows.
pub fn render_section(s: &Section) -> String {
    let mut parts = s.tables.clone();
    parts.push(render_rows(&s.rows));
    parts.join("\n")
}

/// Rewrites the body of every claims block of `doc`. Returns the new
/// text and the keys rendered, or an error naming a malformed block or
/// a key that names nothing.
pub fn render_doc(doc: &str, sections: &[Section]) -> Result<(String, Vec<String>), String> {
    const BEGIN: &str = "<!-- claims:begin ";
    const END: &str = "<!-- claims:end -->";
    let (mut out, mut keys, mut rest) = (String::new(), Vec::new(), doc);
    while let Some(at) = rest.find(BEGIN) {
        let body = rest[at..].find("-->\n").ok_or("unclosed claims:begin")? + at + 4;
        let key = rest[at + BEGIN.len()..body - 4].trim();
        let end = rest[body..]
            .find(END)
            .ok_or_else(|| format!("claims block `{key}` has no claims:end"))?
            + body;
        out.push_str(&rest[..body]);
        if key == ALL_ROWS {
            out.push_str(&render_rows(sections.iter().flat_map(|s| &s.rows)));
        } else {
            let s = sections.iter().find(|s| s.id == key);
            out.push_str(&render_section(s.ok_or(format!("no section `{key}`"))?));
        }
        keys.push(key.to_string());
        rest = &rest[end..];
    }
    out.push_str(rest);
    Ok((out, keys))
}

/// `n` two-deep buffered channels committed on `clk`: their senders
/// and their receivers.
fn channels<T: 'static>(sim: &mut Simulator, clk: ClockId, name: &str, n: usize) -> Ports<T> {
    let ends = (0..n).map(|i| {
        let (tx, rx, h) = channel::<T>(format!("{name}{i}"), ChannelKind::Buffer(2));
        sim.add_sequential(clk, h.sequential());
        (tx, rx)
    });
    ends.unzip()
}

/// Senders and receivers of a set of channels.
type Ports<T> = (Vec<Out<T>>, Vec<In<T>>);

/// Mean cycles per transaction through a `lanes`-port arbitrated
/// crossbar (the RTL FSM for `None`, else the loosely-timed model):
/// 200 single-outstanding messages on rotating ports, Fig. 3's metric.
pub(crate) fn crossbar_cycles_per_txn(lanes: usize, model: Option<TimingModel>) -> f64 {
    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("c", Picoseconds::new(909)));
    let (mut inject, xin) = channels::<XbarMsg<u32>>(&mut sim, clk, "in", lanes);
    let (xout, mut drain) = channels::<u32>(&mut sim, clk, "out", lanes);
    match model {
        None => sim.add_component(clk, ArbitratedCrossbarRtl::new("xbar", xin, xout, 2)),
        Some(t) => sim.add_component(clk, ArbitratedCrossbarTlm::new("xbar", xin, xout, 2, t)),
    };
    let mut total = 0u64;
    for t in 0..200u32 {
        let (src, dst) = ((t as usize * 5 + 1) % lanes, (t as usize * 3 + 2) % lanes);
        let msg = XbarMsg { dst, data: t };
        inject[src]
            .push_nb(msg)
            .expect("input idle between transactions");
        for cycles in 1.. {
            sim.run_cycles(clk, 1);
            if let Some(v) = drain[dst].pop_nb() {
                assert_eq!(v, t, "message corrupted in crossbar");
                total += cycles;
                break;
            }
            assert!(cycles < 10_000, "message lost in crossbar");
        }
    }
    total as f64 / 200.0
}

/// E2 / Fig. 3: cycles per transaction through an arbitrated crossbar.
fn fig3() -> Section {
    const PORTS: [usize; 4] = [2, 4, 8, 16];
    let (sim, sig) = (TimingModel::SimAccurate, TimingModel::SignalAccurate);
    // Per port count: RTL, sim-accurate, signal-accurate.
    let c = PORTS.map(|p| [None, Some(sim), Some(sig)].map(|m| crossbar_cycles_per_txn(p, m)));
    let points = PORTS
        .iter()
        .zip(&c)
        .map(|(p, [r, m, s])| format!("{p} | {r:.2} | {m:.2} | {s:.2}"));
    Section {
        id: "E2",
        tables: vec![md("ports | RTL | sim-accurate | signal-accurate", points)],
        rows: vec![
            Row {
                id: "Fig. 3 match",
                claim: "sim-accurate \"matches measured RTL throughput for all configurations\" (gap at each port count)",
                unit: "cyc/txn",
                values: c.iter().map(|[r, m, _]| (m - r).abs()).collect(),
                bound: Bound::Exactly(0.0),
            },
            Row {
                id: "Fig. 3 growth",
                claim: "signal-accurate error \"grows with the number of ports\" (cycles at each port count over the previous)",
                unit: "×",
                values: c.windows(2).map(|w| w[1][2] / w[0][2]).collect(),
                bound: Bound::Above(1.0),
            },
            Row {
                id: "Fig. 3 @ 16 ports",
                claim: "signal-accurate reaches ≈18 cycles/transaction at 16 ports, far above RTL (signal-accurate over RTL)",
                unit: "×",
                values: vec![c[3][2] / c[3][0]],
                bound: Bound::Above(2.0),
            },
        ],
    }
}

/// E4 / Table 2: the MatchLib inventory with representative gate counts.
fn table2() -> Section {
    let lib = TechLibrary::n16();
    let ge = |n: Netlist| n.nand2_equiv(&lib);
    let sram = |words| SramMacro::new(words, 64).area_um2(&lib) / lib.nand2_area();
    let reg = |bits, n| ops::register(bits).replicated(n);
    let (mul, add, mux, arb) = (ops::multiplier, ops::adder, ops::mux, ops::arbiter);
    let (cmp, arbs) = (ops::comparator, |n, ways| ops::arbiter(n).replicated(ways));
    let inventory = [
        ("Float (mul/add/fma)", ge(mul(24) + add(48))),
        ("Crossbar", ge(mux(32, 8).replicated(8))),
        (
            "Encoder/Decoder",
            ge(ops::decoder(5) + ops::priority_encoder(32)),
        ),
        ("FIFO", ge(reg(32, 8) + arb(2))),
        ("Arbiter", ge(arb(16))),
        ("Mem_array", sram(1024)),
        ("Vector", ge((mul(32) + add(32)).replicated(4))),
        ("Connections", ge(reg(66, 1) + mux(64, 2))),
        (
            "Arbitrated Crossbar",
            ge(mux(32, 8).replicated(8) + arbs(8, 8) + reg(32, 16)),
        ),
        ("Arbitrated Scratchpad", sram(1024) + ge(arbs(4, 4))),
        ("Reorder Buffer", ge(reg(64, 16) + cmp(6).replicated(16))),
        ("Serializer/Deserializer", ge(reg(64, 2) + mux(16, 4))),
        ("Cache", sram(4096) + ge(cmp(20).replicated(4))),
        ("Scratchpad", sram(1024) * 4.0),
        ("SFRouter", ge(reg(64, 5 * 8) + arbs(5, 5))),
        (
            "WHVCRouter",
            ge(reg(64, 5 * 2 * 4) + arbs(10, 5) + mux(64, 5).replicated(5)),
        ),
        ("AXI Components", ge(reg(64, 10) + cmp(32).replicated(2))),
    ];
    let points = inventory.map(|(name, gates)| format!("{name} | {gates:.0}"));
    Section {
        id: "E4",
        tables: vec![md("component | GE (representative)", points)],
        rows: vec![Row {
            id: "Table 2",
            claim: "every MatchLib component of the table exists, with a gate count",
            unit: "components",
            values: vec![inventory.iter().filter(|c| c.1 > 0.0).count() as f64],
            bound: Bound::Exactly(17.0),
        }],
    }
}

/// E5 / §2.4: src-loop vs dst-loop crossbars of 32-bit lanes through HLS.
fn crossbar_style() -> Section {
    let lib = TechLibrary::n16();
    let (mut points, mut penalty32, mut extra_cells) = (Vec::new(), 0.0, Vec::new());
    for lanes in [8usize, 16, 32, 64] {
        let c = Constraints::at_clock(1100.0).with_mem_ports(lanes as u32 * 2);
        let src = compile(&kernels::crossbar_src_loop(lanes, 32), &lib, &c).module;
        let dst = compile(&kernels::crossbar_dst_loop(lanes, 32), &lib, &c).module;
        let (sa, da) = (src.area_um2(&lib), dst.area_um2(&lib));
        let (sc, dc) = (src.netlist.total_cells(), dst.netlist.total_cells());
        let penalty = (sa / da - 1.0) * 100.0;
        if lanes == 32 {
            penalty32 = penalty;
        }
        extra_cells.push((sc as f64 / dc as f64 - 1.0) * 100.0);
        points.push(format!(
            "{lanes} | {sa:.1} | {da:.1} | {penalty:.2} % | {sc} | {dc}"
        ));
    }
    let head = "lanes | src-loop µm² | dst-loop µm² | penalty | src-loop cells | dst-loop cells";
    Section {
        id: "E5",
        tables: vec![md(head, points)],
        rows: vec![
            Row {
                id: "§2.4 area",
                claim: "\"a 25% area penalty for the src-loop implementation\" of a 32-lane 32-bit crossbar",
                unit: "%",
                values: vec![penalty32],
                bound: Bound::Within(15.0, 40.0),
            },
            Row {
                id: "§2.4 effort",
                claim: "the dst-loop form \"has fewer operations that must be scheduled\" (extra bound cells of src-loop, every lane count)",
                unit: "%",
                values: extra_cells,
                bound: Bound::Above(0.0),
            },
        ],
    }
}

/// E6 / §2.2: HLS vs hand-optimized RTL over a datapath suite.
fn qor() -> Section {
    let lib = TechLibrary::n16();
    let (mut points, mut deltas) = (Vec::new(), Vec::new());
    for case in kernels::qor_suite(&lib) {
        let m = compile(&case.kernel, &lib, &Constraints::at_clock(case.clock_ps)).module;
        let (hls, hand) = (m.area_um2(&lib), case.hand_rtl.area_um2(&lib));
        let delta = (hls / hand - 1.0) * 100.0;
        deltas.push(delta);
        let (name, lat, ii) = (case.name, m.latency, m.ii);
        points.push(format!(
            "{name} | {hls:.1} | {hand:.1} | {delta:.2} % | {lat} | {ii}"
        ));
    }
    Section {
        id: "E6",
        tables: vec![md("module | HLS µm² | hand µm² | Δ | latency | II", points)],
        rows: vec![Row {
            id: "§2.2 QoR",
            claim: "HLS reaches \"comparable QoR (±10%)\" to hand-written RTL (area Δ per module)",
            unit: "%",
            values: deltas,
            bound: Bound::Within(-10.0, 10.0),
        }],
    }
}

/// Mean latency across a clock crossing at matched 1.1 GHz clocks, the
/// receiver 300 ps behind: 200 streamed messages through a pausible
/// bisynchronous FIFO, or 100 through a two-flop synchronizer FIFO.
fn crossing_latency_ps(pausible: bool) -> f64 {
    let mut sim = Simulator::new();
    let period = Picoseconds::new(909);
    let txc = sim.add_clock(ClockSpec::new("tx", period));
    let rxc = sim.add_clock(ClockSpec::new("rx", period).with_phase(Picoseconds::new(300)));
    let (mut in_tx, in_rx, h1) = channel::<u64>("in", ChannelKind::Buffer(2));
    let (out_tx, mut out_rx, h2) = channel::<u64>("out", ChannelKind::Buffer(2));
    sim.add_sequential(txc, h1.sequential());
    sim.add_sequential(rxc, h2.sequential());
    let (state, steps, n) = if pausible {
        let (tx, rx, state) = pausible_fifo("x", in_rx, out_tx, 4, rxc, Picoseconds::new(40));
        sim.add_component(txc, tx);
        sim.add_component(rxc, rx);
        (Some(state), 20_000, 200)
    } else {
        sim.add_component(rxc, TwoFlopSyncFifo::new("base", in_rx, out_tx, 4));
        (None, 60_000, 100)
    };
    let (mut sent, mut got, mut total_ps) = (0u64, 0u64, 0u64);
    let mut send_time = Picoseconds::ZERO;
    for _ in 0..steps {
        // The two-flop FIFO keeps no latency samples, so it gets one
        // message at a time, each timed from its push to its pop.
        if sent < n && (pausible || sent == got) && in_tx.push_nb(sent).is_ok() {
            send_time = sim.now();
            sent += 1;
        }
        sim.step();
        while out_rx.pop_nb().is_some() {
            total_ps += (sim.now() - send_time).as_ps();
            got += 1;
        }
        if got == n {
            break;
        }
    }
    match state {
        Some(state) => state.borrow().latency_ps.mean(),
        None => total_ps as f64 / got.max(1) as f64,
    }
}

/// E7 / §3.1, Fig. 4: fine-grained GALS overhead, clocking, crossings.
fn gals() -> Section {
    let lib = TechLibrary::n16();
    let sweep = [50e3, 100e3, 250e3, 500e3, 1.1e6, 2e6].map(|gates| {
        let o = partition_overhead(&lib, gates, 4, 8, 64);
        let (area, pct) = (o.clockgen_area_um2 + o.fifo_area_um2, o.fraction * 100.0);
        format!("{gates} | {area:.1} | {pct:.2} %")
    });
    let typical = partition_overhead(&lib, 1.1e6, 4, 8, 64).fraction * 100.0;
    let cmp = compare_clocking(&lib, 19, 1.1e6, 4, 3000.0);
    let top = [
        (
            "global synchronous tree",
            cmp.sync_tree_area_um2,
            cmp.sync_skew_margin_ps,
        ),
        (
            "fine-grained GALS",
            cmp.gals_area_um2,
            cmp.gals_skew_margin_ps,
        ),
    ]
    .map(|(name, area, skew)| format!("{name} | {area:.1} | {skew:.1}"));
    let (pausible, two_flop) = (crossing_latency_ps(true), crossing_latency_ps(false));
    let mtbf = two_flop_mtbf_years(800.0, 15.0, 20.0, 1.1, 0.5);
    let crossing = [
        (
            "pausible bisynchronous FIFO",
            pausible,
            "failure-free by construction".into(),
        ),
        (
            "two-flop synchronizer FIFO",
            two_flop,
            format!("{mtbf:.1e} years (800 ps resolve, τ 15 ps)"),
        ),
    ]
    .map(|(name, ps, mtbf)| format!("{name} | {ps:.1} | {:.2} | {mtbf}", ps / 909.0));
    let fixed = margin_experiment(ClockStyle::Fixed, 909, 0.95, 20_000, 42);
    let adaptive = margin_experiment(ClockStyle::Adaptive { residue: 0.2 }, 909, 0.95, 20_000, 42);
    let margin = [("fixed", fixed), ("adaptive (20 % residue)", adaptive)].map(|(name, m)| {
        let (pct, v) = (m.min_safe_margin * 100.0, m.violations_at_zero_margin);
        format!("{name} | {pct:.1} % | {v}")
    });
    Section {
        id: "E7",
        tables: vec![
            md("partition gates | GALS µm² | overhead", sweep),
            md("19 × 1.1M-gate partitions, 3 mm die | clocking µm² | skew margin ps", top),
            md("crossing at 1.1 / 1.1 GHz | mean latency ps | cycles | MTBF", crossing),
            md("local clock under supply noise | min safe margin | violations unmargined", margin),
        ],
        rows: vec![
            Row {
                id: "§3.1 overhead",
                claim: "GALS area overhead \"<3% for typical partition sizes\" (1.1M-gate partition)",
                unit: "%",
                values: vec![typical],
                bound: Bound::Below(3.0),
            },
            Row {
                id: "§3.1 skew",
                claim: "\"the complexity of top-level clock distribution is completely eliminated\" (GALS skew margin)",
                unit: "ps",
                values: vec![cmp.gals_skew_margin_ps],
                bound: Bound::Exactly(0.0),
            },
            Row {
                id: "§3.1 crossing",
                claim: "ablation: the pausible FIFO crosses faster than a two-flop synchronizer (two-flop over pausible latency)",
                unit: "×",
                values: vec![two_flop / pausible],
                bound: Bound::Above(1.0),
            },
            Row {
                id: "§3.1 adaptive",
                claim: "ablation (cite [7]): an adaptive clock needs less timing margin than a fixed one (margin saved)",
                unit: "pp",
                values: vec![(fixed.min_safe_margin - adaptive.min_safe_margin) * 100.0],
                bound: Bound::Above(0.0),
            },
        ],
    }
}

/// E9 / Fig. 6: six SoC tests, sim-accurate vs RTL fidelity.
fn fig6() -> Section {
    let (mut points, mut errors, mut verified) = (Vec::new(), Vec::new(), 0);
    // Compiled RTL runs interpreted RTL's cycles and results (craft-soc's
    // `compiled_matches_interpreted` tests) at a tenth of its cost;
    // tests/golden_cycles.rs pins the same counts for interpreted RTL.
    let rtl_cfg = SocConfig {
        fidelity: Fidelity::RtlCompiled,
        ..SocConfig::default()
    };
    for wl in six_soc_tests() {
        let (sim, sim_ok) = run_workload(SocConfig::default(), &wl, 8_000_000);
        let (rtl, rtl_ok) = run_workload(rtl_cfg, &wl, 8_000_000);
        let (s, r) = (sim.cycles, rtl.cycles);
        let err = (r as f64 - s as f64) / r as f64 * 100.0;
        errors.push(err);
        verified += usize::from(sim_ok && rtl_ok);
        points.push(format!("{} | {s} | {r} | {err:.2} %", wl.name));
    }
    Section {
        id: "E9",
        tables: vec![md("test | sim cycles | RTL cycles | error", points)],
        rows: vec![
            Row {
                id: "Fig. 6 error",
                claim: "\"performance inaccuracy below 3%\", from \"unit pipeline latencies not included in the SystemC models\" (RTL minus sim cycles over RTL cycles, per test)",
                unit: "%",
                values: errors,
                bound: Bound::Within(0.0, 3.0),
            },
            Row {
                id: "Fig. 6 function",
                claim: "both models compute the golden results (tests verified in both fidelities)",
                unit: "tests",
                values: vec![verified as f64],
                bound: Bound::Exactly(6.0),
            },
            Row {
                id: "Fig. 6 speed",
                claim: "\"a 20-30x wall run time reduction\" (depends on the host and on the declared RTL gate counts)",
                unit: "×",
                values: Vec::new(),
                bound: Bound::Informational("fig6_rtl / soc.fig6.speedup_x"),
            },
        ],
    }
}

/// E11 / §4: gates per engineer-day on the prototype's unique units.
fn productivity() -> Section {
    let lib = TechLibrary::n16();
    let at = Constraints::at_clock(909.0);
    // The PE vector unit core is a 4-lane MAC datapath with reduction:
    // the suite's `dot4`.
    let dot4 = kernels::qor_suite(&lib)
        .into_iter()
        .find(|c| c.name == "dot4");
    let units = [
        (
            "pe_datapath",
            dot4.expect("dot4 in the suite").kernel,
            at,
            15,
        ),
        (
            "gmem_xbar",
            kernels::crossbar_dst_loop(8, 32),
            at.with_mem_ports(16),
            2,
        ),
        (
            "router_core",
            kernels::crossbar_dst_loop(16, 32),
            at.with_mem_ports(32),
            16,
        ),
    ];
    let spec = FlowSpec {
        name: "rc17-proto".into(),
        units: units
            .map(|(name, kernel, constraints, replicas)| UnitSpec {
                name: name.into(),
                kernel,
                constraints,
                replicas,
            })
            .to_vec(),
        partitions: 19,
        clocking: Clocking::FineGrainedGals {
            interfaces_per_partition: 4,
            fifo_depth: 8,
            fifo_width: 64,
        },
    };
    // Modeled design + verification effort per unique unit, MatchLib
    // components arriving pre-verified; the gate counts are flow output.
    let days = [4.0, 2.0, 5.0];
    let (mut points, mut rates) = (Vec::new(), Vec::new());
    for (u, d) in run_flow(&spec, &lib).units.iter().zip(days) {
        let (name, gates, rate) = (&u.name, u.instance_gates, u.instance_gates / d);
        rates.push(rate);
        points.push(format!("{name} | {gates:.0} | {d} | {rate:.0}"));
    }
    Section {
        id: "E11",
        tables: vec![md("unit | gates (GE) | engineer-days | GE/day", points)],
        rows: vec![Row {
            id: "§4 productivity",
            claim: "\"between 2K-20K gates (NAND2 equivalents) per engineer-day on unique unit-level designs\"",
            unit: "GE/day",
            values: rates,
            bound: Bound::Within(2e3, 20e3),
        }],
    }
}

/// E13 / §3 back end: floorplan, top-level STA, P&R turnaround.
fn back_end() -> Section {
    let lib = TechLibrary::n16();
    // The testchip's 19 partitions: 15 PEs, two gmem halves, RISC-V, I/O.
    let blocks: Vec<Block> = (0..19)
        .map(|i| Block {
            name: match i {
                0..=14 => format!("pe{i}"),
                15 => "gmem_l".into(),
                16 => "gmem_r".into(),
                17 => "riscv".into(),
                _ => "io".into(),
            },
            area_um2: 250_000.0,
        })
        .collect();
    // PE-to-gmem and PE-to-PE traffic plus controller fan-out.
    let mut nets: Vec<(usize, usize, u32)> = Vec::new();
    for i in 0..15 {
        nets.push((i, 15 + i % 2, 64));
        if i + 1 < 15 {
            nets.push((i, i + 1, 64));
        }
    }
    nets.extend([(17, 15, 128), (17, 18, 32)]);
    let fp = floorplan(&blocks, &nets, 2024);
    let tree = clock_tree(&lib, 4_000_000, fp.die_span_um);
    let sync = sta_synchronous(&lib, &fp, &nets, 909.0, tree.skew_ps);
    let gals = sta_gals(&lib, &fp, &nets, 909.0);
    let tat = turnaround(&[1.1e6; 19]);
    let (n, die) = (nets.len(), fp.die_span_um);
    let sta = [
        (
            format!("synchronous ({die:.0} µm die)"),
            &sync,
            tree.skew_ps,
        ),
        ("GALS".to_string(), &gals, 0.0),
    ]
    .map(|(name, r, skew)| {
        let (slack, v) = (r.worst_slack_ps, r.violations);
        format!("{name} | {n} | {slack:.1} | {v} | {skew:.1}")
    });
    let pnr = [
        ("one flat 19 × 1.1M-gate run", tat.monolithic_hours),
        ("19 partitions in parallel", tat.partitioned_hours),
    ]
    .map(|(name, h)| format!("{name} | {h:.1}"));
    let sta_head = "1.1 GHz top level | interfaces | worst slack ps | violations | skew margin ps";
    Section {
        id: "E13",
        tables: vec![
            md(sta_head, sta),
            md("P&R model (runtime ∝ gates^1.3) | hours", pnr),
        ],
        rows: vec![
            Row {
                id: "§3 GALS timing",
                claim: "\"correct-by-construction top-level timing\" with GALS (violations)",
                unit: "violations",
                values: vec![gals.violations as f64],
                bound: Bound::Exactly(0.0),
            },
            Row {
                id: "§4 turnaround",
                claim: "\"12-hour RTL-to-layout turnaround\" on partitioned P&R",
                unit: "h",
                values: vec![tat.partitioned_hours],
                bound: Bound::Within(0.0, 12.0),
            },
        ],
    }
}

/// Cycles one `flits`-flit packet takes from port 0 to port 1 of a
/// two-port router.
fn packet_cycles(wormhole: bool, flits: usize) -> u64 {
    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("c", Picoseconds::new(909)));
    let (mut inject, rin) = channels::<NocFlit>(&mut sim, clk, "in", 2);
    let (rout, mut drain) = channels::<NocFlit>(&mut sim, clk, "out", 2);
    if wormhole {
        let cfg = WhvcConfig::default();
        sim.add_component(clk, WhvcRouter::new("w", rin, rout, cfg, |d| d as usize));
    } else {
        sim.add_component(clk, SfRouter::new("s", rin, rout, 2, |d| d as usize));
    }
    let pkt = make_packet(1, 0, 0, &vec![7u64; flits]);
    let (mut idx, mut got) = (0, 0);
    while got < flits {
        if idx < pkt.len() && inject[0].push_nb(pkt[idx]).is_ok() {
            idx += 1;
        }
        sim.run_cycles(clk, 1);
        while drain[1].pop_nb().is_some() {
            got += 1;
        }
        assert!(sim.cycles(clk) < 10_000, "packet lost");
    }
    sim.cycles(clk)
}

/// The reproduction's own ablations: PE lanes and router flow control.
fn ablations() -> Section {
    let cycles = |wl: &Workload, lanes| {
        let cfg = SocConfig {
            lanes,
            ..SocConfig::default()
        };
        let (r, ok) = run_workload(cfg, wl, 8_000_000);
        assert!(ok, "{} at {lanes} lanes failed to verify", wl.name);
        r.cycles
    };
    let (conv, mv) = (conv1d_heavy(), matvec());
    let lanes = [1usize, 2, 4, 8].map(|l| (l, cycles(&conv, l), cycles(&mv, l)));
    let gain =
        |pick: fn(&(usize, u64, u64)) -> u64| pick(&lanes[0]) as f64 / pick(&lanes[3]) as f64;
    let router = [2usize, 8, 32].map(|f| (f, packet_cycles(true, f), packet_cycles(false, f)));
    // Extra cycles per extra flit from 8 to 32 flits.
    let slope =
        |pick: fn(&(usize, u64, u64)) -> u64| (pick(&router[2]) - pick(&router[1])) as f64 / 24.0;
    Section {
        id: "ablations",
        tables: vec![
            md(
                "PE lanes | conv1d_heavy cycles | matvec cycles",
                lanes.map(|(l, c, m)| format!("{l} | {c} | {m}")),
            ),
            md(
                "flits | wormhole cycles | store-and-forward cycles",
                router.map(|(f, wh, sf)| format!("{f} | {wh} | {sf}")),
            ),
        ],
        rows: vec![
            Row {
                id: "lanes roofline",
                claim: "1 → 8 PE lanes speed compute-bound conv1d_heavy more than memory-bound matvec (ratio of the two gains)",
                unit: "×",
                values: vec![gain(|l| l.1) / gain(|l| l.2)],
                bound: Bound::Above(1.0),
            },
            Row {
                id: "lanes memory-bound",
                claim: "memory-bound matvec stays flat from 1 to 8 PE lanes (gain)",
                unit: "×",
                values: vec![gain(|l| l.2)],
                bound: Bound::Below(1.1),
            },
            Row {
                id: "router flow control",
                claim: "store-and-forward packet latency grows ≈ 2× flits, wormhole ≈ flits + constant (ratio of their cycles per extra flit)",
                unit: "×",
                values: vec![slope(|r| r.2) / slope(|r| r.1)],
                bound: Bound::Within(1.5, 2.5),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bounded_claim_holds_and_the_docs_are_rendered() {
        let sections = sections();
        let rows = sections.iter().flat_map(|s| &s.rows);
        let failing: Vec<_> = rows.filter(|r| !r.holds()).collect();
        assert!(failing.is_empty(), "claims out of bound: {failing:#?}");
        let mut keys = Vec::new();
        for doc in DOCS {
            let text = std::fs::read_to_string(repo_root().join(doc)).expect("doc readable");
            let (rendered, mut doc_keys) = render_doc(&text, &sections).expect("well-formed");
            assert!(
                rendered == text,
                "{doc}'s claims blocks differ from the table; run \
                 `cargo run --release -p craft-bench --bin claims -- --write`"
            );
            keys.append(&mut doc_keys);
        }
        let mut want: Vec<String> = sections.iter().map(|s| s.id.to_string()).collect();
        want.push(ALL_ROWS.into());
        keys.sort();
        want.sort();
        assert_eq!(
            keys, want,
            "each section and the all-rows table render once"
        );
    }
}
