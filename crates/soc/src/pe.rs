//! Processing element (Fig. 5): scratchpad + vector datapath +
//! control + router interface.
//!
//! Each PE executes [`PeCommand`]s: it fetches operands from global
//! memory over the NoC, streams them through its vector datapath at
//! `lanes` elements per cycle, writes results back over the NoC and
//! reports completion. The scratchpad is a MatchLib
//! [`ArbitratedScratchpad`] (as in the paper's PE); NoC data movement
//! goes through its arbitrated ports, while the compute datapath reads
//! operands over a dedicated port modeled at `lanes` elements/cycle.
//!
//! Fidelity: in [`Fidelity::Rtl`] the datapath is evaluated bit by bit
//! ([`crate::bitrtl`]), idle logic burns per-cycle signal-evaluation
//! work, and each command pays a pipeline fill/drain penalty that the
//! sim-accurate model deliberately omits — the paper attributes its
//! <3% cycle error to exactly such "unit pipeline latencies not
//! included in the SystemC models". [`Fidelity::RtlCompiled`] keeps
//! every one of those timing behaviors (and the gate-charge ledger)
//! bit-identical while evaluating through one-time-lowered word-level
//! plans ([`crate::rtlplan`]) instead of the interpreter.

use crate::bitrtl::RtlCost;
use crate::msg::{NocMsg, PacketAssembler, PeCommand, PeOp, HUB_NODE};
use crate::rtlplan::{DpEval, PlanCacheHandle, SignalPlan};
use craft_connections::{In, Out};
use craft_matchlib::router::NocFlit;
use craft_matchlib::{ArbitratedScratchpad, SpRequest, SpResponse};
use craft_sim::cover::Coverage;
use craft_sim::{Component, Sleep, Telemetry, TickCtx};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Simulation fidelity of datapath evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// HLS-generated-RTL equivalent: bit-level datapaths, per-cycle
    /// signal evaluation, pipeline fill latencies. Interpreted — the
    /// golden reference for [`Fidelity::RtlCompiled`].
    Rtl,
    /// RTL fidelity through compiled evaluation plans
    /// ([`crate::rtlplan`]): identical cycle counts, results and
    /// charged gate counts to [`Fidelity::Rtl`], with the arithmetic
    /// and per-cycle signal work running as native word ops.
    RtlCompiled,
    /// Connections sim-accurate transaction model.
    SimAccurate,
}

impl Fidelity {
    /// True for both RTL-fidelity modes (interpreted and compiled):
    /// everything that affects *cycle counts* — pipeline fill/drain,
    /// register stalls, never-quiescent components — keys on this, so
    /// the two RTL modes are cycle-identical by construction.
    pub fn is_rtl(self) -> bool {
        matches!(self, Fidelity::Rtl | Fidelity::RtlCompiled)
    }
}

/// PE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeConfig {
    /// Vector lanes (elements processed per cycle).
    pub lanes: usize,
    /// Scratchpad capacity in words.
    pub scratchpad_words: usize,
    /// Datapath pipeline depth, paid per command in RTL mode only.
    pub pipeline_depth: u32,
    /// Fidelity mode.
    pub fidelity: Fidelity,
    /// Gate count used for RTL-mode signal-evaluation cost.
    pub rtl_gates: u64,
}

impl Default for PeConfig {
    fn default() -> Self {
        PeConfig {
            lanes: 4,
            scratchpad_words: 4096,
            pipeline_depth: 2,
            fidelity: Fidelity::SimAccurate,
            rtl_gates: 16_000,
        }
    }
}

/// Scratchpad region offsets.
const A_OFF: usize = 0;
const B_OFF: usize = 1536;
const OUT_OFF: usize = 2560;
/// Words per MemData/MemWrite packet chunk.
pub(crate) const CHUNK: usize = 16;

#[derive(Debug)]
enum PeState {
    Idle,
    /// Waiting for operand words (written into the scratchpad as
    /// MemData packets arrive).
    Fetch {
        cmd: PeCommand,
        need_a: usize,
        need_b: usize,
        got: usize,
        b_requested: bool,
    },
    Compute {
        cmd: PeCommand,
        /// Work units completed.
        cursor: u64,
        /// Total work units.
        total: u64,
        acc: u64,
        /// Per-output partial state for ArgMinDist: (best_dist, best_idx)
        arg_state: Option<(u64, u64)>,
        drain: u32,
    },
    WriteBack {
        cmd: PeCommand,
        sent: usize,
        out_len: usize,
        done_sent: bool,
    },
}

/// Per-PE statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Commands completed.
    pub commands: u64,
    /// Cycles spent not idle.
    pub busy_cycles: u64,
    /// Datapath work units executed.
    pub work_units: u64,
    /// Gate equivalents charged to the RTL cost ledger (identical
    /// between [`Fidelity::Rtl`] and [`Fidelity::RtlCompiled`]).
    pub gates_charged: u64,
}

/// The processing element component.
pub struct ProcessingElement {
    name: String,
    node: u16,
    cfg: PeConfig,
    input: In<NocFlit>,
    output: Out<NocFlit>,
    scratchpad: ArbitratedScratchpad<u64>,
    assembler: PacketAssembler,
    state: PeState,
    outbox: VecDeque<NocFlit>,
    /// Words arrived from the NoC waiting to be written into the
    /// scratchpad through its arbitrated ports.
    pending_writes: VecDeque<(usize, u64)>,
    rtl_cost: RtlCost,
    /// Pending RTL-only stall cycles (ingress/egress registers).
    rtl_skip: u32,
    /// Datapath evaluation strategy (native / interpreted / compiled).
    dp: DpEval,
    /// Compiled per-cycle signal-set plan (RtlCompiled mode only;
    /// empty otherwise).
    signal_plan: SignalPlan,
    stats: Rc<RefCell<PeStats>>,
    coverage: Coverage,
    /// Optional telemetry sink; when attached, each command's
    /// lifetime (accept -> compute -> done) is recorded as a span.
    telemetry: Option<Telemetry>,
    /// Open span for the in-flight command, if any.
    cur_span: Option<u64>,
    /// Local-clock cycle captured at tick start (for span stamping).
    cycle: u64,
}

impl ProcessingElement {
    /// Builds PE `node` over its router-local ports.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (zero lanes or a
    /// scratchpad too small for the fixed region layout).
    pub fn new(node: u16, input: In<NocFlit>, output: Out<NocFlit>, cfg: PeConfig) -> Self {
        assert!(cfg.lanes >= 1, "need at least one lane");
        assert!(
            cfg.scratchpad_words >= OUT_OFF + 512,
            "scratchpad too small for region layout"
        );
        ProcessingElement {
            name: format!("pe{node}"),
            node,
            cfg,
            input,
            output,
            scratchpad: ArbitratedScratchpad::new(
                cfg.lanes,
                cfg.scratchpad_words / cfg.lanes,
                cfg.lanes,
                8,
            ),
            assembler: PacketAssembler::new(),
            state: PeState::Idle,
            outbox: VecDeque::new(),
            pending_writes: VecDeque::new(),
            rtl_cost: RtlCost::new(),
            rtl_skip: 0,
            dp: match cfg.fidelity {
                Fidelity::SimAccurate => DpEval::Native,
                Fidelity::Rtl => DpEval::interpreted(),
                // Standalone PEs lower into a private cache; SoC
                // assembly replaces it with the shared one via
                // `set_plan_cache` so lowering runs once per operator.
                Fidelity::RtlCompiled => DpEval::compiled(&crate::rtlplan::PlanCache::handle()),
            },
            signal_plan: SignalPlan::from_gate_count(match cfg.fidelity {
                Fidelity::RtlCompiled => cfg.rtl_gates,
                _ => 0,
            }),
            stats: Rc::new(RefCell::new(PeStats::default())),
            coverage: Coverage::new(),
            telemetry: None,
            cur_span: None,
            cycle: 0,
        }
    }

    /// Attaches a telemetry sink; command lifetimes are then traced as
    /// spans (`pe<n>.exec`: begin on command accept, a `compute` point
    /// when operands land, end when `Done` is sent). Observation-only:
    /// attaching telemetry never changes simulated behavior.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = Some(tel);
    }

    /// Re-draws the compiled datapath plans from a shared cache (and
    /// registers this PE's signal plan in its statistics). No-op in
    /// non-compiled fidelities.
    pub fn set_plan_cache(&mut self, cache: &PlanCacheHandle) {
        if self.cfg.fidelity == Fidelity::RtlCompiled {
            self.dp = DpEval::compiled(cache);
            cache.borrow_mut().register_signal_plan(&self.signal_plan);
        }
    }

    /// Attaches a shared functional-coverage map. PEs record
    /// `pe.op.<kind>` bins as commands execute.
    pub fn set_coverage(&mut self, coverage: Coverage) {
        self.coverage = coverage;
    }

    /// Shared statistics handle (readable after the simulator takes
    /// ownership of the component).
    pub fn stats_handle(&self) -> Rc<RefCell<PeStats>> {
        Rc::clone(&self.stats)
    }

    /// Opaque digest of RTL-mode signal state (anti-DCE; also a cheap
    /// determinism probe).
    pub fn rtl_digest(&self) -> u64 {
        self.rtl_cost.digest()
    }

    fn send_msg(&mut self, msg: &NocMsg) {
        for flit in msg.to_packet(HUB_NODE, self.node, 0) {
            self.outbox.push_back(flit);
        }
    }

    /// How many `a` words a command needs (Conv1d reads len+taps-1).
    fn a_words(cmd: &PeCommand) -> usize {
        match cmd.op {
            PeOp::Conv1d => cmd.len as usize + cmd.scalar as usize - 1,
            _ => cmd.len as usize,
        }
    }

    /// How many `b` words a command needs.
    fn b_words(cmd: &PeCommand) -> usize {
        match cmd.op {
            PeOp::VecAdd | PeOp::VecMul | PeOp::Dot => cmd.len as usize,
            PeOp::Conv1d | PeOp::ArgMinDist => cmd.scalar as usize,
            PeOp::Reduce | PeOp::Scale => 0,
        }
    }

    /// Total datapath work units.
    fn work_units(cmd: &PeCommand) -> u64 {
        let len = u64::from(cmd.len);
        match cmd.op {
            PeOp::VecAdd | PeOp::VecMul | PeOp::Dot | PeOp::Reduce | PeOp::Scale => len,
            PeOp::Conv1d => len * u64::from(cmd.scalar),
            PeOp::ArgMinDist => len * u64::from(cmd.scalar),
        }
    }

    fn sp_read(&self, addr: usize) -> u64 {
        self.scratchpad.debug_read(addr)
    }

    fn sp_write_direct(&mut self, addr: usize, v: u64) {
        self.scratchpad.debug_load(addr, &[v]);
    }

    /// Executes one datapath work unit; returns an output write
    /// (addr, value) if the unit completes an output element. Gate
    /// equivalents consumed by the datapath are accumulated into
    /// `charge` (identically for the interpreted and compiled RTL
    /// strategies; zero for native).
    fn exec_unit(
        &self,
        cmd: &PeCommand,
        unit: u64,
        acc: &mut u64,
        arg: &mut Option<(u64, u64)>,
        charge: &std::cell::Cell<u64>,
    ) -> Option<(usize, u64)> {
        let dp = &self.dp;
        match cmd.op {
            PeOp::VecAdd => {
                let i = unit as usize;
                let v = dp.add(self.sp_read(A_OFF + i), self.sp_read(B_OFF + i), charge);
                Some((i, v))
            }
            PeOp::VecMul => {
                let i = unit as usize;
                let v = dp.mul(self.sp_read(A_OFF + i), self.sp_read(B_OFF + i), charge);
                Some((i, v))
            }
            PeOp::Scale => {
                let i = unit as usize;
                let v = dp.mul(self.sp_read(A_OFF + i), u64::from(cmd.scalar), charge);
                Some((i, v))
            }
            PeOp::Dot => {
                let i = unit as usize;
                let p = dp.mul(self.sp_read(A_OFF + i), self.sp_read(B_OFF + i), charge);
                *acc = dp.add(*acc, p, charge);
                if i + 1 == cmd.len as usize {
                    Some((0, *acc))
                } else {
                    None
                }
            }
            PeOp::Reduce => {
                let i = unit as usize;
                *acc = dp.add(*acc, self.sp_read(A_OFF + i), charge);
                if i + 1 == cmd.len as usize {
                    Some((0, *acc))
                } else {
                    None
                }
            }
            PeOp::Conv1d => {
                let taps = u64::from(cmd.scalar);
                let i = (unit / taps) as usize;
                let t = (unit % taps) as usize;
                let p = dp.mul(self.sp_read(A_OFF + i + t), self.sp_read(B_OFF + t), charge);
                *acc = dp.add(*acc, p, charge);
                if t + 1 == taps as usize {
                    let v = *acc;
                    *acc = 0;
                    Some((i, v))
                } else {
                    None
                }
            }
            PeOp::ArgMinDist => {
                let k = u64::from(cmd.scalar);
                let i = (unit / k) as usize;
                let c = (unit % k) as usize;
                let point = self.sp_read(A_OFF + i);
                let centroid = self.sp_read(B_OFF + c);
                let d = dp.absdiff(point, centroid, charge);
                let better = match *arg {
                    None => true,
                    Some((best, _)) => dp.lt(d, best, charge),
                };
                if better {
                    *arg = Some((d, c as u64));
                }
                if c + 1 == k as usize {
                    let (_, idx) = arg.take().expect("at least one centroid seen");
                    Some((i, idx))
                } else {
                    None
                }
            }
        }
    }
}

impl Component for ProcessingElement {
    fn name(&self) -> &str {
        &self.name
    }

    /// A sim-accurate PE is quiescent exactly when its tick would take
    /// the early-return path below: idle, nothing buffered for the NoC
    /// or the scratchpad, and no input data committed *or staged*
    /// (`has_pending`, stricter than the `can_pop` the early return
    /// uses). RTL mode never sleeps — generated RTL burns
    /// signal-evaluation work every cycle, which is the fidelity point.
    fn is_quiescent(&self) -> bool {
        !self.cfg.fidelity.is_rtl()
            && matches!(self.state, PeState::Idle)
            && self.outbox.is_empty()
            && self.pending_writes.is_empty()
            && !self.input.has_pending()
    }

    /// Idle as [`is_quiescent`](Self::is_quiescent) says, or blocked:
    /// operands or a drained outbox are what the PE waits for, and
    /// neither can arrive without a push or pop on its two ports.
    /// Blocked means the tick below would run through without moving
    /// anything — no flit to take (`has_pending` sees staged ones), no
    /// scratchpad write waiting, an FSM parked in `Fetch` short of
    /// operands or in `WriteBack` behind its outbox, and an outbox that
    /// is empty or faces a full inject channel with no pop staged
    /// (`Out::is_blocked`). What such a tick still *counts* is settled
    /// in [`ticks_skipped`](Self::ticks_skipped).
    fn can_sleep(&self) -> Sleep {
        if self.cfg.fidelity.is_rtl() || !self.pending_writes.is_empty() || self.input.has_pending()
        {
            return Sleep::No;
        }
        let outbox_stuck = || !self.outbox.is_empty() && self.output.is_blocked();
        match &self.state {
            PeState::Idle if self.outbox.is_empty() => Sleep::Idle,
            // Complete operands would have moved on to `Compute` in
            // this tick; a write still queued at a scratchpad bank
            // (two lanes hit one bank) lands on a later one.
            PeState::Fetch { .. }
                if (self.outbox.is_empty() || outbox_stuck()) && self.scratchpad.is_idle() =>
            {
                Sleep::Blocked
            }
            PeState::WriteBack { .. } if outbox_stuck() => Sleep::Blocked,
            _ => Sleep::No,
        }
    }

    /// A blocked PE's elided ticks each counted a busy cycle, found
    /// the eject channel empty and, with flits queued, were refused by
    /// the inject channel.
    fn ticks_skipped(&mut self, n: u64) {
        self.stats.borrow_mut().busy_cycles += n;
        self.input.pop_empty_skipped(n);
        if !self.outbox.is_empty() {
            self.output.push_backpressure_skipped(n);
        }
    }

    /// Diagnosis for the hang watchdog: which FSM state the PE is
    /// parked in and what it still owes the NoC/scratchpad — enough to
    /// tell a PE starved of operands (stuck in Fetch) from one whose
    /// results cannot drain (stuck in WriteBack).
    fn wait_reason(&self) -> Option<String> {
        let fsm = match &self.state {
            PeState::Idle => "idle".to_string(),
            PeState::Fetch {
                got,
                need_a,
                need_b,
                ..
            } => format!("fetch {got}/{} operand words", need_a + need_b),
            PeState::Compute { cursor, total, .. } => {
                format!("compute {cursor}/{total} work units")
            }
            PeState::WriteBack {
                sent,
                out_len,
                done_sent,
                ..
            } => format!("writeback {sent}/{out_len} words, done_sent={done_sent}"),
        };
        Some(format!(
            "pe{}: {fsm}, outbox={}, pending_writes={}",
            self.node,
            self.outbox.len(),
            self.pending_writes.len()
        ))
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.cycle = ctx.cycle();
        // RTL simulators evaluate every signal every cycle — the
        // interpreted mode by walking the packed state word by word,
        // the compiled mode as one pass over its lowered plan. Both
        // charge the same gate count.
        match self.cfg.fidelity {
            Fidelity::Rtl => self.rtl_cost.step(self.cfg.rtl_gates),
            Fidelity::RtlCompiled => self.signal_plan.burn(&mut self.rtl_cost),
            Fidelity::SimAccurate => {
                if matches!(self.state, PeState::Idle)
                    && self.outbox.is_empty()
                    && !self.input.can_pop()
                {
                    // Sim-accurate models skip quiescent components
                    // entirely.
                    return;
                }
            }
        }
        self.stats.borrow_mut().busy_cycles += 1;
        // RTL-only register stages (NoC ingress/egress) consume cycles
        // the sim-accurate model does not include.
        if self.rtl_skip > 0 {
            self.rtl_skip -= 1;
            return;
        }

        // Drain one incoming flit per cycle.
        if let Some(flit) = self.input.pop_nb() {
            if let Some((msg, _src)) = self.assembler.push(flit) {
                self.handle_msg(msg);
            }
        }

        // Push NoC-arrived words into the scratchpad through its
        // arbitrated ports, one request per lane per cycle.
        let mut issued_lanes = 0;
        while issued_lanes < self.cfg.lanes {
            let Some(&(addr, value)) = self.pending_writes.front() else {
                break;
            };
            let lane = issued_lanes;
            match self
                .scratchpad
                .issue(lane, SpRequest::Write { addr, value })
            {
                Ok(()) => {
                    self.pending_writes.pop_front();
                    issued_lanes += 1;
                }
                Err(_) => break,
            }
        }
        self.scratchpad.tick();
        for lane in 0..self.cfg.lanes {
            while let Some(resp) = self.scratchpad.response(lane) {
                debug_assert!(matches!(resp, SpResponse::WriteAck));
            }
        }

        self.advance_state();

        // One flit out per cycle.
        if let Some(&flit) = self.outbox.front() {
            if self.output.push_nb(flit).is_ok() {
                self.outbox.pop_front();
            }
        }

        if self.cfg.fidelity.is_rtl() {
            self.stats.borrow_mut().gates_charged = self.rtl_cost.charged();
        }
    }
}

impl ProcessingElement {
    fn handle_msg(&mut self, msg: NocMsg) {
        let state = std::mem::replace(&mut self.state, PeState::Idle);
        self.state = match (state, msg) {
            (PeState::Idle, NocMsg::PeCmd(cmd)) => {
                self.coverage.hit(format!("pe.op.{:?}", cmd.op));
                self.cur_span = self
                    .telemetry
                    .as_ref()
                    .map(|tel| tel.span_begin(format!("pe{}.exec", self.node), self.cycle));
                let need_a = Self::a_words(&cmd);
                let need_b = Self::b_words(&cmd);
                assert!(need_a <= B_OFF - A_OFF, "operand A too large");
                assert!(need_b <= OUT_OFF - B_OFF, "operand B too large");
                self.send_msg(&NocMsg::MemRead {
                    base: cmd.a,
                    len: need_a as u16,
                    reply_to: self.node,
                });
                PeState::Fetch {
                    cmd,
                    need_a,
                    need_b,
                    got: 0,
                    b_requested: need_b == 0,
                }
            }
            (
                PeState::Fetch {
                    cmd,
                    need_a,
                    need_b,
                    mut got,
                    mut b_requested,
                },
                NocMsg::MemData { base: _, data },
            ) => {
                for w in data {
                    let addr = if got < need_a {
                        A_OFF + got
                    } else {
                        B_OFF + (got - need_a)
                    };
                    self.pending_writes.push_back((addr, w));
                    got += 1;
                }
                if !b_requested && got >= need_a {
                    b_requested = true;
                    self.send_msg(&NocMsg::MemRead {
                        base: cmd.b,
                        len: need_b as u16,
                        reply_to: self.node,
                    });
                }
                PeState::Fetch {
                    cmd,
                    need_a,
                    need_b,
                    got,
                    b_requested,
                }
            }
            (state, msg) => panic!("pe{} cannot handle {msg:?} in state {state:?}", self.node),
        };
    }

    fn advance_state(&mut self) {
        let state = std::mem::replace(&mut self.state, PeState::Idle);
        self.state = match state {
            PeState::Idle => PeState::Idle,
            PeState::Fetch {
                cmd,
                need_a,
                need_b,
                got,
                b_requested,
            } => {
                // All words received AND landed in the scratchpad.
                if got == need_a + need_b && self.pending_writes.is_empty() {
                    if let (Some(id), Some(tel)) = (self.cur_span, self.telemetry.as_ref()) {
                        tel.span_point(id, "compute", self.cycle);
                    }
                    let drain = if self.cfg.fidelity.is_rtl() {
                        self.cfg.pipeline_depth
                    } else {
                        0
                    };
                    PeState::Compute {
                        total: Self::work_units(&cmd),
                        cmd,
                        cursor: 0,
                        acc: 0,
                        arg_state: None,
                        drain,
                    }
                } else {
                    PeState::Fetch {
                        cmd,
                        need_a,
                        need_b,
                        got,
                        b_requested,
                    }
                }
            }
            PeState::Compute {
                cmd,
                mut cursor,
                total,
                mut acc,
                mut arg_state,
                mut drain,
            } => {
                if cursor < total {
                    let n = (self.cfg.lanes as u64).min(total - cursor);
                    let mut outs = Vec::new();
                    let charge = std::cell::Cell::new(0u64);
                    for u in 0..n {
                        if let Some((idx, v)) =
                            self.exec_unit(&cmd, cursor + u, &mut acc, &mut arg_state, &charge)
                        {
                            outs.push((OUT_OFF + idx, v));
                        }
                    }
                    self.rtl_cost.charge(charge.get());
                    cursor += n;
                    self.stats.borrow_mut().work_units += n;
                    for (addr, v) in outs {
                        self.sp_write_direct(addr, v);
                    }
                    PeState::Compute {
                        cmd,
                        cursor,
                        total,
                        acc,
                        arg_state,
                        drain,
                    }
                } else if drain > 0 {
                    // RTL pipeline drain cycles.
                    drain -= 1;
                    PeState::Compute {
                        cmd,
                        cursor,
                        total,
                        acc,
                        arg_state,
                        drain,
                    }
                } else {
                    PeState::WriteBack {
                        out_len: cmd.op.out_len(cmd.len) as usize,
                        cmd,
                        sent: 0,
                        done_sent: false,
                    }
                }
            }
            PeState::WriteBack {
                cmd,
                mut sent,
                out_len,
                mut done_sent,
            } => {
                if sent < out_len {
                    // Emit the next chunk only when the outbox has
                    // drained (one packet in flight keeps ordering and
                    // bounds buffering).
                    if self.outbox.is_empty() {
                        let n = CHUNK.min(out_len - sent);
                        let base = cmd.out + sent as u16;
                        let data: Vec<u64> =
                            (0..n).map(|i| self.sp_read(OUT_OFF + sent + i)).collect();
                        sent += n;
                        self.send_msg(&NocMsg::MemWrite { base, data });
                        if self.cfg.fidelity.is_rtl() {
                            // Egress packetizer register stage.
                            self.rtl_skip += 1;
                        }
                    }
                    PeState::WriteBack {
                        cmd,
                        sent,
                        out_len,
                        done_sent,
                    }
                } else if !done_sent {
                    if self.outbox.is_empty() {
                        done_sent = true;
                        let node = self.node;
                        self.send_msg(&NocMsg::Done { pe: node });
                        if let Some(id) = self.cur_span.take() {
                            if let Some(tel) = &self.telemetry {
                                tel.span_end(id, "done", self.cycle);
                            }
                        }
                    }
                    PeState::WriteBack {
                        cmd,
                        sent,
                        out_len,
                        done_sent,
                    }
                } else if self.outbox.is_empty() {
                    self.stats.borrow_mut().commands += 1;
                    PeState::Idle
                } else {
                    PeState::WriteBack {
                        cmd,
                        sent,
                        out_len,
                        done_sent,
                    }
                }
            }
        };
    }
}
