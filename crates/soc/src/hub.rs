//! The hub node: banked global memory, NoC endpoint, controller
//! doorbell/status interface, and its AXI slave adapter.
//!
//! Fig. 5's Global Memory is "memory banks designed using mem_array,
//! connected to multiple input/output ports using the MatchLib
//! crossbar" — exactly [`craft_matchlib::Scratchpad`], which the hub
//! services at [`GMEM_PORTS`] words per cycle. PE requests arrive as
//! NoC packets and are served strictly in arrival order; the RISC-V
//! controller reaches the same memory (and the PE command doorbell)
//! through an AXI slave ([`HubAxiSlave`]).

use crate::bitrtl::RtlCost;
use crate::msg::{NocMsg, PacketAssembler, PeCommand, HUB_NODE, N_NODES};
use crate::pe::{Fidelity, CHUNK};
use crate::rtlplan::SignalPlan;
use craft_connections::{In, Out};
use craft_matchlib::axi::{AxiAddrCmd, AxiReadBeat, AxiSlavePorts, AxiWriteResp};
use craft_matchlib::router::NocFlit;
use craft_matchlib::Scratchpad;
use craft_sim::{ActivityToken, Component, Sleep, StateVisitor, Telemetry, TickCtx};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Global-memory words served per cycle (bank count).
pub const GMEM_PORTS: usize = 4;

/// AXI word-address offset of the hub control page (doorbell/status),
/// relative to the hub slave's range base.
pub const CTRL_PAGE: u64 = 0x10_0000;
/// Control page register offsets (word granular).
pub mod ctrl {
    /// Write: target PE node for the staged command.
    pub const TARGET: u64 = 0;
    /// Write: low 32 bits of the packed command.
    pub const CMD_LO: u64 = 1;
    /// Write: high 32 bits of the packed command.
    pub const CMD_HI: u64 = 2;
    /// Write: commit the staged command to the doorbell.
    pub const COMMIT: u64 = 3;
    /// Read: completed command count.
    pub const DONE_COUNT: u64 = 4;
    /// Read: issued command count.
    pub const ISSUED: u64 = 5;
}

/// Shared hub state: reachable from the hub NoC component, the AXI
/// slave adapter and the test harness backdoor.
#[derive(Debug)]
pub struct HubState {
    /// Banked global memory.
    pub gmem: Scratchpad<u64>,
    /// Committed (pe, command) pairs awaiting packetization.
    pub doorbell: VecDeque<(u16, PeCommand)>,
    /// Commands committed via the doorbell.
    pub issued: u64,
    /// Done notifications received from PEs.
    pub done_count: u64,
    /// Global-memory words read or written (energy accounting).
    pub gmem_ops: u64,
    /// NoC flits observed at the hub, both directions (energy proxy).
    pub noc_flits: u64,
    /// Gate equivalents charged to the hub's RTL cost ledger
    /// (identical between interpreted and compiled RTL modes).
    pub gates_charged: u64,
    /// Service latency (cycles from job arrival to completion) of
    /// memory jobs, bucketed per 4 cycles.
    pub service_latency: craft_sim::stats::Histogram,
    /// Activity source for the hub component: the doorbell bypasses
    /// the NoC channels, so control-page commits must set this token
    /// themselves to rouse a sleeping hub. The SoC assembly aliases it
    /// with the hub's kernel wake token.
    pub activity: ActivityToken,
    /// Command in flight per mesh node: `(command, dispatch cycle)`
    /// from PeCmd packetization until the PE's Done retires it.
    pub inflight: Vec<Option<(PeCommand, u64)>>,
    /// Nodes marked permanently failed (missed their
    /// [`pe_timeout`](Self::pe_timeout)); never dispatched to again.
    pub failed: Vec<bool>,
    /// Commands re-dispatched to a healthy PE after their original
    /// target was marked failed (the graceful-degradation counter).
    pub remapped: u64,
    /// Cycles a dispatched command may stay un-acknowledged before its
    /// PE is declared failed and its work remapped. `None` (the
    /// default) disables detection entirely: no timeout scan runs and
    /// hub quiescence is unchanged, so fault-free runs are
    /// bit-identical with the feature compiled in.
    pub pe_timeout: Option<u64>,
    stage_target: u32,
    stage_lo: u32,
    stage_hi: u32,
}

impl HubState {
    /// Fresh state with `gmem_words` of zeroed global memory.
    pub fn new(gmem_words: usize) -> Self {
        HubState {
            gmem: Scratchpad::new(GMEM_PORTS, gmem_words.div_ceil(GMEM_PORTS)),
            doorbell: VecDeque::new(),
            issued: 0,
            done_count: 0,
            gmem_ops: 0,
            noc_flits: 0,
            gates_charged: 0,
            service_latency: craft_sim::stats::Histogram::new(4, 64),
            activity: ActivityToken::new(),
            inflight: vec![None; N_NODES as usize],
            failed: vec![false; N_NODES as usize],
            remapped: 0,
            pe_timeout: None,
            stage_target: 0,
            stage_lo: 0,
            stage_hi: 0,
        }
    }

    /// Lowest-numbered PE that is neither failed nor executing a
    /// command — the remap target for work stranded on a failed PE.
    fn healthy_idle_pe(&self) -> Option<u16> {
        (0..N_NODES)
            .filter(|&n| n != HUB_NODE)
            .find(|&n| !self.failed[n as usize] && self.inflight[n as usize].is_none())
    }

    /// Nodes currently marked failed.
    pub fn failed_pes(&self) -> Vec<u16> {
        (0..N_NODES).filter(|&n| self.failed[n as usize]).collect()
    }

    /// Control-page write (from the AXI adapter).
    fn ctrl_write(&mut self, offset: u64, value: u32) {
        match offset {
            ctrl::TARGET => self.stage_target = value,
            ctrl::CMD_LO => self.stage_lo = value,
            ctrl::CMD_HI => self.stage_hi = value,
            ctrl::COMMIT => {
                let word = u64::from(self.stage_hi) << 32 | u64::from(self.stage_lo);
                self.doorbell
                    .push_back((self.stage_target as u16, PeCommand::unpack(word)));
                self.issued += 1;
                self.activity.set();
            }
            other => panic!("write to unknown hub control register {other}"),
        }
    }

    /// Control-page read (from the AXI adapter).
    fn ctrl_read(&self, offset: u64) -> u32 {
        match offset {
            ctrl::DONE_COUNT => self.done_count as u32,
            ctrl::ISSUED => self.issued as u32,
            other => panic!("read of unknown hub control register {other}"),
        }
    }
}

/// Shared handle to the hub state.
pub type HubHandle = Rc<RefCell<HubState>>;

/// A memory job in the hub's strictly ordered service queue.
#[derive(Debug)]
enum HubJob {
    Write {
        base: usize,
        data: Vec<u64>,
        done: usize,
        arrived: u64,
    },
    Read {
        base: usize,
        len: usize,
        reply_to: u16,
        buf: Vec<u64>,
        arrived: u64,
    },
    DoneMark {
        pe: u16,
    },
}

/// The hub NoC component.
pub struct Hub {
    name: String,
    node: u16,
    state: HubHandle,
    input: In<NocFlit>,
    output: Out<NocFlit>,
    assembler: PacketAssembler,
    jobs: VecDeque<HubJob>,
    outbox: VecDeque<NocFlit>,
    fidelity: Fidelity,
    rtl_cost: RtlCost,
    rtl_gates: u64,
    /// Compiled per-cycle signal plan (RtlCompiled mode only).
    signal_plan: Option<SignalPlan>,
    cycle: u64,
    /// Span recorder for command lifetimes (dispatch → retire).
    /// `None` keeps the hot path branch-free beyond one check.
    telemetry: Option<Telemetry>,
    /// Open command span per mesh node, correlated from dispatch to
    /// the Done (or timeout) that closes it.
    cmd_spans: Vec<Option<u64>>,
}

impl Hub {
    /// Builds the hub at mesh node `node`.
    pub fn new(
        node: u16,
        input: In<NocFlit>,
        output: Out<NocFlit>,
        state: HubHandle,
        fidelity: Fidelity,
    ) -> Self {
        const HUB_RTL_GATES: u64 = 40_000;
        Hub {
            name: format!("hub{node}"),
            node,
            state,
            input,
            output,
            assembler: PacketAssembler::new(),
            jobs: VecDeque::new(),
            outbox: VecDeque::new(),
            fidelity,
            rtl_cost: RtlCost::new(),
            rtl_gates: HUB_RTL_GATES,
            signal_plan: (fidelity == Fidelity::RtlCompiled)
                .then(|| SignalPlan::from_gate_count(HUB_RTL_GATES)),
            cycle: 0,
            telemetry: None,
            cmd_spans: vec![None; N_NODES as usize],
        }
    }

    /// Attaches a telemetry handle: every dispatched command opens a
    /// cycle-stamped span (`cmd.pe{n}`) that its Done retires (or a
    /// timeout failure closes). Observation-only — attaching never
    /// changes hub behaviour, traffic, or cycle counts.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = Some(tel);
    }

    /// The hub's compiled signal plan, if running in
    /// [`Fidelity::RtlCompiled`] (lets the SoC assembly register it in
    /// the shared plan statistics).
    pub fn signal_plan(&self) -> Option<&SignalPlan> {
        self.signal_plan.as_ref()
    }
}

impl Component for Hub {
    fn name(&self) -> &str {
        &self.name
    }

    /// Quiescent when no job is in service, nothing waits in the
    /// outbox or the doorbell, and no flit is committed or staged on
    /// the eject channel. RTL mode never sleeps (per-cycle signal
    /// evaluation). `self.cycle` lagging while asleep is harmless: it
    /// is only read when a job exists, and the first tick after a wake
    /// refreshes it before any job can be enqueued.
    ///
    /// With a [`HubState::pe_timeout`] armed, the hub additionally
    /// stays awake while any command is in flight — the timeout scan
    /// is the thing watching for a PE that will never answer, so it
    /// must not itself be gated off.
    fn is_quiescent(&self) -> bool {
        self.outbox.is_empty() && self.nothing_to_serve()
    }

    /// Also sleeps *blocked*: everything idle except an outbox facing
    /// a full inject channel with no pop staged. Such a tick takes no
    /// flit, serves no job and is refused its push; only the router
    /// popping the inject channel (which fires the wake token) changes
    /// that.
    fn can_sleep(&self) -> Sleep {
        if !self.nothing_to_serve() {
            Sleep::No
        } else if self.outbox.is_empty() {
            Sleep::Idle
        } else if self.output.is_blocked() {
            Sleep::Blocked
        } else {
            Sleep::No
        }
    }

    /// A blocked hub's elided ticks each found the eject channel empty
    /// and were refused by the inject channel.
    fn ticks_skipped(&mut self, n: u64) {
        self.input.pop_empty_skipped(n);
        self.output.push_backpressure_skipped(n);
    }

    /// Diagnosis for the hang watchdog: what the hub is waiting on.
    fn wait_reason(&self) -> Option<String> {
        let st = self.state.borrow();
        let inflight: Vec<u16> = (0..st.inflight.len())
            .filter(|&n| st.inflight[n].is_some())
            .map(|n| n as u16)
            .collect();
        Some(format!(
            "hub: jobs={} outbox={} doorbell={} issued={} done={} inflight={:?} failed={:?} remapped={}",
            self.jobs.len(),
            self.outbox.len(),
            st.doorbell.len(),
            st.issued,
            st.done_count,
            inflight,
            st.failed_pes(),
            st.remapped,
        ))
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.cycle = ctx.cycle();
        match self.fidelity {
            Fidelity::Rtl => self.rtl_cost.step(self.rtl_gates),
            Fidelity::RtlCompiled => {
                let plan = self.signal_plan.as_mut().expect("compiled hub has a plan");
                plan.burn(&mut self.rtl_cost);
            }
            Fidelity::SimAccurate => {}
        }
        if self.fidelity.is_rtl() {
            self.state.borrow_mut().gates_charged = self.rtl_cost.charged();
        }
        // Ingest one flit per cycle.
        if let Some(flit) = self.input.pop_nb() {
            self.state.borrow_mut().noc_flits += 1;
            if let Some((msg, src)) = self.assembler.push(flit) {
                match msg {
                    NocMsg::MemWrite { base, data } => self.jobs.push_back(HubJob::Write {
                        base: base as usize,
                        data,
                        done: 0,
                        arrived: self.cycle,
                    }),
                    NocMsg::MemRead {
                        base,
                        len,
                        reply_to,
                    } => self.jobs.push_back(HubJob::Read {
                        base: base as usize,
                        len: len as usize,
                        reply_to,
                        buf: Vec::with_capacity(len as usize),
                        arrived: self.cycle,
                    }),
                    NocMsg::Done { pe } => self.jobs.push_back(HubJob::DoneMark { pe }),
                    other => panic!("hub cannot handle {other:?} from node {src}"),
                }
            }
        }

        // Service the head job at GMEM_PORTS words per cycle.
        self.service_head();

        // Fault detection: a command that outlives the armed timeout
        // marks its PE permanently failed and returns to the doorbell,
        // where dispatch below remaps it to a healthy PE. Commands are
        // idempotent (operands and results live at fixed gmem
        // addresses), so re-execution after a partial run is safe.
        {
            let mut st = self.state.borrow_mut();
            if let Some(limit) = st.pe_timeout {
                for n in 0..st.inflight.len() {
                    let Some((cmd, issued_at)) = st.inflight[n] else {
                        continue;
                    };
                    if self.cycle.saturating_sub(issued_at) > limit {
                        st.failed[n] = true;
                        st.inflight[n] = None;
                        st.doorbell.push_front((n as u16, cmd));
                        st.activity.set();
                        if let (Some(tel), Some(id)) = (&self.telemetry, self.cmd_spans[n].take()) {
                            tel.span_end(id, "timeout_failed", self.cycle);
                        }
                    }
                }
            }
        }

        // Packetize committed doorbell commands. A command whose
        // target is marked failed is remapped to the lowest-numbered
        // healthy idle PE; if every healthy PE is busy it stays queued
        // and dispatch stops for this cycle (strict order preserved).
        loop {
            let dispatch = {
                let mut st = self.state.borrow_mut();
                let Some(&(pe, cmd)) = st.doorbell.front() else {
                    break;
                };
                let target = if st.failed[pe as usize] {
                    st.healthy_idle_pe()
                } else {
                    Some(pe)
                };
                match target {
                    Some(t) => {
                        st.doorbell.pop_front();
                        if t != pe {
                            st.remapped += 1;
                        }
                        st.inflight[t as usize] = Some((cmd, self.cycle));
                        (t, cmd, t != pe)
                    }
                    None => break,
                }
            };
            let (pe, cmd, remapped) = dispatch;
            if let Some(tel) = &self.telemetry {
                let id = tel.span_begin(format!("cmd.pe{pe}"), self.cycle);
                if remapped {
                    tel.span_point(id, "remapped", self.cycle);
                }
                self.cmd_spans[pe as usize] = Some(id);
            }
            for flit in NocMsg::PeCmd(cmd).to_packet(pe, self.node, 0) {
                self.outbox.push_back(flit);
            }
        }

        // One flit out per cycle.
        if let Some(&flit) = self.outbox.front() {
            if self.output.push_nb(flit).is_ok() {
                self.outbox.pop_front();
                self.state.borrow_mut().noc_flits += 1;
            }
        }
    }
}

impl Hub {
    /// Everything but the outbox is idle: no job, no flit committed or
    /// staged on the eject channel, no doorbell entry, no timeout scan
    /// to keep running.
    fn nothing_to_serve(&self) -> bool {
        let st = self.state.borrow();
        !self.fidelity.is_rtl()
            && self.jobs.is_empty()
            && !self.input.has_pending()
            && st.doorbell.is_empty()
            && (st.pe_timeout.is_none() || st.inflight.iter().all(|e| e.is_none()))
    }

    fn service_head(&mut self) {
        let Some(job) = self.jobs.front_mut() else {
            return;
        };
        match job {
            HubJob::Write {
                base,
                data,
                done,
                arrived,
            } => {
                let mut st = self.state.borrow_mut();
                let n = GMEM_PORTS.min(data.len() - *done);
                for i in 0..n {
                    st.gmem.write(*base + *done + i, data[*done + i]);
                }
                st.gmem_ops += n as u64;
                *done += n;
                if *done == data.len() {
                    let lat = self.cycle.saturating_sub(*arrived);
                    st.service_latency.record(lat);
                    drop(st);
                    self.jobs.pop_front();
                }
            }
            HubJob::Read {
                base,
                len,
                reply_to,
                buf,
                arrived,
            } => {
                let start = buf.len();
                let n = GMEM_PORTS.min(*len - start);
                {
                    let mut st = self.state.borrow_mut();
                    for i in 0..n {
                        let v = st.gmem.read(*base + start + i);
                        buf.push(v);
                    }
                    st.gmem_ops += n as u64;
                }
                if buf.len() == *len {
                    let reply = *reply_to;
                    let base_v = *base;
                    let data = std::mem::take(buf);
                    let lat = self.cycle.saturating_sub(*arrived);
                    self.state.borrow_mut().service_latency.record(lat);
                    self.jobs.pop_front();
                    for chunk_start in (0..data.len()).step_by(CHUNK) {
                        let end = (chunk_start + CHUNK).min(data.len());
                        let msg = NocMsg::MemData {
                            base: (base_v + chunk_start) as u16,
                            data: data[chunk_start..end].to_vec(),
                        };
                        for flit in msg.to_packet(reply, self.node, 0) {
                            self.outbox.push_back(flit);
                        }
                    }
                }
            }
            HubJob::DoneMark { pe } => {
                let mut st = self.state.borrow_mut();
                // A Done from a PE already declared failed is a late
                // straggler: its command was remapped and the new
                // owner's Done is the one that counts.
                let retired = !st.failed[*pe as usize];
                if retired {
                    st.done_count += 1;
                    st.inflight[*pe as usize] = None;
                }
                drop(st);
                if retired {
                    if let Some(tel) = &self.telemetry {
                        if let Some(id) = self.cmd_spans[*pe as usize].take() {
                            tel.span_end(id, "retire", self.cycle);
                        }
                    }
                }
                self.jobs.pop_front();
            }
        }
    }
}

enum AxiWriteEngine {
    Idle,
    Data { cmd: AxiAddrCmd, beat: u64 },
    Resp { id: u8, okay: bool },
}

enum AxiReadEngine {
    Idle,
    Data { cmd: AxiAddrCmd, beat: u64 },
}

/// AXI slave adapter exposing global memory (word `addr` maps to gmem
/// word `addr`, carrying 32-bit values) and the control page at
/// [`CTRL_PAGE`].
pub struct HubAxiSlave {
    name: String,
    ports: AxiSlavePorts,
    state: HubHandle,
    wstate: AxiWriteEngine,
    rstate: AxiReadEngine,
    /// The last tick moved no beat.
    idle_tick: bool,
    /// Words this adapter has written into global memory: the
    /// generation that stands for its share of the contents wherever
    /// state is compared.
    gmem_writes: u64,
}

impl HubAxiSlave {
    /// Builds the adapter over its AXI slave ports.
    pub fn new(name: impl Into<String>, ports: AxiSlavePorts, state: HubHandle) -> Self {
        HubAxiSlave {
            name: name.into(),
            ports,
            state,
            wstate: AxiWriteEngine::Idle,
            rstate: AxiReadEngine::Idle,
            idle_tick: false,
            gmem_writes: 0,
        }
    }

    fn write_word(&mut self, addr: u64, value: u32) -> bool {
        let mut st = self.state.borrow_mut();
        if addr >= CTRL_PAGE {
            st.ctrl_write(addr - CTRL_PAGE, value);
            true
        } else if (addr as usize) < st.gmem.capacity() {
            st.gmem.write(addr as usize, u64::from(value));
            self.gmem_writes += 1;
            true
        } else {
            false
        }
    }

    fn read_word(&self, addr: u64) -> Option<u32> {
        let st = self.state.borrow();
        if addr >= CTRL_PAGE {
            Some(st.ctrl_read(addr - CTRL_PAGE))
        } else if (addr as usize) < st.gmem.capacity() {
            Some(st.gmem.read(addr as usize) as u32)
        } else {
            None
        }
    }
}

impl Component for HubAxiSlave {
    fn name(&self) -> &str {
        &self.name
    }

    /// Sleeps while neither engine has a beat to move — the same rule
    /// as `craft_matchlib::axi::AxiMemorySlave`: both engines advance
    /// only with a successful pop or push.
    fn can_sleep(&self) -> Sleep {
        Sleep::blocked_if(self.idle_tick && self.ports.is_settled())
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        let mut moved = false;
        let wstate = std::mem::replace(&mut self.wstate, AxiWriteEngine::Idle);
        self.wstate = match wstate {
            AxiWriteEngine::Idle => match self.ports.aw.pop_nb() {
                Some(cmd) => {
                    moved = true;
                    AxiWriteEngine::Data { cmd, beat: 0 }
                }
                None => AxiWriteEngine::Idle,
            },
            AxiWriteEngine::Data { cmd, beat } => match self.ports.w.pop_nb() {
                Some(wbeat) => {
                    moved = true;
                    let addr = cmd.addr + beat;
                    let okay_addr = self.write_word(addr, wbeat.data as u32);
                    let expected_last = beat == u64::from(cmd.len);
                    if wbeat.last || expected_last {
                        AxiWriteEngine::Resp {
                            id: cmd.id,
                            okay: okay_addr && wbeat.last == expected_last,
                        }
                    } else {
                        AxiWriteEngine::Data {
                            cmd,
                            beat: beat + 1,
                        }
                    }
                }
                None => AxiWriteEngine::Data { cmd, beat },
            },
            AxiWriteEngine::Resp { id, okay } => {
                if self.ports.b.push_nb(AxiWriteResp { id, okay }).is_ok() {
                    moved = true;
                    AxiWriteEngine::Idle
                } else {
                    AxiWriteEngine::Resp { id, okay }
                }
            }
        };

        let rstate = std::mem::replace(&mut self.rstate, AxiReadEngine::Idle);
        self.rstate = match rstate {
            AxiReadEngine::Idle => match self.ports.ar.pop_nb() {
                Some(cmd) => {
                    moved = true;
                    AxiReadEngine::Data { cmd, beat: 0 }
                }
                None => AxiReadEngine::Idle,
            },
            AxiReadEngine::Data { cmd, beat } => {
                let addr = cmd.addr + beat;
                let last = beat == u64::from(cmd.len);
                let value = self.read_word(addr);
                let rbeat = AxiReadBeat {
                    id: cmd.id,
                    data: u64::from(value.unwrap_or(0)),
                    last,
                    okay: value.is_some(),
                };
                if self.ports.r.push_nb(rbeat).is_ok() {
                    moved = true;
                    if last {
                        AxiReadEngine::Idle
                    } else {
                        AxiReadEngine::Data {
                            cmd,
                            beat: beat + 1,
                        }
                    }
                } else {
                    AxiReadEngine::Data { cmd, beat }
                }
            }
        };
        self.idle_tick = !moved;
    }

    /// The two engines, and of the shared [`HubState`] what this
    /// adapter's tick can write: the staged command registers, the
    /// doorbell it commits them to (by length — an entry it adds wakes
    /// the hub, which presents nothing), `issued`, and global memory by
    /// the count of words written through here. What it only reads
    /// (`done_count`) is the hub's.
    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        match &self.wstate {
            AxiWriteEngine::Idle => v.state(0),
            AxiWriteEngine::Data { cmd, beat } => {
                v.state(1);
                cmd.visit(v);
                v.state(*beat);
            }
            AxiWriteEngine::Resp { id, okay } => {
                v.state(2);
                v.state(u64::from(*id));
                v.state(u64::from(*okay));
            }
        }
        match &self.rstate {
            AxiReadEngine::Idle => v.state(0),
            AxiReadEngine::Data { cmd, beat } => {
                v.state(1);
                cmd.visit(v);
                v.state(*beat);
            }
        }
        v.state(u64::from(self.idle_tick));
        v.state(self.gmem_writes);
        {
            let st = self.state.borrow();
            v.state(u64::from(st.stage_target));
            v.state(u64::from(st.stage_lo));
            v.state(u64::from(st.stage_hi));
            v.state(st.doorbell.len() as u64);
            v.state(st.issued);
        }
        self.ports.visit_counters(v);
    }
}
