//! AXI components (Table 2): "master/slave interfaces & bridges for
//! AXI interconnect".
//!
//! A five-channel AXI-style burst protocol (AW, W, B, AR, R) carried
//! over LI channels — exactly the layering the paper advocates: AXI is
//! itself a latency-insensitive protocol, so each channel is a
//! Connections channel and any buffering/retiming may be inserted
//! without functional change.
//!
//! Addresses are **word** (64-bit) granular. Provided components:
//! [`AxiMemorySlave`] (memory-backed slave), [`AxiMaster`] (queue-driven
//! master), and [`AxiBus`] (1-master/N-slave address-decoding bridge).
//!
//! # Gating
//!
//! All three sleep while they have no beat to move (see
//! [`craft_sim::Component::can_sleep`]): each remembers whether its
//! last tick moved anything and, if not, sleeps once every port is
//! settled. None defines `is_quiescent`, so the sleep is always of the
//! *blocked* kind. Register a wake token with the kernel and hand it to the
//! component's ports ([`AxiMasterPorts::set_wake_token`] /
//! [`AxiSlavePorts::set_wake_token`]; the master also wakes on
//! [`AxiMasterHandle::master_wake`]). Without a token they tick every
//! cycle as before. The failed pops and pushes of elided ticks are
//! not booked on the AXI channels' statistics: [`axi_link`] hands out
//! no handle through which they could be read.
//!
//! # State
//!
//! All three present their state to the kernel
//! ([`craft_sim::Component::visit_state`]), and [`axi_link`] teaches
//! its channels to present the beats they hold: a controller polling a
//! status register over this plane forever is a loop a supervised run
//! can prove and advance over. A memory is presented by its write
//! generation — the number of writes made to it — not by its contents.

use craft_connections::{In, Out};
use craft_sim::{ActivityToken, Component, Sleep, StateVisitor, TickCtx};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Address-channel command (AW and AR beats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiAddrCmd {
    /// Transaction id, echoed in responses.
    pub id: u8,
    /// Word address of the first beat.
    pub addr: u64,
    /// Burst beats minus one (AXI encoding: 0 = 1 beat).
    pub len: u8,
}

impl AxiAddrCmd {
    /// Presents the command as three state words, for a channel or an
    /// engine that holds one ([`craft_sim::Component::visit_state`]).
    pub fn visit(&self, v: &mut StateVisitor<'_>) {
        v.state(u64::from(self.id));
        v.state(self.addr);
        v.state(u64::from(self.len));
    }
}

/// Write-data beat (W).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiWriteBeat {
    /// Data word.
    pub data: u64,
    /// Final beat of the burst.
    pub last: bool,
}

/// Write response (B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiWriteResp {
    /// Transaction id.
    pub id: u8,
    /// OKAY (true) or SLVERR (false).
    pub okay: bool,
}

/// Read-data beat (R).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiReadBeat {
    /// Transaction id.
    pub id: u8,
    /// Data word.
    pub data: u64,
    /// Final beat of the burst.
    pub last: bool,
    /// OKAY (true) or SLVERR (false).
    pub okay: bool,
}

/// The five slave-side channel endpoints.
#[derive(Debug)]
pub struct AxiSlavePorts {
    /// Write-address input.
    pub aw: In<AxiAddrCmd>,
    /// Write-data input.
    pub w: In<AxiWriteBeat>,
    /// Write-response output.
    pub b: Out<AxiWriteResp>,
    /// Read-address input.
    pub ar: In<AxiAddrCmd>,
    /// Read-data output.
    pub r: Out<AxiReadBeat>,
}

impl AxiSlavePorts {
    /// Hands `token` to all five channels: a beat arriving on AW/W/AR
    /// or space freeing on B/R rouses the owning component.
    pub fn set_wake_token(&self, token: &ActivityToken) {
        self.aw.set_wake_token(token.clone());
        self.w.set_wake_token(token.clone());
        self.b.set_wake_token(token.clone());
        self.ar.set_wake_token(token.clone());
        self.r.set_wake_token(token.clone());
    }

    /// Every channel is settled ([`In::is_settled`] /
    /// [`Out::is_settled`]): what the owner sees next tick is what it
    /// saw this tick unless a peer acts.
    pub fn is_settled(&self) -> bool {
        self.aw.is_settled()
            && self.w.is_settled()
            && self.b.is_settled()
            && self.ar.is_settled()
            && self.r.is_settled()
    }

    /// Presents what the owner's port calls count on the five
    /// channels ([`In::visit_counters`] / [`Out::visit_counters`]).
    pub fn visit_counters(&self, v: &mut StateVisitor<'_>) {
        self.aw.visit_counters(v);
        self.w.visit_counters(v);
        self.b.visit_counters(v);
        self.ar.visit_counters(v);
        self.r.visit_counters(v);
    }
}

/// The five master-side channel endpoints.
#[derive(Debug)]
pub struct AxiMasterPorts {
    /// Write-address output.
    pub aw: Out<AxiAddrCmd>,
    /// Write-data output.
    pub w: Out<AxiWriteBeat>,
    /// Write-response input.
    pub b: In<AxiWriteResp>,
    /// Read-address output.
    pub ar: Out<AxiAddrCmd>,
    /// Read-data input.
    pub r: In<AxiReadBeat>,
}

impl AxiMasterPorts {
    /// Hands `token` to all five channels: a beat arriving on B/R or
    /// space freeing on AW/W/AR rouses the owning component.
    pub fn set_wake_token(&self, token: &ActivityToken) {
        self.aw.set_wake_token(token.clone());
        self.w.set_wake_token(token.clone());
        self.b.set_wake_token(token.clone());
        self.ar.set_wake_token(token.clone());
        self.r.set_wake_token(token.clone());
    }

    /// Every channel is settled; see [`AxiSlavePorts::is_settled`].
    pub fn is_settled(&self) -> bool {
        self.aw.is_settled()
            && self.w.is_settled()
            && self.b.is_settled()
            && self.ar.is_settled()
            && self.r.is_settled()
    }

    /// See [`AxiSlavePorts::visit_counters`].
    pub fn visit_counters(&self, v: &mut StateVisitor<'_>) {
        self.aw.visit_counters(v);
        self.w.visit_counters(v);
        self.b.visit_counters(v);
        self.ar.visit_counters(v);
        self.r.visit_counters(v);
    }
}

/// One AXI channel's commit handle paired with its commit-dirty token.
pub type AxiLinkSequential = (
    Rc<RefCell<dyn craft_sim::Sequential>>,
    craft_sim::ActivityToken,
);

/// Creates the five channels of one AXI link and returns the two port
/// bundles plus, per channel, the commit handle paired with its
/// commit-dirty token. Register each pair with
/// [`craft_sim::Simulator::add_sequential_gated`] so idle AXI channels
/// (the common case between transactions) cost no commit work — or
/// drop the token and use plain `add_sequential` for unconditional
/// commits.
pub fn axi_link(
    name: &str,
    depth: usize,
) -> (AxiMasterPorts, AxiSlavePorts, Vec<AxiLinkSequential>) {
    use craft_connections::{channel, ChannelKind};
    let kind = ChannelKind::Buffer(depth);
    let (aw_tx, aw_rx, h1) = channel::<AxiAddrCmd>(format!("{name}.aw"), kind);
    let (w_tx, w_rx, h2) = channel::<AxiWriteBeat>(format!("{name}.w"), kind);
    let (b_tx, b_rx, h3) = channel::<AxiWriteResp>(format!("{name}.b"), kind);
    let (ar_tx, ar_rx, h4) = channel::<AxiAddrCmd>(format!("{name}.ar"), kind);
    let (r_tx, r_rx, h5) = channel::<AxiReadBeat>(format!("{name}.r"), kind);
    for h in [&h1, &h4] {
        h.present_tokens(|c, v| c.visit(v));
    }
    h2.present_tokens(|b, v| {
        v.state(b.data);
        v.state(u64::from(b.last));
    });
    h3.present_tokens(|b, v| {
        v.state(u64::from(b.id));
        v.state(u64::from(b.okay));
    });
    h5.present_tokens(|b, v| {
        v.state(u64::from(b.id));
        v.state(b.data);
        v.state(u64::from(b.last) | u64::from(b.okay) << 1);
    });
    (
        AxiMasterPorts {
            aw: aw_tx,
            w: w_tx,
            b: b_rx,
            ar: ar_tx,
            r: r_rx,
        },
        AxiSlavePorts {
            aw: aw_rx,
            w: w_rx,
            b: b_tx,
            ar: ar_rx,
            r: r_tx,
        },
        vec![
            (h1.sequential(), h1.commit_token()),
            (h2.sequential(), h2.commit_token()),
            (h3.sequential(), h3.commit_token()),
            (h4.sequential(), h4.commit_token()),
            (h5.sequential(), h5.commit_token()),
        ],
    )
}

enum WriteState {
    Idle,
    Data { cmd: AxiAddrCmd, beat: u64 },
    Resp { id: u8, okay: bool },
}

enum ReadState {
    Idle,
    Data {
        cmd: AxiAddrCmd,
        beat: u64,
        okay: bool,
    },
}

/// Memory-backed AXI slave: services one write burst and one read
/// burst concurrently (the channels are independent).
pub struct AxiMemorySlave {
    name: String,
    ports: AxiSlavePorts,
    mem: crate::MemArray<u64>,
    /// Writes made to `mem` so far: its generation, which stands for
    /// its contents wherever state is compared.
    mem_writes: u64,
    wstate: WriteState,
    rstate: ReadState,
    /// The last tick moved no beat.
    idle_tick: bool,
}

impl AxiMemorySlave {
    /// A slave backed by `depth` words of zeroed memory.
    pub fn new(name: impl Into<String>, ports: AxiSlavePorts, depth: usize) -> Self {
        AxiMemorySlave {
            name: name.into(),
            ports,
            mem: crate::MemArray::new(depth),
            mem_writes: 0,
            wstate: WriteState::Idle,
            rstate: ReadState::Idle,
            idle_tick: false,
        }
    }

    /// Backdoor read for testbenches.
    pub fn debug_read(&self, addr: usize) -> u64 {
        self.mem.read(addr)
    }

    /// Backdoor load for testbenches.
    pub fn debug_load(&mut self, base: usize, values: &[u64]) {
        self.mem.load(base, values);
        self.mem_writes += 1;
    }

    fn in_range(&self, cmd: AxiAddrCmd) -> bool {
        (cmd.addr + u64::from(cmd.len)) < self.mem.depth() as u64
    }
}

impl Component for AxiMemorySlave {
    fn name(&self) -> &str {
        &self.name
    }

    /// Sleeps while neither engine has a beat to move: both engines
    /// advance only with a successful pop or push, so a tick without
    /// one repeats until a peer acts on a (settled) port.
    fn can_sleep(&self) -> Sleep {
        Sleep::blocked_if(self.idle_tick && self.ports.is_settled())
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        let mut moved = false;
        // Write engine.
        match &mut self.wstate {
            WriteState::Idle => {
                if let Some(cmd) = self.ports.aw.pop_nb() {
                    self.wstate = WriteState::Data { cmd, beat: 0 };
                    moved = true;
                }
            }
            WriteState::Data { cmd, beat } => {
                if let Some(wbeat) = self.ports.w.pop_nb() {
                    moved = true;
                    let addr = cmd.addr + *beat;
                    let okay = (addr as usize) < self.mem.depth();
                    if okay {
                        self.mem.write(addr as usize, wbeat.data);
                        self.mem_writes += 1;
                    }
                    let expected_last = *beat == u64::from(cmd.len);
                    if wbeat.last || expected_last {
                        self.wstate = WriteState::Resp {
                            id: cmd.id,
                            okay: okay && wbeat.last == expected_last,
                        };
                    } else {
                        *beat += 1;
                    }
                }
            }
            WriteState::Resp { id, okay } => {
                let resp = AxiWriteResp {
                    id: *id,
                    okay: *okay,
                };
                if self.ports.b.push_nb(resp).is_ok() {
                    self.wstate = WriteState::Idle;
                    moved = true;
                }
            }
        }
        // Read engine.
        match &mut self.rstate {
            ReadState::Idle => {
                if let Some(cmd) = self.ports.ar.pop_nb() {
                    let okay = self.in_range(cmd);
                    self.rstate = ReadState::Data { cmd, beat: 0, okay };
                    moved = true;
                }
            }
            ReadState::Data { cmd, beat, okay } => {
                let addr = (cmd.addr + *beat) as usize;
                let data = if *okay { self.mem.read(addr) } else { 0 };
                let last = *beat == u64::from(cmd.len);
                let rbeat = AxiReadBeat {
                    id: cmd.id,
                    data,
                    last,
                    okay: *okay,
                };
                if self.ports.r.push_nb(rbeat).is_ok() {
                    moved = true;
                    if last {
                        self.rstate = ReadState::Idle;
                    } else {
                        *beat += 1;
                    }
                }
            }
        }
        self.idle_tick = !moved;
    }

    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        v.state(self.mem_writes);
        match &self.wstate {
            WriteState::Idle => v.state(0),
            WriteState::Data { cmd, beat } => {
                v.state(1);
                cmd.visit(v);
                v.state(*beat);
            }
            WriteState::Resp { id, okay } => {
                v.state(2);
                v.state(u64::from(*id));
                v.state(u64::from(*okay));
            }
        }
        match &self.rstate {
            ReadState::Idle => v.state(0),
            ReadState::Data { cmd, beat, okay } => {
                v.state(1);
                cmd.visit(v);
                v.state(*beat);
                v.state(u64::from(*okay));
            }
        }
        v.state(u64::from(self.idle_tick));
        self.ports.visit_counters(v);
    }
}

/// An operation submitted to an [`AxiMaster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiOp {
    /// Burst write of the words to consecutive addresses.
    Write {
        /// First word address.
        addr: u64,
        /// One word per beat (1..=256 beats).
        data: Vec<u64>,
    },
    /// Burst read of `beats` words.
    Read {
        /// First word address.
        addr: u64,
        /// Number of beats (1..=256).
        beats: u16,
    },
}

/// A completed master operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiResult {
    /// Write finished (OKAY status flag).
    WriteDone {
        /// True on OKAY.
        okay: bool,
    },
    /// Read finished with the returned words.
    ReadDone {
        /// True when every beat returned OKAY.
        okay: bool,
        /// One word per beat.
        data: Vec<u64>,
    },
}

/// Shared handle for submitting ops to / draining results from an
/// [`AxiMaster`].
#[derive(Debug, Clone, Default)]
pub struct AxiMasterHandle {
    queue: Rc<RefCell<VecDeque<AxiOp>>>,
    results: Rc<RefCell<VecDeque<AxiResult>>>,
    /// Set by [`submit`](Self::submit): rouses a sleeping master.
    master_wake: ActivityToken,
    /// Set when the master queues a result: rouses a sleeping client.
    client_wake: ActivityToken,
}

impl AxiMasterHandle {
    /// Creates an empty handle (pass to [`AxiMaster::new`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an operation.
    ///
    /// # Panics
    /// Panics on empty or >256-beat bursts.
    pub fn submit(&self, op: AxiOp) {
        match &op {
            AxiOp::Write { data, .. } => {
                assert!(
                    !data.is_empty() && data.len() <= 256,
                    "burst must be 1..=256 beats"
                );
            }
            AxiOp::Read { beats, .. } => {
                assert!((1..=256).contains(beats), "burst must be 1..=256 beats");
            }
        }
        self.queue.borrow_mut().push_back(op);
        self.master_wake.set();
    }

    /// The token [`submit`](Self::submit) sets. Hand it to the
    /// master's ports and register it as the master's kernel wake
    /// token so an idle master may sleep until the next operation.
    pub fn master_wake(&self) -> ActivityToken {
        self.master_wake.clone()
    }

    /// The token the master sets with every completed
    /// [`result`](Self::result). A component that sleeps while it
    /// waits for one registers it as its kernel wake token.
    pub fn client_wake(&self) -> ActivityToken {
        self.client_wake.clone()
    }

    /// Pops the oldest completed result, if any.
    pub fn result(&self) -> Option<AxiResult> {
        self.results.borrow_mut().pop_front()
    }

    /// Operations still queued or in flight cannot be distinguished
    /// here; this is just the not-yet-started count.
    pub fn pending(&self) -> usize {
        self.queue.borrow().len()
    }

    /// The queued operations and the undelivered results, as state of
    /// the master that owns the handle (the two wake tokens are the
    /// kernel's to look at).
    fn visit_state(&self, v: &mut StateVisitor<'_>) {
        let queue = self.queue.borrow();
        v.state(queue.len() as u64);
        for op in queue.iter() {
            match op {
                AxiOp::Write { addr, data } => {
                    v.state(0);
                    v.state(*addr);
                    visit_words(data, v);
                }
                AxiOp::Read { addr, beats } => {
                    v.state(1);
                    v.state(*addr);
                    v.state(u64::from(*beats));
                }
            }
        }
        let results = self.results.borrow();
        v.state(results.len() as u64);
        for res in results.iter() {
            match res {
                AxiResult::WriteDone { okay } => {
                    v.state(0);
                    v.state(u64::from(*okay));
                }
                AxiResult::ReadDone { okay, data } => {
                    v.state(1);
                    v.state(u64::from(*okay));
                    visit_words(data, v);
                }
            }
        }
    }
}

/// A length-prefixed run of data words, as state.
fn visit_words(words: &[u64], v: &mut StateVisitor<'_>) {
    v.state(words.len() as u64);
    for &w in words {
        v.state(w);
    }
}

enum MasterState {
    Idle,
    Write { data: Vec<u64>, beat: usize },
    AwaitB,
    Read { collected: Vec<u64>, okay: bool },
}

/// Queue-driven AXI master: executes [`AxiOp`]s one at a time, in
/// order.
pub struct AxiMaster {
    name: String,
    ports: AxiMasterPorts,
    handle: AxiMasterHandle,
    state: MasterState,
    next_id: u8,
    /// The last tick moved no beat and left the FSM where it was.
    idle_tick: bool,
}

impl AxiMaster {
    /// Creates a master over `ports`, driven by `handle`.
    pub fn new(name: impl Into<String>, ports: AxiMasterPorts, handle: AxiMasterHandle) -> Self {
        AxiMaster {
            name: name.into(),
            ports,
            handle,
            state: MasterState::Idle,
            next_id: 0,
            idle_tick: false,
        }
    }
}

impl Component for AxiMaster {
    fn name(&self) -> &str {
        &self.name
    }

    /// Sleeps with no operation queued, and while the one in flight
    /// waits on a B or R beat or a full W channel. A refused AW/AR
    /// push is not a no-op (it burns a transaction id), so the master
    /// stays up through that retry.
    fn can_sleep(&self) -> Sleep {
        Sleep::blocked_if(self.idle_tick && self.ports.is_settled())
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        // Every arm below either moves a beat, changes the FSM, or
        // returns early having done neither.
        self.idle_tick = true;
        match &mut self.state {
            MasterState::Idle => {
                let Some(op) = self.handle.queue.borrow_mut().pop_front() else {
                    return;
                };
                self.idle_tick = false;
                let id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                match op {
                    AxiOp::Write { addr, data } => {
                        let cmd = AxiAddrCmd {
                            id,
                            addr,
                            len: (data.len() - 1) as u8,
                        };
                        let cmd_sent = self.ports.aw.push_nb(cmd).is_ok();
                        if !cmd_sent {
                            // Retry next cycle from a staging state.
                            self.handle
                                .queue
                                .borrow_mut()
                                .push_front(AxiOp::Write { addr, data });
                            return;
                        }
                        self.state = MasterState::Write { data, beat: 0 };
                    }
                    AxiOp::Read { addr, beats } => {
                        let cmd = AxiAddrCmd {
                            id,
                            addr,
                            len: (beats - 1) as u8,
                        };
                        if self.ports.ar.push_nb(cmd).is_err() {
                            self.handle
                                .queue
                                .borrow_mut()
                                .push_front(AxiOp::Read { addr, beats });
                            return;
                        }
                        self.state = MasterState::Read {
                            collected: Vec::with_capacity(beats as usize),
                            okay: true,
                        };
                    }
                }
            }
            MasterState::Write { data, beat } => {
                if *beat < data.len() {
                    let wbeat = AxiWriteBeat {
                        data: data[*beat],
                        last: *beat + 1 == data.len(),
                    };
                    if self.ports.w.push_nb(wbeat).is_ok() {
                        *beat += 1;
                        self.idle_tick = false;
                    }
                }
                if *beat == data.len() {
                    self.state = MasterState::AwaitB;
                    self.idle_tick = false;
                }
            }
            MasterState::AwaitB => {
                if let Some(resp) = self.ports.b.pop_nb() {
                    self.handle
                        .results
                        .borrow_mut()
                        .push_back(AxiResult::WriteDone { okay: resp.okay });
                    self.handle.client_wake.set();
                    self.state = MasterState::Idle;
                    self.idle_tick = false;
                }
            }
            MasterState::Read { collected, okay } => {
                if let Some(rbeat) = self.ports.r.pop_nb() {
                    self.idle_tick = false;
                    collected.push(rbeat.data);
                    *okay &= rbeat.okay;
                    if rbeat.last {
                        let data = std::mem::take(collected);
                        self.handle
                            .results
                            .borrow_mut()
                            .push_back(AxiResult::ReadDone { okay: *okay, data });
                        self.handle.client_wake.set();
                        self.state = MasterState::Idle;
                    }
                }
            }
        }
    }

    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        // The transaction id first: of everything in a polling loop it
        // is what takes longest to come round.
        v.state(u64::from(self.next_id));
        match &self.state {
            MasterState::Idle => v.state(0),
            MasterState::Write { data, beat } => {
                v.state(1);
                visit_words(data, v);
                v.state(*beat as u64);
            }
            MasterState::AwaitB => v.state(2),
            MasterState::Read { collected, okay } => {
                v.state(3);
                visit_words(collected, v);
                v.state(u64::from(*okay));
            }
        }
        v.state(u64::from(self.idle_tick));
        self.handle.visit_state(v);
        self.ports.visit_counters(v);
    }
}

/// Address range claimed by a slave behind an [`AxiBus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    /// First word address (inclusive).
    pub base: u64,
    /// Words in the range.
    pub words: u64,
}

impl AddrRange {
    fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.words
    }
}

/// 1-master / N-slave AXI bridge with address decoding. Commands whose
/// address matches no range receive an error response from the bus
/// itself (no slave access), per the AXI default-slave convention.
pub struct AxiBus {
    name: String,
    /// Bus's slave-side ports (facing the master).
    upstream: AxiSlavePorts,
    /// Bus's master-side ports (facing each slave) with their range.
    downstream: Vec<(AddrRange, AxiMasterPorts)>,
    /// Write routing state: which slave the in-flight write went to.
    write_target: Option<usize>,
    write_err_pending: Option<u8>,
    write_beats_to_drop: bool,
    /// Read routing state.
    read_target: Option<usize>,
    read_err_pending: Option<(u8, u8)>,
    /// The last tick moved no beat.
    idle_tick: bool,
}

impl AxiBus {
    /// Builds the bridge. Ranges must not overlap.
    ///
    /// # Panics
    /// Panics if any two ranges overlap.
    pub fn new(
        name: impl Into<String>,
        upstream: AxiSlavePorts,
        downstream: Vec<(AddrRange, AxiMasterPorts)>,
    ) -> Self {
        for (i, (a, _)) in downstream.iter().enumerate() {
            for (b, _) in downstream.iter().skip(i + 1) {
                let disjoint = a.base + a.words <= b.base || b.base + b.words <= a.base;
                assert!(disjoint, "overlapping slave address ranges");
            }
        }
        AxiBus {
            name: name.into(),
            upstream,
            downstream,
            write_target: None,
            write_err_pending: None,
            write_beats_to_drop: false,
            read_target: None,
            read_err_pending: None,
            idle_tick: false,
        }
    }

    fn decode(&self, addr: u64) -> Option<usize> {
        self.downstream
            .iter()
            .position(|(range, _)| range.contains(addr))
    }
}

impl Component for AxiBus {
    fn name(&self) -> &str {
        &self.name
    }

    /// Sleeps while no beat can cross in either direction: routing
    /// state changes only together with a successful pop or push, so a
    /// tick without one repeats until a peer acts on a (settled) port.
    fn can_sleep(&self) -> Sleep {
        Sleep::blocked_if(
            self.idle_tick
                && self.upstream.is_settled()
                && self.downstream.iter().all(|(_, p)| p.is_settled()),
        )
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        let mut moved = false;
        // --- Write path ---
        if self.write_target.is_none() && self.write_err_pending.is_none() {
            if let Some(cmd) = self.upstream.aw.peek() {
                match self.decode(cmd.addr) {
                    Some(slave) => {
                        let local = AxiAddrCmd {
                            addr: cmd.addr - self.downstream[slave].0.base,
                            ..cmd
                        };
                        if self.downstream[slave].1.aw.push_nb(local).is_ok() {
                            let _ = self.upstream.aw.pop_nb();
                            self.write_target = Some(slave);
                            moved = true;
                        }
                    }
                    None => {
                        let _ = self.upstream.aw.pop_nb();
                        self.write_err_pending = Some(cmd.id);
                        self.write_beats_to_drop = true;
                        moved = true;
                    }
                }
            }
        }
        if let Some(slave) = self.write_target {
            // Forward write beats.
            if let Some(beat) = self.upstream.w.peek() {
                if self.downstream[slave].1.w.push_nb(beat).is_ok() {
                    let _ = self.upstream.w.pop_nb();
                    moved = true;
                }
            }
            // Route the response back.
            if let Some(resp) = self.downstream[slave].1.b.pop_nb() {
                moved = true;
                if self.upstream.b.push_nb(resp).is_err() {
                    // Upstream full: retry next cycle. (Response channel
                    // depth should cover this; drop-free by re-staging.)
                    self.write_target = Some(slave);
                } else {
                    self.write_target = None;
                }
            }
        } else if self.write_err_pending.is_some() {
            // Swallow the data beats of the errored write, then respond.
            if self.write_beats_to_drop {
                if let Some(beat) = self.upstream.w.pop_nb() {
                    moved = true;
                    if beat.last {
                        self.write_beats_to_drop = false;
                    }
                }
            }
            if !self.write_beats_to_drop {
                let id = self.write_err_pending.expect("checked some");
                if self
                    .upstream
                    .b
                    .push_nb(AxiWriteResp { id, okay: false })
                    .is_ok()
                {
                    self.write_err_pending = None;
                    moved = true;
                }
            }
        }

        // --- Read path ---
        if self.read_target.is_none() && self.read_err_pending.is_none() {
            if let Some(cmd) = self.upstream.ar.peek() {
                match self.decode(cmd.addr) {
                    Some(slave) => {
                        let local = AxiAddrCmd {
                            addr: cmd.addr - self.downstream[slave].0.base,
                            ..cmd
                        };
                        if self.downstream[slave].1.ar.push_nb(local).is_ok() {
                            let _ = self.upstream.ar.pop_nb();
                            self.read_target = Some(slave);
                            moved = true;
                        }
                    }
                    None => {
                        let _ = self.upstream.ar.pop_nb();
                        self.read_err_pending = Some((cmd.id, cmd.len));
                        moved = true;
                    }
                }
            }
        }
        if let Some(slave) = self.read_target {
            if let Some(beat) = self.downstream[slave].1.r.peek() {
                if self.upstream.r.push_nb(beat).is_ok() {
                    let _ = self.downstream[slave].1.r.pop_nb();
                    moved = true;
                    if beat.last {
                        self.read_target = None;
                    }
                }
            }
        } else if let Some((id, len)) = self.read_err_pending {
            let last = len == 0;
            let beat = AxiReadBeat {
                id,
                data: 0,
                last,
                okay: false,
            };
            if self.upstream.r.push_nb(beat).is_ok() {
                self.read_err_pending = if last { None } else { Some((id, len - 1)) };
                moved = true;
            }
        }
        self.idle_tick = !moved;
    }

    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        let slot = |x: Option<u64>| x.unwrap_or(u64::MAX);
        v.state(slot(self.write_target.map(|t| t as u64)));
        v.state(slot(self.write_err_pending.map(u64::from)));
        v.state(u64::from(self.write_beats_to_drop));
        v.state(slot(self.read_target.map(|t| t as u64)));
        v.state(slot(
            self.read_err_pending
                .map(|(id, len)| u64::from(id) << 8 | u64::from(len)),
        ));
        v.state(u64::from(self.idle_tick));
        self.upstream.visit_counters(v);
        for (_, ports) in &self.downstream {
            ports.visit_counters(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craft_sim::{ClockSpec, Picoseconds, Simulator};

    fn run_ops(ops: Vec<AxiOp>) -> (Vec<AxiResult>, Simulator) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let (mports, sports, seqs) = axi_link("lnk", 2);
        for (s, dirty) in seqs {
            sim.add_sequential_gated(clk, s, dirty);
        }
        let handle = AxiMasterHandle::new();
        for op in ops {
            handle.submit(op);
        }
        sim.add_component(clk, AxiMaster::new("m", mports, handle.clone()));
        sim.add_component(clk, AxiMemorySlave::new("s", sports, 64));
        sim.run_cycles(clk, 500);
        let mut results = Vec::new();
        while let Some(r) = handle.result() {
            results.push(r);
        }
        (results, sim)
    }

    #[test]
    fn single_beat_write_then_read() {
        let (results, _) = run_ops(vec![
            AxiOp::Write {
                addr: 5,
                data: vec![0xABCD],
            },
            AxiOp::Read { addr: 5, beats: 1 },
        ]);
        assert_eq!(
            results,
            vec![
                AxiResult::WriteDone { okay: true },
                AxiResult::ReadDone {
                    okay: true,
                    data: vec![0xABCD]
                },
            ]
        );
    }

    #[test]
    fn burst_write_read_round_trip() {
        let words: Vec<u64> = (100..116).collect();
        let (results, _) = run_ops(vec![
            AxiOp::Write {
                addr: 8,
                data: words.clone(),
            },
            AxiOp::Read { addr: 8, beats: 16 },
        ]);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[1],
            AxiResult::ReadDone {
                okay: true,
                data: words
            }
        );
    }

    #[test]
    fn out_of_range_read_errors() {
        let (results, _) = run_ops(vec![AxiOp::Read {
            addr: 200,
            beats: 1,
        }]);
        assert_eq!(results.len(), 1);
        match &results[0] {
            AxiResult::ReadDone { okay, .. } => assert!(!okay),
            other => panic!("expected read result, got {other:?}"),
        }
    }

    #[test]
    fn bus_decodes_to_correct_slave() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        // master -> bus
        let (mports, bus_up, s1) = axi_link("m2bus", 2);
        // bus -> two slaves at [0,32) and [32,64)
        let (bus_dn0, slave0, s2) = axi_link("bus2s0", 2);
        let (bus_dn1, slave1, s3) = axi_link("bus2s1", 2);
        for (s, dirty) in s1.into_iter().chain(s2).chain(s3) {
            sim.add_sequential_gated(clk, s, dirty);
        }
        let handle = AxiMasterHandle::new();
        handle.submit(AxiOp::Write {
            addr: 3,
            data: vec![111],
        });
        handle.submit(AxiOp::Write {
            addr: 35,
            data: vec![222],
        });
        handle.submit(AxiOp::Read { addr: 35, beats: 1 });
        handle.submit(AxiOp::Read { addr: 99, beats: 1 }); // undecoded
        sim.add_component(clk, AxiMaster::new("m", mports, handle.clone()));
        sim.add_component(
            clk,
            AxiBus::new(
                "bus",
                bus_up,
                vec![
                    (AddrRange { base: 0, words: 32 }, bus_dn0),
                    (
                        AddrRange {
                            base: 32,
                            words: 32,
                        },
                        bus_dn1,
                    ),
                ],
            ),
        );
        sim.add_component(clk, AxiMemorySlave::new("s0", slave0, 32));
        sim.add_component(clk, AxiMemorySlave::new("s1", slave1, 32));
        sim.run_cycles(clk, 800);

        assert_eq!(handle.result(), Some(AxiResult::WriteDone { okay: true }));
        assert_eq!(handle.result(), Some(AxiResult::WriteDone { okay: true }));
        assert_eq!(
            handle.result(),
            Some(AxiResult::ReadDone {
                okay: true,
                data: vec![222]
            })
        );
        match handle.result() {
            Some(AxiResult::ReadDone { okay, .. }) => assert!(!okay, "undecoded must error"),
            other => panic!("missing default-slave response: {other:?}"),
        }
    }
}

#[cfg(test)]
mod bus_burst_tests {
    use super::*;
    use craft_sim::{ClockSpec, Picoseconds, Simulator};

    /// Multi-beat bursts route through the AxiBus to the right slave
    /// with addresses rebased and data intact.
    #[test]
    fn burst_through_bus() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds::new(909)));
        let (mports, bus_up, s1) = axi_link("m2bus", 2);
        let (bus_dn0, slave0, s2) = axi_link("bus2s0", 2);
        let (bus_dn1, slave1, s3) = axi_link("bus2s1", 2);
        for (s, dirty) in s1.into_iter().chain(s2).chain(s3) {
            sim.add_sequential_gated(clk, s, dirty);
        }
        let handle = AxiMasterHandle::new();
        let words: Vec<u64> = (500..532).collect();
        handle.submit(AxiOp::Write {
            addr: 40, // slave 1 local addr 8
            data: words.clone(),
        });
        handle.submit(AxiOp::Read {
            addr: 40,
            beats: 32,
        });
        sim.add_component(clk, AxiMaster::new("m", mports, handle.clone()));
        sim.add_component(
            clk,
            AxiBus::new(
                "bus",
                bus_up,
                vec![
                    (AddrRange { base: 0, words: 32 }, bus_dn0),
                    (
                        AddrRange {
                            base: 32,
                            words: 64,
                        },
                        bus_dn1,
                    ),
                ],
            ),
        );
        sim.add_component(clk, AxiMemorySlave::new("s0", slave0, 32));
        let s1_mem = AxiMemorySlave::new("s1", slave1, 64);
        sim.add_component(clk, s1_mem);
        sim.run_cycles(clk, 2_000);
        assert_eq!(handle.result(), Some(AxiResult::WriteDone { okay: true }));
        assert_eq!(
            handle.result(),
            Some(AxiResult::ReadDone {
                okay: true,
                data: words
            })
        );
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use craft_sim::{ClockSpec, Picoseconds, Simulator};

    /// Master → bus → two slaves with every component on a wake token;
    /// a late second batch of operations exercises the `submit` wake.
    /// Returns each result with the cycle it became readable, and the
    /// kernel's skipped-tick count.
    fn run(gating: bool) -> (Vec<(u64, AxiResult)>, u64) {
        let mut sim = Simulator::new();
        sim.set_gating(gating);
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let (mports, bus_up, s1) = axi_link("m2bus", 2);
        let (bus_dn0, slave0, s2) = axi_link("bus2s0", 2);
        let (bus_dn1, slave1, s3) = axi_link("bus2s1", 2);
        for (s, dirty) in s1.into_iter().chain(s2).chain(s3) {
            sim.add_sequential_gated(clk, s, dirty);
        }
        let handle = AxiMasterHandle::new();
        let master_wake = handle.master_wake();
        mports.set_wake_token(&master_wake);
        let id = sim.add_component(clk, AxiMaster::new("m", mports, handle.clone()));
        sim.set_wake_token(id, master_wake);
        let bus_wake = ActivityToken::new();
        bus_up.set_wake_token(&bus_wake);
        bus_dn0.set_wake_token(&bus_wake);
        bus_dn1.set_wake_token(&bus_wake);
        let id = sim.add_component(
            clk,
            AxiBus::new(
                "bus",
                bus_up,
                vec![
                    (AddrRange { base: 0, words: 32 }, bus_dn0),
                    (
                        AddrRange {
                            base: 32,
                            words: 32,
                        },
                        bus_dn1,
                    ),
                ],
            ),
        );
        sim.set_wake_token(id, bus_wake);
        for (name, ports) in [("s0", slave0), ("s1", slave1)] {
            let wake = ActivityToken::new();
            ports.set_wake_token(&wake);
            let id = sim.add_component(clk, AxiMemorySlave::new(name, ports, 32));
            sim.set_wake_token(id, wake);
        }

        let words: Vec<u64> = (500..516).collect();
        handle.submit(AxiOp::Write {
            addr: 40,
            data: words,
        });
        handle.submit(AxiOp::Read {
            addr: 40,
            beats: 16,
        });
        handle.submit(AxiOp::Read { addr: 99, beats: 2 }); // undecoded
        let mut results = Vec::new();
        for cycle in 0..400u64 {
            if cycle == 250 {
                // Everything is asleep by now.
                handle.submit(AxiOp::Write {
                    addr: 3,
                    data: vec![7],
                });
                handle.submit(AxiOp::Read { addr: 3, beats: 1 });
            }
            sim.run_cycles(clk, 1);
            while let Some(r) = handle.result() {
                results.push((cycle, r));
            }
        }
        (results, sim.ticks_skipped())
    }

    #[test]
    fn sleeping_axi_plane_is_cycle_identical() {
        let (on, skipped_on) = run(true);
        let (off, skipped_off) = run(false);
        assert_eq!(on.len(), 5, "{on:?}");
        assert_eq!(on, off, "a result arrived on a different cycle");
        assert_eq!(
            on[4].1,
            AxiResult::ReadDone {
                okay: true,
                data: vec![7]
            }
        );
        assert_eq!(skipped_off, 0);
        // 4 components x 400 cycles; the plane is busy for well under
        // half of them.
        assert!(skipped_on > 800, "the plane barely slept: {skipped_on}");
    }
}
