//! The RISC-V global controller (Fig. 5): an RV32IM hart whose MMIO
//! accesses travel over a real MatchLib AXI bus.
//!
//! "The RISC-V processor acts as a global controller, initiating the
//! execution by configuring the control registers in PE and global
//! memory and orchestrating the data transfer across different levels
//! in the memory hierarchy."
//!
//! Because [`craft_riscv::Bus`] is synchronous while AXI transactions
//! take many cycles, the controller uses **trial-step execution**:
//! each cycle it executes the next instruction against a recording
//! bus; if the instruction touched the AXI window, the architectural
//! step is discarded, the AXI operation is issued through the
//! `AxiMaster` handle, and the controller stalls until the response
//! arrives — then replays the instruction with the real data. Stores
//! are posted (committed immediately, one outstanding).

use craft_matchlib::axi::{AxiMasterHandle, AxiOp, AxiResult};
use craft_riscv::{AccessSize, Bus, Cpu, FlatMemory, StepOutcome};
use craft_sim::{Component, Sleep, StateVisitor, TickCtx};
use std::cell::RefCell;
use std::rc::Rc;

/// Byte address where the AXI window begins in the controller's
/// address space. Byte address `AXI_WINDOW_BASE + 4*w` maps to AXI
/// word address `w`.
pub const AXI_WINDOW_BASE: u32 = 0x4000_0000;

/// Observable controller status shared with the harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CtrlStatus {
    /// The program executed `ecall` (orchestration finished).
    pub halted: bool,
    /// Instructions retired.
    pub instret: u64,
    /// Cycles stalled waiting on AXI.
    pub axi_stall_cycles: u64,
    /// AXI operations issued.
    pub axi_ops: u64,
}

/// Shared handle to controller status.
pub type CtrlHandle = Rc<RefCell<CtrlStatus>>;

/// What a trial step observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxiAccess {
    Load { word_addr: u64 },
    Store { word_addr: u64, value: u32 },
}

/// Recording bus: local RAM reads pass through; local writes are
/// deferred; the first AXI access is recorded and fed `axi_value`.
struct TrialBus<'a> {
    ram: &'a mut FlatMemory,
    local_writes: Vec<(u32, u32, AccessSize)>,
    axi_access: Option<AxiAccess>,
    axi_value: Option<u32>,
}

impl Bus for TrialBus<'_> {
    fn load(&mut self, addr: u32, size: AccessSize) -> u32 {
        if addr >= AXI_WINDOW_BASE {
            assert_eq!(
                size,
                AccessSize::Word,
                "AXI window supports word access only"
            );
            let word_addr = u64::from(addr - AXI_WINDOW_BASE) / 4;
            if self.axi_access.is_none() {
                self.axi_access = Some(AxiAccess::Load { word_addr });
            }
            return self.axi_value.unwrap_or(0);
        }
        // Serve local loads, honoring deferred writes this step.
        for &(wa, wv, wsz) in self.local_writes.iter().rev() {
            if wa == addr && wsz == AccessSize::Word && size == AccessSize::Word {
                return wv;
            }
        }
        self.ram.load(addr, size)
    }

    fn store(&mut self, addr: u32, value: u32, size: AccessSize) {
        if addr >= AXI_WINDOW_BASE {
            assert_eq!(
                size,
                AccessSize::Word,
                "AXI window supports word access only"
            );
            let word_addr = u64::from(addr - AXI_WINDOW_BASE) / 4;
            if self.axi_access.is_none() {
                self.axi_access = Some(AxiAccess::Store { word_addr, value });
            }
            return;
        }
        self.local_writes.push((addr, value, size));
    }
}

enum AxiState {
    Idle,
    /// A read was issued for this word; replay the instruction when
    /// the value arrives.
    AwaitRead {
        word_addr: u64,
    },
    /// A posted write is in flight; new AXI ops must wait for the B
    /// response (one outstanding).
    AwaitWriteAck,
}

/// The controller component.
pub struct Controller {
    name: String,
    cpu: Cpu,
    ram: FlatMemory,
    axi: AxiMasterHandle,
    axi_state: AxiState,
    status: CtrlHandle,
    /// The last tick only counted a stall cycle: an AXI result is
    /// awaited and none had arrived.
    stalled: bool,
}

impl Controller {
    /// Builds a controller with `ram` (program preloaded) and an AXI
    /// master handle wired to the SoC's bus.
    pub fn new(
        name: impl Into<String>,
        ram: FlatMemory,
        axi: AxiMasterHandle,
        status: CtrlHandle,
    ) -> Self {
        Controller {
            name: name.into(),
            cpu: Cpu::new(),
            ram,
            axi,
            axi_state: AxiState::Idle,
            status,
            stalled: false,
        }
    }
}

impl Component for Controller {
    fn name(&self) -> &str {
        &self.name
    }

    /// Sleeps through an AXI stall: in `AwaitRead` / `AwaitWriteAck`
    /// with no result queued the tick only counts a stall cycle, and
    /// the result can only come from the master, which sets the
    /// handle's client wake token with it.
    fn can_sleep(&self) -> Sleep {
        Sleep::blocked_if(self.stalled)
    }

    fn ticks_skipped(&mut self, n: u64) {
        self.status.borrow_mut().axi_stall_cycles += n;
    }

    /// The hart (registers and PC; `instret` only counts), the RAM by
    /// its write generation, the AXI wait state and `halted` are
    /// state; the rest of [`CtrlStatus`] counts. The AXI handle's
    /// queues are the master's to present.
    fn visit_state(&mut self, v: &mut StateVisitor<'_>) {
        v.state(u64::from(self.cpu.pc));
        for r in 1..32 {
            v.state(u64::from(self.cpu.reg(r)));
        }
        v.counter(&mut self.cpu.instret);
        v.state(self.ram.write_generation());
        match self.axi_state {
            AxiState::Idle => v.state(0),
            AxiState::AwaitRead { word_addr } => {
                v.state(1);
                v.state(word_addr);
            }
            AxiState::AwaitWriteAck => v.state(2),
        }
        v.state(u64::from(self.stalled));
        let mut status = self.status.borrow_mut();
        v.state(u64::from(status.halted));
        v.counter(&mut status.instret);
        v.counter(&mut status.axi_stall_cycles);
        v.counter(&mut status.axi_ops);
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        let mut status = self.status.borrow_mut();
        self.stalled = false;
        if status.halted {
            return;
        }

        // Resolve in-flight AXI activity first.
        let mut read_value: Option<(u64, u32)> = None;
        match &self.axi_state {
            AxiState::Idle => {}
            AxiState::AwaitRead { word_addr } => match self.axi.result() {
                Some(AxiResult::ReadDone { okay, data }) => {
                    assert!(okay, "controller AXI read failed");
                    read_value = Some((*word_addr, data[0] as u32));
                    self.axi_state = AxiState::Idle;
                }
                Some(other) => panic!("unexpected AXI result {other:?}"),
                None => {
                    status.axi_stall_cycles += 1;
                    self.stalled = true;
                    return;
                }
            },
            AxiState::AwaitWriteAck => match self.axi.result() {
                Some(AxiResult::WriteDone { okay }) => {
                    assert!(okay, "controller AXI write failed");
                    self.axi_state = AxiState::Idle;
                }
                Some(other) => panic!("unexpected AXI result {other:?}"),
                None => {
                    status.axi_stall_cycles += 1;
                    self.stalled = true;
                    return;
                }
            },
        }

        // Trial-execute one instruction on a CPU clone.
        let mut trial_cpu = self.cpu.clone();
        let mut bus = TrialBus {
            ram: &mut self.ram,
            local_writes: Vec::new(),
            axi_access: None,
            axi_value: read_value.map(|(_, v)| v),
        };
        let outcome = trial_cpu.step(&mut bus);
        let axi_access = bus.axi_access;
        let local_writes = bus.local_writes;

        match axi_access {
            None => {
                // Pure local instruction: commit.
                for (addr, value, size) in local_writes {
                    self.ram.store(addr, value, size);
                }
                self.cpu = trial_cpu;
                status.instret = self.cpu.instret;
                if outcome != StepOutcome::Retired {
                    status.halted = true;
                }
            }
            Some(AxiAccess::Load { word_addr }) => {
                match read_value {
                    Some((cached_addr, _)) if cached_addr == word_addr => {
                        // Replayed with the real value: commit.
                        for (addr, value, size) in local_writes {
                            self.ram.store(addr, value, size);
                        }
                        self.cpu = trial_cpu;
                        status.instret = self.cpu.instret;
                        if outcome != StepOutcome::Retired {
                            status.halted = true;
                        }
                    }
                    _ => {
                        // Issue the read and stall; the trial is
                        // discarded.
                        self.axi.submit(AxiOp::Read {
                            addr: word_addr,
                            beats: 1,
                        });
                        status.axi_ops += 1;
                        self.axi_state = AxiState::AwaitRead { word_addr };
                    }
                }
            }
            Some(AxiAccess::Store { word_addr, value }) => {
                // Posted write: issue and commit the step.
                self.axi.submit(AxiOp::Write {
                    addr: word_addr,
                    data: vec![u64::from(value)],
                });
                status.axi_ops += 1;
                self.axi_state = AxiState::AwaitWriteAck;
                for (addr, v, size) in local_writes {
                    self.ram.store(addr, v, size);
                }
                self.cpu = trial_cpu;
                status.instret = self.cpu.instret;
                if outcome != StepOutcome::Retired {
                    status.halted = true;
                }
            }
        }
    }
}
