//! RV32IM instruction-set simulator.
//!
//! The paper's prototype SoC embeds a Chisel-generated Rocket RISC-V
//! core as the global controller; this ISS plays that role in the
//! reproduction (see DESIGN.md §1 for the substitution argument).

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSize {
    /// 8 bits.
    Byte,
    /// 16 bits.
    Half,
    /// 32 bits.
    Word,
}

/// The CPU's view of the memory system (and MMIO).
pub trait Bus {
    /// Loads a zero-extended value of the given size.
    fn load(&mut self, addr: u32, size: AccessSize) -> u32;
    /// Stores the low bits of `value`.
    fn store(&mut self, addr: u32, value: u32, size: AccessSize);
}

/// Flat RAM bus for standalone use.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    bytes: Vec<u8>,
    /// Stores made so far.
    writes: u64,
}

impl FlatMemory {
    /// `size` bytes of zeroed RAM.
    pub fn new(size: usize) -> Self {
        FlatMemory {
            bytes: vec![0; size],
            writes: 0,
        }
    }

    /// The write generation: how many stores this memory has taken.
    /// Two reads of the same generation saw the same contents, so it
    /// stands in for them wherever state is compared without copying a
    /// megabyte.
    pub fn write_generation(&self) -> u64 {
        self.writes
    }

    /// Loads little-endian words at `base`.
    pub fn load_words(&mut self, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.store(base + (i as u32) * 4, w, AccessSize::Word);
        }
    }

    /// Reads a word for testbench inspection.
    pub fn read_word(&mut self, addr: u32) -> u32 {
        self.load(addr, AccessSize::Word)
    }
}

impl Bus for FlatMemory {
    fn load(&mut self, addr: u32, size: AccessSize) -> u32 {
        let a = addr as usize;
        match size {
            AccessSize::Byte => u32::from(self.bytes[a]),
            AccessSize::Half => u32::from(self.bytes[a]) | (u32::from(self.bytes[a + 1]) << 8),
            AccessSize::Word => {
                u32::from(self.bytes[a])
                    | (u32::from(self.bytes[a + 1]) << 8)
                    | (u32::from(self.bytes[a + 2]) << 16)
                    | (u32::from(self.bytes[a + 3]) << 24)
            }
        }
    }

    fn store(&mut self, addr: u32, value: u32, size: AccessSize) {
        let a = addr as usize;
        self.writes += 1;
        match size {
            AccessSize::Byte => self.bytes[a] = value as u8,
            AccessSize::Half => {
                self.bytes[a] = value as u8;
                self.bytes[a + 1] = (value >> 8) as u8;
            }
            AccessSize::Word => {
                self.bytes[a] = value as u8;
                self.bytes[a + 1] = (value >> 8) as u8;
                self.bytes[a + 2] = (value >> 16) as u8;
                self.bytes[a + 3] = (value >> 24) as u8;
            }
        }
    }
}

/// Why [`Cpu::step`] stopped normal execution, if it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Instruction retired normally.
    Retired,
    /// `ecall` executed (environment call — the SoC uses it as HALT).
    Ecall,
    /// `ebreak` executed.
    Ebreak,
}

/// RV32IM hart state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// x0..x31 (x0 reads as zero).
    regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Instructions retired.
    pub instret: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A hart reset to PC 0.
    pub fn new() -> Self {
        Cpu {
            regs: [0; 32],
            pc: 0,
            instret: 0,
        }
    }

    /// Reads register `r` (x0 is always zero).
    pub fn reg(&self, r: u32) -> u32 {
        self.regs[r as usize]
    }

    /// Writes register `r` (writes to x0 are ignored).
    pub fn set_reg(&mut self, r: u32, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Fetches, decodes and executes one instruction against `bus`.
    ///
    /// # Panics
    /// Panics on an illegal/unsupported opcode — controller programs
    /// in this repo are trusted, so an illegal instruction is a bug.
    pub fn step(&mut self, bus: &mut impl Bus) -> StepOutcome {
        let inst = bus.load(self.pc, AccessSize::Word);
        let opcode = inst & 0x7F;
        let rd = (inst >> 7) & 0x1F;
        let rs1 = (inst >> 15) & 0x1F;
        let rs2 = (inst >> 20) & 0x1F;
        let funct3 = (inst >> 12) & 0x7;
        let funct7 = inst >> 25;
        let mut next_pc = self.pc.wrapping_add(4);
        let mut outcome = StepOutcome::Retired;

        match opcode {
            0b0110111 => self.set_reg(rd, inst & 0xFFFF_F000), // lui
            0b0010111 => self.set_reg(rd, self.pc.wrapping_add(inst & 0xFFFF_F000)), // auipc
            0b1101111 => {
                // jal (bit 31 sign-extends)
                let imm = (((inst as i32) >> 31) << 20)
                    | ((((inst >> 21) & 0x3FF) as i32) << 1)
                    | ((((inst >> 20) & 1) as i32) << 11)
                    | ((((inst >> 12) & 0xFF) as i32) << 12);
                self.set_reg(rd, next_pc);
                next_pc = self.pc.wrapping_add(imm as u32);
            }
            0b1100111 => {
                // jalr
                let imm = (inst as i32) >> 20;
                let target = self.reg(rs1).wrapping_add(imm as u32) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
            }
            0b1100011 => {
                // branches (bit 31 sign-extends)
                let imm = (((inst as i32) >> 31) << 12)
                    | ((((inst >> 25) & 0x3F) as i32) << 5)
                    | ((((inst >> 8) & 0xF) as i32) << 1)
                    | ((((inst >> 7) & 1) as i32) << 11);
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match funct3 {
                    0b000 => a == b,
                    0b001 => a != b,
                    0b100 => (a as i32) < (b as i32),
                    0b101 => (a as i32) >= (b as i32),
                    0b110 => a < b,
                    0b111 => a >= b,
                    _ => panic!("illegal branch funct3 {funct3}"),
                };
                if taken {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            0b0000011 => {
                // loads
                let imm = (inst as i32) >> 20;
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = match funct3 {
                    0b000 => bus.load(addr, AccessSize::Byte) as i8 as i32 as u32,
                    0b001 => bus.load(addr, AccessSize::Half) as i16 as i32 as u32,
                    0b010 => bus.load(addr, AccessSize::Word),
                    0b100 => bus.load(addr, AccessSize::Byte),
                    0b101 => bus.load(addr, AccessSize::Half),
                    _ => panic!("illegal load funct3 {funct3}"),
                };
                self.set_reg(rd, v);
            }
            0b0100011 => {
                // stores
                let imm = (((inst >> 25) as i32) << 5 | ((inst >> 7) & 0x1F) as i32) << 20 >> 20;
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = self.reg(rs2);
                match funct3 {
                    0b000 => bus.store(addr, v, AccessSize::Byte),
                    0b001 => bus.store(addr, v, AccessSize::Half),
                    0b010 => bus.store(addr, v, AccessSize::Word),
                    _ => panic!("illegal store funct3 {funct3}"),
                }
            }
            0b0010011 => {
                // op-imm
                let imm = (inst as i32) >> 20;
                let a = self.reg(rs1);
                let shamt = rs2;
                let v = match funct3 {
                    0b000 => a.wrapping_add(imm as u32),
                    0b010 => u32::from((a as i32) < imm),
                    0b011 => u32::from(a < imm as u32),
                    0b100 => a ^ imm as u32,
                    0b110 => a | imm as u32,
                    0b111 => a & imm as u32,
                    0b001 => a.wrapping_shl(shamt),
                    0b101 => {
                        if funct7 & 0x20 != 0 {
                            ((a as i32) >> shamt) as u32
                        } else {
                            a.wrapping_shr(shamt)
                        }
                    }
                    _ => unreachable!(),
                };
                self.set_reg(rd, v);
            }
            0b0110011 => {
                // op / M extension
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = if funct7 == 0b0000001 {
                    match funct3 {
                        0b000 => a.wrapping_mul(b),
                        0b001 => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
                        0b010 => ((i64::from(a as i32) * b as i64) >> 32) as u32,
                        0b011 => ((u64::from(a) * u64::from(b)) >> 32) as u32,
                        0b100 => {
                            // div: spec'd edge cases.
                            if b == 0 {
                                u32::MAX
                            } else if a == 0x8000_0000 && b == u32::MAX {
                                a
                            } else {
                                ((a as i32) / (b as i32)) as u32
                            }
                        }
                        // RISC-V defines divu-by-zero as all-ones.
                        0b101 => a.checked_div(b).unwrap_or(u32::MAX),
                        0b110 => {
                            if b == 0 {
                                a
                            } else if a == 0x8000_0000 && b == u32::MAX {
                                0
                            } else {
                                ((a as i32) % (b as i32)) as u32
                            }
                        }
                        0b111 => {
                            if b == 0 {
                                a
                            } else {
                                a % b
                            }
                        }
                        _ => unreachable!(),
                    }
                } else {
                    match (funct7, funct3) {
                        (0b0000000, 0b000) => a.wrapping_add(b),
                        (0b0100000, 0b000) => a.wrapping_sub(b),
                        (0b0000000, 0b001) => a.wrapping_shl(b & 31),
                        (0b0000000, 0b010) => u32::from((a as i32) < (b as i32)),
                        (0b0000000, 0b011) => u32::from(a < b),
                        (0b0000000, 0b100) => a ^ b,
                        (0b0000000, 0b101) => a.wrapping_shr(b & 31),
                        (0b0100000, 0b101) => ((a as i32) >> (b & 31)) as u32,
                        (0b0000000, 0b110) => a | b,
                        (0b0000000, 0b111) => a & b,
                        _ => panic!("illegal R-type funct7={funct7:#b} funct3={funct3:#b}"),
                    }
                };
                self.set_reg(rd, v);
            }
            0b0001111 => {} // fence: no-op in this model
            0b1110011 => {
                outcome = if (inst >> 20) & 1 == 0 {
                    StepOutcome::Ecall
                } else {
                    StepOutcome::Ebreak
                };
            }
            _ => panic!("illegal opcode {opcode:#09b} at pc {:#010x}", self.pc),
        }
        self.pc = next_pc;
        self.instret += 1;
        outcome
    }

    /// Runs until `ecall`/`ebreak` or `max_steps`, returning the halt
    /// outcome if one occurred.
    pub fn run(&mut self, bus: &mut impl Bus, max_steps: u64) -> Option<StepOutcome> {
        for _ in 0..max_steps {
            match self.step(bus) {
                StepOutcome::Retired => {}
                halt => return Some(halt),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode as rv;
    use crate::encode::{Assembler, A0, A1, A2, T0, T1, ZERO};

    fn run_program(words: Vec<u32>, max: u64) -> (Cpu, FlatMemory) {
        let mut mem = FlatMemory::new(64 * 1024);
        mem.load_words(0, &words);
        let mut cpu = Cpu::new();
        let halt = cpu.run(&mut mem, max);
        assert_eq!(halt, Some(StepOutcome::Ecall), "program must halt");
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_immediates() {
        let mut a = Assembler::new();
        a.emit_all(rv::li(A0, 1000));
        a.emit_all(rv::li(A1, -58));
        a.emit(rv::add(A2, A0, A1));
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 100);
        assert_eq!(cpu.reg(A2), 942);
    }

    #[test]
    fn fibonacci_loop() {
        // fib(12) = 144 via an iterative loop.
        let mut a = Assembler::new();
        a.emit_all(rv::li(T0, 12)); // counter
        a.emit_all(rv::li(A0, 0));
        a.emit_all(rv::li(A1, 1));
        let top = a.label();
        a.emit(rv::add(T1, A0, A1));
        a.emit(rv::addi(A0, A1, 0));
        a.emit(rv::addi(A1, T1, 0));
        a.emit(rv::addi(T0, T0, -1));
        a.branch_to(top, |off| rv::bne(T0, ZERO, off));
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 1000);
        assert_eq!(cpu.reg(A0), 144);
    }

    #[test]
    fn memory_bytes_halves_words() {
        let mut a = Assembler::new();
        a.emit_all(rv::li(T0, 0x1000));
        a.emit_all(rv::li(T1, 0x8081_8283u32 as i32));
        a.emit(rv::sw(T1, T0, 0));
        a.emit(rv::lb(A0, T0, 0)); // sign-extended 0x83
        a.emit(rv::lbu(A1, T0, 0)); // zero-extended
        a.emit(rv::lhu(A2, T0, 2)); // 0x8081
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 100);
        assert_eq!(cpu.reg(A0), 0xFFFF_FF83);
        assert_eq!(cpu.reg(A1), 0x83);
        assert_eq!(cpu.reg(A2), 0x8081);
    }

    #[test]
    fn m_extension_edge_cases() {
        let mut a = Assembler::new();
        a.emit_all(rv::li(T0, 7));
        a.emit_all(rv::li(T1, 0));
        a.emit(rv::div(A0, T0, T1)); // div by zero -> -1
        a.emit(rv::rem(A1, T0, T1)); // rem by zero -> dividend
        a.emit_all(rv::li(T0, i32::MIN));
        a.emit_all(rv::li(T1, -1));
        a.emit(rv::div(A2, T0, T1)); // overflow -> MIN
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 100);
        assert_eq!(cpu.reg(A0), u32::MAX);
        assert_eq!(cpu.reg(A1), 7);
        assert_eq!(cpu.reg(A2), 0x8000_0000);
    }

    #[test]
    fn mulh_variants() {
        let mut a = Assembler::new();
        a.emit_all(rv::li(T0, -2));
        a.emit_all(rv::li(T1, 3));
        a.emit(rv::mulh(A0, T0, T1)); // -6 >> 32 = -1
        a.emit(rv::mulhu(A1, T0, T1)); // (2^32-2)*3 >> 32 = 2
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 100);
        assert_eq!(cpu.reg(A0), u32::MAX);
        assert_eq!(cpu.reg(A1), 2);
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut a = Assembler::new();
        let func = a.forward_label();
        a.jal_to(rv::RA, func);
        a.emit(rv::ecall()); // return lands here
        a.place(func);
        a.emit_all(rv::li(A0, 99));
        a.emit(rv::jalr(ZERO, rv::RA, 0));
        let (cpu, _) = run_program(a.finish(), 100);
        assert_eq!(cpu.reg(A0), 99);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut a = Assembler::new();
        a.emit(rv::addi(ZERO, ZERO, 100));
        a.emit(rv::addi(A0, ZERO, 0));
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 10);
        assert_eq!(cpu.reg(A0), 0);
    }

    #[test]
    fn shifts_logical_and_arithmetic() {
        let mut a = Assembler::new();
        a.emit_all(rv::li(T0, -16));
        a.emit(rv::srai(A0, T0, 2)); // -4
        a.emit(rv::srli(A1, T0, 2)); // big positive
        a.emit(rv::slli(A2, T0, 1)); // -32
        a.emit(rv::ecall());
        let (cpu, _) = run_program(a.finish(), 10);
        assert_eq!(cpu.reg(A0) as i32, -4);
        assert_eq!(cpu.reg(A1), 0xFFFF_FFF0u32 >> 2);
        assert_eq!(cpu.reg(A2) as i32, -32);
    }

    #[test]
    fn memcpy_program() {
        let mut a = Assembler::new();
        a.emit_all(rv::li(A0, 0x1000)); // src
        a.emit_all(rv::li(A1, 0x2000)); // dst
        a.emit_all(rv::li(A2, 8)); // words
        let top = a.label();
        a.emit(rv::lw(T0, A0, 0));
        a.emit(rv::sw(T0, A1, 0));
        a.emit(rv::addi(A0, A0, 4));
        a.emit(rv::addi(A1, A1, 4));
        a.emit(rv::addi(A2, A2, -1));
        a.branch_to(top, |off| rv::bne(A2, ZERO, off));
        a.emit(rv::ecall());
        let prog = a.finish();

        let mut mem = FlatMemory::new(64 * 1024);
        mem.load_words(0, &prog);
        let src: Vec<u32> = (0..8).map(|i| 0xA0 + i).collect();
        mem.load_words(0x1000, &src);
        let mut cpu = Cpu::new();
        assert_eq!(cpu.run(&mut mem, 1000), Some(StepOutcome::Ecall));
        for i in 0..8u32 {
            assert_eq!(mem.read_word(0x2000 + i * 4), 0xA0 + i);
        }
    }

    #[test]
    #[should_panic(expected = "illegal opcode")]
    fn illegal_instruction_panics() {
        let mut mem = FlatMemory::new(1024);
        mem.load_words(0, &[0xFFFF_FFFF]);
        let mut cpu = Cpu::new();
        let _ = cpu.step(&mut mem);
    }
}
