//! The six SoC-level tests of Fig. 6 and the RISC-V orchestration
//! program that drives them.
//!
//! Each workload is a command table the controller walks: it issues
//! waves of PE commands through the hub doorbell (over AXI), waits on
//! the done counter at barriers, and `ecall`s when everything retired.
//! Expected results are computed by an independent Rust reference with
//! the same wrapping-u64 semantics as the PE datapath.

use crate::hub::ctrl;
use crate::msg::{PeCommand, PeOp, N_PES};
use crate::soc::{RunResult, Soc, SocConfig, CTRL_CPU_BASE, STAGING_CPU_BASE};
use craft_riscv::asm::{self as rv, Assembler, S0, S1, T0, T1, T2, T3, ZERO};

/// Table sentinel: wait until all issued commands are done.
const BARRIER: u32 = 0xFFFF_FFFE;
/// Table sentinel: end of program.
const END: u32 = 0xFFFF_FFFF;

/// One entry of a workload's command table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableEntry {
    /// Issue `cmd` to PE `pe`.
    Cmd {
        /// Target PE node.
        pe: u16,
        /// The command.
        cmd: PeCommand,
    },
    /// Wait for all previously issued commands to complete.
    Barrier,
}

/// A complete SoC-level test.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Test name (Fig. 6 series label).
    pub name: &'static str,
    /// Initial global-memory regions.
    pub gmem_init: Vec<(usize, Vec<u64>)>,
    /// Command table.
    pub entries: Vec<TableEntry>,
    /// Regions that must hold these values after the run.
    pub expected: Vec<(usize, Vec<u64>)>,
}

/// The generic RISC-V orchestrator: walks the staging-memory command
/// table, writes doorbells, honors barriers, halts at the end marker.
pub fn orchestrator_program() -> Vec<u32> {
    let mut a = Assembler::new();
    // s0 = table pointer, s1 = hub control page, t2 = issued count.
    a.emit_all(rv::li(S0, STAGING_CPU_BASE as i32));
    a.emit_all(rv::li(S1, CTRL_CPU_BASE as i32));
    a.emit(rv::addi(T2, ZERO, 0));

    let main_loop = a.label();
    a.emit(rv::lw(T0, S0, 0)); // target word
    let do_barrier = a.forward_label();
    let finish = a.forward_label();
    a.emit(rv::addi(T1, ZERO, -2)); // BARRIER
    a.branch_to(do_barrier, |off| rv::beq(T0, T1, off));
    a.emit(rv::addi(T1, ZERO, -1)); // END
    a.branch_to(finish, |off| rv::beq(T0, T1, off));
    // Issue: target, lo, hi, commit.
    a.emit(rv::sw(T0, S1, (ctrl::TARGET * 4) as i32));
    a.emit(rv::lw(T1, S0, 4));
    a.emit(rv::sw(T1, S1, (ctrl::CMD_LO * 4) as i32));
    a.emit(rv::lw(T1, S0, 8));
    a.emit(rv::sw(T1, S1, (ctrl::CMD_HI * 4) as i32));
    a.emit(rv::sw(ZERO, S1, (ctrl::COMMIT * 4) as i32));
    a.emit(rv::addi(T2, T2, 1));
    a.emit(rv::addi(S0, S0, 12));
    a.jal_to(ZERO, main_loop);

    a.place(do_barrier);
    a.emit(rv::addi(S0, S0, 12));
    let poll = a.label();
    a.emit(rv::lw(T3, S1, (ctrl::DONE_COUNT * 4) as i32));
    a.branch_to(poll, |off| rv::bne(T3, T2, off));
    a.jal_to(ZERO, main_loop);

    a.place(finish);
    let poll2 = a.label();
    a.emit(rv::lw(T3, S1, (ctrl::DONE_COUNT * 4) as i32));
    a.branch_to(poll2, |off| rv::bne(T3, T2, off));
    a.emit(rv::ecall());
    a.finish()
}

/// Serializes a command table into staging-memory words.
pub fn table_words(entries: &[TableEntry]) -> Vec<u32> {
    let mut w = Vec::with_capacity(entries.len() * 3 + 3);
    for e in entries {
        match e {
            TableEntry::Cmd { pe, cmd } => {
                let packed = cmd.pack();
                w.push(u32::from(*pe));
                w.push(packed as u32);
                w.push((packed >> 32) as u32);
            }
            TableEntry::Barrier => {
                w.extend([BARRIER, 0, 0]);
            }
        }
    }
    w.extend([END, 0, 0]);
    w
}

/// Splits commands into waves of at most [`N_PES`], each wave assigned
/// to distinct PEs and separated by barriers.
fn waves(cmds: Vec<PeCommand>) -> Vec<TableEntry> {
    let mut entries = Vec::new();
    for wave in cmds.chunks(N_PES as usize) {
        for (i, &cmd) in wave.iter().enumerate() {
            entries.push(TableEntry::Cmd { pe: i as u16, cmd });
        }
        entries.push(TableEntry::Barrier);
    }
    entries
}

/// Deterministic test vector: small pseudo-random words.
fn data(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x >> 40) & 0xFFFF
        })
        .collect()
}

/// Test 1: element-wise vector multiply across 4 PEs.
pub fn vec_mul() -> Workload {
    let n = 256;
    let per = 64;
    let a = data(1, n);
    let b = data(2, n);
    let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_mul(y)).collect();
    let cmds = (0..n / per)
        .map(|i| PeCommand {
            op: PeOp::VecMul,
            a: (i * per) as u16,
            b: (512 + i * per) as u16,
            out: (2048 + i * per) as u16,
            len: per as u16,
            scalar: 0,
        })
        .collect();
    Workload {
        name: "vec_mul",
        gmem_init: vec![(0, a), (512, b)],
        entries: waves(cmds),
        expected: vec![(2048, expect)],
    }
}

/// Test 2: 512-element dot product: 8 partial dots then a reduce.
pub fn dot_product() -> Workload {
    let n = 512;
    let per = 64;
    let a = data(3, n);
    let b = data(4, n);
    let total: u64 = a
        .iter()
        .zip(&b)
        .fold(0u64, |acc, (&x, &y)| acc.wrapping_add(x.wrapping_mul(y)));
    let mut cmds: Vec<PeCommand> = (0..n / per)
        .map(|i| PeCommand {
            op: PeOp::Dot,
            a: (i * per) as u16,
            b: (1024 + i * per) as u16,
            out: (2048 + i) as u16,
            len: per as u16,
            scalar: 0,
        })
        .collect();
    let mut entries = waves(std::mem::take(&mut cmds));
    entries.push(TableEntry::Cmd {
        pe: 0,
        cmd: PeCommand {
            op: PeOp::Reduce,
            a: 2048,
            b: 0,
            out: 2060,
            len: (n / per) as u16,
            scalar: 0,
        },
    });
    entries.push(TableEntry::Barrier);
    Workload {
        name: "dot_product",
        gmem_init: vec![(0, a), (1024, b)],
        entries,
        expected: vec![(2060, vec![total])],
    }
}

/// Test 3: sum-reduction of 512 elements via 8 partials.
pub fn reduction() -> Workload {
    let n = 512;
    let per = 64;
    let a = data(5, n);
    let total = a.iter().fold(0u64, |acc, &x| acc.wrapping_add(x));
    let cmds: Vec<PeCommand> = (0..n / per)
        .map(|i| PeCommand {
            op: PeOp::Reduce,
            a: (i * per) as u16,
            b: 0,
            out: (2048 + i) as u16,
            len: per as u16,
            scalar: 0,
        })
        .collect();
    let mut entries = waves(cmds);
    entries.push(TableEntry::Cmd {
        pe: 0,
        cmd: PeCommand {
            op: PeOp::Reduce,
            a: 2048,
            b: 0,
            out: 2060,
            len: (n / per) as u16,
            scalar: 0,
        },
    });
    entries.push(TableEntry::Barrier);
    Workload {
        name: "reduction",
        gmem_init: vec![(0, a)],
        entries,
        expected: vec![(2060, vec![total])],
    }
}

/// Test 4: 5-tap 1-D convolution over 256 outputs (image filtering).
pub fn conv1d() -> Workload {
    let n = 256;
    let taps_n = 5;
    let per = 64;
    let signal = data(6, n + taps_n - 1);
    let taps = data(7, taps_n);
    let expect: Vec<u64> = (0..n)
        .map(|i| {
            (0..taps_n).fold(0u64, |acc, t| {
                acc.wrapping_add(signal[i + t].wrapping_mul(taps[t]))
            })
        })
        .collect();
    let cmds: Vec<PeCommand> = (0..n / per)
        .map(|i| PeCommand {
            op: PeOp::Conv1d,
            a: (i * per) as u16,
            b: 512,
            out: (2048 + i * per) as u16,
            len: per as u16,
            scalar: taps_n as u16,
        })
        .collect();
    Workload {
        name: "conv1d",
        gmem_init: vec![(0, signal), (512, taps)],
        entries: waves(cmds),
        expected: vec![(2048, expect)],
    }
}

/// Test 5: K-means assignment of 128 points to 4 centroids.
pub fn kmeans_assign() -> Workload {
    let n = 128;
    let k = 4;
    let per = 32;
    let points = data(8, n);
    let centroids = data(9, k);
    let expect: Vec<u64> = points
        .iter()
        .map(|&p| {
            let mut best = (u64::MAX, 0u64);
            for (c, &cv) in centroids.iter().enumerate() {
                let d = p.abs_diff(cv);
                if d < best.0 {
                    best = (d, c as u64);
                }
            }
            best.1
        })
        .collect();
    let cmds: Vec<PeCommand> = (0..n / per)
        .map(|i| PeCommand {
            op: PeOp::ArgMinDist,
            a: (i * per) as u16,
            b: 512,
            out: (2048 + i * per) as u16,
            len: per as u16,
            scalar: k as u16,
        })
        .collect();
    Workload {
        name: "kmeans_assign",
        gmem_init: vec![(0, points), (512, centroids)],
        entries: waves(cmds),
        expected: vec![(2048, expect)],
    }
}

/// Test 6: 15x128 matrix-vector multiply (one dot per PE — a fully
/// connected NN layer shape).
pub fn matvec() -> Workload {
    let rows = 15;
    let cols = 128;
    let matrix = data(10, rows * cols);
    let x = data(11, cols);
    let expect: Vec<u64> = (0..rows)
        .map(|r| {
            (0..cols).fold(0u64, |acc, c| {
                acc.wrapping_add(matrix[r * cols + c].wrapping_mul(x[c]))
            })
        })
        .collect();
    let cmds: Vec<PeCommand> = (0..rows)
        .map(|r| PeCommand {
            op: PeOp::Dot,
            a: (r * cols) as u16,
            b: 2048,
            out: (3584 + r) as u16,
            len: cols as u16,
            scalar: 0,
        })
        .collect();
    Workload {
        name: "matvec",
        gmem_init: vec![(0, matrix), (2048, x)],
        entries: waves(cmds),
        expected: vec![(3584, expect)],
    }
}

/// The six SoC-level tests of Fig. 6.
pub fn six_soc_tests() -> Vec<Workload> {
    vec![
        vec_mul(),
        dot_product(),
        reduction(),
        conv1d(),
        kmeans_assign(),
        matvec(),
    ]
}

/// Builds, runs and verifies one workload. Returns the run result and
/// whether every expected region matched.
pub fn run_workload(cfg: SocConfig, wl: &Workload, max_cycles: u64) -> (RunResult, bool) {
    let (result, ok, _soc) = run_workload_soc(cfg, wl, max_cycles);
    (result, ok)
}

/// Like [`run_workload`] but also hands back the finished [`Soc`] for
/// post-run inspection (energy estimates, counters, gmem dumps).
pub fn run_workload_soc(cfg: SocConfig, wl: &Workload, max_cycles: u64) -> (RunResult, bool, Soc) {
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
    let result = soc.run(max_cycles);
    let mut ok = result.completed;
    for (base, expect) in &wl.expected {
        let got = soc.gmem_read(*base, expect.len());
        if &got != expect {
            ok = false;
        }
    }
    (result, ok, soc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::Fidelity;

    #[test]
    fn orchestrator_assembles() {
        let p = orchestrator_program();
        assert!(p.len() > 15);
    }

    #[test]
    fn vec_mul_runs_and_verifies_sim_accurate() {
        let (result, ok) = run_workload(SocConfig::default(), &vec_mul(), 2_000_000);
        assert!(result.completed, "controller did not halt");
        assert!(ok, "results mismatch");
        assert!(result.cycles > 100);
    }

    #[test]
    fn all_six_tests_pass_sim_accurate() {
        for wl in six_soc_tests() {
            let (result, ok) = run_workload(SocConfig::default(), &wl, 4_000_000);
            assert!(result.completed, "{} did not halt", wl.name);
            assert!(ok, "{} results mismatch", wl.name);
        }
    }

    #[test]
    fn rtl_mode_matches_results_with_small_cycle_excess() {
        let wl = vec_mul();
        let (sim, ok1) = run_workload(SocConfig::default(), &wl, 4_000_000);
        let rtl_cfg = SocConfig {
            fidelity: Fidelity::Rtl,
            ..SocConfig::default()
        };
        let (rtl, ok2) = run_workload(rtl_cfg, &wl, 4_000_000);
        assert!(ok1 && ok2, "both fidelities must verify");
        assert!(rtl.cycles >= sim.cycles, "RTL cannot be faster in cycles");
        let err = (rtl.cycles - sim.cycles) as f64 / rtl.cycles as f64;
        assert!(err < 0.03, "cycle error {err:.4} must stay below 3%");
    }
}

/// Compute-heavy convolution (16 taps): work units dominate data
/// movement, so PE lane count is the bottleneck — used by the
/// PE-lanes rows of `craft_bench::claims` to show the compute/memory
/// roofline knee.
pub fn conv1d_heavy() -> Workload {
    let n = 240;
    let taps_n = 16;
    let per = 48;
    let signal = data(14, n + taps_n - 1);
    let taps = data(15, taps_n);
    let expect: Vec<u64> = (0..n)
        .map(|i| {
            (0..taps_n).fold(0u64, |acc, t| {
                acc.wrapping_add(signal[i + t].wrapping_mul(taps[t]))
            })
        })
        .collect();
    let cmds: Vec<PeCommand> = (0..n / per)
        .map(|i| PeCommand {
            op: PeOp::Conv1d,
            a: (i * per) as u16,
            b: 512,
            out: (2048 + i * per) as u16,
            len: per as u16,
            scalar: taps_n as u16,
        })
        .collect();
    Workload {
        name: "conv1d_heavy",
        gmem_init: vec![(0, signal), (512, taps)],
        entries: waves(cmds),
        expected: vec![(2048, expect)],
    }
}

/// Extra (non-Fig. 6) workload exercising the remaining PE ops:
/// `out = scale(a + b, k)` via VecAdd into a staging region followed
/// by Scale.
pub fn vec_add_scale() -> Workload {
    let n = 128;
    let per = 32;
    let k = 7u16;
    let a = data(12, n);
    let b = data(13, n);
    let expect: Vec<u64> = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| x.wrapping_add(y).wrapping_mul(u64::from(k)))
        .collect();
    let mut entries = waves(
        (0..n / per)
            .map(|i| PeCommand {
                op: PeOp::VecAdd,
                a: (i * per) as u16,
                b: (512 + i * per) as u16,
                out: (1024 + i * per) as u16,
                len: per as u16,
                scalar: 0,
            })
            .collect(),
    );
    entries.extend(waves(
        (0..n / per)
            .map(|i| PeCommand {
                op: PeOp::Scale,
                a: (1024 + i * per) as u16,
                b: 0,
                out: (2048 + i * per) as u16,
                len: per as u16,
                scalar: k,
            })
            .collect(),
    ));
    Workload {
        name: "vec_add_scale",
        gmem_init: vec![(0, a), (512, b)],
        entries,
        expected: vec![(2048, expect)],
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn vec_add_scale_chains_two_kernels() {
        let (r, ok) = run_workload(SocConfig::default(), &vec_add_scale(), 4_000_000);
        assert!(r.completed && ok, "chained VecAdd+Scale failed");
    }

    #[test]
    fn conv1d_heavy_verifies_and_is_compute_bound() {
        let (r1, ok1) = run_workload(
            SocConfig {
                lanes: 1,
                ..SocConfig::default()
            },
            &conv1d_heavy(),
            4_000_000,
        );
        let (r8, ok8) = run_workload(
            SocConfig {
                lanes: 8,
                ..SocConfig::default()
            },
            &conv1d_heavy(),
            4_000_000,
        );
        assert!(ok1 && ok8);
        assert!(
            r1.cycles as f64 > 1.5 * r8.cycles as f64,
            "16-tap conv must be lane-sensitive: {} vs {}",
            r1.cycles,
            r8.cycles
        );
    }
}
