//! Fault-injection campaign over the robustness stack.
//!
//! One deterministic per-seed sweep — every row is a pure function of
//! its `(mode, seed)` or victim, and the artifact carries no
//! wall-clock field — in four parts:
//!
//! 1. **Link** — a `reliable_link` under sustained bit-flip / drop /
//!    duplicate faults on its data channel: per-mode detection
//!    (checksum discards, timeout retransmissions, duplicate
//!    discards), recovery (delivered stream bit-identical to the bare
//!    reference) and cycles vs both the bare channel and the clean
//!    wrapped link.
//! 2. **SoC** — the same fault modes at low probability on the hub's
//!    hottest NoC ingress link (`l11p3->15`) under the `vec_mul`
//!    workload, with *no* reliable transport in the path. Classifies
//!    each run: detected by result mismatch, by the hang watchdog, or
//!    by message-decode fail-stop — versus silently masked.
//! 3. **Degradation** — a PE's command-delivery channel stuck dead
//!    with hub PE-timeout detection armed: the failed PE must be
//!    identified, its work remapped, and results stay bit-correct at a
//!    bounded cycle overhead.
//! 4. **Watchdog** — a deterministic total-loss hang, recording what
//!    the diagnosis report actually pins down (faulted channel, hub
//!    wait reason, busy components).
//!
//! The run fails (non-zero exit) unless every faulted link run
//! recovers, every degraded run verifies with exactly the victim PE
//! failed and its work remapped, and the hang diagnosis names the
//! dropped channel and the hub's stuck command. How fast campaigns
//! run is measured by `benchmark/` (`campaign_sparse`,
//! `campaign_dense`), not here.
//!
//! Run with `--release` from the repo root:
//!
//! ```text
//! cargo run --release -p craft-bench --bin fault_campaign
//! cargo run --release -p craft-bench --bin fault_campaign -- --smoke
//! cargo run --release -p craft-bench --bin fault_campaign -- --checkpoint-dir DIR --out F
//! cargo run --release -p craft-bench --bin fault_campaign -- --checkpoint-dir DIR --resume --out F
//! ```
//!
//! `--smoke` shrinks the seed sweeps (CI uses this). `--out FILE`
//! writes the row artifact atomically; without it the run only prints
//! its summary.
//!
//! `--checkpoint-dir DIR` makes the campaign **crash-safe**: every
//! completed row is journaled to `DIR` atomically (tmp + fsync +
//! rename) the moment it finishes. With `--resume`, journaled rows are
//! reused instead of recomputed — killing the process at *any*
//! instant (including `SIGKILL`) and rerunning with `--resume`
//! produces a final artifact byte-identical to an uninterrupted run's,
//! with only the missing rows recomputed. Journaling is idempotent: a
//! second `--resume` run recomputes nothing and emits the same bytes,
//! and a run without a journal emits them too.

use craft_bench::{json_escape, json_meta_block, validate_json, SilentPanicGuard};
use craft_connections::{
    channel, reliable_link, ChannelKind, FaultConfig, In, Out, ReliableConfig, ReliableStats,
};
use craft_sim::{ClockSpec, Component, Picoseconds, SimError, Simulator, TickCtx};
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul, TableEntry};
use craft_soc::{PeCommand, PeOp, Soc, SocConfig};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;

/// The hub's hottest ingress link: with XY (x-first) routing on the
/// 4x4 mesh every PE-to-hub message funnels down column x=3 and enters
/// node 15 through node 11's SOUTH port.
const HOT_LINK: &str = "l11p3->15";

/// Fault modes swept by the link and SoC campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Flip,
    Drop,
    Dup,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Flip, Mode::Drop, Mode::Dup];

    fn name(self) -> &'static str {
        match self {
            Mode::Flip => "bit_flip",
            Mode::Drop => "drop",
            Mode::Dup => "duplicate",
        }
    }

    fn config(self, p: f64) -> FaultConfig {
        match self {
            Mode::Flip => FaultConfig::bit_flip(p),
            Mode::Drop => FaultConfig::drop(p),
            Mode::Dup => FaultConfig::duplicate(p),
        }
    }

    /// The protocol counter that witnesses detection of this mode at a
    /// reliable link: flips are caught by checksum, drops by timeout
    /// retransmission, duplicates by sequence-number discard.
    fn link_detections(self, s: &ReliableStats) -> u64 {
        match self {
            Mode::Flip => s.checksum_drops,
            Mode::Drop => s.retransmits,
            Mode::Dup => s.dup_drops,
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Part 1: reliable link under sustained channel faults.
// ---------------------------------------------------------------------

/// Pushes a fixed value sequence as fast as backpressure allows.
struct Producer {
    out: Out<u32>,
    values: Vec<u32>,
    idx: usize,
}

impl Component for Producer {
    fn name(&self) -> &str {
        "producer"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        if self.idx < self.values.len() && self.out.push_nb(self.values[self.idx]).is_ok() {
            self.idx += 1;
        }
    }
}

/// Collects everything that arrives.
struct Sink {
    input: In<u32>,
    log: Rc<RefCell<Vec<u32>>>,
}

impl Component for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        while let Some(v) = self.input.pop_nb() {
            self.log.borrow_mut().push(v);
        }
    }
}

/// Producer -> src -> [reliable link] -> sink; `fault` (if any) lands
/// on the link's internal data channel. Returns the delivered stream,
/// cycles to full delivery, injected-fault count and protocol stats.
fn link_run(
    values: &[u32],
    fault: Option<(FaultConfig, u64)>,
    wrapped: bool,
) -> (Vec<u32>, u64, u64, ReliableStats) {
    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("clk", Picoseconds::from_ghz(1.0)));
    let (src_tx, src_rx, src_h) = channel::<u32>("src", ChannelKind::Buffer(4));
    sim.add_sequential(clk, src_h.sequential());
    sim.add_component(
        clk,
        Producer {
            out: src_tx,
            values: values.to_vec(),
            idx: 0,
        },
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    let (injected, stats) = if wrapped {
        let (dst_tx, dst_rx, dst_h) = channel::<u32>("dst", ChannelKind::Buffer(4));
        sim.add_sequential(clk, dst_h.sequential());
        let link = reliable_link(
            "rl",
            ReliableConfig::default(),
            src_rx,
            dst_tx,
            ChannelKind::Buffer(4),
            ChannelKind::Buffer(4),
        );
        if let Some((cfg, seed)) = fault {
            link.data.inject_faults(cfg, seed);
        }
        let reg = link.register(&mut sim, clk);
        sim.add_component(
            clk,
            Sink {
                input: dst_rx,
                log: Rc::clone(&log),
            },
        );
        (Some(reg.data), Some(Rc::clone(&reg.stats)))
    } else {
        sim.add_component(
            clk,
            Sink {
                input: src_rx,
                log: Rc::clone(&log),
            },
        );
        (None, None)
    };
    let want = values.len();
    let done_log = Rc::clone(&log);
    let finished = sim
        .run_until_checked(clk, 500_000, 50_000, move || {
            done_log.borrow().len() >= want
        })
        .expect("recoverable schedules must never hang");
    assert!(finished, "cycle budget exhausted before delivery");
    let cycles = sim.cycles(clk);
    let delivered = log.borrow().clone();
    let inj = injected
        .and_then(|h| h.fault_stats())
        .map_or(0, |s| s.injected());
    let st = stats.map_or_else(ReliableStats::default, |s| s.borrow().clone());
    (delivered, cycles, inj, st)
}

/// One seeded link experiment: bare channel, clean wrapped link and
/// faulted wrapped link over the same value stream. Fully
/// deterministic in `(mode, seed)`.
fn link_row_json(mode: Mode, seed: u64) -> String {
    let mut rng = seed.wrapping_mul(0x5851_f42d_4c95_7f2d);
    let values: Vec<u32> = (0..64).map(|_| splitmix(&mut rng) as u32).collect();
    let (bare, cycles_bare, _, _) = link_run(&values, None, false);
    assert_eq!(bare, values, "bare channel is lossless");
    let (clean, cycles_clean, _, _) = link_run(&values, None, true);
    assert_eq!(clean, values, "clean wrapped link is lossless");
    let fault = mode.config(0.15);
    let (got, cycles_faulted, injected, stats) = link_run(&values, Some((fault, seed)), true);
    format!(
        "{{\"mode\": \"{}\", \"seed\": {seed}, \"injected\": {injected}, \"detections\": {}, \
         \"recovered\": {}, \"cycles_bare\": {cycles_bare}, \"cycles_clean\": {cycles_clean}, \
         \"cycles_faulted\": {cycles_faulted}}}",
        mode.name(),
        mode.link_detections(&stats),
        got == values
    )
}

// ---------------------------------------------------------------------
// Part 2: raw NoC under low-rate faults — how failures surface.
// ---------------------------------------------------------------------

/// How one SoC run under fault injection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// No fault event actually fired (low probability, short run).
    Clean,
    /// Faults fired but results verified anyway (masked corruption).
    Masked,
    /// Completed with wrong results: caught by result checking.
    DetectedMismatch,
    /// Watchdog converted a deadlock into `SimError::Hang`.
    DetectedHang,
    /// Message decode panicked on a corrupt packet (fail-stop).
    DetectedFailstop,
    /// Cycle budget exhausted without completing or hanging.
    Stall,
}

impl Outcome {
    /// Wire name; every detected class starts with `detected_`.
    fn name(self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::Masked => "masked",
            Outcome::DetectedMismatch => "detected_mismatch",
            Outcome::DetectedHang => "detected_hang",
            Outcome::DetectedFailstop => "detected_failstop",
            Outcome::Stall => "stall",
        }
    }
}

/// Run-budget limits of the SoC sweep (`benchmark/`'s campaign
/// workloads run under the same two).
const SOC_MAX_CYCLES: u64 = 4_000_000;
const SOC_NO_PROGRESS: u64 = 100_000;

/// One solo SoC run under fault injection on [`HOT_LINK`], classified.
/// Deterministic in `(mode, seed)`.
fn soc_row_json(mode: Mode, seed: u64) -> String {
    let wl = vec_mul();
    let run = std::panic::catch_unwind(|| {
        let mut soc = Soc::build(
            SocConfig::default(),
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
        );
        assert_eq!(
            soc.inject_fault(HOT_LINK, mode.config(0.02), seed)
                .expect("hot link exists"),
            1
        );
        let res = soc.run_checked(SOC_MAX_CYCLES, SOC_NO_PROGRESS);
        let injected = soc
            .fault_stats(HOT_LINK)
            .expect("hot link exists")
            .injected();
        let proved = soc.sim().last_loop();
        match res {
            Err(SimError::Hang { cycle, .. }) => (Outcome::DetectedHang, injected, cycle, proved),
            Err(e) => panic!("unexpected simulation error: {e}"),
            Ok(r) if !r.completed => (Outcome::Stall, injected, r.cycles, proved),
            Ok(r) => {
                let ok = wl
                    .expected
                    .iter()
                    .all(|(base, expect)| &soc.gmem_read(*base, expect.len()) == expect);
                let outcome = match (ok, injected) {
                    (true, 0) => Outcome::Clean,
                    (true, _) => Outcome::Masked,
                    (false, _) => Outcome::DetectedMismatch,
                };
                (outcome, injected, r.cycles, proved)
            }
        }
    });
    // A panic unwound through the run before fault counters could be
    // read; at least one corrupt packet was decoded.
    let (outcome, injected, cycles, proved) =
        run.unwrap_or((Outcome::DetectedFailstop, 1, 0, None));
    format!(
        "{{\"mode\": \"{}\", \"seed\": {seed}, \"outcome\": \"{}\", \"injected\": {injected}, \
         \"cycles\": {cycles}, {}}}",
        mode.name(),
        outcome.name(),
        loop_fields(proved)
    )
}

/// How the kernel got through a run's idle tail, as row fields: the
/// period of the loop it proved and the cycle it proved it at (zeros
/// when the run was stepped throughout).
fn loop_fields(proved: Option<craft_sim::ProvedLoop>) -> String {
    let (period, at) = proved.map_or((0, 0), |l| (l.period, l.proved_at));
    format!("\"loop_period\": {period}, \"loop_proved_at\": {at}")
}

// ---------------------------------------------------------------------
// Part 3: graceful degradation — failed PE detected and remapped.
// ---------------------------------------------------------------------

/// One victim-PE degradation experiment, deterministic in `victim`.
fn degradation_row_json(victim: u16, clean_cycles: u64) -> String {
    let wl = vec_mul();
    let cfg = SocConfig {
        pe_timeout: Some(20_000),
        ..SocConfig::default()
    };
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    assert_eq!(
        soc.inject_fault(&format!("n{victim}.eject"), FaultConfig::stuck_valid(0), 7)
            .expect("ejection channel exists"),
        1
    );
    let r = soc
        .run_checked(8_000_000, 200_000)
        .expect("degraded run must recover, not hang");
    let recovered = r.completed
        && wl
            .expected
            .iter()
            .all(|(base, expect)| &soc.gmem_read(*base, expect.len()) == expect);
    let hub = soc.report().hub;
    format!(
        "{{\"victim\": {victim}, \"recovered\": {recovered}, \"failed\": {:?}, \
         \"remapped\": {}, \"cycles\": {}, \"clean_cycles\": {clean_cycles}}}",
        hub.failed_pes, hub.remapped, r.cycles
    )
}

/// Cycle count of the clean (fault-free) vec_mul baseline.
fn clean_baseline_cycles() -> u64 {
    let wl = vec_mul();
    let mut soc = Soc::build(
        SocConfig::default(),
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    let r = soc.run(8_000_000);
    assert!(r.completed, "clean baseline must complete");
    r.cycles
}

// ---------------------------------------------------------------------
// Part 4: deterministic watchdog diagnosis demo.
// ---------------------------------------------------------------------

/// Total flit loss on PE 5's command-delivery channel with no timeout
/// armed: the run must surface as a diagnosed hang naming the wedged
/// channel and the hub's stuck in-flight command.
fn watchdog_row_json() -> String {
    let entries = vec![
        TableEntry::Cmd {
            pe: 5,
            cmd: PeCommand {
                op: PeOp::Scale,
                a: 0,
                b: 0,
                out: 100,
                len: 8,
                scalar: 3,
            },
        },
        TableEntry::Barrier,
    ];
    let gmem_init = vec![(0usize, (1..=8u64).collect::<Vec<_>>())];
    let mut soc = Soc::build(
        SocConfig::default(),
        &orchestrator_program(),
        &table_words(&entries),
        &gmem_init,
    );
    assert_eq!(
        soc.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
            .expect("ejection channel exists"),
        1
    );
    let err = soc
        .run_checked(2_000_000, 50_000)
        .expect_err("total flit loss must be detected as a hang");
    let SimError::Hang { cycle, report, .. } = err else {
        panic!("expected Hang, got {err}");
    };
    let ch = report
        .channels
        .iter()
        .find(|c| c.name == "n5.eject")
        .expect("faulted channel diagnosed");
    let hub = report
        .components
        .iter()
        .find(|c| c.name == "hub15")
        .expect("hub diagnosed");
    format!(
        "{{\"hang_cycle\": {cycle}, \"idle_cycles\": {}, \"busy_components\": {}, \
         \"channel_note\": \"{}\", \"hub_wait\": \"{}\", {}, \"cycles_skipped\": {}}}",
        report.idle_cycles,
        report.busy_components().count(),
        json_escape(&ch.note),
        json_escape(hub.wait.as_deref().expect("hub explains its wait")),
        loop_fields(soc.sim().last_loop()),
        soc.sim().cycles_skipped()
    )
}

// ---------------------------------------------------------------------
// The row journal and the campaign over it.
// ---------------------------------------------------------------------

/// Typed failure in the campaign's submission/IO paths (journal
/// directories, atomic artifact writes, flag parsing). The binary
/// renders it and exits nonzero instead of panicking mid-campaign.
#[derive(Debug)]
enum CampaignError {
    /// A filesystem operation failed; `op` names it, `path` locates it.
    Io {
        op: &'static str,
        path: PathBuf,
        err: std::io::Error,
    },
    /// A malformed command line.
    BadArgs(String),
}

impl CampaignError {
    fn io(op: &'static str, path: &Path) -> impl FnOnce(std::io::Error) -> CampaignError {
        let path = path.to_path_buf();
        move |err| CampaignError::Io { op, path, err }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io { op, path, err } => {
                write!(f, "{op} {} failed: {err}", path.display())
            }
            CampaignError::BadArgs(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Per-row journal over a directory: one file per completed row,
/// written atomically (tmp + fsync + rename), keyed by a stable string.
/// A row file is either absent or a complete, valid JSON object —
/// `SIGKILL` at any instant can only lose the row in flight. With no
/// directory every row is simply computed.
struct Journal {
    dir: Option<PathBuf>,
    resume: bool,
    reused: Cell<u64>,
    computed: Cell<u64>,
}

impl Journal {
    fn new(dir: Option<PathBuf>, resume: bool) -> Result<Journal, CampaignError> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d).map_err(CampaignError::io("create checkpoint dir", d))?;
        }
        Ok(Journal {
            dir,
            resume,
            reused: Cell::new(0),
            computed: Cell::new(0),
        })
    }

    /// Returns the journaled row for `key` (on `--resume`, when
    /// present and well-formed), else computes it and journals it.
    /// Unparseable or truncated journal entries are recomputed, never
    /// trusted.
    fn row(&self, key: &str, compute: impl FnOnce() -> String) -> Result<String, CampaignError> {
        if self.resume {
            if let Some(dir) = &self.dir {
                if let Ok(s) = std::fs::read_to_string(dir.join(key)) {
                    if validate_json(&s).is_ok() {
                        self.reused.set(self.reused.get() + 1);
                        return Ok(s);
                    }
                }
            }
        }
        let s = compute();
        self.computed.set(self.computed.get() + 1);
        if let Some(dir) = &self.dir {
            write_atomic(&dir.join(key), s.as_bytes())?;
        }
        Ok(s)
    }
}

/// Atomic write (tmp + fsync + rename): a kill during the write can
/// never leave a half-written file behind. Failures are typed
/// [`CampaignError::Io`], never panics.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut f =
            std::fs::File::create(&tmp).map_err(CampaignError::io("create tmp for", path))?;
        f.write_all(bytes)
            .map_err(CampaignError::io("write tmp for", path))?;
        f.sync_all()
            .map_err(CampaignError::io("fsync tmp for", path))?;
    }
    std::fs::rename(&tmp, path).map_err(CampaignError::io("commit", path))
}

/// The value of `key` in one of this file's own flat row objects, as
/// written (a string's quotes stripped, its escapes left in place; an
/// array of numbers whole).
/// Rows come back from the journal as text, so the verdicts below read
/// them the same way whether a row was just computed or reused.
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = row
        .find(&pat)
        .unwrap_or_else(|| panic!("row {row} has no field {key:?}"));
    let rest = &row[at + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        let mut escaped = false;
        let end = s
            .find(|c| {
                let close = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                close
            })
            .expect("validated row closes its strings");
        &s[..end]
    } else if rest.starts_with('[') {
        &rest[..=rest.find(']').expect("validated row closes its arrays")]
    } else {
        &rest[..rest.find([',', '}']).expect("validated row closes")]
    }
}

fn num(row: &str, key: &str) -> u64 {
    field(row, key)
        .parse()
        .unwrap_or_else(|_| panic!("row {row}: field {key:?} is not a number"))
}

/// Prints the per-mode detection summary of the link and SoC sweeps
/// and asserts the link contract: every faulted run recovered.
fn summarize(link_rows: &[String], soc_rows: &[String]) {
    let pct = |n: usize, of: usize| 100.0 * n as f64 / (of as f64).max(1.0);
    println!("== link: reliable transport under sustained faults (p=0.15) ==");
    println!(
        "{:<10} {:>5} {:>9} {:>10} {:>9}",
        "mode", "runs", "injected", "detection", "recovery"
    );
    for mode in Mode::ALL {
        let rows: Vec<&String> = link_rows
            .iter()
            .filter(|r| field(r, "mode") == mode.name())
            .collect();
        let hit: Vec<&&String> = rows.iter().filter(|r| num(r, "injected") > 0).collect();
        let detected = hit.iter().filter(|r| num(r, "detections") > 0).count();
        let recovered = hit
            .iter()
            .filter(|r| field(r, "recovered") == "true")
            .count();
        println!(
            "{:<10} {:>5} {:>9} {:>9.0}% {:>8.0}%",
            mode.name(),
            rows.len(),
            rows.iter().map(|r| num(r, "injected")).sum::<u64>(),
            pct(detected, hit.len()),
            pct(recovered, hit.len())
        );
        assert_eq!(
            recovered,
            hit.len(),
            "{}: reliable link failed to recover",
            mode.name()
        );
    }
    println!("\n== soc: raw NoC faults on {HOT_LINK} (p=0.02) ==");
    println!(
        "{:<10} {:>5} {:>8} {:>9} {:>7} {:>10}",
        "mode", "runs", "faulted", "detected", "masked", "detection"
    );
    for mode in Mode::ALL {
        let outcomes: Vec<&str> = soc_rows
            .iter()
            .filter(|r| field(r, "mode") == mode.name())
            .map(|r| field(r, "outcome"))
            .collect();
        let faulted = outcomes
            .iter()
            .filter(|o| **o != Outcome::Clean.name())
            .count();
        let detected = outcomes
            .iter()
            .filter(|o| o.starts_with("detected_"))
            .count();
        let masked = outcomes
            .iter()
            .filter(|o| **o == Outcome::Masked.name())
            .count();
        println!(
            "{:<10} {:>5} {:>8} {:>9} {:>7} {:>9.0}%",
            mode.name(),
            outcomes.len(),
            faulted,
            detected,
            masked,
            pct(detected, faulted)
        );
    }
    for r in soc_rows {
        if field(r, "outcome") == Outcome::DetectedHang.name() {
            println!(
                "hang: {} seed {} tripped at cycle {}; loop of period {} proved at cycle {}",
                field(r, "mode"),
                field(r, "seed"),
                field(r, "cycles"),
                field(r, "loop_period"),
                field(r, "loop_proved_at")
            );
        }
    }
}

/// The campaign: a sequential per-seed sweep through the [`Journal`],
/// the behavioural verdicts over its rows, and (with `--out`) the
/// deterministic row artifact.
fn campaign(args: &Args) -> Result<(), CampaignError> {
    let (link_seeds, soc_seeds, victims): (u64, u64, &[u16]) = if args.smoke {
        (4, 3, &[2])
    } else {
        (12, 10, &[1, 2, 3])
    };
    let journal = Journal::new(args.ckpt_dir.clone(), args.resume)?;

    let mut link_rows = Vec::new();
    for &mode in &Mode::ALL {
        for seed in 0..link_seeds {
            let key = format!("link-{}-{seed:04}.json", mode.name());
            link_rows.push(journal.row(&key, || link_row_json(mode, seed))?);
        }
    }
    let mut soc_rows = Vec::new();
    {
        // Decode panics on corrupt packets are an *expected* outcome
        // class of this sweep only; silence the default hook for its
        // duration so the output stays readable (the guard restores it
        // even on unwind).
        let _quiet = SilentPanicGuard::new();
        for &mode in &Mode::ALL {
            for seed in 0..soc_seeds {
                let key = format!("soc-{}-{seed:04}.json", mode.name());
                soc_rows.push(journal.row(&key, || soc_row_json(mode, seed))?);
            }
        }
    }
    // The clean baseline is itself deterministic; journal it so
    // resumed runs skip the baseline too.
    let clean = journal.row("deg-baseline.json", || {
        format!("{{\"clean_cycles\": {}}}", clean_baseline_cycles())
    })?;
    let clean_cycles = num(&clean, "clean_cycles");
    let mut deg_rows = Vec::new();
    for &victim in victims {
        let key = format!("deg-pe{victim:02}.json");
        deg_rows.push(journal.row(&key, || degradation_row_json(victim, clean_cycles))?);
    }
    let wd_row = journal.row("watchdog.json", watchdog_row_json)?;

    summarize(&link_rows, &soc_rows);

    println!("\n== degradation: stuck PE detected and remapped (timeout 20k) ==");
    for r in &deg_rows {
        let victim = field(r, "victim");
        println!(
            "pe{victim}: recovered={} failed={} remapped={} cycles={} (clean {clean_cycles})",
            field(r, "recovered"),
            field(r, "failed"),
            field(r, "remapped"),
            field(r, "cycles")
        );
        assert_eq!(
            field(r, "recovered"),
            "true",
            "pe{victim}: degraded run must verify"
        );
        assert_eq!(
            field(r, "failed"),
            format!("[{victim}]"),
            "exactly the victim is failed"
        );
        assert!(num(r, "remapped") >= 1, "pe{victim}: work must be remapped");
    }

    println!("\n== watchdog: diagnosed hang on total flit loss ==");
    let (note, wait) = (field(&wd_row, "channel_note"), field(&wd_row, "hub_wait"));
    println!(
        "hang at cycle {} after {} idle cycles; {} busy components",
        field(&wd_row, "hang_cycle"),
        field(&wd_row, "idle_cycles"),
        field(&wd_row, "busy_components")
    );
    println!(
        "loop of period {} proved at cycle {}; {} cycles advanced over, not stepped",
        field(&wd_row, "loop_period"),
        field(&wd_row, "loop_proved_at"),
        field(&wd_row, "cycles_skipped")
    );
    assert!(
        num(&wd_row, "cycles_skipped") > 0,
        "the watchdog's idle tail is a proved loop"
    );
    println!("channel n5.eject: {note}");
    println!("hub wait: {wait}");
    assert!(note.contains("drop"), "diagnosis names the fault");
    assert!(wait.contains("inflight=[5]"), "hub pins the command");

    println!(
        "\n{} rows reused from journal, {} computed",
        journal.reused.get(),
        journal.computed.get()
    );
    let Some(out) = &args.out else {
        return Ok(());
    };
    let mut json = format!(
        "{{\n  {}\n  \"bench\": \"fault_campaign_ckpt\",\n  \"resumable\": true,\n",
        json_meta_block("fault_campaign")
    );
    let emit = |json: &mut String, name: &str, header: &str, rows: &[String]| {
        let _ = write!(json, "  \"{name}\": {{\n    {header}\"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(json, "      {r}");
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("    ]\n  },\n");
    };
    emit(
        &mut json,
        "link",
        &format!("\"fault_p\": 0.15, \"seeds_per_mode\": {link_seeds}, "),
        &link_rows,
    );
    emit(
        &mut json,
        "soc",
        &format!("\"link\": \"{HOT_LINK}\", \"fault_p\": 0.02, \"seeds_per_mode\": {soc_seeds}, "),
        &soc_rows,
    );
    emit(
        &mut json,
        "degradation",
        "\"pe_timeout\": 20000, ",
        &deg_rows,
    );
    let _ = write!(json, "  \"watchdog\": {wd_row}\n}}\n");
    validate_json(&json).expect("campaign artifact must be valid JSON");
    write_atomic(out, json.as_bytes())?;
    println!("wrote {}", out.display());
    Ok(())
}

struct Args {
    smoke: bool,
    resume: bool,
    ckpt_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, CampaignError> {
    let mut args = Args {
        smoke: false,
        resume: false,
        ckpt_dir: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--resume" => args.resume = true,
            "--checkpoint-dir" => {
                args.ckpt_dir = Some(PathBuf::from(it.next().ok_or_else(|| {
                    CampaignError::BadArgs("--checkpoint-dir needs a path".into())
                })?));
            }
            "--out" => {
                args.out =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        CampaignError::BadArgs("--out needs a path".into())
                    })?));
            }
            other => return Err(CampaignError::BadArgs(format!("unknown flag {other:?}"))),
        }
    }
    if args.resume && args.ckpt_dir.is_none() {
        return Err(CampaignError::BadArgs(
            "--resume requires --checkpoint-dir".into(),
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| campaign(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fault_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
