//! E14 / §2.3 extended: the robustness stack under injected faults.
//!
//! One deterministic sweep in four parts, each run a pure function of
//! its mode and seed or its victim:
//!
//! 1. **Link** — a `reliable_link` under sustained bit-flip / drop /
//!    duplicate faults on its data channel.
//! 2. **Raw NoC** — the same modes at low probability on the hub's
//!    hottest ingress link under `vec_mul`, with no reliable transport
//!    in the path: how each faulted run surfaces.
//! 3. **Degradation** — a PE's command-delivery channel stuck dead with
//!    the hub's PE timeout armed.
//! 4. **Watchdog** — a total-loss hang and what its diagnosis names.
//!
//! How fast campaigns run is the benchmark's `campaign_sparse` /
//! `campaign_dense`, not here.

use super::{md, Bound, Row, Section};
use crate::SilentPanicGuard;
use craft_connections::{
    channel, reliable_link, ChannelKind, FaultConfig, In, Out, ReliableConfig, ReliableStats,
};
use craft_sim::{ClockSpec, Component, Picoseconds, ProvedLoop, SimError, Simulator, TickCtx};
use craft_soc::workloads::{
    orchestrator_program, run_workload, table_words, vec_mul, TableEntry, Workload,
};
use craft_soc::{panic_message, protocol_check, PeCommand, PeOp, Soc, SocConfig, PROTOCOL_CHECKS};
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// The hub's hottest ingress link: with XY (x-first) routing on the
/// 4x4 mesh every PE-to-hub message funnels down column x=3 and enters
/// node 15 through node 11's SOUTH port.
const HOT_LINK: &str = "l11p3->15";

/// Run-budget limits of a raw-NoC run (`benchmark/`'s campaign
/// workloads run under the same two).
const SOC_MAX_CYCLES: u64 = 4_000_000;
const SOC_NO_PROGRESS: u64 = 100_000;

/// The fault modes: name, injector at a probability, and the protocol
/// counter that witnesses the mode at a reliable link (flips are caught
/// by checksum, drops by timeout retransmission, duplicates by
/// sequence-number discard).
type Mode = (
    &'static str,
    fn(f64) -> FaultConfig,
    fn(&ReliableStats) -> u64,
);
const MODES: [Mode; 3] = [
    ("bit_flip", FaultConfig::bit_flip, |s| s.checksum_drops),
    ("drop", FaultConfig::drop, |s| s.retransmits),
    ("duplicate", FaultConfig::duplicate, |s| s.dup_drops),
];

/// One part of the section: its tables and its rows.
type Part = (Vec<String>, Vec<Row>);

/// `n` of `of` as a percentage. `0 / 0` is NaN, which meets no bound,
/// so a mode with nothing to count fails its row instead of passing.
fn pct(n: usize, of: usize) -> f64 {
    100.0 * n as f64 / of as f64
}

/// How a hung run got through its idle tail.
fn tail(proved: Option<ProvedLoop>) -> String {
    proved.map_or("stepped".into(), |ProvedLoop { period, proved_at }| {
        format!("loop of period {period} proved at cycle {proved_at}")
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The two ends of a run: pushes `values` into `out` as fast as
/// backpressure allows and logs what arrives at `input`.
struct Ends {
    out: Out<u32>,
    values: Vec<u32>,
    idx: usize,
    input: In<u32>,
    log: Rc<RefCell<Vec<u32>>>,
}

impl Component for Ends {
    fn name(&self) -> &str {
        "ends"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        if self.idx < self.values.len() && self.out.push_nb(self.values[self.idx]).is_ok() {
            self.idx += 1;
        }
        while let Some(v) = self.input.pop_nb() {
            self.log.borrow_mut().push(v);
        }
    }
}

/// out -> src -> [reliable link] -> input; `fault` (if any) lands
/// on the link's internal data channel. Returns whether `values`
/// arrived intact, cycles to full delivery, the injected-fault count
/// and the link's protocol stats.
fn link_run(
    values: &[u32],
    wrapped: bool,
    fault: Option<(FaultConfig, u64)>,
) -> (bool, u64, u64, ReliableStats) {
    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("clk", Picoseconds::from_ghz(1.0)));
    let (out, src_rx, src_h) = channel::<u32>("src", ChannelKind::Buffer(4));
    sim.add_sequential(clk, src_h.sequential());
    let (input, link) = if wrapped {
        let (dst_tx, dst_rx, dst_h) = channel::<u32>("dst", ChannelKind::Buffer(4));
        sim.add_sequential(clk, dst_h.sequential());
        let (cfg, buf) = (ReliableConfig::default(), ChannelKind::Buffer(4));
        let link = reliable_link("rl", cfg, src_rx, dst_tx, buf, buf);
        if let Some((cfg, seed)) = fault {
            link.data.inject_faults(cfg, seed);
        }
        (dst_rx, Some(link.register(&mut sim, clk)))
    } else {
        (src_rx, None)
    };
    let (log, values) = (Rc::new(RefCell::new(Vec::new())), values.to_vec());
    let (done, want) = (Rc::clone(&log), values.len());
    let ends = Ends {
        out,
        values: values.clone(),
        idx: 0,
        input,
        log: Rc::clone(&log),
    };
    sim.add_component(clk, ends);
    let finished = sim
        .run_until_checked(clk, 500_000, 50_000, move || done.borrow().len() >= want)
        .expect("recoverable schedules must never hang");
    assert!(finished, "cycle budget exhausted before delivery");
    let faults = link.as_ref().and_then(|l| l.data.fault_stats());
    let injected = faults.map_or(0, |s| s.injected());
    let stats = link.map_or_else(ReliableStats::default, |l| l.stats.borrow().clone());
    let intact = *log.borrow() == values;
    (intact, sim.cycles(clk), injected, stats)
}

/// Part 1: per mode, twelve seeded 64-value streams through the bare
/// channel, the clean wrapped link and the wrapped link faulted at
/// p = 0.15. A faulted run counts when a fault fired.
fn link_part() -> Part {
    let (mut points, mut recovery, mut detection) = (Vec::new(), Vec::new(), Vec::new());
    for &(name, config, detections) in &MODES {
        let (mut hit, mut seen, mut fixed, mut injected, mut cycles) = (0, 0, 0, 0, [0; 3]);
        for seed in 0..12u64 {
            let mut rng = seed.wrapping_mul(0x5851_f42d_4c95_7f2d);
            let values: Vec<u32> = (0..64).map(|_| splitmix(&mut rng) as u32).collect();
            let (bare_ok, bare, _, _) = link_run(&values, false, None);
            let (clean_ok, clean, _, _) = link_run(&values, true, None);
            assert!(bare_ok && clean_ok, "lossless without faults");
            let fault = Some((config(0.15), seed));
            let (ok, faulted, n, stats) = link_run(&values, true, fault);
            for (sum, c) in cycles.iter_mut().zip([bare, clean, faulted]) {
                *sum += c;
            }
            injected += n;
            if n > 0 {
                hit += 1;
                seen += usize::from(detections(&stats) > 0);
                fixed += usize::from(ok);
            }
        }
        let [bare, clean, faulted] = cycles.map(|c| c as f64 / 12.0);
        let (seen, fixed) = (pct(seen, hit), pct(fixed, hit));
        points.push(format!(
            "{name} | {injected} | {seen:.0} % | {fixed:.0} % | {bare:.0} | {clean:.0} | {faulted:.0}"
        ));
        detection.push(seen);
        recovery.push(fixed);
    }
    let head = "link mode (12 runs, p = 0.15) | faults | detected | recovered | mean cycles bare | clean | faulted";
    let rows = vec![
        Row {
            id: "§2.3 link recovery",
            claim: "extension: a reliable LI link delivers the stream intact under sustained bit-flip / drop / duplicate faults (faulted runs recovered, per mode)",
            unit: "%",
            values: recovery,
            bound: Bound::Exactly(100.0),
        },
        Row {
            id: "§2.3 link detection",
            claim: "extension: the mode's protocol counter (checksum drops, retransmissions, duplicate discards) sees every faulted run (per mode)",
            unit: "%",
            values: detection,
            bound: Bound::Exactly(100.0),
        },
    ];
    (vec![md(head, points)], rows)
}

/// How one raw-NoC run under fault injection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// No fault fired.
    Clean,
    /// Faults fired but the results verified anyway: silently masked.
    Masked,
    /// Completed with wrong results: caught by result checking.
    Mismatch,
    /// The watchdog turned a deadlock into `SimError::Hang` at a cycle,
    /// over an idle tail it may have proved a loop.
    Hang(u64, Option<ProvedLoop>),
    /// `PROTOCOL_CHECKS[i]` panicked on a corrupt packet.
    FailStop(usize),
    /// Cycle budget exhausted without completing or hanging.
    Stall,
}

fn build(cfg: SocConfig, entries: &[TableEntry], gmem_init: &[(usize, Vec<u64>)]) -> Soc {
    let (program, table) = (orchestrator_program(), table_words(entries));
    Soc::build(cfg, &program, &table, gmem_init)
}

fn verified(soc: &Soc, wl: &Workload) -> bool {
    let ok = |(base, want): &(usize, Vec<u64>)| soc.gmem_read(*base, want.len()) == *want;
    wl.expected.iter().all(ok)
}

/// Which of [`PROTOCOL_CHECKS`] raised `payload`. Any other panic is
/// re-raised: it is a bug, and counting it as a detection would hide it.
fn failstop_site(run: &str, payload: Box<dyn Any + Send>) -> usize {
    let msg = panic_message(payload.as_ref());
    if let Some(i) = protocol_check(msg) {
        return i;
    }
    eprintln!("{run}: a panic no protocol check raised: {msg}");
    resume_unwind(payload)
}

fn noc_run(name: &str, config: fn(f64) -> FaultConfig, seed: u64) -> Outcome {
    let wl = vec_mul();
    let mut soc = build(SocConfig::default(), &wl.entries, &wl.gmem_init);
    let hooked = soc.inject_fault(HOT_LINK, config(0.02), seed);
    assert_eq!(hooked.expect("hot link exists"), 1);
    let run = {
        // A protocol check's panic is an expected outcome here; keep
        // it off the output. The guard restores the hook on drop.
        let _quiet = SilentPanicGuard::new();
        catch_unwind(AssertUnwindSafe(|| {
            soc.run_checked(SOC_MAX_CYCLES, SOC_NO_PROGRESS)
        }))
    };
    let name = format!("{name} seed {seed}");
    match run {
        Err(payload) => Outcome::FailStop(failstop_site(&name, payload)),
        Ok(Err(SimError::Hang { cycle, .. })) => Outcome::Hang(cycle, soc.sim().last_loop()),
        Ok(Err(e)) => panic!("{name}: unexpected simulation error: {e}"),
        Ok(Ok(r)) if !r.completed => Outcome::Stall,
        Ok(Ok(_)) => {
            let faults = soc.fault_stats(HOT_LINK).expect("hot link exists");
            match (verified(&soc, &wl), faults.injected()) {
                (false, _) => Outcome::Mismatch,
                (true, 0) => Outcome::Clean,
                (true, _) => Outcome::Masked,
            }
        }
    }
}

/// Part 2: per mode, ten seeded `vec_mul` runs with [`HOT_LINK`]
/// faulted at p = 0.02, classified.
fn noc_part() -> Part {
    let (mut points, mut detection, mut masked) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failstops, mut hangs) = (vec![Vec::new(); PROTOCOL_CHECKS.len()], Vec::new());
    for &(name, config, _) in &MODES {
        let outcomes: Vec<Outcome> = (0..10).map(|seed| noc_run(name, config, seed)).collect();
        for (seed, outcome) in outcomes.iter().enumerate() {
            match *outcome {
                Outcome::FailStop(i) => failstops[i].push(format!("{name} {seed}")),
                Outcome::Hang(cycle, proved) => {
                    hangs.push(format!("{name} {seed} | {cycle} | {}", tail(proved)))
                }
                _ => {}
            }
        }
        let count = |f: fn(&Outcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
        let faulted = count(|o| *o != Outcome::Clean);
        let mismatch = count(|o| *o == Outcome::Mismatch);
        let hang = count(|o| matches!(o, Outcome::Hang(..)));
        let failstop = count(|o| matches!(o, Outcome::FailStop(_)));
        let mask = count(|o| *o == Outcome::Masked);
        let seen = pct(mismatch + hang + failstop, faulted);
        points.push(format!(
            "{name} | {faulted} | {mismatch} | {hang} | {failstop} | {mask} | {seen:.0} %"
        ));
        detection.push(seen);
        masked.push(mask as f64);
    }
    let sites = PROTOCOL_CHECKS.iter().zip(&failstops);
    let sites = sites.map(|((site, check), runs)| {
        let (n, list) = (runs.len(), runs.join(", "));
        format!("{site} | \"{check}\" | {n} | {list}")
    });
    let tables = vec![
        md(
            "raw NoC mode (10 runs, p = 0.02 on l11p3->15) | faulted | mismatch | hang | fail-stop | masked | detected",
            points,
        ),
        md("fail-stop site | protocol check | runs | mode and seed", sites),
        md("hung run | trip cycle | idle tail", hangs),
    ];
    let rows = vec![
        Row {
            id: "§2.3 NoC detection",
            claim: "extension: without reliable transport a faulted NoC run surfaces as a result mismatch, a diagnosed hang or a protocol check's fail-stop (faulted runs detected, per mode)",
            unit: "%",
            values: detection,
            bound: Bound::Exactly(100.0),
        },
        Row {
            id: "§2.3 NoC masked",
            claim: "extension: no faulted NoC run verifies as if nothing happened (silently masked runs, per mode)",
            unit: "runs",
            values: masked,
            bound: Bound::Exactly(0.0),
        },
    ];
    (tables, rows)
}

/// Part 3: `vec_mul` with a 20k-cycle PE timeout armed and one PE's
/// command-delivery channel stuck dead, victims PE 1–3.
fn degradation_part() -> Part {
    let wl = vec_mul();
    let (clean, clean_ok) = run_workload(SocConfig::default(), &wl, 8_000_000);
    assert!(clean_ok, "clean baseline must complete and verify");
    let cfg = SocConfig {
        pe_timeout: Some(20_000),
        ..SocConfig::default()
    };
    let mut held = 0;
    let points = [1u16, 2, 3].map(|victim| {
        let mut soc = build(cfg, &wl.entries, &wl.gmem_init);
        let stuck = FaultConfig::stuck_valid(0);
        let hooked = soc.inject_fault(&format!("n{victim}.eject"), stuck, 7);
        assert_eq!(hooked.expect("ejection channel exists"), 1);
        let r = soc
            .run_checked(8_000_000, 200_000)
            .expect("degraded run must recover, not hang");
        let ok = r.completed && verified(&soc, &wl);
        let hub = soc.report().hub;
        held += usize::from(ok && hub.failed_pes == [victim] && hub.remapped >= 1);
        let (failed, remapped, cycles) = (hub.failed_pes, hub.remapped, r.cycles);
        format!("pe{victim} | {ok} | {failed:?} | {remapped} | {cycles}")
    });
    let head = format!(
        "stuck PE (clean run {} cycles) | verified | failed | remapped | cycles",
        clean.cycles
    );
    let row = Row {
        id: "§2.3 PE remap",
        claim: "extension: with the PE timeout armed, a PE whose command channel is stuck dead fails alone, its work is remapped and the results verify (victims PE 1–3)",
        unit: "runs",
        values: vec![held as f64],
        bound: Bound::Exactly(3.0),
    };
    (vec![md(&head, points)], vec![row])
}

/// Part 4: total flit loss on PE 5's command-delivery channel with no
/// timeout armed, which must surface as a diagnosed hang.
fn watchdog_part() -> Part {
    let cmd = PeCommand {
        op: PeOp::Scale,
        a: 0,
        b: 0,
        out: 100,
        len: 8,
        scalar: 3,
    };
    let entries = [TableEntry::Cmd { pe: 5, cmd }, TableEntry::Barrier];
    let mut soc = build(SocConfig::default(), &entries, &[(0, (1..=8).collect())]);
    let hooked = soc.inject_fault("n5.eject", FaultConfig::drop(1.0), 3);
    assert_eq!(hooked.expect("ejection channel exists"), 1);
    let err = soc
        .run_checked(2_000_000, 50_000)
        .expect_err("total flit loss must be detected as a hang");
    let SimError::Hang { cycle, report, .. } = err else {
        panic!("expected Hang, got {err}");
    };
    let note = report.channels.iter().find(|c| c.name == "n5.eject");
    let note = note.map(|c| c.note.clone());
    let wait = report.components.iter().find(|c| c.name == "hub15");
    let wait = wait.and_then(|c| c.wait.clone());
    let skipped = soc.sim().cycles_skipped();
    let facts = [
        note.as_ref().is_some_and(|n| n.contains("drop")),
        wait.as_ref().is_some_and(|w| w.contains("inflight=[5]")),
        skipped > 0,
    ];
    let said = |s: Option<String>| s.unwrap_or_else(|| "not diagnosed".into());
    let (idle, busy) = (report.idle_cycles, report.busy_components().count());
    let points = [
        format!("hang | cycle {cycle}, after {idle} idle cycles; {busy} busy components"),
        format!(
            "idle tail | {}; {skipped} cycles advanced over, not stepped",
            tail(soc.sim().last_loop())
        ),
        format!("channel n5.eject | {}", said(note)),
        format!("hub15 wait | {}", said(wait)),
    ];
    let row = Row {
        id: "§2.3 hang diagnosis",
        claim: "extension: a total flit loss is a diagnosed hang: the channel's note names the drop, the hub's wait pins `inflight=[5]`, and the idle tail is advanced over, not stepped (facts that hold)",
        unit: "facts",
        values: vec![facts.iter().filter(|&&f| f).count() as f64],
        bound: Bound::Exactly(3.0),
    };
    let table = md("total loss on n5.eject | diagnosis", points);
    (vec![table], vec![row])
}

/// E14 / §2.3 extended: link recovery, the raw-NoC failure taxonomy,
/// PE remap and watchdog diagnosis.
pub(super) fn robustness() -> Section {
    let (mut tables, mut rows) = (Vec::new(), Vec::new());
    for (mut t, mut r) in [link_part(), noc_part(), degradation_part(), watchdog_part()] {
        tables.append(&mut t);
        rows.append(&mut r);
    }
    Section {
        id: "E14",
        tables,
        rows,
    }
}
