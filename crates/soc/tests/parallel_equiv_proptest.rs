//! Property tests for the parallel-simulation determinism contract:
//! the GALS-sharded multi-threaded simulator must be **bit-identical
//! and cycle-identical** to the sequential kernel — same cycle counts,
//! same memory results, same charged gates, same fault statistics and
//! the same full [`SocReport`] — across fidelity, clocking scheme,
//! activity gating and thread count, with and without injected channel
//! faults, and for the reliable LI transport's retransmission
//! machinery running under the epoch protocol.

use craft_connections::{
    channel, reliable_link, ChannelKind, FaultConfig, In, MailboxHub, Out, ReliableConfig,
    ReliableStats,
};
use craft_sim::{
    run_parallel, ClockSpec, Component, EpochSync, EpochVerdict, EpochWorker, Picoseconds,
    SimError, Simulator, TickCtx,
};
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul, Workload};
use craft_soc::{ClockingMode, ParallelSoc, SimEngine, Soc, SocConfig, SocReport};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;

/// Everything observable about one run, sequential or parallel.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    cycles: u64,
    completed: bool,
    verified: bool,
    report: SocReport,
    coverage: Vec<(String, u64)>,
}

fn run_seq(cfg: SocConfig, wl: &Workload, max: u64) -> Outcome {
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    let r = soc.run(max);
    let mut verified = r.completed;
    for (base, expect) in &wl.expected {
        if &soc.gmem_read(*base, expect.len()) != expect {
            verified = false;
        }
    }
    Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: soc.report(),
        coverage: soc.coverage().bins(),
    }
}

fn run_par(cfg: SocConfig, wl: &Workload, max: u64, threads: usize) -> Outcome {
    let mut soc = ParallelSoc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        threads,
    );
    let r = soc.run(max);
    let mut verified = r.completed;
    for (base, expect) in &wl.expected {
        if &soc.gmem_read(*base, expect.len()) != expect {
            verified = false;
        }
    }
    Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: soc.report(),
        coverage: soc.coverage().bins(),
    }
}

proptest! {
    // Each case is one sequential plus one multi-threaded full-SoC run
    // in debug mode on a small host — keep the case count low; the
    // fidelity/clocking/thread axes each get drawn within a few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clean runs: sequential ≡ parallel for every observable.
    #[test]
    fn parallel_is_bit_and_cycle_identical(
        fidelity in prop::sample::select(vec![
            Fidelity::SimAccurate,
            Fidelity::Rtl,
            Fidelity::RtlCompiled,
        ]),
        clocking in prop_oneof![
            Just(ClockingMode::Synchronous),
            (100u32..5_000).prop_map(|spread_ppm| ClockingMode::Gals { spread_ppm }),
            (0u64..1_000_000).prop_map(|noise_seed| ClockingMode::GalsAdaptive { noise_seed }),
        ],
        gating: bool,
        // 1 is the degenerate cut: epoch machinery on, a single shard.
        threads in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let cfg = SocConfig { fidelity, clocking, gating, ..SocConfig::default() };
        let wl = vec_mul();
        let seq = run_seq(cfg, &wl, 2_000_000);
        let par = run_par(cfg, &wl, 2_000_000, threads);
        prop_assert!(seq.verified, "sequential baseline must verify ({cfg:?})");
        prop_assert_eq!(seq, par, "parallel diverged ({cfg:?}, {} threads)", threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fault campaigns: with identical injector seeds, the sharded
    /// simulator reproduces the sequential run's outcome — completed
    /// or hung, corrupted or clean — and its fault statistics.
    #[test]
    fn parallel_matches_sequential_under_faults(
        fidelity in prop::sample::select(vec![Fidelity::SimAccurate, Fidelity::Rtl]),
        threads in prop::sample::select(vec![2usize, 4]),
        pat in prop::sample::select(vec!["n5.eject", "n9.inject", "->"]),
        fault in prop_oneof![
            (1u32..30).prop_map(|p| FaultConfig::bit_flip(f64::from(p) / 100.0)),
            (1u32..15).prop_map(|p| FaultConfig::drop(f64::from(p) / 100.0)),
            (1u32..30).prop_map(|p| FaultConfig::duplicate(f64::from(p) / 100.0)),
        ],
        seed in 0u64..1_000_000,
    ) {
        // Synchronous keeps the "->" mesh-link pattern meaningful (and
        // at 2/4 threads those links cross shard cuts, so the faulted
        // channel itself is a split TX half on some worker).
        let cfg = SocConfig { fidelity, ..SocConfig::default() };
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        let mut seq = Soc::build(cfg, &program, &table, &wl.gmem_init);
        let seq_matched = seq.inject_fault(pat, fault, seed).expect("pattern matches");
        prop_assert!(seq_matched > 0);
        let seq_run = seq.run_checked(2_000_000, 50_000);

        let mut par = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, threads);
        let par_matched = par.inject_fault(pat, fault, seed).expect("pattern matches");
        prop_assert_eq!(seq_matched, par_matched, "match counts diverged");
        prop_assert_eq!(
            seq.report().faults.armed_channels,
            par.report().faults.armed_channels,
            "armed-channel counts diverged"
        );
        let par_run = par.run_checked(2_000_000, 50_000);

        match (&seq_run, &par_run) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.cycles, p.cycles, "cycles diverged ({cfg:?})");
                prop_assert_eq!(s.completed, p.completed);
                prop_assert_eq!(seq.report(), par.report(), "reports diverged ({cfg:?})");
                for (base, expect) in &wl.expected {
                    prop_assert_eq!(
                        seq.gmem_read(*base, expect.len()),
                        par.gmem_read(*base, expect.len()),
                        "memory diverged ({cfg:?})"
                    );
                }
            }
            (Err(SimError::Hang { cycle: sc, .. }), Err(SimError::Hang { cycle: pc, .. })) => {
                // The parallel watchdog aggregates progress one epoch
                // late, so detection may trail by an instant or two;
                // the hang itself must be the same.
                prop_assert!(
                    *pc >= *sc && *pc - *sc <= 2,
                    "hang cycles diverged: seq {sc}, par {pc}"
                );
            }
            (s, p) => prop_assert!(
                false,
                "outcome kinds diverged ({cfg:?}): seq {s:?}, par {p:?}"
            ),
        }
        prop_assert_eq!(
            seq.fault_stats(pat).expect("pattern matches"),
            par.fault_stats(pat).expect("pattern matches"),
            "fault statistics diverged ({cfg:?})"
        );
    }
}

/// Total flit loss on a PE's delivery channel hangs the sharded run
/// exactly as it hangs the sequential one, and the merged diagnosis
/// still names the faulted channel and the hub's stranded command.
#[test]
fn hang_diagnosis_survives_sharding() {
    use craft_soc::workloads::TableEntry;
    use craft_soc::{PeCommand, PeOp};
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
    let program = orchestrator_program();
    let table = table_words(&entries);

    let run = |err: SimError| {
        let SimError::Hang { cycle, report, .. } = err else {
            panic!("expected Hang, got {err}");
        };
        let ch = report
            .channels
            .iter()
            .find(|c| c.name == "n5.eject")
            .expect("faulted channel diagnosed")
            .clone();
        let hub = report
            .components
            .iter()
            .find(|c| c.name == "hub15")
            .expect("hub diagnosed")
            .clone();
        (cycle, ch, hub)
    };

    let mut seq = Soc::build(SocConfig::default(), &program, &table, &gmem_init);
    seq.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let (seq_cycle, seq_ch, seq_hub) = run(seq
        .run_checked(2_000_000, 50_000)
        .expect_err("total loss must hang"));

    let mut par = ParallelSoc::build(SocConfig::default(), &program, &table, &gmem_init, 4);
    par.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let (par_cycle, par_ch, par_hub) = run(par
        .run_checked(2_000_000, 50_000)
        .expect_err("total loss must hang"));

    assert!(
        par_cycle >= seq_cycle && par_cycle - seq_cycle <= 2,
        "hang cycle diverged: seq {seq_cycle}, par {par_cycle}"
    );
    assert_eq!(seq_ch.note, par_ch.note, "channel diagnosis diverged");
    assert!(par_ch.note.contains("drop"), "note: {}", par_ch.note);
    assert_eq!(seq_hub.wait, par_hub.wait, "hub wait reason diverged");
    assert!(
        par_hub
            .wait
            .as_deref()
            .expect("hub wait")
            .contains("inflight=[5]"),
        "wait: {:?}",
        par_hub.wait
    );
}

// ---------------------------------------------------------------------
// Reliable LI transport under the epoch protocol.
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

/// Producer → src → [reliable link] → sink, all in one kernel.
fn reliable_seq(values: &[u32], fault: (FaultConfig, u64)) -> (Vec<u32>, u64, ReliableStats) {
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
    link.data.inject_faults(fault.0, fault.1);
    let reg = link.register(&mut sim, clk);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.add_component(
        clk,
        Sink {
            input: dst_rx,
            log: Rc::clone(&log),
        },
    );
    let want = values.len();
    let done_log = Rc::clone(&log);
    let finished = sim.run_until(clk, 500_000, move || done_log.borrow().len() >= want);
    assert!(finished, "sequential delivery incomplete");
    let stats = reg.stats.borrow().clone();
    let delivered = log.borrow().clone();
    (delivered, sim.cycles(clk), stats)
}

/// The same system split at the producer/link boundary across two
/// epoch-synchronized workers: the producer shard pushes into the
/// transmit half of a mailbox-split channel; the link (with its
/// injected faults and retransmission machinery), the receive half and
/// the sink live on the decider shard.
fn reliable_par(values: &[u32], fault: (FaultConfig, u64)) -> (Vec<u32>, u64, ReliableStats) {
    let sync = Arc::new(EpochSync::new(2, 1));
    let hub: MailboxHub<u32> = MailboxHub::default();

    let producer_hub = hub.clone();
    let producer_sync = Arc::clone(&sync);
    let vals = values.to_vec();
    let producer = thread::spawn(move || {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("clk", Picoseconds::from_ghz(1.0)));
        let (src_tx, _src_rx, src_h) = channel::<u32>("src", ChannelKind::Buffer(4));
        src_h.split_remote_tx(producer_hub.take_tx("src"));
        sim.add_sequential(clk, src_h.sequential());
        sim.add_component(
            clk,
            Producer {
                out: src_tx,
                values: vals,
                idx: 0,
            },
        );
        let worker = EpochWorker {
            sync: &producer_sync,
            index: 0,
            owned_clocks: &[],
            decider: false,
        };
        let mut drain = |_: &mut Simulator| 0u64;
        let mut decide = |_: &mut Simulator, _: bool| None;
        run_parallel(&mut sim, &worker, &mut drain, &mut decide);
    });

    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("clk", Picoseconds::from_ghz(1.0)));
    let (_src_tx, src_rx, src_h) = channel::<u32>("src", ChannelKind::Buffer(4));
    src_h.split_remote_rx(hub.take_rx("src"));
    sim.add_sequential(clk, src_h.sequential());
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
    link.data.inject_faults(fault.0, fault.1);
    let reg = link.register(&mut sim, clk);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.add_component(
        clk,
        Sink {
            input: dst_rx,
            log: Rc::clone(&log),
        },
    );
    let want = values.len();
    let worker = EpochWorker {
        sync: &sync,
        index: 1,
        owned_clocks: &[clk],
        decider: true,
    };
    let mut drain = |_: &mut Simulator| src_h.drain_remote();
    let done_log = Rc::clone(&log);
    let mut decide = move |sim: &mut Simulator, _: bool| {
        if done_log.borrow().len() >= want {
            return Some(EpochVerdict::Predicate);
        }
        if sim.cycles(clk) >= 500_000 {
            return Some(EpochVerdict::MaxCycles);
        }
        None
    };
    let out = run_parallel(&mut sim, &worker, &mut drain, &mut decide);
    producer.join().expect("producer shard panicked");
    assert_eq!(
        out.verdict,
        Some(EpochVerdict::Predicate),
        "parallel delivery incomplete"
    );
    let stats = reg.stats.borrow().clone();
    let delivered = log.borrow().clone();
    (delivered, sim.cycles(clk), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The reliable link's detect-and-retransmit machinery behaves
    /// identically when its upstream channel is a mailbox-split half
    /// crossing an epoch boundary: same delivered stream, same cycle
    /// count, same protocol statistics.
    #[test]
    fn reliable_retransmission_is_epoch_invariant(
        fault in prop_oneof![
            (5u32..30).prop_map(|p| FaultConfig::drop(f64::from(p) / 100.0)),
            (5u32..30).prop_map(|p| FaultConfig::bit_flip(f64::from(p) / 100.0)),
            (5u32..30).prop_map(|p| FaultConfig::duplicate(f64::from(p) / 100.0)),
        ],
        seed in 0u64..1_000_000,
    ) {
        let values: Vec<u32> = (0..200u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let (seq_data, seq_cycles, seq_stats) = reliable_seq(&values, (fault, seed));
        let (par_data, par_cycles, par_stats) = reliable_par(&values, (fault, seed));
        prop_assert_eq!(&seq_data, &values, "sequential link must deliver in order");
        prop_assert_eq!(seq_data, par_data, "delivered streams diverged");
        prop_assert_eq!(seq_cycles, par_cycles, "cycle counts diverged");
        prop_assert!(
            seq_stats.retransmits + seq_stats.checksum_drops + seq_stats.dup_drops > 0,
            "campaign must actually exercise the protocol: {seq_stats:?}"
        );
        prop_assert_eq!(seq_stats, par_stats, "protocol statistics diverged");
    }
}

/// Telemetry on the sharded simulator is observation-only and the
/// merged snapshot carries both the per-worker SoC probes and the
/// facade's per-shard epoch probes.
#[test]
fn parallel_telemetry_merges_and_stays_invisible() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let cfg = SocConfig::default();

    let mut plain = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, 2);
    let r_plain = plain.run(2_000_000);
    let mut tel = ParallelSoc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, 2, true);
    let r_tel = tel.run(2_000_000);
    assert!(r_plain.completed && r_tel.completed);
    assert_eq!(r_plain.cycles, r_tel.cycles, "telemetry perturbed the run");
    assert_eq!(
        plain.report(),
        tel.report(),
        "telemetry perturbed the report"
    );
    assert!(plain.telemetry_snapshot().is_none());

    let snap = tel.telemetry_snapshot().expect("sink attached");
    for shard in 0..2 {
        for field in [
            "ticks",
            "mailbox_tokens",
            "barrier_wait_ns",
            "barrier_wait.p50_ns",
            "barrier_wait.p95_ns",
            "barrier_wait.max_ns",
        ] {
            let path = format!("sim.shard.{shard}.{field}");
            assert!(
                snap.metrics.iter().any(|m| m.path == path),
                "missing epoch probe {path}"
            );
        }
    }
    assert!(
        snap.metrics.iter().any(|m| m.path == "sim.repartitions"),
        "missing repartition odometer probe"
    );
    // The histogram probes are consistent with the compat sum: the
    // per-instant max cannot exceed the accumulated total.
    for shard in 0..2 {
        let get = |field: &str| {
            snap.metrics
                .iter()
                .find(|m| m.path == format!("sim.shard.{shard}.{field}"))
                .expect("probe present")
                .value
        };
        assert!(get("barrier_wait.max_ns") <= get("barrier_wait_ns"));
        assert!(get("barrier_wait.p50_ns") <= get("barrier_wait.p95_ns"));
    }
    let row = |path: &str| {
        snap.metrics
            .iter()
            .find(|m| m.path == path)
            .unwrap_or_else(|| panic!("missing {path}"))
            .value
    };
    assert!(row("sim.shard.0.ticks") > 0, "shard 0 never fired");
    assert!(row("sim.shard.1.ticks") > 0, "shard 1 never fired");
    assert!(
        row("sim.shard.0.mailbox_tokens") + row("sim.shard.1.mailbox_tokens") > 0,
        "no tokens crossed the shard cut"
    );

    // Per-SoC observables in the merged snapshot match a sequential
    // sink's values row for row (paths under soc.* are architectural).
    let sink = craft_sim::Telemetry::new();
    let mut seq = Soc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, Some(sink));
    let r_seq = seq.run(2_000_000);
    assert!(r_seq.completed);
    let seq_snap = seq.telemetry_snapshot().expect("sink attached");
    for m in seq_snap
        .metrics
        .iter()
        .filter(|m| m.path.starts_with("soc."))
    {
        assert_eq!(
            row(&m.path),
            m.value,
            "merged value diverged for {}",
            m.path
        );
    }
}
