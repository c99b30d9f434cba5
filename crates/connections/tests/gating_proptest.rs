//! Property test for quiescence gating: an arbitrary producer →
//! relay → sink pipeline, spread over arbitrary clock domains, with
//! an arbitrary subset of components opted into gating, must produce
//! bit-identical observations (value + arrival cycle) and identical
//! per-clock cycle counts whether gating is enabled or not. Gating is
//! a wall-clock optimisation; determinism is the contract.
//!
//! The second property swaps the scripted producer for one that holds
//! a backlog and sleeps *blocked* while its output is backpressured
//! (`Component::can_sleep` beyond `is_quiescent`), woken by the
//! consumer's pop through `Out::set_wake_token` — across clock domains,
//! so the pop that frees a slot is often staged when the wake arrives.

use craft_connections::{channel, ChannelKind, In, Out};
use craft_sim::{ActivityToken, ClockSpec, Component, Picoseconds, Simulator, Sleep, TickCtx};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Pushes an increasing sequence on the cycles its script marks
/// active; never gated (it drives itself, no external wake source).
struct Producer {
    out: Out<u32>,
    script: Vec<bool>,
    idx: usize,
    next: u32,
}

impl Component for Producer {
    fn name(&self) -> &str {
        "producer"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        if self.idx < self.script.len() {
            if self.script[self.idx] && self.out.push_nb(self.next).is_ok() {
                self.next += 1;
            }
            self.idx += 1;
        }
    }
}

/// One-deep store-and-forward stage between two channels.
struct Relay {
    input: In<u32>,
    out: Out<u32>,
    hold: Option<u32>,
}

impl Component for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn is_quiescent(&self) -> bool {
        self.hold.is_none() && !self.input.has_pending()
    }
    /// Holding a value against a full output, the tick below only
    /// retries the push.
    fn can_sleep(&self) -> Sleep {
        if self.is_quiescent() {
            Sleep::Idle
        } else if self.hold.is_some() && self.out.is_blocked() {
            Sleep::Blocked
        } else {
            Sleep::No
        }
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        if self.hold.is_none() {
            self.hold = self.input.pop_nb();
        }
        if let Some(v) = self.hold {
            if self.out.push_nb(v).is_ok() {
                self.hold = None;
            }
        }
    }
}

/// Records every delivered value together with the local cycle it
/// arrived on — the "observation" gating must not perturb.
struct Sink {
    input: In<u32>,
    log: Rc<RefCell<Vec<(u64, u32)>>>,
}

impl Component for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn is_quiescent(&self) -> bool {
        !self.input.has_pending()
    }
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        while let Some(v) = self.input.pop_nb() {
            self.log.borrow_mut().push((ctx.cycle(), v));
        }
    }
}

/// Pushes its whole backlog as fast as the channel takes it: idle once
/// the backlog is gone, blocked while the output is full and no pop is
/// staged. Either way only its own output can rouse it.
struct BurstProducer {
    out: Out<u32>,
    backlog: VecDeque<u32>,
}

impl Component for BurstProducer {
    fn name(&self) -> &str {
        "burst-producer"
    }
    fn is_quiescent(&self) -> bool {
        self.backlog.is_empty()
    }
    fn can_sleep(&self) -> Sleep {
        if self.backlog.is_empty() {
            Sleep::Idle
        } else if self.out.is_blocked() {
            Sleep::Blocked
        } else {
            Sleep::No
        }
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        if let Some(&v) = self.backlog.front() {
            if self.out.push_nb(v).is_ok() {
                self.backlog.pop_front();
            }
        }
    }
}

/// What feeds the pipeline.
enum Source<'a> {
    /// Pushes on the cycles the script marks active; never gated.
    Scripted(&'a [bool]),
    /// Pushes `0..n` back to back; gated when `gate_mask` bit 2 is set.
    Burst(u32),
}

/// Builds the pipeline and runs it to a fixed horizon. `gate_mask`
/// bit 0 opts the relay into gating, bit 1 the sink, bit 2 a burst
/// producer. Returns the sink's log, the per-clock cycle counts and
/// the kernel's skipped / blocked-skipped tick counts.
fn run_pipeline(
    gating: bool,
    periods: [u64; 3],
    source: Source<'_>,
    depth: usize,
    gate_mask: u8,
) -> (Vec<(u64, u32)>, [u64; 3], u64, u64) {
    let mut sim = Simulator::new();
    sim.set_gating(gating);
    let clks: Vec<_> = periods
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.add_clock(ClockSpec::new(format!("c{i}"), Picoseconds::new(p))))
        .collect();

    let (p_tx, r_rx, h1) = channel::<u32>("p2r", ChannelKind::Buffer(depth));
    let (r_tx, s_rx, h2) = channel::<u32>("r2s", ChannelKind::Buffer(depth));
    sim.add_sequential_gated(clks[0], h1.sequential(), h1.commit_token());
    sim.add_sequential_gated(clks[1], h2.sequential(), h2.commit_token());

    let relay_wake = ActivityToken::new();
    let sink_wake = ActivityToken::new();
    r_rx.set_wake_token(relay_wake.clone());
    r_tx.set_wake_token(relay_wake.clone());
    s_rx.set_wake_token(sink_wake.clone());

    let steps = match source {
        Source::Scripted(script) => {
            sim.add_component(
                clks[0],
                Producer {
                    out: p_tx,
                    script: script.to_vec(),
                    idx: 0,
                    next: 0,
                },
            );
            script.len() as u64
        }
        Source::Burst(n) => {
            let producer_wake = ActivityToken::new();
            p_tx.set_wake_token(producer_wake.clone());
            let id = sim.add_component(
                clks[0],
                BurstProducer {
                    out: p_tx,
                    backlog: (0..n).collect(),
                },
            );
            if gate_mask & 4 != 0 {
                sim.set_wake_token(id, producer_wake);
            }
            // Every value crosses two channels at the slowest clock.
            u64::from(n) * 3
        }
    };
    let relay_id = sim.add_component(
        clks[1],
        Relay {
            input: r_rx,
            out: r_tx,
            hold: None,
        },
    );
    if gate_mask & 1 != 0 {
        sim.set_wake_token(relay_id, relay_wake);
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink_id = sim.add_component(
        clks[2],
        Sink {
            input: s_rx,
            log: Rc::clone(&log),
        },
    );
    if gate_mask & 2 != 0 {
        sim.set_wake_token(sink_id, sink_wake);
    }

    let horizon = (steps + 64) * periods.iter().max().copied().unwrap_or(1);
    sim.run_until_time(Picoseconds::new(horizon));

    let cycles = [
        sim.cycles(clks[0]),
        sim.cycles(clks[1]),
        sim.cycles(clks[2]),
    ];
    let out = log.borrow().clone();
    (
        out,
        cycles,
        sim.ticks_skipped(),
        sim.ticks_skipped_blocked(),
    )
}

/// A fast producer behind a one-deep channel and a four-times slower
/// consumer: the producer spends most of the run asleep on
/// backpressure, and nothing the sink sees moves.
#[test]
fn backpressured_producer_sleeps_while_blocked() {
    let periods = [400, 1600, 1600];
    let (log_on, cyc_on, _, blocked_on) = run_pipeline(true, periods, Source::Burst(20), 1, 7);
    let (log_off, cyc_off, skipped_off, blocked_off) =
        run_pipeline(false, periods, Source::Burst(20), 1, 7);
    assert_eq!(log_on, log_off, "observations diverged");
    assert_eq!(cyc_on, cyc_off);
    assert_eq!(log_on.len(), 20, "every value arrives");
    assert_eq!((skipped_off, blocked_off), (0, 0));
    assert!(blocked_on > 40, "the producer barely slept: {blocked_on}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random activity mixes over random multi-clock schedules:
    /// observations and cycle counts are identical gating on vs off,
    /// and every pushed value arrives exactly once, in order.
    #[test]
    fn gating_never_changes_observations(
        periods in proptest::array::uniform3(400u64..1600),
        script in proptest::collection::vec(any::<bool>(), 1..120),
        depth in 1usize..5,
        gate_mask in 0u8..4,
    ) {
        let (log_on, cyc_on, _skipped, _) =
            run_pipeline(true, periods, Source::Scripted(&script), depth, gate_mask);
        let (log_off, cyc_off, skipped_off, _) =
            run_pipeline(false, periods, Source::Scripted(&script), depth, gate_mask);
        prop_assert_eq!(&log_on, &log_off, "observations diverged");
        prop_assert_eq!(cyc_on, cyc_off, "cycle counts diverged");
        prop_assert_eq!(skipped_off, 0);
        // Lossless in-order delivery end to end.
        let values: Vec<u32> = log_on.iter().map(|&(_, v)| v).collect();
        let expect: Vec<u32> = (0..values.len() as u32).collect();
        prop_assert_eq!(values, expect);
    }

    /// A backlogged producer that sleeps while backpressured, over
    /// random clock ratios and channel depths: the sink's observations
    /// and the cycle counts are those of the ungated run, and the whole
    /// backlog arrives in order.
    #[test]
    fn blocked_sleep_never_changes_observations(
        periods in proptest::array::uniform3(400u64..1600),
        n in 1u32..60,
        depth in 1usize..5,
        gate_mask in 0u8..8,
    ) {
        let (log_on, cyc_on, _, _) =
            run_pipeline(true, periods, Source::Burst(n), depth, gate_mask);
        let (log_off, cyc_off, skipped_off, _) =
            run_pipeline(false, periods, Source::Burst(n), depth, gate_mask);
        prop_assert_eq!(&log_on, &log_off, "observations diverged");
        prop_assert_eq!(cyc_on, cyc_off, "cycle counts diverged");
        prop_assert_eq!(skipped_off, 0);
        let values: Vec<u32> = log_on.iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(values, (0..n).collect::<Vec<u32>>());
    }
}
