//! Store-and-forward router (Table 2, `SFRouter`).
//!
//! The baseline against [`super::WhvcRouter`]: every packet is fully
//! buffered at each hop before any of it is forwarded, so per-hop
//! latency grows with packet length (the classic store-and-forward vs
//! wormhole trade-off; see the `router flow control` row of
//! `craft_bench::claims`).

use super::NocFlit;
use crate::{Arbiter, Fifo};
use craft_connections::{In, Out};
use craft_sim::{Component, TickCtx};
use std::collections::VecDeque;

/// Store-and-forward router component.
pub struct SfRouter {
    name: String,
    inputs: Vec<In<NocFlit>>,
    outputs: Vec<Out<NocFlit>>,
    route: Box<dyn Fn(u16) -> usize>,
    /// Per-input packet under assembly.
    assembling: Vec<Vec<NocFlit>>,
    /// Per-input queue of complete packets awaiting the switch.
    complete: Vec<Fifo<Vec<NocFlit>>>,
    /// Per-output packet currently streaming out.
    streaming: Vec<VecDeque<NocFlit>>,
    allocators: Vec<Arbiter>,
    /// Per-output request masks, rebuilt by each tick's bid pass.
    bids: Vec<u64>,
    forwarded: u64,
}

impl SfRouter {
    /// Builds the router; `route` maps destination node id to output
    /// port. `packet_queue` bounds complete packets buffered per input.
    ///
    /// # Panics
    /// Panics if the port vectors differ in length or are empty, or
    /// `packet_queue` is zero.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<In<NocFlit>>,
        outputs: Vec<Out<NocFlit>>,
        packet_queue: usize,
        route: impl Fn(u16) -> usize + 'static,
    ) -> Self {
        assert_eq!(inputs.len(), outputs.len(), "router must be square");
        assert!(!inputs.is_empty(), "router needs at least one port");
        let ports = inputs.len();
        assert!(ports <= 64, "at most 64 ports");
        SfRouter {
            name: name.into(),
            inputs,
            outputs,
            route: Box::new(route),
            assembling: vec![Vec::new(); ports],
            complete: (0..ports).map(|_| Fifo::new(packet_queue)).collect(),
            streaming: (0..ports).map(|_| VecDeque::new()).collect(),
            allocators: (0..ports).map(|_| Arbiter::new(ports)).collect(),
            bids: vec![0; ports],
            forwarded: 0,
        }
    }

    /// Total flits forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Enters input `i`'s queued head packet in the request mask of the
    /// output it routes to. A bid for an output the switch loop has
    /// already passed is never read: the next tick starts from zero.
    fn bid(&mut self, i: usize) {
        if let Some(pkt) = self.complete[i].peek() {
            let out = (self.route)(pkt[0].dst);
            assert!(out < self.bids.len(), "routing function returned bad port");
            self.bids[out] |= 1 << i;
        }
    }
}

impl Component for SfRouter {
    fn name(&self) -> &str {
        &self.name
    }

    /// Quiescent when no packet is under assembly, queued, or
    /// streaming, and no input channel holds committed or staged
    /// flits. Idle ticks touch no arbiter state (`pick(0)` is a
    /// no-op), so eliding them is behaviour-exact.
    ///
    /// Deliberately no `can_sleep` override: unlike
    /// [`super::WhvcRouter`], a backpressured tick here is not free of
    /// side effects — it retries `push_nb` on every streaming output
    /// and `pop_nb` on every empty input, and each refusal is booked
    /// on the channel (`push_backpressure`, `pop_empty`, both in the
    /// SoC's NoC report). Sleeping blocked would need a
    /// `ticks_skipped` that replays those per port; the baseline
    /// router is not worth that, so it stays awake while it holds a
    /// packet (pinned by `backpressured_router_stays_awake`).
    fn is_quiescent(&self) -> bool {
        self.assembling.iter().all(Vec::is_empty)
            && self.complete.iter().all(Fifo::is_empty)
            && self.streaming.iter().all(VecDeque::is_empty)
            && self.inputs.iter().all(|i| !i.has_pending())
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        let ports = self.inputs.len();
        // Assemble whole packets per input.
        for i in 0..ports {
            if self.complete[i].is_full() {
                continue; // backpressure: stop accepting flits
            }
            if let Some(flit) = self.inputs[i].pop_nb() {
                self.assembling[i].push(flit);
                if flit.kind.is_tail() {
                    let pkt = std::mem::take(&mut self.assembling[i]);
                    self.complete[i].push(pkt).expect("checked not full");
                }
            }
        }
        // Each queued head bids once for the output it routes to.
        self.bids.fill(0);
        for i in 0..ports {
            self.bid(i);
        }
        // Per output: continue streaming, else allocate a new packet.
        for out in 0..ports {
            if self.streaming[out].is_empty() {
                if let Some(winner) = self.allocators[out].pick(self.bids[out]) {
                    let pkt = self.complete[winner].pop().expect("peeked");
                    self.streaming[out] = pkt.into();
                    // The winner's next packet bids at once: an output
                    // later in this loop can still grant it.
                    self.bid(winner);
                }
            }
            if let Some(&flit) = self.streaming[out].front() {
                if self.outputs[out].push_nb(flit).is_ok() {
                    self.streaming[out].pop_front();
                    self.forwarded += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::make_packet;
    use craft_connections::{channel, ChannelKind};
    use craft_sim::{ClockSpec, Picoseconds, Simulator};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Bench {
        sim: Simulator,
        clk: craft_sim::ClockId,
        inject: Vec<Out<NocFlit>>,
        drain: Vec<In<NocFlit>>,
    }

    fn single_router(ports: usize) -> Bench {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let mut inject = Vec::new();
        let mut rin = Vec::new();
        let mut rout = Vec::new();
        let mut drain = Vec::new();
        for p in 0..ports {
            let (tx, rx, h) = channel::<NocFlit>(format!("in{p}"), ChannelKind::Buffer(2));
            sim.add_sequential(clk, h.sequential());
            inject.push(tx);
            rin.push(rx);
            let (tx2, rx2, h2) = channel::<NocFlit>(format!("out{p}"), ChannelKind::Buffer(2));
            sim.add_sequential(clk, h2.sequential());
            rout.push(tx2);
            drain.push(rx2);
        }
        sim.add_component(clk, SfRouter::new("sf", rin, rout, 2, |dst| dst as usize));
        Bench {
            sim,
            clk,
            inject,
            drain,
        }
    }

    /// Cycles from first flit injected until last flit drained.
    fn packet_latency(b: &mut Bench, pkt: &[NocFlit], out: usize) -> u64 {
        let mut idx = 0;
        let mut cycles = 0;
        let mut got = 0;
        while got < pkt.len() {
            if idx < pkt.len() && b.inject[0].push_nb(pkt[idx]).is_ok() {
                idx += 1;
            }
            b.sim.run_cycles(b.clk, 1);
            cycles += 1;
            while b.drain[out].pop_nb().is_some() {
                got += 1;
            }
            assert!(cycles < 500, "packet lost");
        }
        cycles
    }

    #[test]
    fn whole_packet_delivered_in_order() {
        let mut b = single_router(3);
        let pkt = make_packet(2, 0, 0, &[7, 8, 9]);
        let mut idx = 0;
        let mut got = Vec::new();
        for _ in 0..40 {
            if idx < pkt.len() && b.inject[0].push_nb(pkt[idx]).is_ok() {
                idx += 1;
            }
            b.sim.run_cycles(b.clk, 1);
            while let Some(f) = b.drain[2].pop_nb() {
                got.push(f.data);
            }
        }
        assert_eq!(got, vec![7, 8, 9]);
    }

    #[test]
    fn latency_grows_with_packet_length() {
        // Store-and-forward serializes buffer-then-send: latency of a
        // k-flit packet is ~2k, vs ~k+const for wormhole.
        let mut b4 = single_router(2);
        let lat4 = packet_latency(&mut b4, &make_packet(1, 0, 0, &[0; 4]), 1);
        let mut b16 = single_router(2);
        let lat16 = packet_latency(&mut b16, &make_packet(1, 0, 0, &[0; 16]), 1);
        assert!(
            lat16 >= lat4 + 12,
            "SF latency must scale ~2x flits: {lat4} vs {lat16}"
        );
    }

    #[test]
    fn no_forwarding_before_tail_arrives() {
        let mut b = single_router(2);
        let pkt = make_packet(1, 0, 0, &[1, 2, 3, 4]);
        // Inject all but the tail.
        for f in &pkt[..3] {
            let mut pushed = false;
            for _ in 0..5 {
                if !pushed && b.inject[0].push_nb(*f).is_ok() {
                    pushed = true;
                }
                b.sim.run_cycles(b.clk, 1);
            }
            assert!(pushed);
        }
        for _ in 0..10 {
            b.sim.run_cycles(b.clk, 1);
        }
        assert!(
            b.drain[1].pop_nb().is_none(),
            "flit escaped before tail arrived"
        );
    }

    /// A four-flit packet streams two flits into an undrained
    /// `Buffer(2)` output and wedges with two in hand. Returns the
    /// output channel's statistics at cycle 50 and the kernel's
    /// skip counters.
    fn wedge(gating: bool) -> (craft_connections::ChannelStats, u64, u64) {
        let mut sim = Simulator::new();
        sim.set_gating(gating);
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let kind = ChannelKind::Buffer(2);
        let (mut inject, rx0, h_in0) = channel::<NocFlit>("in0", kind);
        let (_stub_tx, rx1, h_in1) = channel::<NocFlit>("in1", kind);
        let (tx0, _stub_rx, h_out0) = channel::<NocFlit>("out0", kind);
        let (tx1, _undrained, h_out1) = channel::<NocFlit>("out1", kind);
        for h in [&h_in0, &h_in1, &h_out0, &h_out1] {
            sim.add_sequential_gated(clk, h.sequential(), h.commit_token());
        }
        let wake = craft_sim::ActivityToken::new();
        let (ins, outs) = (vec![rx0, rx1], vec![tx0, tx1]);
        for i in &ins {
            i.set_wake_token(wake.clone());
        }
        for o in &outs {
            o.set_wake_token(wake.clone());
        }
        let id = sim.add_component(clk, SfRouter::new("sf", ins, outs, 2, |dst| dst as usize));
        sim.set_wake_token(id, wake);
        let pkt = make_packet(1, 0, 0, &[1, 2, 3, 4]);
        let mut sent = 0;
        for _ in 0..50 {
            if sent < pkt.len() && inject.push_nb(pkt[sent]).is_ok() {
                sent += 1;
            }
            sim.run_cycles(clk, 1);
        }
        assert_eq!(sent, pkt.len());
        (
            h_out1.stats(),
            sim.ticks_skipped(),
            sim.ticks_skipped_blocked(),
        )
    }

    /// Pins the choice documented at `is_quiescent`: holding a packet
    /// against a full output, the router keeps ticking — and keeps
    /// booking its refused pushes — under gating exactly as without.
    #[test]
    fn backpressured_router_stays_awake() {
        let (out_on, skipped_on, blocked_on) = wedge(true);
        let (out_off, skipped_off, _) = wedge(false);
        assert_eq!(out_on, out_off);
        assert!(
            out_on.push_backpressure > 30,
            "wedged for most of the run: {out_on:?}"
        );
        assert_eq!(blocked_on, 0, "no blocked sleep");
        assert!(
            skipped_on < 10,
            "asleep only before the packet: {skipped_on}"
        );
        assert_eq!(skipped_off, 0);
    }

    #[test]
    fn arbitration_alternates_between_inputs() {
        let mut b = single_router(3);
        let pa = make_packet(2, 0, 0, &[1, 2]);
        let pb = make_packet(2, 1, 0, &[3, 4]);
        let (mut ai, mut bi) = (0, 0);
        let mut srcs = Vec::new();
        for _ in 0..60 {
            if ai < pa.len() && b.inject[0].push_nb(pa[ai]).is_ok() {
                ai += 1;
            }
            if bi < pb.len() && b.inject[1].push_nb(pb[bi]).is_ok() {
                bi += 1;
            }
            b.sim.run_cycles(b.clk, 1);
            while let Some(f) = b.drain[2].pop_nb() {
                srcs.push(f.src);
            }
        }
        assert_eq!(srcs.len(), 4);
        // Packets whole, not interleaved.
        let transitions = srcs.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "{srcs:?}");
    }

    /// Lends the router to the kernel while the test reads `forwarded`.
    struct Shared(Rc<RefCell<SfRouter>>);

    impl Component for Shared {
        fn name(&self) -> &str {
            "shared"
        }
        fn is_quiescent(&self) -> bool {
            self.0.borrow().is_quiescent()
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            self.0.borrow_mut().tick(ctx);
        }
    }

    /// Input 0 queues a packet for output 1, which is still streaming
    /// another, and behind it one for output 2. The tick that allocates
    /// the first also routes the second, and it leaves on output 2 in
    /// the same tick, as when every free output re-scanned every queue.
    #[test]
    fn a_winner_s_next_packet_wins_a_later_output_in_the_same_tick() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let (mut inject, mut drain, mut rin, mut rout) = (vec![], vec![], vec![], vec![]);
        for p in 0..3 {
            let (tx, rx, h) = channel::<NocFlit>(format!("in{p}"), ChannelKind::Buffer(2));
            let (tx2, rx2, h2) = channel::<NocFlit>(format!("out{p}"), ChannelKind::Buffer(2));
            sim.add_sequential(clk, h.sequential());
            sim.add_sequential(clk, h2.sequential());
            inject.push(tx);
            rin.push(rx);
            rout.push(tx2);
            drain.push(rx2);
        }
        let router = Rc::new(RefCell::new(SfRouter::new("sf", rin, rout, 2, |d| {
            d as usize
        })));
        sim.add_component(clk, Shared(Rc::clone(&router)));
        let forwarded = || router.borrow().forwarded();
        let mut send = |sim: &mut Simulator, input: usize, pkt: &[NocFlit]| {
            for &f in pkt {
                while inject[input].push_nb(f).is_err() {
                    sim.run_cycles(clk, 1);
                }
                sim.run_cycles(clk, 1);
            }
        };
        // Four flits for output 1: two fill its channel, two stay
        // streaming.
        send(&mut sim, 2, &make_packet(1, 2, 0, &[1, 2, 3, 4]));
        send(&mut sim, 0, &make_packet(1, 0, 0, &[10]));
        send(&mut sim, 0, &make_packet(2, 0, 0, &[20]));
        sim.run_cycles(clk, 8);
        assert_eq!(forwarded(), 2, "output 1 wedged, both packets queued");
        let mut cycles = 0;
        let mut steps = Vec::new();
        while forwarded() < 6 {
            let before = forwarded();
            let _ = drain[1].pop_nb();
            sim.run_cycles(clk, 1);
            steps.push(forwarded() - before);
            cycles += 1;
            assert!(cycles < 20, "output 1 never drained: {steps:?}");
        }
        assert_eq!(
            steps.last(),
            Some(&2),
            "flits 10 and 20 in one tick: {steps:?}"
        );
        assert_eq!(drain[2].pop_nb().map(|f| f.data), Some(20));
    }
}
