//! Wormhole router with virtual channels (Table 2, `WHVCRouter`) —
//! the router used for the prototype SoC's PE-array NoC (Fig. 5).
//!
//! Microarchitecture: per-(input, VC) flit buffers, route computation
//! on head flits via a caller-supplied routing function, per-output
//! wormhole locking (a granted packet holds its output until the tail
//! flit passes), and round-robin switch allocation among competing
//! (input, VC) candidates. Backpressure is channel-level: a flit is
//! only accepted from the link when its VC buffer has room.
//!
//! A tick costs its flits: a router holding none skips the switch
//! stage, each occupied slot bids once for the output its head needs,
//! and an output port is asked `can_push` only when a flit wants it.

use super::NocFlit;
use crate::{Arbiter, Fifo};
use craft_connections::{In, Out};
use craft_sim::{Component, Sleep, TickCtx};

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhvcConfig {
    /// Virtual channels per input port (1..=8).
    pub vcs: usize,
    /// Flit slots per (input, VC) buffer.
    pub buffer_depth: usize,
}

impl Default for WhvcConfig {
    fn default() -> Self {
        WhvcConfig {
            vcs: 2,
            buffer_depth: 4,
        }
    }
}

/// Wormhole virtual-channel router component.
pub struct WhvcRouter {
    name: String,
    inputs: Vec<In<NocFlit>>,
    outputs: Vec<Out<NocFlit>>,
    route: Box<dyn Fn(u16) -> usize>,
    cfg: WhvcConfig,
    /// Flit buffers indexed `input * vcs + vc`.
    buffers: Vec<Fifo<NocFlit>>,
    /// Route lock per (input, VC): output claimed by the in-flight
    /// packet.
    route_lock: Vec<Option<usize>>,
    /// Wormhole owner per output: the (input*vcs+vc) holding it.
    output_owner: Vec<Option<usize>>,
    /// Switch allocator per output.
    allocators: Vec<Arbiter>,
    /// Per-output request masks, rebuilt by each tick's bid pass.
    bids: Vec<u64>,
    /// Bit `slot` is set while `buffers[slot]` holds a flit.
    occupied: u64,
    /// Flits forwarded (lifetime).
    forwarded: u64,
    /// The last tick accepted no flit and forwarded none.
    idle_tick: bool,
}

impl WhvcRouter {
    /// Builds a router over matching input/output port vectors. `route`
    /// maps a destination node id to an output port index.
    ///
    /// # Panics
    /// Panics if the port vectors differ in length, are empty, or the
    /// configuration is out of range.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<In<NocFlit>>,
        outputs: Vec<Out<NocFlit>>,
        cfg: WhvcConfig,
        route: impl Fn(u16) -> usize + 'static,
    ) -> Self {
        assert_eq!(inputs.len(), outputs.len(), "router must be square");
        assert!(!inputs.is_empty(), "router needs at least one port");
        assert!((1..=8).contains(&cfg.vcs), "vcs must be 1..=8");
        assert!(cfg.buffer_depth > 0, "buffer depth must be nonzero");
        let ports = inputs.len();
        let slots = ports * cfg.vcs;
        assert!(slots <= 64, "ports * vcs must be <= 64 for the allocator");
        WhvcRouter {
            name: name.into(),
            inputs,
            outputs,
            route: Box::new(route),
            cfg,
            buffers: (0..slots).map(|_| Fifo::new(cfg.buffer_depth)).collect(),
            route_lock: vec![None; slots],
            output_owner: vec![None; ports],
            allocators: (0..ports).map(|_| Arbiter::new(slots)).collect(),
            bids: vec![0; ports],
            occupied: 0,
            forwarded: 0,
            idle_tick: false,
        }
    }

    /// Total flits forwarded through the switch.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    fn slot(&self, input: usize, vc: usize) -> usize {
        input * self.cfg.vcs + vc
    }

    /// Output port the head of `slot` needs, computing and caching the
    /// route on head flits.
    fn desired_output(&mut self, slot: usize) -> Option<usize> {
        if let Some(out) = self.route_lock[slot] {
            return Some(out);
        }
        let head = *self.buffers[slot].peek()?;
        if head.kind.is_head() {
            let out = (self.route)(head.dst);
            assert!(
                out < self.outputs.len(),
                "routing function returned bad port"
            );
            self.route_lock[slot] = Some(out);
            Some(out)
        } else {
            // Body/tail without a lock: packet not yet started — cannot
            // happen with in-order links; defensive None.
            None
        }
    }

    /// Enters `slot`'s head in the request mask of the output it needs.
    /// A bid for an output the switch loop has already passed is never
    /// read: the next tick's bid pass starts from zero.
    fn bid(&mut self, slot: usize) {
        if let Some(out) = self.desired_output(slot) {
            self.bids[out] |= 1 << slot;
        }
    }

    /// Input stage: accepts at most one flit per input port, into the
    /// VC buffer the flit names, only when that buffer has room.
    /// Returns whether a flit moved.
    fn accept(&mut self) -> bool {
        let mut moved = false;
        for i in 0..self.inputs.len() {
            if let Some(flit) = self.inputs[i].peek() {
                let vc = flit.vc as usize;
                assert!(vc < self.cfg.vcs, "flit names nonexistent vc {vc}");
                let slot = self.slot(i, vc);
                if !self.buffers[slot].is_full() {
                    let flit = self.inputs[i].pop_nb().expect("peeked");
                    self.buffers[slot].push(flit).expect("had room");
                    self.occupied |= 1 << slot;
                    moved = true;
                }
            }
        }
        moved
    }

    /// Switch stage: one bid pass, then per output in port order the
    /// wormhole owner streams or the round-robin allocator grants among
    /// the bidders. A grant that pops a tail exposes the slot's next
    /// head, which bids again at once, so an output later in the loop
    /// can still take it this tick. Returns whether a flit moved.
    fn switch(&mut self) -> bool {
        self.bids.fill(0);
        let mut held = self.occupied;
        while held != 0 {
            let slot = held.trailing_zeros() as usize;
            held &= held - 1;
            self.bid(slot);
        }
        let mut moved = false;
        for out in 0..self.outputs.len() {
            // Find the sender before asking the port: `can_push` has no
            // side effects, so skipping an unwanted port is unobservable.
            let wanted = match self.output_owner[out] {
                // Wormhole: the owner streams until its tail, but only
                // when it has a flit ready.
                Some(owner) => self.occupied & (1 << owner) != 0,
                None => self.bids[out] != 0,
            };
            if !wanted || !self.outputs[out].can_push() {
                continue;
            }
            let slot = match self.output_owner[out] {
                Some(owner) => owner,
                None => self.allocators[out]
                    .pick(self.bids[out])
                    .expect("nonzero bids"),
            };
            let flit = self.buffers[slot].pop().expect("candidate has flit");
            if self.buffers[slot].is_empty() {
                self.occupied &= !(1 << slot);
            }
            self.outputs[out].push_nb(flit).expect("output ready");
            self.forwarded += 1;
            moved = true;
            if flit.kind.is_tail() {
                self.output_owner[out] = None;
                self.route_lock[slot] = None;
                self.bid(slot);
            } else {
                self.output_owner[out] = Some(slot);
            }
        }
        moved
    }
}

impl Component for WhvcRouter {
    fn name(&self) -> &str {
        &self.name
    }

    /// Quiescent when every VC buffer is empty and no input channel
    /// holds committed or staged flits. In that state a tick moves
    /// nothing and leaves all arbitration state untouched
    /// (`Arbiter::pick(0)` returns `None` without advancing the
    /// round-robin pointer, and an output owner with an empty buffer
    /// just waits), so elided ticks are behaviour-exact. Route locks
    /// and output owners may stay held across a sleep: the wormhole
    /// resumes when the owner's next flit arrives and wakes us.
    fn is_quiescent(&self) -> bool {
        self.occupied == 0 && self.inputs.iter().all(|i| !i.has_pending())
    }

    /// Also sleeps *blocked*: the last tick moved nothing — every
    /// pending input flit faces a full VC buffer, every buffered flit a
    /// full output or an output whose wormhole owner has nothing to
    /// send — and every port is settled, so the next tick would see
    /// the same channels and make the same non-moves (the route locks
    /// it may have cached are re-read, not re-decided, and
    /// `Arbiter::pick` only advances on a grant). A peer's push or pop
    /// fires the wake token. The port check is what keeps a wake from
    /// being wasted: a drain that popped earlier in this instant leaves
    /// `can_push` false until commit, but `Out::is_settled` sees the
    /// staged pop and keeps the router up for the slot it frees. A
    /// router holding flits answers `is_quiescent` from its occupancy
    /// word alone, and the O(ports) scan runs only after a tick that
    /// moved nothing, so busy routers pay one word test and one flag
    /// test.
    fn can_sleep(&self) -> Sleep {
        if self.is_quiescent() {
            Sleep::Idle
        } else if self.idle_tick
            && self.inputs.iter().all(In::is_settled)
            && self.outputs.iter().all(Out::is_settled)
        {
            Sleep::Blocked
        } else {
            Sleep::No
        }
    }

    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        let mut moved = self.accept();
        if self.occupied != 0 {
            moved |= self.switch();
        }
        self.idle_tick = !moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{make_packet, FlitKind};
    use craft_connections::{channel, ChannelKind};
    use craft_sim::{ClockSpec, Picoseconds, Simulator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Ring {
        sim: Simulator,
        clk: craft_sim::ClockId,
        inject: Vec<Out<NocFlit>>,
        drain: Vec<In<NocFlit>>,
    }

    /// A single router whose routing function is `dst as port`.
    fn single_router(ports: usize, cfg: WhvcConfig) -> Ring {
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
        sim.add_component(
            clk,
            WhvcRouter::new("r", rin, rout, cfg, |dst| dst as usize),
        );
        Ring {
            sim,
            clk,
            inject,
            drain,
        }
    }

    fn push_packet(ring: &mut Ring, input: usize, pkt: &[NocFlit]) {
        let mut idx = 0;
        while idx < pkt.len() {
            if ring.inject[input].push_nb(pkt[idx]).is_ok() {
                idx += 1;
            }
            ring.sim.run_cycles(ring.clk, 1);
        }
    }

    #[test]
    fn routes_single_flit_to_named_port() {
        let mut r = single_router(4, WhvcConfig::default());
        push_packet(&mut r, 0, &make_packet(2, 0, 0, &[77]));
        for _ in 0..10 {
            r.sim.run_cycles(r.clk, 1);
        }
        let got = r.drain[2].pop_nb().expect("flit delivered");
        assert_eq!(got.data, 77);
        assert_eq!(got.kind, FlitKind::Single);
        for p in [0, 1, 3] {
            assert!(r.drain[p].pop_nb().is_none(), "leak to port {p}");
        }
    }

    #[test]
    fn wormhole_packets_never_interleave_on_an_output() {
        let mut r = single_router(3, WhvcConfig::default());
        // Two inputs send multi-flit packets to output 2 concurrently.
        let pa = make_packet(2, 0, 0, &[10, 11, 12, 13]);
        let pb = make_packet(2, 1, 0, &[20, 21, 22, 23]);
        let mut ai = 0;
        let mut bi = 0;
        let mut got = Vec::new();
        for _ in 0..80 {
            if ai < pa.len() && r.inject[0].push_nb(pa[ai]).is_ok() {
                ai += 1;
            }
            if bi < pb.len() && r.inject[1].push_nb(pb[bi]).is_ok() {
                bi += 1;
            }
            r.sim.run_cycles(r.clk, 1);
            while let Some(f) = r.drain[2].pop_nb() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 8, "all flits delivered");
        // Group by src: each packet's flits must be contiguous.
        let srcs: Vec<u16> = got.iter().map(|f| f.src).collect();
        let transitions = srcs.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(transitions <= 1, "packets interleaved: {srcs:?}");
        // Payload order preserved within each packet.
        let a_payload: Vec<u64> = got.iter().filter(|f| f.src == 0).map(|f| f.data).collect();
        assert_eq!(a_payload, vec![10, 11, 12, 13]);
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let mut r = single_router(4, WhvcConfig::default());
        r.inject[0]
            .push_nb(make_packet(1, 0, 0, &[1])[0])
            .expect("room");
        r.inject[2]
            .push_nb(make_packet(3, 2, 0, &[3])[0])
            .expect("room");
        for _ in 0..6 {
            r.sim.run_cycles(r.clk, 1);
        }
        assert!(r.drain[1].pop_nb().is_some());
        assert!(r.drain[3].pop_nb().is_some());
    }

    #[test]
    fn vcs_buffer_independently() {
        let cfg = WhvcConfig {
            vcs: 2,
            buffer_depth: 2,
        };
        let mut r = single_router(2, cfg);
        // Congest vc0: a packet to output 1 that is never drained. The
        // packet length is chosen so the *link* channel itself drains
        // (2 flits land in the output channel, 2 in the vc0 buffer),
        // leaving the link free — the point of per-VC buffering.
        let long = make_packet(1, 0, 0, &[1, 2, 3, 4]);
        let mut li = 0;
        // Don't drain output: back-pressure builds.
        for _ in 0..20 {
            if li < long.len() && r.inject[0].push_nb(long[li]).is_ok() {
                li += 1;
            }
            r.sim.run_cycles(r.clk, 1);
        }
        // vc1 single flit still gets in and (after drain) through.
        let f = make_packet(1, 0, 1, &[99])[0];
        let mut accepted = false;
        for _ in 0..10 {
            if !accepted && r.inject[0].push_nb(f).is_ok() {
                accepted = true;
            }
            r.sim.run_cycles(r.clk, 1);
        }
        assert!(accepted, "vc1 flit blocked by vc0 congestion");
    }

    /// Pops one flit on each scripted cycle. Registered *before* the
    /// router, so its pop is already staged when the router's wake
    /// check runs in the same instant.
    struct ScriptedDrain {
        input: In<NocFlit>,
        pop_at: Vec<u64>,
        log: std::rc::Rc<std::cell::RefCell<Vec<(u64, u64)>>>,
    }

    impl Component for ScriptedDrain {
        fn name(&self) -> &str {
            "drain"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if self.pop_at.contains(&ctx.cycle()) {
                if let Some(f) = self.input.pop_nb() {
                    self.log.borrow_mut().push((ctx.cycle(), f.data));
                }
            }
        }
    }

    /// A six-flit packet wedges the router against an undrained
    /// `Buffer(2)` output (two flits in the channel, four in the VC
    /// buffer); the drain then pops once at cycle 30 and again at 40
    /// and 41. Returns the drain's log, the output channel's statistics
    /// (its occupancy integral moves if a forward lands a cycle late)
    /// and the kernel's blocked-skip count.
    fn wedge_then_drain(gating: bool) -> (Vec<(u64, u64)>, craft_connections::ChannelStats, u64) {
        let mut sim = Simulator::new();
        sim.set_gating(gating);
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let kind = ChannelKind::Buffer(2);
        let (mut inject, rx0, h_in0) = channel::<NocFlit>("in0", kind);
        let (_stub_tx, rx1, h_in1) = channel::<NocFlit>("in1", kind);
        let (tx0, _stub_rx, h_out0) = channel::<NocFlit>("out0", kind);
        let (tx1, drain_rx, h_out1) = channel::<NocFlit>("out1", kind);
        for h in [&h_in0, &h_in1, &h_out0, &h_out1] {
            sim.add_sequential_gated(clk, h.sequential(), h.commit_token());
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.add_component(
            clk,
            ScriptedDrain {
                input: drain_rx,
                pop_at: vec![30, 40, 41],
                log: std::rc::Rc::clone(&log),
            },
        );
        let wake = craft_sim::ActivityToken::new();
        let (ins, outs) = (vec![rx0, rx1], vec![tx0, tx1]);
        for i in &ins {
            i.set_wake_token(wake.clone());
        }
        for o in &outs {
            o.set_wake_token(wake.clone());
        }
        let router = WhvcRouter::new("r", ins, outs, WhvcConfig::default(), |dst| dst as usize);
        let id = sim.add_component(clk, router);
        sim.set_wake_token(id, wake);

        let pkt = make_packet(1, 0, 0, &[10, 11, 12, 13, 14, 15]);
        let mut sent = 0;
        for _ in 0..60 {
            if sent < pkt.len() && inject.push_nb(pkt[sent]).is_ok() {
                sent += 1;
            }
            sim.run_cycles(clk, 1);
        }
        assert_eq!(sent, pkt.len(), "channel and VC buffer absorb the packet");
        let got = log.borrow().clone();
        (got, h_out1.stats(), sim.ticks_skipped_blocked())
    }

    /// The trap a blocked predicate must not fall into: the drain's
    /// pop at cycle 30 is staged before the router's wake check, fires
    /// the wake token once, and leaves `can_push` false until commit.
    /// A router that went back to sleep on `!can_push()` would spend
    /// its only wake on a tick that still sees the output full and
    /// forward flit 12 at cycle 40 instead of 31.
    #[test]
    fn blocked_router_forwards_on_the_same_cycle_gated_and_ungated() {
        let (log_on, out_on, blocked_on) = wedge_then_drain(true);
        let (log_off, out_off, blocked_off) = wedge_then_drain(false);
        assert_eq!(log_on, vec![(30, 10), (40, 11), (41, 12)]);
        assert_eq!(log_on, log_off);
        assert_eq!(out_on, out_off, "a forward landed on a different cycle");
        assert_eq!(blocked_off, 0);
        assert!(blocked_on > 40, "the wedged router slept: {blocked_on}");
    }

    #[test]
    fn fairness_across_inputs() {
        let mut r = single_router(3, WhvcConfig::default());
        let mut counts = [0u32; 2];
        let mut seq = 0u64;
        for _ in 0..100 {
            for input in 0..2 {
                let _ = r.inject[input].push_nb(NocFlit {
                    dst: 2,
                    src: input as u16,
                    vc: 0,
                    kind: FlitKind::Single,
                    data: seq,
                });
                seq += 1;
            }
            r.sim.run_cycles(r.clk, 1);
            while let Some(f) = r.drain[2].pop_nb() {
                counts[f.src as usize] += 1;
            }
        }
        let (a, b) = (counts[0] as i64, counts[1] as i64);
        assert!(a + b > 50, "throughput too low: {}", a + b);
        assert!((a - b).abs() <= 4, "unfair: {a} vs {b}");
    }

    /// The allocator the bid pass replaced, kept as the reference the
    /// router must match flit for flit: per output it asks `can_push`
    /// first, then re-scans every VC slot for a head that wants that
    /// output.
    fn rescan_switch(r: &mut WhvcRouter) -> bool {
        let mut moved = false;
        for out in 0..r.outputs.len() {
            if !r.outputs[out].can_push() {
                continue;
            }
            let granted_slot = match r.output_owner[out] {
                Some(owner) => {
                    if r.buffers[owner].is_empty() {
                        continue;
                    }
                    owner
                }
                None => {
                    let mut mask = 0u64;
                    for slot in 0..r.buffers.len() {
                        if !r.buffers[slot].is_empty() && r.desired_output(slot) == Some(out) {
                            mask |= 1 << slot;
                        }
                    }
                    match r.allocators[out].pick(mask) {
                        Some(slot) => slot,
                        None => continue,
                    }
                }
            };
            let flit = r.buffers[granted_slot].pop().expect("candidate has flit");
            r.outputs[out].push_nb(flit).expect("output ready");
            r.forwarded += 1;
            moved = true;
            if flit.kind.is_tail() {
                r.output_owner[out] = None;
                r.route_lock[granted_slot] = None;
            } else {
                r.output_owner[out] = Some(granted_slot);
            }
        }
        moved
    }

    /// The router as the kernel sees it, ticked by its own bid pass or,
    /// with `rescan`, by the reference allocator with the quiescence
    /// test that walks every buffer. The test keeps a handle on the
    /// router's state.
    struct Subject {
        router: Rc<RefCell<WhvcRouter>>,
        rescan: bool,
    }

    impl Component for Subject {
        fn name(&self) -> &str {
            "subject"
        }

        fn is_quiescent(&self) -> bool {
            let r = self.router.borrow();
            if !self.rescan {
                return r.is_quiescent();
            }
            r.buffers.iter().all(Fifo::is_empty) && r.inputs.iter().all(|i| !i.has_pending())
        }

        fn can_sleep(&self) -> Sleep {
            if !self.rescan {
                return self.router.borrow().can_sleep();
            }
            let r = self.router.borrow();
            if self.is_quiescent() {
                Sleep::Idle
            } else if r.idle_tick
                && r.inputs.iter().all(In::is_settled)
                && r.outputs.iter().all(Out::is_settled)
            {
                Sleep::Blocked
            } else {
                Sleep::No
            }
        }

        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            let mut r = self.router.borrow_mut();
            if self.rescan {
                let accepted = r.accept();
                let switched = rescan_switch(&mut r);
                r.idle_tick = !(accepted || switched);
            } else {
                r.tick(ctx);
            }
        }
    }

    /// What the differential test compares after every cycle besides
    /// the drained flits: `forwarded`, the arbiters' pointers, every
    /// channel's statistics and the kernel's elided ticks.
    type Observed = (u64, Vec<Arbiter>, Vec<craft_connections::ChannelStats>, u64);

    /// One router between test-driven injectors and drains, with wake
    /// tokens wired as in the SoC so gating can put it to sleep.
    struct Bench {
        sim: Simulator,
        clk: craft_sim::ClockId,
        inject: Vec<Out<NocFlit>>,
        drain: Vec<In<NocFlit>>,
        channels: Vec<craft_connections::ChannelHandle<NocFlit>>,
        router: Rc<RefCell<WhvcRouter>>,
    }

    impl Bench {
        fn new(
            ports: usize,
            cfg: WhvcConfig,
            kind: ChannelKind,
            gating: bool,
            rescan: bool,
        ) -> Self {
            let mut sim = Simulator::new();
            sim.set_gating(gating);
            let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
            let wake = craft_sim::ActivityToken::new();
            let (mut inject, mut drain, mut channels) = (Vec::new(), Vec::new(), Vec::new());
            let (mut rin, mut rout) = (Vec::new(), Vec::new());
            for p in 0..ports {
                let (tx, rx, h) = channel::<NocFlit>(format!("in{p}"), kind);
                let (tx2, rx2, h2) = channel::<NocFlit>(format!("out{p}"), kind);
                for h in [&h, &h2] {
                    sim.add_sequential_gated(clk, h.sequential(), h.commit_token());
                }
                rx.set_wake_token(wake.clone());
                tx2.set_wake_token(wake.clone());
                inject.push(tx);
                rin.push(rx);
                rout.push(tx2);
                drain.push(rx2);
                channels.extend([h, h2]);
            }
            let router = Rc::new(RefCell::new(WhvcRouter::new("r", rin, rout, cfg, |dst| {
                dst as usize
            })));
            let subject = Subject {
                router: Rc::clone(&router),
                rescan,
            };
            let id = sim.add_component(clk, subject);
            sim.set_wake_token(id, wake);
            Bench {
                sim,
                clk,
                inject,
                drain,
                channels,
                router,
            }
        }

        fn step(&mut self) {
            self.sim.run_cycles(self.clk, 1);
        }

        fn forwarded(&self) -> u64 {
            self.router.borrow().forwarded
        }

        fn observe(&self) -> Observed {
            let r = self.router.borrow();
            let stats = self.channels.iter().map(|h| h.stats()).collect();
            (
                r.forwarded,
                r.allocators.clone(),
                stats,
                self.sim.ticks_skipped(),
            )
        }
    }

    /// Runs the bid-pass router and the re-scan reference side by side
    /// under one random schedule: packets of 1–4 flits on every VC of
    /// every input, each output drained with its own probability (1.0
    /// never backs up, 0.05 wedges). Any difference in a drained flit,
    /// an injection accepted, `forwarded`, an arbiter pointer, a
    /// channel statistic or an elided tick fails at the cycle it
    /// appears.
    fn differential(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ports = rng.gen_range(2usize..=5);
        let cfg = WhvcConfig {
            vcs: [1, 2, 4][rng.gen_range(0usize..3)],
            buffer_depth: rng.gen_range(1usize..=4),
        };
        let kinds = [
            ChannelKind::Pipeline,
            ChannelKind::Bypass,
            ChannelKind::Buffer(1),
            ChannelKind::Buffer(2),
            ChannelKind::Buffer(3),
        ];
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let gating = rng.gen_bool(0.5);
        let inject_p = [0.3, 0.7, 1.0][rng.gen_range(0usize..3)];
        let drain_p: Vec<f64> = (0..ports)
            .map(|_| [0.05, 0.3, 0.8, 1.0][rng.gen_range(0usize..4)])
            .collect();
        let case = format!("seed {seed}: {ports} ports, {cfg:?}, {kind:?}, gating {gating}");
        let mut dut = Bench::new(ports, cfg, kind, gating, false);
        let mut reference = Bench::new(ports, cfg, kind, gating, true);
        // The unsent rest of each (input, VC)'s current packet.
        let mut streams = vec![vec![Vec::<NocFlit>::new(); cfg.vcs]; ports];
        let mut data = 0u64;
        for cycle in 0..240 {
            for (input, vcs) in streams.iter_mut().enumerate() {
                if !rng.gen_bool(inject_p) {
                    continue;
                }
                let vc = rng.gen_range(0..cfg.vcs);
                if vcs[vc].is_empty() {
                    let len = rng.gen_range(1usize..=4);
                    let payload: Vec<u64> = (data..data + len as u64).collect();
                    data += len as u64;
                    let dst = rng.gen_range(0..ports) as u16;
                    vcs[vc] = make_packet(dst, input as u16, vc as u8, &payload);
                    vcs[vc].reverse();
                }
                let flit = *vcs[vc].last().expect("packet");
                let sent = dut.inject[input].push_nb(flit).is_ok();
                let ref_sent = reference.inject[input].push_nb(flit).is_ok();
                assert_eq!(sent, ref_sent, "{case}: injection at cycle {cycle}");
                if sent {
                    vcs[vc].pop();
                }
            }
            dut.step();
            reference.step();
            for (out, &p) in drain_p.iter().enumerate() {
                if rng.gen_bool(p) {
                    let got = dut.drain[out].pop_nb();
                    let want = reference.drain[out].pop_nb();
                    assert_eq!(got, want, "{case}: output {out} at cycle {cycle}");
                }
            }
            assert_eq!(dut.observe(), reference.observe(), "{case}: cycle {cycle}");
        }
        assert!(dut.forwarded() > 0, "{case}: no traffic");
    }

    #[test]
    fn bid_pass_matches_the_rescan_reference() {
        for seed in 0..96 {
            differential(seed);
        }
    }

    /// Input 0 holds a single-flit packet for output 1, blocked behind a
    /// full output, and behind it one for output 2. When output 1
    /// frees, the tail grant exposes the second head, which bids at once
    /// and wins output 2 in the same tick: two flits forwarded in one
    /// cycle, by the router and the reference alike.
    #[test]
    fn a_freed_slot_wins_a_later_output_in_the_same_tick() {
        let cfg = WhvcConfig {
            vcs: 1,
            buffer_depth: 4,
        };
        for rescan in [false, true] {
            let mut b = Bench::new(3, cfg, ChannelKind::Buffer(2), true, rescan);
            let fill = [make_packet(1, 2, 0, &[1])[0], make_packet(1, 2, 0, &[2])[0]];
            let blocked = [
                make_packet(1, 0, 0, &[10])[0],
                make_packet(2, 0, 0, &[20])[0],
            ];
            let (mut f, mut x) = (0, 0);
            for _ in 0..12 {
                if f < fill.len() && b.inject[2].push_nb(fill[f]).is_ok() {
                    f += 1;
                } else if f == fill.len()
                    && x < blocked.len()
                    && b.inject[0].push_nb(blocked[x]).is_ok()
                {
                    x += 1;
                }
                b.step();
            }
            assert_eq!((f, x), (2, 2), "all four flits injected");
            assert_eq!(b.forwarded(), 2, "output 1 full, flit 20 behind flit 10");
            assert_eq!(b.drain[1].pop_nb().map(|f| f.data), Some(1));
            let before = b.forwarded();
            let mut steps = 0;
            while b.forwarded() == before {
                b.step();
                steps += 1;
                assert!(steps < 4, "output 1 never freed");
            }
            assert_eq!(b.forwarded(), before + 2, "both grants in one tick");
            b.step();
            assert_eq!(b.drain[2].pop_nb().map(|f| f.data), Some(20));
            assert_eq!(b.drain[1].pop_nb().map(|f| f.data), Some(2));
            b.step();
            assert_eq!(b.drain[1].pop_nb().map(|f| f.data), Some(10));
        }
    }
}
