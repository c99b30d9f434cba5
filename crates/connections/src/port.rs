//! Unified endpoint objects (paper Table 1: `In<T>`, `Out<T>`).
//!
//! Ports are decoupled from channels: a component owns `In`/`Out`
//! terminals and is oblivious to whether they were wired to a
//! `Combinational`, `Bypass`, `Pipeline` or `Buffer` channel — the key
//! modularity property of the Connections API (§2.3). "Blocking"
//! `Pop`/`Push` from the paper map onto the FSM convention of retrying
//! `pop_nb`/`push_nb` each cycle until they succeed.

use crate::channel::ChannelCore;
use craft_sim::{ActivityToken, StateVisitor};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Producer terminal of an LI channel (`Out<T>` in the paper).
pub struct Out<T> {
    core: Rc<RefCell<ChannelCore<T>>>,
}

impl<T> Out<T> {
    pub(crate) fn new(core: Rc<RefCell<ChannelCore<T>>>) -> Self {
        Out { core }
    }

    /// True if a non-blocking push would succeed this cycle (the
    /// channel's `ready` as seen by the producer).
    pub fn can_push(&self) -> bool {
        self.core.borrow().can_push()
    }

    /// Non-blocking push (`PushNB`): stages `v` for transfer.
    ///
    /// # Errors
    /// Returns `Err(v)` (handing the message back, [C-INTERMEDIATE])
    /// when the channel is exerting backpressure or a push was already
    /// issued this cycle.
    pub fn push_nb(&mut self, v: T) -> Result<(), T> {
        self.core.borrow_mut().push_nb(v)
    }

    /// Backpressure that only a consumer's pop can lift: a push is
    /// refused now and no pop (or push) staged this cycle will change
    /// that at commit. This — not `!can_push()` — is the input for a
    /// [`craft_sim::Component::can_sleep`] decision of a producer with
    /// data in hand: a pop staged earlier in the same instant leaves
    /// [`can_push`](Self::can_push) false on registered kinds but
    /// fires the wake token only once, so the producer must stay awake
    /// for the slot it frees.
    pub fn is_blocked(&self) -> bool {
        self.core.borrow().push_blocked()
    }

    /// The producer-visible state survives the next commit unless a
    /// peer acts (and fires the wake token): either a push is accepted
    /// now, or the port [`is_blocked`](Self::is_blocked).
    pub fn is_settled(&self) -> bool {
        let core = self.core.borrow();
        core.can_push() || core.push_blocked()
    }

    /// Catch-up for a producer whose retrying ticks were elided while
    /// it slept blocked on this port: books the `n` refused pushes
    /// those ticks would have made (see
    /// [`craft_sim::Component::ticks_skipped`]).
    pub fn push_backpressure_skipped(&self, n: u64) {
        self.core.borrow_mut().stats.push_backpressure += n;
    }

    /// Presents the refused-push count as a counter of the producer
    /// (see [`craft_sim::Component::visit_state`]): only the port's
    /// holder moves it, on cycles in which the channel may not commit,
    /// so the channel leaves it out of its own state.
    pub fn visit_counters(&self, v: &mut StateVisitor<'_>) {
        v.counter(&mut self.core.borrow_mut().stats.push_backpressure);
    }

    /// Name of the connected channel.
    pub fn channel_name(&self) -> String {
        self.core.borrow().name.clone()
    }

    /// Registers the producing component's wake token: every
    /// successful pop on the far end sets it, so a producer sleeping
    /// on backpressure is roused as soon as space frees up.
    pub fn set_wake_token(&self, token: ActivityToken) {
        self.core.borrow_mut().producer_wake = Some(token);
    }
}

impl<T> fmt::Debug for Out<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Out({})", self.core.borrow().name)
    }
}

/// Consumer terminal of an LI channel (`In<T>` in the paper).
pub struct In<T> {
    core: Rc<RefCell<ChannelCore<T>>>,
    /// The core's pending-data mirror (see `ChannelCore::pending`):
    /// read on the quiescence and peek fast paths without borrowing
    /// the core. The core keeps it exact through every mutation.
    pending: Rc<Cell<bool>>,
}

impl<T> In<T> {
    pub(crate) fn new(core: Rc<RefCell<ChannelCore<T>>>) -> Self {
        let pending = core.borrow().pending_handle();
        In { core, pending }
    }

    /// True if a non-blocking pop would succeed this cycle (the
    /// channel's `valid` as seen by the consumer, after stall
    /// injection).
    pub fn can_pop(&self) -> bool {
        // No data committed or staged: nothing a pop could see,
        // whatever the stall/pop-limit state is.
        if !self.pending.get() {
            return false;
        }
        self.core.borrow().can_pop()
    }

    /// Non-blocking pop (`PopNB`): takes the head message if one is
    /// available this cycle.
    pub fn pop_nb(&mut self) -> Option<T> {
        self.core.borrow_mut().pop_nb()
    }

    /// Observes the head message without consuming it.
    pub fn peek(&self) -> Option<T>
    where
        T: Clone,
    {
        if !self.pending.get() {
            return None;
        }
        self.core.borrow().peek_ref().cloned()
    }

    /// Name of the connected channel.
    pub fn channel_name(&self) -> String {
        self.core.borrow().name.clone()
    }

    /// Data committed **or staged**: true when the channel will offer
    /// data this cycle or after the next commit.
    ///
    /// This — not [`can_pop`](Self::can_pop) — is the correct input
    /// for a [`craft_sim::Component::is_quiescent`] decision: it sees
    /// pushes staged in the current evaluate phase (which `can_pop`
    /// hides until commit on registered kinds) and ignores transient
    /// pop blockers like stall injection, so a consumer can never
    /// sleep while undelivered data sits in the channel.
    pub fn has_pending(&self) -> bool {
        debug_assert_eq!(
            self.pending.get(),
            self.core.borrow().has_pending(),
            "pending mirror out of sync on `{}`",
            self.core.borrow().name
        );
        self.pending.get()
    }

    /// The consumer-visible state survives the next commit unless a
    /// peer acts (and fires the wake token): the channel is empty, or
    /// its head is poppable now. Data that is pending but not poppable
    /// — staged behind a register, withheld by a stall or a stuck
    /// `valid` — may appear by commit alone, so a consumer must not
    /// sleep on it.
    pub fn is_settled(&self) -> bool {
        !self.pending.get() || self.core.borrow().can_pop()
    }

    /// Catch-up for a consumer whose polling ticks were elided while
    /// it slept on this (empty) port: books the `n` failed pops those
    /// ticks would have made (see
    /// [`craft_sim::Component::ticks_skipped`]).
    pub fn pop_empty_skipped(&self, n: u64) {
        self.core.borrow_mut().stats.pop_empty += n;
    }

    /// Presents the empty-pop count as a counter of the consumer; see
    /// [`Out::visit_counters`].
    pub fn visit_counters(&self, v: &mut StateVisitor<'_>) {
        v.counter(&mut self.core.borrow_mut().stats.pop_empty);
    }

    /// Registers the consuming component's wake token: every
    /// successful push on the far end sets it, so a consumer sleeping
    /// on an empty queue is roused when traffic arrives.
    pub fn set_wake_token(&self, token: ActivityToken) {
        self.core.borrow_mut().consumer_wake = Some(token);
    }
}

impl<T> fmt::Debug for In<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "In({})", self.core.borrow().name)
    }
}

#[cfg(test)]
mod tests {
    use crate::{channel, ChannelKind};

    #[test]
    fn ports_share_one_channel() {
        let (mut tx, mut rx, h) = channel::<u8>("c", ChannelKind::Buffer(2));
        assert!(tx.push_nb(1).is_ok());
        assert_eq!(rx.pop_nb(), None); // registered
        h.sequential().borrow_mut().commit();
        assert_eq!(rx.peek(), Some(1));
        assert_eq!(rx.pop_nb(), Some(1));
        assert_eq!(h.stats().transfers, 1);
    }

    #[test]
    fn wake_tokens_fire_on_push_and_pop() {
        use craft_sim::ActivityToken;
        let (mut tx, mut rx, h) = channel::<u8>("c", ChannelKind::Buffer(2));
        let consumer = ActivityToken::new();
        let producer = ActivityToken::new();
        rx.set_wake_token(consumer.clone());
        tx.set_wake_token(producer.clone());
        let dirty = h.commit_token();
        assert!(
            !dirty.take(),
            "commit token starts clear; add_sequential_gated sets it at registration"
        );

        assert!(!consumer.is_set());
        assert!(tx.push_nb(1).is_ok());
        assert!(consumer.is_set(), "push wakes consumer");
        assert!(dirty.is_set(), "push dirties commit");
        assert!(!producer.is_set());

        // has_pending sees the staged push before commit; can_pop does not.
        assert!(rx.has_pending());
        assert!(!rx.can_pop());

        h.sequential().borrow_mut().commit();
        assert!(dirty.take());
        assert!(!dirty.is_set(), "clean after commit with no stall");

        assert_eq!(rx.pop_nb(), Some(1));
        assert!(producer.is_set(), "pop wakes producer");
        assert!(dirty.is_set(), "pop dirties commit");
        assert!(!rx.has_pending());
    }

    /// The staged-aware sleep inputs: a full registered channel is
    /// *blocked* only until a pop is staged — `can_push` stays false
    /// until commit, but the slot is already on its way — and an input
    /// is *settled* only once staged data has landed.
    #[test]
    fn blocked_and_settled_see_staged_pops_and_pushes() {
        let (mut tx, mut rx, h) = channel::<u8>("c", ChannelKind::Buffer(1));
        assert!(tx.is_settled() && !tx.is_blocked(), "empty: ready");
        assert!(rx.is_settled(), "empty: nothing to wait for");

        assert!(tx.push_nb(1).is_ok());
        assert!(!tx.can_push() && !tx.is_blocked(), "own push this cycle");
        assert!(!tx.is_settled());
        assert!(!rx.is_settled(), "staged behind the register");
        h.sequential().borrow_mut().commit();
        assert!(rx.is_settled() && rx.can_pop());
        assert!(!tx.can_push() && tx.is_blocked() && tx.is_settled());

        assert_eq!(rx.pop_nb(), Some(1));
        assert!(!tx.can_push(), "registered backpressure");
        assert!(!tx.is_blocked() && !tx.is_settled(), "but a pop is staged");
        h.sequential().borrow_mut().commit();
        assert!(tx.can_push() && tx.is_settled() && !tx.is_blocked());

        // Catch-ups book on the channel's own counters.
        tx.push_backpressure_skipped(3);
        rx.pop_empty_skipped(4);
        assert_eq!(h.stats().push_backpressure, 3);
        assert_eq!(h.stats().pop_empty, 4);
    }

    #[test]
    fn commit_skipped_catch_up_matches_real_commits() {
        // Two channels, identical traffic; one has idle commits elided
        // and reconciled via commit_skipped. Stats must match exactly.
        let (mut tx_a, mut rx_a, ha) = channel::<u8>("a", ChannelKind::Buffer(4));
        let (mut tx_b, mut rx_b, hb) = channel::<u8>("b", ChannelKind::Buffer(4));
        let dirty = hb.commit_token();
        let _ = dirty.take();

        let drive = |cycle: usize, tx: &mut crate::Out<u8>, rx: &mut crate::In<u8>| {
            if cycle == 2 {
                let _ = tx.push_nb(7);
            }
            if cycle == 9 {
                let _ = rx.pop_nb();
            }
        };
        let mut skipped = 0u64;
        for cycle in 0..16 {
            drive(cycle, &mut tx_a, &mut rx_a);
            drive(cycle, &mut tx_b, &mut rx_b);
            ha.sequential().borrow_mut().commit();
            if dirty.take() {
                let seq = hb.sequential();
                let mut s = seq.borrow_mut();
                if skipped > 0 {
                    s.commit_skipped(skipped);
                    skipped = 0;
                }
                s.commit();
            } else {
                skipped += 1;
            }
        }
        if skipped > 0 {
            hb.sequential().borrow_mut().commit_skipped(skipped);
        }
        assert_eq!(ha.stats(), hb.stats());
    }

    #[test]
    fn debug_formats_mention_channel_name() {
        let (tx, rx, _h) = channel::<u8>("noc.east", ChannelKind::Pipeline);
        assert_eq!(format!("{tx:?}"), "Out(noc.east)");
        assert_eq!(format!("{rx:?}"), "In(noc.east)");
    }

    #[test]
    fn polymorphic_ports_same_code_all_kinds() {
        // The same driver code runs against every channel kind: the
        // paper's central API property.
        for kind in [
            ChannelKind::Combinational,
            ChannelKind::Bypass,
            ChannelKind::Pipeline,
            ChannelKind::Buffer(3),
        ] {
            let (mut tx, mut rx, h) = channel::<u32>("k", kind);
            let mut sent = 0u32;
            let mut got = Vec::new();
            for _cycle in 0..20 {
                if sent < 5 && tx.push_nb(sent).is_ok() {
                    sent += 1;
                }
                if let Some(v) = rx.pop_nb() {
                    got.push(v);
                }
                h.sequential().borrow_mut().commit();
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4], "kind {kind}");
        }
    }
}
