//! Activity tokens: the wake-up primitive behind quiescence gating.
//!
//! A sleeping component is skipped entirely during the evaluate phase,
//! so something *outside* the component must be able to mark it
//! runnable again. An [`ActivityToken`] is a shared one-bit flag
//! handed both to the kernel (which reads and clears it when deciding
//! whether to wake a sleeper) and to the component's activity sources —
//! typically the channels feeding it, which set the flag on every
//! successful push or pop.
//!
//! Tokens are level-ish, not edge-precise: a token may be set while
//! its owner is still awake (the kernel clears it only on wake), which
//! at worst costs one spurious tick after a sleep. A token is never
//! cleared when a component goes to sleep, so activity staged during
//! the same instant a component sleeps can never be lost.
//!
//! # Notify sinks
//!
//! The kernel does not scan tokens; it is told. Registering a token
//! ([`crate::Simulator::set_wake_token`],
//! [`crate::Simulator::add_sequential_gated`]) attaches it, for good,
//! to a [`NotifySink`] of its owner's clock domain with the owner's
//! position as slot index, and every **false→true transition** of the
//! flag pushes that slot into the sink. The flag itself remains the
//! source of truth: a queued slot is only a hint to look at the flag
//! when the kernel's walk reaches that position, and while a token is
//! already set, further `set()` calls notify nothing, exactly
//! mirroring the level semantics above. A token has one slot and so
//! one owner; the kernel registers a second owner of the same token
//! ungated.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

#[derive(Debug, Default)]
struct TokenInner {
    flag: Cell<bool>,
    /// Where a false→true transition is announced and the slot index
    /// it pushes there; written once, when the token is registered.
    notify: OnceCell<(NotifySink, u32)>,
}

/// Shared "something happened, wake your owner" flag.
///
/// Cloning the token clones the handle, not the flag: all clones
/// observe and mutate the same bit (and the same sink attachment).
#[derive(Debug, Clone, Default)]
pub struct ActivityToken(Rc<TokenInner>);

impl ActivityToken {
    /// A fresh, unset token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks activity (idempotent). With a sink attached, the first
    /// set after a clear also enqueues the token's slot.
    #[inline]
    pub fn set(&self) {
        if !self.0.flag.replace(true) {
            if let Some((sink, slot)) = self.0.notify.get() {
                sink.push(*slot);
            }
        }
    }

    /// Reads and clears the flag, returning whether it was set.
    #[inline]
    pub fn take(&self) -> bool {
        self.0.flag.replace(false)
    }

    /// Reads the flag without clearing it.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.0.flag.get()
    }

    /// True when `other` is a clone of this token (same flag cell).
    pub fn ptr_eq(&self, other: &ActivityToken) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    /// Attaches `sink` so future false→true transitions enqueue `slot`.
    ///
    /// Returns `None` when a sink is already attached — a token has
    /// one slot and cannot deliver to two owners, so the caller must
    /// not gate the second on it. On success returns whether the flag
    /// was **already set** at attach time: such a token will produce no
    /// notification until taken and re-set, so the caller must seed its
    /// own queue with `slot`.
    pub fn attach_notify(&self, sink: &NotifySink, slot: u32) -> Option<bool> {
        self.0.notify.set((sink.clone(), slot)).ok()?;
        Some(self.0.flag.get())
    }
}

#[derive(Debug, Default)]
struct SinkInner {
    queue: RefCell<Vec<u32>>,
    /// Mirror of `!queue.is_empty()`: the emptiness probe sits on the
    /// kernel's per-tick fast path, where a `Cell` load beats a
    /// `RefCell` borrow.
    nonempty: Cell<bool>,
}

/// A shared queue of slot indices fed by [`ActivityToken`] false→true
/// transitions. One sink serves many tokens; the consumer drains it
/// once per phase.
#[derive(Debug, Clone, Default)]
pub struct NotifySink(Rc<SinkInner>);

impl NotifySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn push(&self, slot: u32) {
        self.0.queue.borrow_mut().push(slot);
        self.0.nonempty.set(true);
    }

    /// Whether no notifications are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.0.nonempty.get()
    }

    /// Copies the pending notifications into `out` (appending) and
    /// leaves them pending.
    pub(crate) fn peek_into(&self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.0.queue.borrow());
    }

    /// Moves all pending notifications into `out` (appending), leaving
    /// the sink empty.
    pub fn drain_into(&self, out: &mut Vec<u32>) {
        if self.0.nonempty.replace(false) {
            out.append(&mut self.0.queue.borrow_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = ActivityToken::new();
        let b = a.clone();
        assert!(!a.is_set());
        b.set();
        assert!(a.is_set());
        assert!(a.take());
        assert!(!b.is_set());
        assert!(!b.take());
        assert!(a.ptr_eq(&b));
        assert!(!a.ptr_eq(&ActivityToken::new()));
    }

    #[test]
    fn notify_fires_on_rising_edge_only() {
        let t = ActivityToken::new();
        let sink = NotifySink::new();
        assert_eq!(t.attach_notify(&sink, 7), Some(false));
        t.set();
        t.set(); // already set: no second notification
        let mut got = Vec::new();
        sink.drain_into(&mut got);
        assert_eq!(got, vec![7]);
        assert!(sink.is_empty());
        // Still set; take then re-set notifies again.
        assert!(t.take());
        t.set();
        got.clear();
        sink.drain_into(&mut got);
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn attach_reports_preexisting_level_and_rejects_double() {
        let t = ActivityToken::new();
        t.set();
        let sink = NotifySink::new();
        assert_eq!(t.attach_notify(&sink, 3), Some(true), "flag already set");
        assert!(sink.is_empty(), "no retroactive notification");
        assert_eq!(t.attach_notify(&sink, 4), None, "double attach");
        assert!(t.is_set(), "attaching leaves the flag untouched");
    }

    #[test]
    fn clones_share_attachment() {
        let a = ActivityToken::new();
        let b = a.clone();
        let sink = NotifySink::new();
        assert_eq!(a.attach_notify(&sink, 1), Some(false));
        assert_eq!(b.attach_notify(&sink, 2), None);
        b.set();
        let mut got = Vec::new();
        sink.drain_into(&mut got);
        assert_eq!(got, vec![1]);
    }
}
