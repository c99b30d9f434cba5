//! Round-robin arbiter (Table 2, C++ class).
//!
//! "Includes state for storing priorities and a pick method for
//! selecting among its inputs and updating its state." Requests are a
//! bitmask; the arbiter grants the requesting input closest (going
//! upward, wrapping) to the rotating priority pointer, then advances
//! the pointer past the granted input so every requester is served in
//! bounded time.

/// Round-robin 1-out-of-N selector.
///
/// ```
/// use craft_matchlib::Arbiter;
/// let mut arb = Arbiter::new(4);
/// assert_eq!(arb.pick(0b1010), Some(1)); // lowest from priority 0
/// assert_eq!(arb.pick(0b1010), Some(3)); // pointer moved past 1
/// assert_eq!(arb.pick(0b1010), Some(1)); // wraps
/// assert_eq!(arb.pick(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arbiter {
    n: usize,
    /// Index with highest priority for the next pick.
    next: usize,
}

impl Arbiter {
    /// An arbiter over `n` requesters (1..=64).
    ///
    /// # Panics
    /// Panics if `n` is zero or greater than 64.
    pub fn new(n: usize) -> Self {
        assert!((1..=64).contains(&n), "arbiter width must be 1..=64");
        Arbiter { n, next: 0 }
    }

    /// Number of requesters.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Grants one of the requesters set in `requests` (bit `i` =
    /// requester `i`), updating the rotating priority. Returns `None`
    /// when no request is pending.
    ///
    /// # Panics
    /// Panics if a bit at or above the arbiter width is set.
    pub fn pick(&mut self, requests: u64) -> Option<usize> {
        let grant = self.peek_grant(requests)?;
        self.next = (grant + 1) % self.n;
        Some(grant)
    }

    /// The input [`pick`](Self::pick) would grant, without updating
    /// priority state.
    ///
    /// # Panics
    /// Panics if a bit at or above the arbiter width is set.
    pub fn peek_grant(&self, requests: u64) -> Option<usize> {
        if self.n < 64 {
            assert!(
                requests < (1u64 << self.n),
                "request bit beyond arbiter width {}",
                self.n
            );
        }
        if requests == 0 {
            return None;
        }
        // The lowest request at or above the pointer, else (wrapping)
        // the lowest request overall.
        let from_next = requests & (u64::MAX << self.next);
        let pool = if from_next != 0 { from_next } else { requests };
        Some(pool.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_requester_always_granted() {
        let mut a = Arbiter::new(8);
        for _ in 0..10 {
            assert_eq!(a.pick(0b100), Some(2));
        }
    }

    #[test]
    fn fairness_all_requesting() {
        let mut a = Arbiter::new(4);
        let grants: Vec<usize> = (0..8).map(|_| a.pick(0b1111).expect("req")).collect();
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut a = Arbiter::new(4);
        assert_eq!(a.peek_grant(0b1111), Some(0));
        assert_eq!(a.peek_grant(0b1111), Some(0));
        assert_eq!(a.pick(0b1111), Some(0));
        assert_eq!(a.peek_grant(0b1111), Some(1));
    }

    #[test]
    fn no_requests_no_grant_no_state_change() {
        let mut a = Arbiter::new(3);
        assert_eq!(a.pick(0), None);
        assert_eq!(a.pick(0b001), Some(0));
    }

    #[test]
    fn width_64_works() {
        let mut a = Arbiter::new(64);
        assert_eq!(a.pick(1u64 << 63), Some(63));
        assert_eq!(a.pick(u64::MAX), Some(0));
    }

    #[test]
    #[should_panic(expected = "request bit beyond arbiter width")]
    fn out_of_width_request_panics() {
        let mut a = Arbiter::new(3);
        let _ = a.pick(0b1000);
    }

    /// The grant as a scan upward from the pointer, wrapping modulo
    /// the width: the definition the bit trick in `peek_grant` must
    /// reproduce.
    fn scan_grant(n: usize, next: usize, requests: u64) -> Option<usize> {
        (0..n)
            .map(|off| (next + off) % n)
            .find(|&i| requests & (1 << i) != 0)
    }

    proptest! {
        /// The O(1) grant equals the modulo scan for every width and
        /// every pointer position, and `pick` moves the pointer past it.
        #[test]
        fn grant_equals_the_modulo_scan(seeds in proptest::collection::vec(any::<u64>(), 4..8)) {
            for n in 1..=64usize {
                let width_mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                for next in 0..n {
                    for &seed in &seeds {
                        // Dense, sparse and single-bit masks.
                        let sparse = seed & seed.rotate_left(17) & seed.rotate_left(41);
                        let single = 1u64 << (seed % n as u64);
                        for requests in [seed, sparse, single, 0, u64::MAX] {
                            let requests = requests & width_mask;
                            let mut a = Arbiter { n, next };
                            let want = scan_grant(n, next, requests);
                            prop_assert_eq!(a.peek_grant(requests), want);
                            prop_assert_eq!(a.pick(requests), want);
                            let next_after = want.map_or(next, |g| (g + 1) % n);
                            prop_assert_eq!(a.next, next_after);
                        }
                    }
                }
            }
        }

        /// The grant is always a requesting input.
        #[test]
        fn grant_subset_of_requests(reqs in proptest::collection::vec(0u64..16, 1..50)) {
            let mut a = Arbiter::new(4);
            for r in reqs {
                if let Some(g) = a.pick(r) {
                    prop_assert!(r & (1 << g) != 0);
                } else {
                    prop_assert_eq!(r, 0);
                }
            }
        }

        /// Starvation freedom: with requester `i` continuously
        /// requesting (among others), it is granted within `n` picks.
        #[test]
        fn bounded_wait(others in 0u64..16, i in 0usize..4) {
            let mut a = Arbiter::new(4);
            let reqs = others | (1 << i);
            let granted_within = (0..4).any(|_| a.pick(reqs) == Some(i));
            prop_assert!(granted_within);
        }
    }
}
