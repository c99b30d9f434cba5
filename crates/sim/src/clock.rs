//! Clock domains.
//!
//! A [`ClockDomain`] produces rising edges at `phase + n * period`. In a
//! GALS system every partition owns its own domain; the kernel advances
//! a picosecond event wheel to the earliest pending edge across all
//! domains (see [`crate::Simulator`]).

use crate::time::Picoseconds;
use std::fmt;

/// Identifier of a clock domain registered with a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockId(pub(crate) usize);

impl ClockId {
    /// Index of this domain in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ClockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clk{}", self.0)
    }
}

/// Static description of a clock domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSpec {
    /// Human-readable domain name (appears in traces and panics).
    pub name: String,
    /// Nominal period between rising edges.
    pub period: Picoseconds,
    /// Offset of the first rising edge from time zero.
    pub phase: Picoseconds,
}

impl ClockSpec {
    /// A clock named `name` with the given period and zero phase.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(name: impl Into<String>, period: Picoseconds) -> Self {
        let period_v = period;
        assert!(period_v > Picoseconds::ZERO, "clock period must be nonzero");
        ClockSpec {
            name: name.into(),
            period,
            phase: Picoseconds::ZERO,
        }
    }

    /// Sets the phase offset of the first edge.
    pub fn with_phase(mut self, phase: Picoseconds) -> Self {
        self.phase = phase;
        self
    }
}

/// Runtime state of one clock domain inside the kernel.
#[derive(Debug)]
pub(crate) struct ClockState {
    pub spec: ClockSpec,
    /// Time of the next rising edge, or `Picoseconds::MAX` when paused.
    pub next_edge: Picoseconds,
    /// Rising edges delivered so far (the domain-local cycle count).
    pub cycles: u64,
    /// While `true` the clock emits no edges (pausible clocking).
    pub paused: bool,
    /// Override for the next period, used by jittering clock models.
    pub next_period_override: Option<Picoseconds>,
}

impl ClockState {
    pub fn new(spec: ClockSpec) -> Self {
        let next_edge = spec.phase;
        ClockState {
            spec,
            next_edge,
            cycles: 0,
            paused: false,
            next_period_override: None,
        }
    }

    /// Advances bookkeeping after the edge at `now` has been delivered.
    ///
    /// Returns `false` when scheduling the next edge overflowed the
    /// picosecond counter; the clock is then paused (no further edges)
    /// and the kernel records a [`crate::SimError::TimeOverflow`]
    /// instead of panicking.
    #[must_use]
    pub fn advance(&mut self) -> bool {
        self.cycles += 1;
        let period = self.next_period_override.take().unwrap_or(self.spec.period);
        match self.next_edge.checked_add(period) {
            Some(t) => {
                self.next_edge = t;
                true
            }
            None => {
                self.paused = true;
                self.next_edge = Picoseconds::MAX;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_advance_by_period() {
        let mut st = ClockState::new(ClockSpec::new("c", Picoseconds(100)));
        assert_eq!(st.next_edge, Picoseconds::ZERO);
        assert!(st.advance());
        assert_eq!(st.next_edge, Picoseconds(100));
        assert_eq!(st.cycles, 1);
    }

    #[test]
    fn phase_offsets_first_edge() {
        let spec = ClockSpec::new("c", Picoseconds(100)).with_phase(Picoseconds(37));
        let st = ClockState::new(spec);
        assert_eq!(st.next_edge, Picoseconds(37));
    }

    #[test]
    fn period_override_applies_once() {
        let mut st = ClockState::new(ClockSpec::new("c", Picoseconds(100)));
        st.next_period_override = Some(Picoseconds(250));
        assert!(st.advance());
        assert_eq!(st.next_edge, Picoseconds(250));
        assert!(st.advance());
        assert_eq!(st.next_edge, Picoseconds(350));
    }

    #[test]
    fn advance_overflow_pauses_instead_of_panicking() {
        let mut st = ClockState::new(ClockSpec::new("c", Picoseconds(u64::MAX - 10)));
        assert!(st.advance());
        assert_eq!(st.next_edge, Picoseconds(u64::MAX - 10));
        assert!(!st.advance(), "second edge cannot be scheduled");
        assert!(st.paused, "overflowed clock emits no further edges");
        assert_eq!(st.next_edge, Picoseconds::MAX);
        assert_eq!(st.cycles, 2, "the delivered edge still counts");
    }

    #[test]
    #[should_panic(expected = "clock period must be nonzero")]
    fn zero_period_panics() {
        let _ = ClockSpec::new("bad", Picoseconds::ZERO);
    }
}
