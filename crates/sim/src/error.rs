//! Typed simulation errors and the hang-diagnosis report.
//!
//! The kernel historically `expect()`-panicked on internal arithmetic
//! faults (simulation-time overflow, runaway clock stretch) and could
//! only express "the run did not finish" as a bare `false` from
//! [`crate::Simulator::run_until`]. [`SimError`] turns both into typed,
//! inspectable values: arithmetic faults become
//! [`SimError::TimeOverflow`]/[`SimError::ClockStretchOverflow`], and a
//! deadlocked design — no token movement for N cycles while the run
//! predicate stays false — becomes [`SimError::Hang`] carrying a
//! [`HangReport`] with per-component quiescence/wait state and
//! per-channel occupancies, collected from the kernel's existing
//! registrations via [`crate::Component::wait_reason`] and
//! [`crate::Sequential::diagnose`].

use crate::time::Picoseconds;
use std::fmt;

/// Diagnosis snapshot of one registered [`crate::Component`].
#[derive(Debug, Clone)]
pub struct CompDiag {
    /// Component name.
    pub name: String,
    /// Name of the clock domain the component is registered on.
    pub clock: String,
    /// Whether quiescence gating had put the component to sleep —
    /// idle, or (with `quiescent` false) blocked on its ports with
    /// work in hand.
    pub asleep: bool,
    /// The component's own [`crate::Component::is_quiescent`] answer.
    pub quiescent: bool,
    /// The component's explanation of what it is waiting for, if any
    /// (see [`crate::Component::wait_reason`]).
    pub wait: Option<String>,
}

/// Diagnosis snapshot of one registered [`crate::Sequential`] —
/// typically an LI channel (see [`crate::Sequential::diagnose`]).
#[derive(Debug, Clone)]
pub struct SeqDiag {
    /// Channel (or other sequential) name.
    pub name: String,
    /// Committed occupancy: tokens visible to the consumer.
    pub occupancy: usize,
    /// Whether any token is pending anywhere in the channel (committed
    /// or staged) — a `true` here on a hang usually marks the blockage.
    pub pending: bool,
    /// Human-readable status: stall/fault injector state, capacity.
    pub note: String,
}

/// Everything the kernel could observe about a hung simulation.
#[derive(Debug, Clone)]
pub struct HangReport {
    /// Consecutive reference-clock cycles without any progress signal.
    pub idle_cycles: u64,
    /// Per-component quiescence and wait state, in registration order.
    pub components: Vec<CompDiag>,
    /// Per-channel occupancy snapshots, in registration order.
    pub channels: Vec<SeqDiag>,
}

impl HangReport {
    /// Components that still claim to have work (not quiescent): the
    /// usual suspects for a deadlock cycle.
    pub fn busy_components(&self) -> impl Iterator<Item = &CompDiag> {
        self.components.iter().filter(|c| !c.quiescent)
    }

    /// Channels holding undelivered tokens.
    pub fn occupied_channels(&self) -> impl Iterator<Item = &SeqDiag> {
        self.channels.iter().filter(|c| c.pending)
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no progress for {} cycles; {} components ({} busy), {} channels ({} occupied)",
            self.idle_cycles,
            self.components.len(),
            self.busy_components().count(),
            self.channels.len(),
            self.occupied_channels().count()
        )?;
        for c in self.busy_components() {
            write!(f, "  component {} [{}]", c.name, c.clock)?;
            if c.asleep {
                write!(f, " asleep")?;
            }
            match &c.wait {
                Some(w) => writeln!(f, ": {w}")?,
                None => writeln!(f, ": busy (no wait reason reported)")?,
            }
        }
        for ch in self.occupied_channels() {
            writeln!(
                f,
                "  channel {}: occupancy {} ({})",
                ch.name, ch.occupancy, ch.note
            )?;
        }
        Ok(())
    }
}

/// A typed simulation failure, returned by the `*_checked` run methods
/// instead of panicking or looping forever.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The design made no progress (no channel push/pop, no component
    /// wake) for the configured number of reference-clock cycles while
    /// the run predicate stayed false.
    Hang {
        /// Name of the reference clock the watchdog counted on.
        clock: String,
        /// Reference-clock cycle count when the watchdog fired.
        cycle: u64,
        /// Simulation time when the watchdog fired.
        now: Picoseconds,
        /// Per-component / per-channel diagnosis collected at firing.
        report: HangReport,
    },
    /// Advancing a clock's next edge overflowed the picosecond counter.
    TimeOverflow {
        /// Name of the clock whose schedule overflowed.
        clock: String,
        /// Simulation time when the overflow was detected.
        now: Picoseconds,
    },
    /// Accumulated [`crate::TickCtx::stretch_clock`] requests overflowed
    /// the next-period computation.
    ClockStretchOverflow {
        /// Name of the clock whose stretched period overflowed.
        clock: String,
        /// Simulation time when the overflow was detected.
        now: Picoseconds,
    },
}

impl SimError {
    /// The hang diagnosis, when this error is a hang.
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            SimError::Hang { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hang {
                clock,
                cycle,
                now,
                report,
            } => {
                write!(
                    f,
                    "simulation hang on clock {clock} at cycle {cycle} (t={now}): {report}"
                )
            }
            SimError::TimeOverflow { clock, now } => {
                write!(f, "simulation time overflow on clock {clock} at t={now}")
            }
            SimError::ClockStretchOverflow { clock, now } => {
                write!(f, "clock stretch overflow on clock {clock} at t={now}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let report = HangReport {
            idle_cycles: 64,
            components: vec![
                CompDiag {
                    name: "pe0".into(),
                    clock: "core".into(),
                    asleep: false,
                    quiescent: false,
                    wait: Some("fetch: got 3/16 words".into()),
                },
                CompDiag {
                    name: "pe1".into(),
                    clock: "core".into(),
                    asleep: true,
                    quiescent: true,
                    wait: None,
                },
            ],
            channels: vec![SeqDiag {
                name: "l0p1->1".into(),
                occupancy: 2,
                pending: true,
                note: "buffer(2), stuck-valid".into(),
            }],
        };
        assert_eq!(report.busy_components().count(), 1);
        assert_eq!(report.occupied_channels().count(), 1);
        let err = SimError::Hang {
            clock: "core".into(),
            cycle: 1000,
            now: Picoseconds(100_000),
            report,
        };
        let s = err.to_string();
        assert!(s.contains("hang"), "{s}");
        assert!(s.contains("pe0"), "{s}");
        assert!(s.contains("fetch: got 3/16 words"), "{s}");
        assert!(s.contains("l0p1->1"), "{s}");
        assert!(err.hang_report().is_some());

        // A component that is busy *and* asleep: parked on its ports
        // with work in hand (`Sleep::Blocked`, not quiescent).
        let parked = HangReport {
            idle_cycles: 100_000,
            components: vec![
                CompDiag {
                    name: "r11".into(),
                    clock: "hub".into(),
                    asleep: true,
                    quiescent: false,
                    wait: None,
                },
                CompDiag {
                    name: "pe3".into(),
                    clock: "hub".into(),
                    asleep: true,
                    quiescent: false,
                    wait: Some("pe3: writeback 16/64 words, done_sent=false".into()),
                },
            ],
            channels: Vec::new(),
        };
        assert_eq!(parked.busy_components().count(), 2, "asleep is not idle");
        let s = parked.to_string();
        assert!(
            s.contains("2 components (2 busy)"),
            "the blocked sleepers stay suspects: {s}"
        );
        assert!(
            s.contains("component r11 [hub] asleep: busy (no wait reason reported)"),
            "{s}"
        );
        assert!(
            s.contains("component pe3 [hub] asleep: pe3: writeback 16/64 words"),
            "{s}"
        );

        let t = SimError::TimeOverflow {
            clock: "c".into(),
            now: Picoseconds::MAX,
        };
        assert!(t.to_string().contains("overflow"));
        assert!(t.hang_report().is_none());
    }
}
