//! SoC-level snapshot types for deterministic checkpoint/restore.
//!
//! A [`SimSnapshot`] is a **replay recipe**, not a serialized object
//! graph: the shared build inputs ([`Recipe`]: config, program, staging
//! and gmem images — one `Arc` that the SoC, every de-opted lane replay
//! and every snapshot point at), the ordered log of irregular events
//! ([`FaultEvent`]s), a progress target (the kernel instant count), the
//! open supervised-run session if any ([`SessionState`] — the one live
//! session type, held by the [`crate::Soc`] as is), and verification
//! digests. A restore ([`crate::Soc::restore`],
//! [`crate::restore_engine`]) re-executes a freshly built SoC
//! deterministically to the target instant and proves the
//! reconstruction against both digests — any mismatch is a typed
//! [`CheckpointError::ReplayDivergence`], never silent drift. There is
//! one replay scheme: a frame without an instant target or a kernel
//! digest is [`CheckpointError::Malformed`].
//!
//! Why replay instead of state dump: the simulation state spans
//! closures, `Rc` graphs, trait objects and seeded RNG streams. The
//! kernel is already pinned deterministic (every PR's equivalence
//! proptests), so the recipe + event log *is* the state, in its most
//! compact and most verifiable form. The cost is bounded restore CPU;
//! the benefit is that restore correctness is checked, not assumed.
//!
//! [`BatchSnapshot`] extends the scheme to batched lockstep campaigns:
//! the golden run's snapshot plus each lane's spec, divergence status
//! and shadow fault counters — shadow lanes re-derive their decision
//! streams from the seeds while the golden replay regenerates the
//! token stream they judge against.

use crate::batch::LaneSpec;
use crate::pe::Fidelity;
use crate::soc::{ClockingMode, RouterKind, SocConfig};
use craft_connections::{FaultConfig, FaultStats, LaneStatus};
use craft_sim::checkpoint::{
    frame_snapshot, unframe_snapshot, CheckpointError, Checkpointable, KernelDigest, StateReader,
    StateWriter, WatchdogState,
};
use craft_sim::Picoseconds;
use std::sync::Arc;

/// Frame kind tag of a [`SimSnapshot`].
pub const KIND_SOC: u8 = 1;
/// Frame kind tag of a [`BatchSnapshot`].
pub const KIND_BATCH: u8 = 2;

/// One irregular event in a run's deterministic replay log: a fault
/// injection armed between run segments. A replay re-applies it at
/// its kernel instant; the hub cycle is recorded beside it for the
/// reader.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Channel-name pattern passed to [`crate::Soc::inject_fault`].
    pub pattern: String,
    /// Fault class and rates.
    pub cfg: FaultConfig,
    /// Campaign seed (per-channel salts derive from it).
    pub seed: u64,
    /// Kernel instant count when the injection was armed.
    pub at_instants: u64,
    /// Hub cycle count when the injection was armed.
    pub at_cycles: u64,
}

impl Checkpointable for FaultEvent {
    fn save(&self, w: &mut StateWriter) {
        w.put_str(&self.pattern);
        self.cfg.save(w);
        w.put_u64(self.seed);
        w.put_u64(self.at_instants);
        w.put_u64(self.at_cycles);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(FaultEvent {
            pattern: r.get_str()?,
            cfg: FaultConfig::load(r)?,
            seed: r.get_u64()?,
            at_instants: r.get_u64()?,
            at_cycles: r.get_u64()?,
        })
    }
}

/// An open supervised-run session (`run_checked` split into segments)
/// — the one live session type: a [`crate::Soc`] holds it as is while
/// the run is open, and a capture copies it verbatim so a restored engine
/// resumes the *same* run: the remaining cycle budget, the watchdog
/// limit and its accumulated idle state, and the cycles already
/// consumed (so the final [`crate::RunResult::cycles`] equals the
/// uninterrupted run's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionState {
    /// Hub-cycle budget left in the session.
    pub remaining: u64,
    /// Watchdog no-progress limit, in hub cycles.
    pub no_progress_limit: u64,
    /// Hub cycles consumed by the session so far.
    pub consumed: u64,
    /// Watchdog idle/last-cycle accumulators at the capture boundary —
    /// the whole of a kernel's watchdog state.
    pub wd: WatchdogState,
}

impl Checkpointable for SessionState {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.remaining);
        w.put_u64(self.no_progress_limit);
        w.put_u64(self.consumed);
        self.wd.save(w);
        // Reserved byte, always 0: a kernel's watchdog state is wholly
        // in `wd`.
        w.put_u8(0);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let s = SessionState {
            remaining: r.get_u64()?,
            no_progress_limit: r.get_u64()?,
            consumed: r.get_u64()?,
            wd: WatchdogState::load(r)?,
        };
        match r.get_u8()? {
            0 => {}
            t => {
                return Err(CheckpointError::Malformed(format!(
                    "session reserved byte {t}"
                )))
            }
        }
        // The limit `Soc::begin` refuses: stepping such a session
        // would trip the kernel's assertion on whichever thread runs it.
        if s.no_progress_limit == 0 {
            return Err(CheckpointError::Malformed(
                "session no_progress_limit is zero".to_string(),
            ));
        }
        Ok(s)
    }
}

/// Architectural digest — the half of snapshot verification that does
/// not depend on the kernel's schedule. Hashes the observable run state
/// ([`crate::SocReport`] JSON, the controller status, the full gmem
/// image) at the capture boundary; a restore checks it after the
/// [`KernelDigest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchDigest {
    /// Hub cycles at capture.
    pub hub_cycles: u64,
    /// FNV-1a of `SocReport::to_json()`.
    pub report_fnv: u64,
    /// FNV-1a of the controller status `Debug` rendering.
    pub ctrl_fnv: u64,
    /// FNV-1a of the full gmem word image (little-endian).
    pub gmem_fnv: u64,
}

impl ArchDigest {
    /// Compares against a freshly computed digest, naming the first
    /// field that disagrees.
    pub fn verify(&self, got: &ArchDigest) -> Result<(), CheckpointError> {
        let diverged = |field: &str, expected: u64, found: u64| CheckpointError::ReplayDivergence {
            field: field.to_string(),
            expected,
            found,
        };
        if self.hub_cycles != got.hub_cycles {
            return Err(diverged("arch.hub_cycles", self.hub_cycles, got.hub_cycles));
        }
        if self.ctrl_fnv != got.ctrl_fnv {
            return Err(diverged("arch.ctrl_fnv", self.ctrl_fnv, got.ctrl_fnv));
        }
        if self.gmem_fnv != got.gmem_fnv {
            return Err(diverged("arch.gmem_fnv", self.gmem_fnv, got.gmem_fnv));
        }
        if self.report_fnv != got.report_fnv {
            return Err(diverged("arch.report_fnv", self.report_fnv, got.report_fnv));
        }
        Ok(())
    }
}

impl Checkpointable for ArchDigest {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.hub_cycles);
        w.put_u64(self.report_fnv);
        w.put_u64(self.ctrl_fnv);
        w.put_u64(self.gmem_fnv);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(ArchDigest {
            hub_cycles: r.get_u64()?,
            report_fnv: r.get_u64()?,
            ctrl_fnv: r.get_u64()?,
            gmem_fnv: r.get_u64()?,
        })
    }
}

/// The deterministic build inputs of one simulation — the half of the
/// replay recipe that never changes after build. Held behind one `Arc`
/// that the SoC, every de-opted lane replay and every
/// [`SimSnapshot`] of the run point at, so a 24-lane campaign holds one
/// copy of the images, not one per user.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Build configuration.
    pub cfg: SocConfig,
    /// Controller program image.
    pub program: Vec<u32>,
    /// Staging memory init image.
    pub staging: Vec<u32>,
    /// Global-memory init regions `(base, words)`.
    pub gmem_init: Vec<(usize, Vec<u64>)>,
}

impl Recipe {
    /// Copies the build inputs once into a shareable recipe.
    pub fn new(
        cfg: SocConfig,
        program: &[u32],
        staging: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
    ) -> Arc<Recipe> {
        Arc::new(Recipe {
            cfg,
            program: program.to_vec(),
            staging: staging.to_vec(),
            gmem_init: gmem_init.to_vec(),
        })
    }
}

/// A versioned, self-verifying snapshot of one SoC simulation — see
/// the [module docs](self) for the replay-recipe model. Produced by
/// [`crate::Soc::checkpoint`]: instant-exact with a [`KernelDigest`] (a
/// capture can sit mid-cycle under GALS); consumed by
/// [`crate::Soc::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// The shared build inputs.
    pub recipe: Arc<Recipe>,
    /// Ordered fault-injection replay log.
    pub faults: Vec<FaultEvent>,
    /// Replay target as an exact kernel instant count.
    pub instants: u64,
    /// Hub cycles at capture.
    pub hub_cycles: u64,
    /// Whether the kernel progress token was set at capture (restored
    /// verbatim; it only feeds the watchdog, never behavior).
    pub progress_set: bool,
    /// Open supervised-run session, if the capture was mid-run.
    pub session: Option<SessionState>,
    /// Kernel-exact digest.
    pub kernel: KernelDigest,
    /// Architectural digest.
    pub arch: ArchDigest,
}

fn save_cfg(cfg: &SocConfig, w: &mut StateWriter) {
    w.put_u8(match cfg.fidelity {
        Fidelity::SimAccurate => 0,
        Fidelity::Rtl => 1,
        Fidelity::RtlCompiled => 2,
    });
    match cfg.clocking {
        ClockingMode::Synchronous => w.put_u8(0),
        ClockingMode::Gals { spread_ppm } => {
            w.put_u8(1);
            w.put_u32(spread_ppm);
        }
        ClockingMode::GalsAdaptive { noise_seed } => {
            w.put_u8(2);
            w.put_u64(noise_seed);
        }
    }
    w.put_u64(cfg.period.as_ps());
    w.put_u64(cfg.lanes as u64);
    w.put_u64(cfg.gmem_words as u64);
    w.put_u64(cfg.staging_words as u64);
    w.put_u64(cfg.link_depth as u64);
    w.put_u8(match cfg.router {
        RouterKind::Wormhole => 0,
        RouterKind::StoreForward => 1,
    });
    w.put_bool(cfg.gating);
    w.put_opt_u64(cfg.pe_timeout);
    w.put_bool(cfg.compiled_schedule); // vestigial byte, ROADMAP item 1c
    w.put_opt_u64(cfg.checkpoint_every);
}

fn load_cfg(r: &mut StateReader<'_>) -> Result<SocConfig, CheckpointError> {
    let fidelity = match r.get_u8()? {
        0 => Fidelity::SimAccurate,
        1 => Fidelity::Rtl,
        2 => Fidelity::RtlCompiled,
        t => return Err(CheckpointError::Malformed(format!("fidelity tag {t}"))),
    };
    let clocking = match r.get_u8()? {
        0 => ClockingMode::Synchronous,
        1 => ClockingMode::Gals {
            spread_ppm: r.get_u32()?,
        },
        2 => ClockingMode::GalsAdaptive {
            noise_seed: r.get_u64()?,
        },
        t => return Err(CheckpointError::Malformed(format!("clocking tag {t}"))),
    };
    let period = Picoseconds::new(r.get_u64()?);
    let lanes = r.get_u64()? as usize;
    let gmem_words = r.get_u64()? as usize;
    let staging_words = r.get_u64()? as usize;
    let link_depth = r.get_u64()? as usize;
    let router = match r.get_u8()? {
        0 => RouterKind::Wormhole,
        1 => RouterKind::StoreForward,
        t => return Err(CheckpointError::Malformed(format!("router tag {t}"))),
    };
    let cfg = SocConfig {
        fidelity,
        clocking,
        period,
        lanes,
        gmem_words,
        staging_words,
        link_depth,
        router,
        gating: r.get_bool()?,
        pe_timeout: r.get_opt_u64()?,
        compiled_schedule: r.get_bool()?,
        checkpoint_every: r.get_opt_u64()?,
    };
    cfg.validate()
        .map_err(|e| CheckpointError::Malformed(format!("invalid config: {e}")))?;
    Ok(cfg)
}

/// Writes a length-prefixed sequence of values.
fn save_all<T: Checkpointable>(items: &[T], w: &mut StateWriter) {
    w.put_u64(items.len() as u64);
    for item in items {
        item.save(w);
    }
}

/// Reads what [`save_all`] wrote.
fn load_all<T: Checkpointable>(r: &mut StateReader<'_>) -> Result<Vec<T>, CheckpointError> {
    let n = r.get_len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::load(r)?);
    }
    Ok(items)
}

/// Writes a presence flag, then the value when there is one.
fn save_opt<T: Checkpointable>(v: &Option<T>, w: &mut StateWriter) {
    w.put_bool(v.is_some());
    if let Some(v) = v {
        v.save(w);
    }
}

/// Reads what [`save_opt`] wrote.
fn load_opt<T: Checkpointable>(r: &mut StateReader<'_>) -> Result<Option<T>, CheckpointError> {
    r.get_bool()?.then(|| T::load(r)).transpose()
}

/// A value the frame must carry behind its presence flag.
fn required<T>(v: Option<T>, what: &str) -> Result<T, CheckpointError> {
    v.ok_or_else(|| CheckpointError::Malformed(format!("snapshot without {what}")))
}

impl Checkpointable for Recipe {
    fn save(&self, w: &mut StateWriter) {
        save_cfg(&self.cfg, w);
        w.put_u32s(&self.program);
        w.put_u32s(&self.staging);
        w.put_u64(self.gmem_init.len() as u64);
        for (base, words) in &self.gmem_init {
            w.put_u64(*base as u64);
            w.put_u64s(words);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let cfg = load_cfg(r)?;
        let program = r.get_u32s()?;
        let staging = r.get_u32s()?;
        let n = r.get_len()?;
        let mut gmem_init = Vec::with_capacity(n);
        for _ in 0..n {
            let base = r.get_u64()? as usize;
            gmem_init.push((base, r.get_u64s()?));
        }
        Ok(Recipe {
            cfg,
            program,
            staging,
            gmem_init,
        })
    }
}

impl Checkpointable for SimSnapshot {
    fn save(&self, w: &mut StateWriter) {
        self.recipe.save(w);
        save_all(&self.faults, w);
        // The instant target and the kernel digest keep the presence
        // flags of the format, always set.
        w.put_opt_u64(Some(self.instants));
        w.put_u64(self.hub_cycles);
        w.put_bool(self.progress_set);
        save_opt(&self.session, w);
        w.put_bool(true);
        self.kernel.save(w);
        self.arch.save(w);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(SimSnapshot {
            recipe: Arc::new(Recipe::load(r)?),
            faults: load_all(r)?,
            instants: required(r.get_opt_u64()?, "an instant target")?,
            hub_cycles: r.get_u64()?,
            progress_set: r.get_bool()?,
            session: load_opt(r)?,
            kernel: required(load_opt(r)?, "a kernel digest")?,
            arch: ArchDigest::load(r)?,
        })
    }
}

/// Serializes `v` to a standalone framed byte stream (magic, version,
/// `kind`, length, payload, checksum).
fn encode_framed<T: Checkpointable>(kind: u8, v: &T) -> Vec<u8> {
    let mut w = StateWriter::new();
    v.save(&mut w);
    frame_snapshot(kind, &w.into_bytes())
}

/// Parses a framed byte stream of `kind`, requiring the payload to be
/// consumed exactly; truncation, corruption, version and kind
/// mismatches are each a typed error.
fn decode_framed<T: Checkpointable>(kind: u8, bytes: &[u8]) -> Result<T, CheckpointError> {
    let payload = unframe_snapshot(bytes, kind)?;
    let mut r = StateReader::new(payload);
    let v = T::load(&mut r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} unread bytes after payload",
            r.remaining()
        )));
    }
    Ok(v)
}

impl SimSnapshot {
    /// Serializes to a standalone framed byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_framed(KIND_SOC, self)
    }

    /// Parses a framed byte stream with typed rejection.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, CheckpointError> {
        decode_framed(KIND_SOC, bytes)
    }
}

/// Snapshot of a batched lockstep campaign mid-golden-run: the golden
/// [`SimSnapshot`] (carrying the open session), every lane's spec, and
/// each lane's divergence status and shadow fault counters at the
/// capture boundary. Restore rebuilds the banks with the same seeds,
/// replays the golden run (shadow decisions re-derive along the
/// regenerated token stream), and verifies every lane's status and
/// stats against the recorded ones.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSnapshot {
    /// The golden run's snapshot (session included).
    pub golden: SimSnapshot,
    /// Lane fault scenarios, in lane order.
    pub specs: Vec<LaneSpec>,
    /// Per-lane divergence status at capture.
    pub lane_status: Vec<LaneStatus>,
    /// Per-lane shadow fault counters at capture.
    pub lane_stats: Vec<FaultStats>,
}

impl Checkpointable for LaneSpec {
    fn save(&self, w: &mut StateWriter) {
        w.put_str(&self.pattern);
        self.cfg.save(w);
        w.put_u64(self.seed);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(LaneSpec {
            pattern: r.get_str()?,
            cfg: FaultConfig::load(r)?,
            seed: r.get_u64()?,
        })
    }
}

impl Checkpointable for BatchSnapshot {
    fn save(&self, w: &mut StateWriter) {
        self.golden.save(w);
        save_all(&self.specs, w);
        save_all(&self.lane_status, w);
        save_all(&self.lane_stats, w);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let snap = BatchSnapshot {
            golden: SimSnapshot::load(r)?,
            specs: load_all(r)?,
            lane_status: load_all(r)?,
            lane_stats: load_all(r)?,
        };
        let lanes = snap.specs.len();
        if lanes != snap.lane_status.len() || lanes != snap.lane_stats.len() {
            return Err(CheckpointError::Malformed(format!(
                "lane table lengths disagree: {lanes} specs, {} statuses, {} stats",
                snap.lane_status.len(),
                snap.lane_stats.len()
            )));
        }
        Ok(snap)
    }
}

impl BatchSnapshot {
    /// Serializes to a standalone framed byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_framed(KIND_BATCH, self)
    }

    /// Parses a framed byte stream with typed rejection.
    pub fn from_bytes(bytes: &[u8]) -> Result<BatchSnapshot, CheckpointError> {
        decode_framed(KIND_BATCH, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SegmentStatus;
    use crate::soc::Soc;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    /// A vec_mul run (halts ~800 cycles) stopped at its first
    /// `every`-cycle boundary.
    fn at_first_boundary(every: u64, fault: Option<(&str, FaultConfig, u64)>) -> Soc {
        let wl = vec_mul();
        let cfg = SocConfig {
            checkpoint_every: Some(every),
            ..SocConfig::default()
        };
        let table = table_words(&wl.entries);
        let mut soc = Soc::build(cfg, &orchestrator_program(), &table, &wl.gmem_init);
        if let Some((pat, fc, seed)) = fault {
            soc.inject_fault(pat, fc, seed).expect("pattern matches");
        }
        soc.begin(4_000_000, 100_000);
        let status = soc.step_segment().expect("segment runs clean");
        assert_eq!(status, SegmentStatus::Boundary, "must stop mid-run");
        soc
    }

    fn mid_run_snapshot() -> (SimSnapshot, Soc) {
        let soc = at_first_boundary(300, None);
        (soc.checkpoint(), soc)
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let (snap, _soc) = mid_run_snapshot();
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).expect("parses");
        assert_eq!(back, snap);
        // Every single-byte corruption in the payload is caught.
        let mut bad = bytes.clone();
        bad[40] ^= 0x10;
        assert!(matches!(
            SimSnapshot::from_bytes(&bad),
            Err(CheckpointError::Corrupted { .. })
        ));
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes[..bytes.len() / 2]),
            Err(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            BatchSnapshot::from_bytes(&bytes),
            Err(CheckpointError::WrongKind {
                found: KIND_SOC,
                expected: KIND_BATCH
            })
        ));
    }

    #[test]
    fn a_session_with_a_zero_watchdog_limit_is_malformed() {
        let load = |no_progress_limit: u64| {
            let session = SessionState {
                remaining: 10,
                no_progress_limit,
                consumed: 0,
                wd: WatchdogState::default(),
            };
            let mut w = StateWriter::new();
            session.save(&mut w);
            SessionState::load(&mut StateReader::new(&w.into_bytes())).map(|back| back == session)
        };
        assert_eq!(load(1), Ok(true));
        assert!(matches!(load(0), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn restore_then_run_equals_uninterrupted() {
        let (snap, mut original) = mid_run_snapshot();
        let mut restored = Soc::restore(&snap).expect("replay verifies");
        let a = original.run_to_end().expect("original finishes");
        let b = restored.run_to_end().expect("restored finishes");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ctrl, b.ctrl);
        assert_eq!(a.completed, b.completed);
        assert_eq!(
            original.report().to_json(),
            restored.report().to_json(),
            "reports must match"
        );
        assert_eq!(
            original.gmem_read(0, 4096),
            restored.gmem_read(0, 4096),
            "gmem must match"
        );
    }

    #[test]
    fn restore_with_faults_reproduces_stats() {
        let fault = ("l11p3->15", FaultConfig::bit_flip(0.01), 7);
        let mut soc = at_first_boundary(400, Some(fault));
        let snap = soc.checkpoint();
        assert_eq!(snap.faults.len(), 1);
        let mut restored = Soc::restore(&snap).expect("replay verifies");
        let a = soc.run_to_end().expect("finishes");
        let b = restored.run_to_end().expect("finishes");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            soc.fault_stats("l11p3->15").unwrap(),
            restored.fault_stats("l11p3->15").unwrap(),
            "fault decision streams must replay bit-identically"
        );
    }

    #[test]
    fn tampered_snapshot_diverges_with_typed_error() {
        let (mut snap, _soc) = mid_run_snapshot();
        // Claim one more instant than the capture really had: replay
        // reaches the extra instant but the digests disagree.
        snap.kernel.instants += 1;
        snap.instants = snap.kernel.instants;
        match Soc::restore(&snap) {
            Err(CheckpointError::ReplayDivergence { .. }) => {}
            Err(other) => panic!("expected ReplayDivergence, got {other:?}"),
            Ok(_) => panic!("expected ReplayDivergence, restore succeeded"),
        }
    }
}
