//! Checkpoint/restore plumbing: a typed error, a little-endian byte
//! codec, the [`Checkpointable`] trait, and a length+checksum-framed
//! container format.
//!
//! The kernel's checkpoint model is **replay-based**: a snapshot holds
//! the deterministic *recipe* for a simulation (configuration, initial
//! memory images, the ordered log of irregular events such as fault
//! injections) plus a progress target and a verification digest — not
//! a serialized object graph. Restoring rebuilds the simulator from
//! the recipe and re-executes to the target instant, then proves the
//! reconstruction against the digest. This is the only scheme that can
//! promise *bit-identical* resume for a model whose state includes
//! closures, `Rc` graphs and arbitrary user payload types; it trades
//! restore CPU (a bounded re-run) for zero serialization blind spots.
//!
//! Framing: every serialized snapshot is
//! `magic | version | kind | payload_len | payload | fnv64(payload)`.
//! A reader rejects bad magic, unknown versions, short reads and
//! checksum mismatches with a typed [`CheckpointError`] — never a
//! panic, never silently divergent state.

use std::fmt;

/// Magic prefix of every framed snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CRFTSNAP";
/// Current snapshot format version. Bump on any incompatible layout
/// change — and on any change to what a replay reproduces, since a
/// snapshot verifies itself against the [`KernelDigest`] recorded at
/// capture; readers reject other versions with
/// [`CheckpointError::UnsupportedVersion`].
///
/// * 1 — the original layout.
/// * 2 — same layout; blocked components sleep, so a replay's
///   `ticks_delivered` / `ticks_skipped` no longer match a digest that
///   version 1 recorded. Refusing the version keeps that a typed
///   "unsupported", not a misleading [`CheckpointError::ReplayDivergence`].
/// * 3 — the dead bytes go: the always-set presence flags before the
///   instant target and the kernel digest, the session's always-zero
///   reserved byte, the snapshot's copy of the architectural digest's
///   hub cycles, and each logged fault's unread hub cycle (11 bytes a
///   frame, plus 8 per logged fault).
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a checkpoint could not be decoded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The snapshot holds a different payload kind than the caller
    /// asked for (e.g. a batch snapshot restored as a sequential
    /// engine).
    WrongKind {
        /// Kind tag found in the header.
        found: u8,
        /// Kind tag the caller expected.
        expected: u8,
    },
    /// The byte stream ended before the declared length — a partial
    /// write or a truncated copy.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The payload checksum does not match — bit rot or tampering.
    Corrupted {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
    /// The payload decoded but violates an internal invariant.
    Malformed(String),
    /// Replaying the snapshot's recipe did not reproduce the recorded
    /// state — the environment differs from the one that captured it.
    ReplayDivergence {
        /// Which digest field disagreed.
        field: String,
        /// Value recorded at capture.
        expected: u64,
        /// Value observed after replay.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (reader supports {supported})"
            ),
            CheckpointError::WrongKind { found, expected } => write!(
                f,
                "snapshot kind {found} does not match expected kind {expected}"
            ),
            CheckpointError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {have}")
            }
            CheckpointError::Corrupted { expected, found } => write!(
                f,
                "snapshot corrupted: checksum {found:#018x} != recorded {expected:#018x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "snapshot malformed: {msg}"),
            CheckpointError::ReplayDivergence {
                field,
                expected,
                found,
            } => write!(
                f,
                "replay divergence on {field}: expected {expected}, got {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit hash — the snapshot payload checksum and the digest
/// hash used for bulky state (reports, memory images).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Little-endian append-only byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` via its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends `Some(v)`/`None` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_bool(true);
                self.put_u64(v);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }
}

/// Bounds-checked reader over an encoded payload. Every accessor
/// returns [`CheckpointError::Truncated`] instead of panicking when
/// the stream runs short.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Malformed(format!(
                "bool byte {b} (want 0/1)"
            ))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional `u64` (presence byte + value).
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CheckpointError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let len = self.get_len()?;
        (0..len).map(|_| self.get_u32()).collect()
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = self.get_len()?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Reads a length prefix, bounding it by the remaining bytes so a
    /// corrupted length cannot trigger an absurd allocation.
    pub fn get_len(&mut self) -> Result<usize, CheckpointError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 * 8 + 64 {
            return Err(CheckpointError::Malformed(format!(
                "length prefix {len} exceeds remaining payload"
            )));
        }
        Ok(len as usize)
    }
}

/// State that can round-trip through a snapshot payload.
///
/// `save` must write exactly what `load` reads, in the same order —
/// the framed container checks integrity (length + checksum), the
/// trait carries the layout.
pub trait Checkpointable: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut StateWriter);
    /// Decodes one value, consuming exactly what `save` wrote.
    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError>;
}

/// Frames `payload` into a standalone snapshot byte stream:
/// magic, version, `kind` tag, length, payload, FNV-1a checksum.
pub fn frame_snapshot(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 29);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// Validates a framed snapshot and returns its `kind` tag and payload
/// slice. Rejects bad magic, unsupported versions, truncation
/// (declared length or trailer missing), trailing garbage and checksum
/// mismatches — each as its own [`CheckpointError`]. What a kind means
/// is the caller's to judge.
pub fn unframe_snapshot(bytes: &[u8]) -> Result<(u8, &[u8]), CheckpointError> {
    let header = SNAPSHOT_MAGIC.len() + 4 + 1 + 8;
    if bytes.len() < header {
        return Err(CheckpointError::Truncated {
            needed: header,
            have: bytes.len(),
        });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAPSHOT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let kind = bytes[12];
    let len = u64::from_le_bytes(bytes[13..header].try_into().expect("8 bytes"));
    // The declared length is untrusted: measure it against what is
    // present (payload and trailer) rather than adding to it.
    let present = (bytes.len() - header) as u64;
    let declared = len.saturating_add(8);
    if declared > present {
        return Err(CheckpointError::Truncated {
            needed: usize::try_from(declared).map_or(usize::MAX, |d| d.saturating_add(header)),
            have: bytes.len(),
        });
    }
    if present > declared {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after snapshot frame",
            present - declared
        )));
    }
    let (payload, trailer) = bytes[header..].split_at(bytes.len() - header - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let actual = fnv64(payload);
    if recorded != actual {
        return Err(CheckpointError::Corrupted {
            expected: recorded,
            found: actual,
        });
    }
    Ok((kind, payload))
}

/// Hang-watchdog accumulator state, externalized so supervised runs
/// can be segmented (checkpoint between segments) without changing
/// when the watchdog trips: `idle` and `last_cycle` survive the seam
/// exactly as they would inside one uninterrupted
/// [`crate::Simulator::run_until_checked`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogState {
    /// Reference-clock cycles since the last observed progress.
    pub idle: u64,
    /// Reference-clock cycle count at the last watchdog evaluation.
    pub last_cycle: u64,
}

impl Checkpointable for WatchdogState {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.idle);
        w.put_u64(self.last_cycle);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(WatchdogState {
            idle: r.get_u64()?,
            last_cycle: r.get_u64()?,
        })
    }
}

/// Exact kernel-level progress digest: scheduler counters and the full
/// clock table. Captured by [`crate::Simulator::kernel_digest`] and
/// verified after a replay-based restore — any field mismatch means
/// the rebuilt simulation did not retrace the original trajectory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelDigest {
    /// Simulation time, picoseconds.
    pub now_ps: u64,
    /// Evaluate/commit instants processed.
    pub instants: u64,
    /// Component ticks delivered.
    pub ticks_delivered: u64,
    /// Ticks elided by quiescence gating.
    pub ticks_skipped: u64,
    /// Sequential commits elided by gating.
    pub commits_skipped: u64,
    /// Per-clock `(cycles, next_edge_ps, paused)`, in clock-id order.
    pub clocks: Vec<(u64, u64, bool)>,
}

impl KernelDigest {
    /// Compares against a freshly captured digest, naming the first
    /// field that disagrees.
    pub fn verify(&self, got: &KernelDigest) -> Result<(), CheckpointError> {
        let diverged = |field: &str, expected: u64, found: u64| CheckpointError::ReplayDivergence {
            field: field.to_string(),
            expected,
            found,
        };
        if self.now_ps != got.now_ps {
            return Err(diverged("kernel.now_ps", self.now_ps, got.now_ps));
        }
        if self.instants != got.instants {
            return Err(diverged("kernel.instants", self.instants, got.instants));
        }
        if self.ticks_delivered != got.ticks_delivered {
            return Err(diverged(
                "kernel.ticks_delivered",
                self.ticks_delivered,
                got.ticks_delivered,
            ));
        }
        if self.ticks_skipped != got.ticks_skipped {
            return Err(diverged(
                "kernel.ticks_skipped",
                self.ticks_skipped,
                got.ticks_skipped,
            ));
        }
        if self.commits_skipped != got.commits_skipped {
            return Err(diverged(
                "kernel.commits_skipped",
                self.commits_skipped,
                got.commits_skipped,
            ));
        }
        if self.clocks.len() != got.clocks.len() {
            return Err(diverged(
                "kernel.clock_count",
                self.clocks.len() as u64,
                got.clocks.len() as u64,
            ));
        }
        for (i, (a, b)) in self.clocks.iter().zip(&got.clocks).enumerate() {
            if a != b {
                return Err(diverged(&format!("kernel.clock[{i}].cycles"), a.0, b.0));
            }
        }
        Ok(())
    }
}

impl Checkpointable for KernelDigest {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.now_ps);
        w.put_u64(self.instants);
        w.put_u64(self.ticks_delivered);
        w.put_u64(self.ticks_skipped);
        w.put_u64(self.commits_skipped);
        w.put_u64(self.clocks.len() as u64);
        for &(cycles, edge, paused) in &self.clocks {
            w.put_u64(cycles);
            w.put_u64(edge);
            w.put_bool(paused);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let now_ps = r.get_u64()?;
        let instants = r.get_u64()?;
        let ticks_delivered = r.get_u64()?;
        let ticks_skipped = r.get_u64()?;
        let commits_skipped = r.get_u64()?;
        let n = r.get_len()?;
        let mut clocks = Vec::with_capacity(n);
        for _ in 0..n {
            clocks.push((r.get_u64()?, r.get_u64()?, r.get_bool()?));
        }
        Ok(KernelDigest {
            now_ps,
            instants,
            ticks_delivered,
            ticks_skipped,
            commits_skipped,
            clocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_primitives() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(0.25);
        w.put_opt_u64(Some(42));
        w.put_opt_u64(None);
        w.put_str("hub → n5");
        w.put_u32s(&[1, 2, 3]);
        w.put_u64s(&[]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), 0.25);
        assert_eq!(r.get_opt_u64().unwrap(), Some(42));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_str().unwrap(), "hub → n5");
        assert_eq!(r.get_u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64s().unwrap(), Vec::<u64>::new());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_truncation_not_panics() {
        let mut w = StateWriter::new();
        w.put_u64(99);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..5]);
        assert!(matches!(
            r.get_u64(),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_round_trips_and_rejects_each_failure_mode() {
        let payload = b"deterministic payload".to_vec();
        let framed = frame_snapshot(3, &payload);
        assert_eq!(unframe_snapshot(&framed).unwrap(), (3, &payload[..]));

        // Bad magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(unframe_snapshot(&bad), Err(CheckpointError::BadMagic));

        // Version mismatch.
        let mut bad = framed.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));

        // Frames written before blocked components slept, and before
        // the dead bytes went.
        for found in [1u32, 2] {
            let mut old = framed.clone();
            old[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                unframe_snapshot(&old),
                Err(CheckpointError::UnsupportedVersion {
                    found,
                    supported: 3
                })
            );
        }

        // Truncation (anywhere in the stream).
        for cut in [0, 10, framed.len() - 1] {
            assert!(matches!(
                unframe_snapshot(&framed[..cut]),
                Err(CheckpointError::Truncated { .. })
            ));
        }

        // A declared length no stream can hold is a short stream, not
        // an overflow.
        for len in [u64::MAX, u64::MAX - 7, u64::MAX / 2] {
            let mut bad = framed[..21].to_vec();
            bad[13..21].copy_from_slice(&len.to_le_bytes());
            bad.extend_from_slice(&[0; 7]);
            assert!(matches!(
                unframe_snapshot(&bad),
                Err(CheckpointError::Truncated { .. })
            ));
        }

        // Single-bit corruption of the payload.
        let mut bad = framed.clone();
        bad[25] ^= 0x01;
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(CheckpointError::Corrupted { .. })
        ));

        // Trailing garbage.
        let mut bad = framed.clone();
        bad.push(0);
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn watchdog_and_digest_round_trip() {
        let wd = WatchdogState {
            idle: 17,
            last_cycle: 4_000,
        };
        let kd = KernelDigest {
            now_ps: 123_456,
            instants: 999,
            ticks_delivered: 10,
            ticks_skipped: 2,
            commits_skipped: 5,
            clocks: vec![(100, 90_900, false), (7, u64::MAX, true)],
        };
        let mut w = StateWriter::new();
        wd.save(&mut w);
        kd.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(WatchdogState::load(&mut r).unwrap(), wd);
        let kd2 = KernelDigest::load(&mut r).unwrap();
        assert_eq!(kd2, kd);
        kd.verify(&kd2).unwrap();
        let mut other = kd.clone();
        other.instants += 1;
        assert!(matches!(
            kd.verify(&other),
            Err(CheckpointError::ReplayDivergence { .. })
        ));
    }
}
