//! NoC message formats for the prototype SoC: PE commands, global
//! memory reads/writes, data returns and completion notifications —
//! encoded into 64-bit flit payloads and carried as
//! [`craft_matchlib::router::NocFlit`] packets.

use craft_matchlib::router::{make_packet, NocFlit};

/// The hub (global memory + controller interface) lives at this node
/// of the 4x4 mesh; nodes 0..15 excluding it are PEs.
pub const HUB_NODE: u16 = 15;
/// Mesh width.
pub const MESH_WIDTH: u16 = 4;
/// Total mesh nodes.
pub const N_NODES: u16 = 16;
/// Number of processing elements (Fig. 5: 15 replicated PEs).
pub const N_PES: u16 = N_NODES - 1;

/// Compute operation a PE can execute (the paper's kernels: vector
/// multiply, dot-product, reduction, plus the workload kernels the
/// accelerator targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeOp {
    /// `out[i] = a[i] + b[i]`.
    VecAdd = 0,
    /// `out[i] = a[i] * b[i]`.
    VecMul = 1,
    /// `out[0] = sum(a[i] * b[i])`.
    Dot = 2,
    /// `out[0] = sum(a[i])`.
    Reduce = 3,
    /// `out[i] = scalar * a[i]`.
    Scale = 4,
    /// `out[i] = sum_t a[i+t] * taps[t]`, taps at `b`, `scalar` taps.
    Conv1d = 5,
    /// `out[i] = argmin_c |a[i] - centroid[c]|`, centroids at `b`,
    /// `scalar` centroids (the K-means assignment step).
    ArgMinDist = 6,
}

impl PeOp {
    fn from_u8(v: u8) -> Option<PeOp> {
        Some(match v {
            0 => PeOp::VecAdd,
            1 => PeOp::VecMul,
            2 => PeOp::Dot,
            3 => PeOp::Reduce,
            4 => PeOp::Scale,
            5 => PeOp::Conv1d,
            6 => PeOp::ArgMinDist,
            _ => return None,
        })
    }

    /// True for ops that read a second operand region at `b`.
    pub fn uses_b(self) -> bool {
        matches!(
            self,
            PeOp::VecAdd | PeOp::VecMul | PeOp::Dot | PeOp::Conv1d | PeOp::ArgMinDist
        )
    }

    /// Output length in words for an input of `len`.
    pub fn out_len(self, len: u16) -> u16 {
        match self {
            PeOp::Dot | PeOp::Reduce => 1,
            _ => len,
        }
    }
}

/// One command for a PE: operands and results live in global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeCommand {
    /// Operation.
    pub op: PeOp,
    /// First operand base (gmem word address).
    pub a: u16,
    /// Second operand base (gmem word address, ops with `uses_b`).
    pub b: u16,
    /// Result base (gmem word address).
    pub out: u16,
    /// Input length in words.
    pub len: u16,
    /// Scalar argument (Scale factor / tap count / centroid count).
    pub scalar: u16,
}

impl PeCommand {
    /// Packs into one 64-bit word: op(4) a(12) b(12) out(12) len(12)
    /// scalar(12).
    ///
    /// # Panics
    /// Panics if any field exceeds 12 bits.
    pub fn pack(&self) -> u64 {
        for (name, v) in [
            ("a", self.a),
            ("b", self.b),
            ("out", self.out),
            ("len", self.len),
            ("scalar", self.scalar),
        ] {
            assert!(v < (1 << 12), "PeCommand field {name}={v} exceeds 12 bits");
        }
        (self.op as u64)
            | (u64::from(self.a) << 4)
            | (u64::from(self.b) << 16)
            | (u64::from(self.out) << 28)
            | (u64::from(self.len) << 40)
            | (u64::from(self.scalar) << 52)
    }

    /// Unpacks a word produced by [`pack`](Self::pack).
    ///
    /// # Panics
    /// Panics on an unknown opcode.
    pub fn unpack(word: u64) -> PeCommand {
        PeCommand {
            op: PeOp::from_u8((word & 0xF) as u8).expect("unknown PE opcode"),
            a: ((word >> 4) & 0xFFF) as u16,
            b: ((word >> 16) & 0xFFF) as u16,
            out: ((word >> 28) & 0xFFF) as u16,
            len: ((word >> 40) & 0xFFF) as u16,
            scalar: ((word >> 52) & 0xFFF) as u16,
        }
    }
}

/// A decoded NoC message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocMsg {
    /// Hub -> PE: execute a command.
    PeCmd(PeCommand),
    /// PE -> hub: read `len` gmem words at `base`, reply to `reply_to`.
    MemRead {
        /// First word address.
        base: u16,
        /// Word count.
        len: u16,
        /// Node to send the data to.
        reply_to: u16,
    },
    /// PE -> hub: write the payload at `base`.
    MemWrite {
        /// First word address.
        base: u16,
        /// Data words.
        data: Vec<u64>,
    },
    /// Hub -> PE: data returned for a MemRead.
    MemData {
        /// First word address.
        base: u16,
        /// Data words.
        data: Vec<u64>,
    },
    /// PE -> hub: command finished.
    Done {
        /// Reporting PE node.
        pe: u16,
    },
}

const TY_PECMD: u64 = 1;
const TY_MEMREAD: u64 = 2;
const TY_MEMWRITE: u64 = 3;
const TY_MEMDATA: u64 = 4;
const TY_DONE: u64 = 5;

fn header(ty: u64, base: u16, len: u16, aux: u16) -> u64 {
    ty | (u64::from(base) << 8) | (u64::from(len) << 24) | (u64::from(aux) << 40)
}

impl NocMsg {
    /// Serializes to 64-bit payload words (header first).
    pub fn to_words(&self) -> Vec<u64> {
        match self {
            NocMsg::PeCmd(cmd) => vec![header(TY_PECMD, 0, 0, 0), cmd.pack()],
            NocMsg::MemRead {
                base,
                len,
                reply_to,
            } => vec![header(TY_MEMREAD, *base, *len, *reply_to)],
            NocMsg::MemWrite { base, data } => {
                let mut w = vec![header(TY_MEMWRITE, *base, data.len() as u16, 0)];
                w.extend(data);
                w
            }
            NocMsg::MemData { base, data } => {
                let mut w = vec![header(TY_MEMDATA, *base, data.len() as u16, 0)];
                w.extend(data);
                w
            }
            NocMsg::Done { pe } => vec![header(TY_DONE, 0, 0, *pe)],
        }
    }

    /// Decodes from payload words.
    ///
    /// # Panics
    /// Panics on a malformed message (unknown type or truncated
    /// payload) — corrupted packets indicate a router bug.
    pub fn from_words(words: &[u64]) -> NocMsg {
        assert!(!words.is_empty(), "empty message");
        let h = words[0];
        let ty = h & 0xFF;
        let base = ((h >> 8) & 0xFFFF) as u16;
        let len = ((h >> 24) & 0xFFFF) as u16;
        let aux = ((h >> 40) & 0xFFFF) as u16;
        match ty {
            TY_PECMD => {
                assert_eq!(words.len(), 2, "PeCmd needs 2 words");
                NocMsg::PeCmd(PeCommand::unpack(words[1]))
            }
            TY_MEMREAD => NocMsg::MemRead {
                base,
                len,
                reply_to: aux,
            },
            TY_MEMWRITE => {
                assert_eq!(words.len(), 1 + len as usize, "MemWrite truncated");
                NocMsg::MemWrite {
                    base,
                    data: words[1..].to_vec(),
                }
            }
            TY_MEMDATA => {
                assert_eq!(words.len(), 1 + len as usize, "MemData truncated");
                NocMsg::MemData {
                    base,
                    data: words[1..].to_vec(),
                }
            }
            TY_DONE => NocMsg::Done { pe: aux },
            other => panic!("unknown NoC message type {other}"),
        }
    }

    /// Builds the flit packet carrying this message from `src` to
    /// `dst` on virtual channel `vc`.
    pub fn to_packet(&self, dst: u16, src: u16, vc: u8) -> Vec<NocFlit> {
        make_packet(dst, src, vc, &self.to_words())
    }
}

/// Incremental packet reassembler for one (node, vc) stream.
#[derive(Debug, Default)]
pub struct PacketAssembler {
    words: Vec<u64>,
    src: u16,
}

impl PacketAssembler {
    /// Empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one flit; returns the decoded message (and its source
    /// node) when the packet completes.
    pub fn push(&mut self, flit: NocFlit) -> Option<(NocMsg, u16)> {
        if flit.kind.is_head() {
            self.words.clear();
            self.src = flit.src;
        }
        self.words.push(flit.data);
        if flit.kind.is_tail() {
            let msg = NocMsg::from_words(&self.words);
            self.words.clear();
            return Some((msg, self.src));
        }
        None
    }
}

/// The protocol checks a corrupt packet can trip: the site and the
/// words of the check's panic message. A fault that corrupts a packet
/// surfaces as one of these fail-stops; a panic raised anywhere else
/// is a bug in the model, not a detection.
pub const PROTOCOL_CHECKS: [(&str, &str); 8] = [
    ("NocMsg::from_words", "empty message"),
    ("NocMsg::from_words", "PeCmd needs 2 words"),
    ("NocMsg::from_words", "MemWrite truncated"),
    ("NocMsg::from_words", "MemData truncated"),
    ("NocMsg::from_words", "unknown NoC message type"),
    ("WhvcRouter::accept", "flit names nonexistent vc"),
    ("Hub::service_head", "outside global memory"),
    ("ProcessingElement::handle_msg", "cannot handle"),
];

/// Which of [`PROTOCOL_CHECKS`] raised the panic whose message is
/// `msg` ([`panic_message`] of a `catch_unwind` error, or a batch
/// lane's `LaneRun::panic`), or `None` when no protocol check did.
pub fn protocol_check(msg: &str) -> Option<usize> {
    PROTOCOL_CHECKS.iter().position(|(_, c)| msg.contains(c))
}

/// The message a panic `payload` carries (empty when it is not text).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<String>() {
        Some(s) => s.as_str(),
        None => payload.downcast_ref::<&str>().copied().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_pack_round_trip() {
        let cmd = PeCommand {
            op: PeOp::Conv1d,
            a: 100,
            b: 2000,
            out: 300,
            len: 512,
            scalar: 5,
        };
        assert_eq!(PeCommand::unpack(cmd.pack()), cmd);
    }

    #[test]
    fn all_messages_round_trip() {
        let msgs = vec![
            NocMsg::PeCmd(PeCommand {
                op: PeOp::Dot,
                a: 1,
                b: 2,
                out: 3,
                len: 4,
                scalar: 0,
            }),
            NocMsg::MemRead {
                base: 77,
                len: 12,
                reply_to: 3,
            },
            NocMsg::MemWrite {
                base: 5,
                data: vec![10, 20, 30],
            },
            NocMsg::MemData {
                base: 5,
                data: vec![1],
            },
            NocMsg::Done { pe: 9 },
        ];
        for m in msgs {
            assert_eq!(NocMsg::from_words(&m.to_words()), m, "{m:?}");
        }
    }

    #[test]
    fn packet_assembly_from_flits() {
        let msg = NocMsg::MemWrite {
            base: 64,
            data: (0..10).collect(),
        };
        let pkt = msg.to_packet(HUB_NODE, 3, 0);
        assert_eq!(pkt.len(), 11);
        let mut asm = PacketAssembler::new();
        for (i, f) in pkt.iter().enumerate() {
            match asm.push(*f) {
                Some((decoded, src)) => {
                    assert_eq!(i, pkt.len() - 1, "completes on the tail flit");
                    assert_eq!(decoded, msg);
                    assert_eq!(src, 3);
                }
                None => assert!(i < pkt.len() - 1),
            }
        }
    }

    #[test]
    fn out_len_semantics() {
        assert_eq!(PeOp::Dot.out_len(100), 1);
        assert_eq!(PeOp::Reduce.out_len(100), 1);
        assert_eq!(PeOp::VecMul.out_len(100), 100);
        assert_eq!(PeOp::ArgMinDist.out_len(64), 64);
    }

    #[test]
    #[should_panic(expected = "exceeds 12 bits")]
    fn oversized_field_panics() {
        let _ = PeCommand {
            op: PeOp::VecAdd,
            a: 5000,
            b: 0,
            out: 0,
            len: 0,
            scalar: 0,
        }
        .pack();
    }

    #[test]
    #[should_panic(expected = "MemWrite truncated")]
    fn truncated_message_panics() {
        let mut words = NocMsg::MemWrite {
            base: 0,
            data: vec![1, 2, 3],
        }
        .to_words();
        words.pop();
        let _ = NocMsg::from_words(&words);
    }
}
