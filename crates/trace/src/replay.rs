//! Compact recorded traces: synthesize a stream once, replay it many
//! times.
//!
//! Synthesis is a large share of a simulation's host time, and several
//! studies run the *same* stream on many machines: every point of a
//! sensitivity sweep, or exact and sampled runs of one entry. A
//! [`Replay`] records a [`SyntheticTrace`] prefix once and hands out
//! readers that yield exactly the ops the synthesizer would have.
//!
//! # Encoding
//!
//! [`OpBuffer`] stores each op as a one-byte header, a LEB128 dep
//! varint, then zigzag-LEB128 deltas, about 4 bytes per synthesized op:
//!
//! | header bits | meaning |
//! |---|---|
//! | 0–2 | op class (ALU, mul, div, FP, load, store, branch) |
//! | 3 | kernel mode |
//! | 4 | RAT hazard |
//! | 5 | branch taken |
//! | 6 | pc differs from its prediction: a pc delta follows |
//! | 7 | access size is not 8 bytes: a size byte follows |
//!
//! Both ends predict from the ops already seen, per privilege mode:
//! the next pc is the last op's fall-through, or the last branch's
//! target; a data address is a delta from the mode's last address; a
//! branch target is a delta from the branch's fall-through. A
//! synthesized pc always matches its prediction, so it costs no bytes.
//! Every field round-trips at full width: any `u64` pc, address or
//! target, any `u16` dep distance, any access size.
//!
//! # Past the prefix
//!
//! A consumer may pull more ops than were recorded: how far a core
//! fetches ahead of retirement depends on its configuration. A
//! [`Replay`] therefore keeps the synthesizer state saved after its
//! prefix, and a reader continues from a copy of it, so a replay never
//! runs short and never diverges from the live stream.

use crate::op::{MicroOp, Mode, OpKind};
use crate::profile::{WorkloadProfile, BYTES_PER_OP};
use crate::synth::SyntheticTrace;
use std::fmt;

const KIND_MASK: u8 = 0b111;
const KERNEL: u8 = 1 << 3;
const RAT_HAZARD: u8 = 1 << 4;
const TAKEN: u8 = 1 << 5;
const PC_JUMP: u8 = 1 << 6;
const ODD_SIZE: u8 = 1 << 7;

const INT_ALU: u8 = 0;
const INT_MUL: u8 = 1;
const DIV: u8 = 2;
const FP_ALU: u8 = 3;
const LOAD: u8 = 4;
const STORE: u8 = 5;
const BRANCH: u8 = 6;

/// The access size synthesized ops carry; any other needs a size byte.
const USUAL_SIZE: u8 = 8;

/// What encoder and decoder both predict from the ops already seen,
/// per privilege mode (index 0 user, 1 kernel).
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    next_pc: [u64; 2],
    last_addr: [u64; 2],
}

fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A sequence of [`MicroOp`]s in the compact encoding described in the
/// module docs.
#[derive(Debug, Clone, Default)]
pub struct OpBuffer {
    bytes: Vec<u8>,
    len: u64,
    ctx: Context,
}

impl OpBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        OpBuffer::default()
    }

    /// Append one op.
    pub fn push(&mut self, op: &MicroOp) {
        let m = usize::from(op.mode == Mode::Kernel);
        let pc_delta = op.pc.wrapping_sub(self.ctx.next_pc[m]);
        let fall_through = op.pc.wrapping_add(BYTES_PER_OP);
        let mut header = match op.kind {
            OpKind::IntAlu => INT_ALU,
            OpKind::IntMul => INT_MUL,
            OpKind::Div => DIV,
            OpKind::FpAlu => FP_ALU,
            OpKind::Load { size, .. } | OpKind::Store { size, .. } => {
                let class = if op.kind.is_load() { LOAD } else { STORE };
                if size == USUAL_SIZE {
                    class
                } else {
                    class | ODD_SIZE
                }
            }
            OpKind::Branch { taken: true, .. } => BRANCH | TAKEN,
            OpKind::Branch { taken: false, .. } => BRANCH,
        };
        if m == 1 {
            header |= KERNEL;
        }
        if op.rat_hazard {
            header |= RAT_HAZARD;
        }
        if pc_delta != 0 {
            header |= PC_JUMP;
        }
        self.bytes.push(header);
        put_varint(&mut self.bytes, u64::from(op.dep_dist));
        if pc_delta != 0 {
            put_varint(&mut self.bytes, zigzag(pc_delta));
        }
        self.ctx.next_pc[m] = fall_through;
        match op.kind {
            OpKind::Load { addr, size } | OpKind::Store { addr, size } => {
                put_varint(
                    &mut self.bytes,
                    zigzag(addr.wrapping_sub(self.ctx.last_addr[m])),
                );
                self.ctx.last_addr[m] = addr;
                if size != USUAL_SIZE {
                    self.bytes.push(size);
                }
            }
            OpKind::Branch { target, .. } => {
                put_varint(&mut self.bytes, zigzag(target.wrapping_sub(fall_through)));
                self.ctx.next_pc[m] = target;
            }
            _ => {}
        }
        self.len += 1;
    }

    /// Number of ops held.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoding in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The ops, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = MicroOp> + '_ {
        let mut decoder = Decoder::new(&self.bytes);
        (0..self.len).map(move |_| decoder.next_op())
    }
}

/// Reading end of the codec: walks the bytes an [`OpBuffer`] wrote,
/// keeping the same predictions its encoder kept.
#[derive(Debug, Clone)]
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    ctx: Context,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decoder {
            bytes,
            pos: 0,
            ctx: Context::default(),
        }
    }

    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    /// A varint that is almost always one byte (dep distances, pc
    /// deltas).
    #[inline]
    fn varint(&mut self) -> u64 {
        if let Some(&first) = self.bytes.get(self.pos) {
            if first < 0x80 {
                self.pos += 1;
                return u64::from(first);
            }
        }
        self.wide_varint()
    }

    /// A varint of unpredictable width (address and target deltas):
    /// up to 8 bytes are decoded from one little-endian word without a
    /// branch per byte, by finding the first byte whose continuation
    /// bit is clear and packing the 7-bit groups pairwise.
    #[inline]
    fn wide_varint(&mut self) -> u64 {
        if let Some(chunk) = self.bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
            let stops = !word & 0x8080_8080_8080_8080;
            if stops != 0 {
                let bits = stops.trailing_zeros() + 1;
                self.pos += (bits / 8) as usize;
                let mut x = word & (u64::MAX >> (64 - bits)) & 0x7F7F_7F7F_7F7F_7F7F;
                x = ((x & 0x7F00_7F00_7F00_7F00) >> 1) | (x & 0x007F_007F_007F_007F);
                x = ((x & 0x3FFF_0000_3FFF_0000) >> 2) | (x & 0x0000_3FFF_0000_3FFF);
                x = ((x & 0x0FFF_FFFF_0000_0000) >> 4) | (x & 0x0000_0000_0FFF_FFFF);
                return x;
            }
        }
        // Within 8 bytes of the end, or wider than 8 bytes.
        let (mut v, mut shift) = (0, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// Decode the next op. Only called while ops remain, on bytes
    /// written by [`OpBuffer::push`].
    #[inline]
    fn next_op(&mut self) -> MicroOp {
        let header = self.byte();
        let m = usize::from(header & KERNEL != 0);
        // The encoder wrote a `u16`, so the value fits.
        let dep_dist = self.varint() as u16;
        let mut pc = self.ctx.next_pc[m];
        if header & PC_JUMP != 0 {
            pc = pc.wrapping_add(unzigzag(self.varint()));
        }
        let fall_through = pc.wrapping_add(BYTES_PER_OP);
        self.ctx.next_pc[m] = fall_through;
        let kind = match header & KIND_MASK {
            INT_ALU => OpKind::IntAlu,
            INT_MUL => OpKind::IntMul,
            DIV => OpKind::Div,
            FP_ALU => OpKind::FpAlu,
            class @ (LOAD | STORE) => {
                let addr = self.ctx.last_addr[m].wrapping_add(unzigzag(self.wide_varint()));
                self.ctx.last_addr[m] = addr;
                let size = if header & ODD_SIZE != 0 {
                    self.byte()
                } else {
                    USUAL_SIZE
                };
                if class == LOAD {
                    OpKind::Load { addr, size }
                } else {
                    OpKind::Store { addr, size }
                }
            }
            BRANCH => {
                let target = fall_through.wrapping_add(unzigzag(self.wide_varint()));
                self.ctx.next_pc[m] = target;
                OpKind::Branch {
                    taken: header & TAKEN != 0,
                    target,
                }
            }
            other => unreachable!("op class {other} is never encoded"),
        };
        MicroOp {
            pc,
            kind,
            mode: if m == 1 { Mode::Kernel } else { Mode::User },
            dep_dist,
            rat_hazard: header & RAT_HAZARD != 0,
        }
    }
}

/// A recorded prefix of one [`SyntheticTrace`], tagged with the
/// (profile, seed) it was drawn from. See the module docs.
#[derive(Debug, Clone)]
pub struct Replay {
    profile: WorkloadProfile,
    seed: u64,
    ops: OpBuffer,
    /// Synthesizer state right after the recorded prefix.
    tail: SyntheticTrace,
}

impl Replay {
    /// Synthesize and record the first `ops` ops of `profile` at
    /// `seed`.
    pub fn record(profile: &WorkloadProfile, seed: u64, ops: u64) -> Replay {
        let mut tee = Replay::tee(profile, seed);
        for _ in 0..ops {
            tee.next();
        }
        tee.finish()
    }

    /// A live synthesizer for `profile` at `seed` that records every op
    /// it yields; [`ReplayTee::finish`] turns the recording into a
    /// [`Replay`]. This lets the first simulation of a stream record it
    /// at no extra synthesis cost.
    pub fn tee(profile: &WorkloadProfile, seed: u64) -> ReplayTee {
        ReplayTee(Replay {
            profile: profile.clone(),
            seed,
            ops: OpBuffer::new(),
            tail: SyntheticTrace::new(profile, seed),
        })
    }

    /// The stream from its first op: the recorded prefix, then live
    /// synthesis from the saved state, without end.
    pub fn reader(&self) -> impl Iterator<Item = MicroOp> + '_ {
        ReplayReader {
            decoder: Decoder::new(&self.ops.bytes),
            left: self.ops.len,
            tail: None,
            replay: self,
        }
    }

    /// Number of recorded ops.
    pub fn len(&self) -> u64 {
        self.ops.len
    }

    /// Whether nothing was recorded (every read synthesizes).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the recorded prefix's encoding in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.ops.encoded_bytes()
    }

    /// Check that this replay is the stream of `profile` at `seed`, the
    /// only stream it may stand in for.
    pub fn check(&self, profile: &WorkloadProfile, seed: u64) -> Result<(), ReplayMismatch> {
        if self.seed == seed && self.profile == *profile {
            return Ok(());
        }
        Err(ReplayMismatch {
            recorded: (self.profile.name.clone(), self.seed),
            requested: (profile.name.clone(), seed),
        })
    }
}

/// Iterator over a [`Replay`]'s stream.
struct ReplayReader<'a> {
    decoder: Decoder<'a>,
    /// Recorded ops not yet decoded.
    left: u64,
    /// Live continuation, made on the first read past the prefix.
    tail: Option<SyntheticTrace>,
    replay: &'a Replay,
}

impl Iterator for ReplayReader<'_> {
    type Item = MicroOp;

    #[inline]
    fn next(&mut self) -> Option<MicroOp> {
        if self.left > 0 {
            self.left -= 1;
            return Some(self.decoder.next_op());
        }
        let replay = self.replay;
        self.tail.get_or_insert_with(|| replay.tail.clone()).next()
    }
}

/// A live synthesizer that records what it yields; see
/// [`Replay::tee`]. It is a [`Replay`] under construction: after every
/// op, the synthesizer is exactly the state after the recorded prefix.
#[derive(Debug)]
pub struct ReplayTee(Replay);

impl ReplayTee {
    /// The recording so far, continuing from where the tee stopped.
    pub fn finish(mut self) -> Replay {
        self.0.ops.bytes.shrink_to_fit();
        self.0
    }
}

impl Iterator for ReplayTee {
    type Item = MicroOp;

    #[inline]
    fn next(&mut self) -> Option<MicroOp> {
        let op = self.0.tail.next()?;
        self.0.ops.push(&op);
        Some(op)
    }
}

/// A [`Replay`] offered for a stream it was not drawn from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Profile name and seed the replay was drawn from.
    pub recorded: (String, u64),
    /// Profile name and seed asked for.
    pub requested: (String, u64),
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay of `{}` at seed {:#x} cannot stand in for `{}` at seed {:#x}",
            self.recorded.0, self.recorded.1, self.requested.0, self.requested.1
        )
    }
}

impl std::error::Error for ReplayMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for d in [0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64, 4, 64] {
            assert_eq!(unzigzag(zigzag(d)), d, "{d:#x}");
        }
        assert_eq!(zigzag(u64::MAX), 1, "-1 encodes small");
    }

    #[test]
    fn synthesized_ops_cost_a_few_bytes() {
        let profile = WorkloadProfile::builder("bytes")
            .kernel_fraction(0.2)
            .build()
            .unwrap();
        let replay = Replay::record(&profile, 3, 100_000);
        let per_op = replay.encoded_bytes() as f64 / replay.len() as f64;
        assert!(per_op < 5.0, "{per_op:.2} B/op");
    }

    #[test]
    fn check_rejects_another_seed_or_profile() {
        let a = WorkloadProfile::builder("a").build().unwrap();
        let b = WorkloadProfile::builder("b").build().unwrap();
        let replay = Replay::record(&a, 1, 10);
        assert!(replay.check(&a, 1).is_ok());
        let err = replay.check(&a, 2).unwrap_err();
        assert_eq!(err.requested, ("a".to_string(), 2));
        assert!(replay.check(&b, 1).is_err());
        assert!(err.to_string().contains("cannot stand in"));
    }
}
