//! Binary encode/decode for [`Trace`] in the `SWIP` container format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 4] = b"SWIP"
//! version u32     = 1
//! namelen u32, name utf-8 bytes
//! count   u64
//! count × instruction records:
//!   pc   u64
//!   size u8
//!   tag  u8            (kind discriminant, see below)
//!   payload            (kind-specific, see below)
//!   srcmask u8         (bit i set => srcs[i] present), then present src bytes
//!   dst  u8            (0xff = none)
//! ```
//!
//! Kind tags: 0 = Alu; 1 = Load(addr u64); 2 = Store(addr u64);
//! 3 = Branch(kind u8, target u64, taken u8); 4 = PrefetchI(target u64).

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use swip_types::{Addr, BranchKind, InstrKind, Instruction, Reg};

use crate::Trace;

const MAGIC: [u8; 4] = *b"SWIP";
const VERSION: u32 = 1;
const NO_REG: u8 = 0xff;

/// Errors produced while decoding a `SWIP` trace.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying reader failed.
    Io(io::Error),
    /// The stream does not start with the `SWIP` magic.
    BadMagic([u8; 4]),
    /// The container version is not supported by this build.
    UnsupportedVersion(u32),
    /// The trace name is not valid UTF-8.
    BadName,
    /// An instruction record carried an unknown kind or branch tag.
    BadTag(u8),
    /// A register byte was out of range.
    BadRegister(u8),
    /// A declared length is implausibly large for the remaining input.
    BadLength(u64),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error while decoding trace: {e}"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}, not a SWIP trace"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadName => write!(f, "trace name is not valid utf-8"),
            DecodeError::BadTag(t) => write!(f, "unknown instruction tag {t}"),
            DecodeError::BadRegister(r) => write!(f, "register byte {r} out of range"),
            DecodeError::BadLength(n) => write!(f, "implausible length field {n}"),
        }
    }
}

impl Error for DecodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

fn branch_kind_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::CondDirect => 0,
        BranchKind::UncondDirect => 1,
        BranchKind::IndirectJump => 2,
        BranchKind::DirectCall => 3,
        BranchKind::IndirectCall => 4,
        BranchKind::Return => 5,
    }
}

fn branch_kind_from_tag(tag: u8) -> Result<BranchKind, DecodeError> {
    Ok(match tag {
        0 => BranchKind::CondDirect,
        1 => BranchKind::UncondDirect,
        2 => BranchKind::IndirectJump,
        3 => BranchKind::DirectCall,
        4 => BranchKind::IndirectCall,
        5 => BranchKind::Return,
        t => return Err(DecodeError::BadTag(t)),
    })
}

pub(crate) fn encode<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    // Records are a handful of bytes each; buffer here so callers can pass
    // a bare `File` without paying one syscall per field.
    let mut w = io::BufWriter::with_capacity(1 << 16, w);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name().as_bytes();
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for instr in trace.iter() {
        encode_instr(instr, &mut w)?;
    }
    w.flush()?;
    Ok(())
}

fn encode_instr<W: Write>(i: &Instruction, w: &mut W) -> io::Result<()> {
    w.write_all(&i.pc.raw().to_le_bytes())?;
    w.write_all(&[i.size])?;
    match i.kind() {
        InstrKind::Alu => w.write_all(&[0u8])?,
        InstrKind::Load { addr } => {
            w.write_all(&[1u8])?;
            w.write_all(&addr.raw().to_le_bytes())?;
        }
        InstrKind::Store { addr } => {
            w.write_all(&[2u8])?;
            w.write_all(&addr.raw().to_le_bytes())?;
        }
        InstrKind::Branch {
            kind,
            target,
            taken,
        } => {
            w.write_all(&[3u8, branch_kind_tag(kind)])?;
            w.write_all(&target.raw().to_le_bytes())?;
            w.write_all(&[taken as u8])?;
        }
        InstrKind::PrefetchI { target } => {
            w.write_all(&[4u8])?;
            w.write_all(&target.raw().to_le_bytes())?;
        }
    }
    let mut mask = 0u8;
    for (bit, src) in i.srcs.iter().enumerate() {
        if src.is_some() {
            mask |= 1 << bit;
        }
    }
    w.write_all(&[mask])?;
    for src in i.srcs.iter().flatten() {
        w.write_all(&[src.index() as u8])?;
    }
    w.write_all(&[i.dst.map_or(NO_REG, |r| r.index() as u8)])?;
    Ok(())
}

pub(crate) fn decode<R: Read>(r: R) -> Result<Trace, DecodeError> {
    // Same story as `encode`: per-field `read_exact` on an unbuffered
    // `File` costs one syscall per few bytes, which dominates decode.
    let mut r = io::BufReader::with_capacity(1 << 16, r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let name_len = read_u32(&mut r)? as usize;
    if name_len > 1 << 20 {
        return Err(DecodeError::BadLength(name_len as u64));
    }
    let mut name_bytes = vec![0u8; name_len];
    r.read_exact(&mut name_bytes)?;
    let name = String::from_utf8(name_bytes).map_err(|_| DecodeError::BadName)?;
    let count = read_u64(&mut r)?;
    if count > 1 << 40 {
        return Err(DecodeError::BadLength(count));
    }
    let mut instrs = Vec::with_capacity(count.min(1 << 24) as usize);
    for _ in 0..count {
        instrs.push(decode_instr(&mut r)?);
    }
    Ok(Trace::from_instructions(name, instrs))
}

fn decode_instr<R: Read>(r: &mut R) -> Result<Instruction, DecodeError> {
    let pc = Addr::new(read_u64(r)?);
    let size = read_u8(r)?;
    let tag = read_u8(r)?;
    let kind = match tag {
        0 => InstrKind::Alu,
        1 => InstrKind::Load {
            addr: Addr::new(read_u64(r)?),
        },
        2 => InstrKind::Store {
            addr: Addr::new(read_u64(r)?),
        },
        3 => {
            let bk = branch_kind_from_tag(read_u8(r)?)?;
            let target = Addr::new(read_u64(r)?);
            let taken = read_u8(r)? != 0;
            InstrKind::Branch {
                kind: bk,
                target,
                taken,
            }
        }
        4 => InstrKind::PrefetchI {
            target: Addr::new(read_u64(r)?),
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    // `new` takes any kind: a not-taken unconditional branch decodes, and
    // the trace lints report it.
    let mut instr = Instruction::new(pc, kind).with_size(size);
    let mask = read_u8(r)?;
    for (bit, slot) in instr.srcs.iter_mut().enumerate() {
        if mask & (1 << bit) != 0 {
            *slot = Some(read_reg(r)?);
        }
    }
    let dst_byte = read_u8(r)?;
    if dst_byte != NO_REG {
        instr.dst = Some(check_reg(dst_byte)?);
    }
    Ok(instr)
}

fn check_reg(byte: u8) -> Result<Reg, DecodeError> {
    if (byte as usize) < Reg::COUNT {
        Ok(Reg::new(byte))
    } else {
        Err(DecodeError::BadRegister(byte))
    }
}

fn read_reg<R: Read>(r: &mut R) -> Result<Reg, DecodeError> {
    check_reg(read_u8(r)?)
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_types::Reg;

    fn round_trip(t: &Trace) -> Trace {
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        Trace::read_from(buf.as_slice()).unwrap()
    }

    #[test]
    fn round_trips_every_kind() {
        let instrs = vec![
            Instruction::alu(Addr::new(0x0)).with_dst(Reg::new(1)),
            Instruction::load(Addr::new(0x4), Addr::new(0x1234))
                .with_srcs(&[Reg::new(2)])
                .with_dst(Reg::new(3)),
            Instruction::store(Addr::new(0x8), Addr::new(0x5678))
                .with_srcs(&[Reg::new(3), Reg::new(4)]),
            Instruction::cond_branch(Addr::new(0xc), Addr::new(0x100), false),
            Instruction::jump(Addr::new(0x10), Addr::new(0x200)),
            Instruction::call(Addr::new(0x14), Addr::new(0x300)),
            Instruction::indirect_call(Addr::new(0x18), Addr::new(0x400)).with_srcs(&[Reg::new(9)]),
            Instruction::indirect_jump(Addr::new(0x1c), Addr::new(0x500)),
            Instruction::ret(Addr::new(0x20), Addr::new(0x18)),
            Instruction::prefetch_i(Addr::new(0x24), Addr::new(0x4000)),
        ];
        let t = Trace::from_instructions("kinds", instrs);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::from_instructions("empty", vec![]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Trace::read_from(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic(_)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        Trace::from_instructions("v", vec![])
            .write_to(&mut buf)
            .unwrap();
        buf[4] = 99;
        let err = Trace::read_from(buf.as_slice()).unwrap_err();
        assert!(matches!(err, DecodeError::UnsupportedVersion(99)));
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut buf = Vec::new();
        let t = Trace::from_instructions("t", vec![Instruction::alu(Addr::new(0))]);
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        let err = Trace::read_from(buf.as_slice()).unwrap_err();
        assert!(matches!(err, DecodeError::Io(_)));
    }

    #[test]
    fn rejects_bad_register_byte() {
        let mut buf = Vec::new();
        let t = Trace::from_instructions(
            "t",
            vec![Instruction::alu(Addr::new(0)).with_dst(Reg::new(0))],
        );
        t.write_to(&mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] = 200; // invalid dst register (not NO_REG, >= Reg::COUNT)
        let err = Trace::read_from(buf.as_slice()).unwrap_err();
        assert!(matches!(err, DecodeError::BadRegister(200)));
    }

    #[test]
    fn error_messages_are_lowercase_and_nonempty() {
        let msgs = [
            DecodeError::BadName.to_string(),
            DecodeError::BadTag(7).to_string(),
            DecodeError::BadLength(1).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }
}
