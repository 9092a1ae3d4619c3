//! Compact binary (de)serialization of miss traces.
//!
//! Full traces run to millions of records; this module provides a simple
//! little-endian binary format so traces can be collected once and re-analyzed
//! many times (the paper's collect-then-analyze workflow). The format is:
//!
//! ```text
//! magic  "TSMT"            4 bytes
//! version u16              currently 1
//! class_tag u8             0 = MissClass, 1 = IntraChipClass
//! num_cpus u32
//! instructions u64
//! record_count u64
//! records: { block u64, cpu u32, thread u32, function u32, class u8 } *
//! ```

use crate::category::{IntraChipClass, MissClass};
use crate::ids::{CpuId, FunctionId, ThreadId};
use crate::miss::{MissRecord, MissTrace};
use crate::Block;
use std::fmt;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"TSMT";
const VERSION: u16 = 1;

/// Encoded bytes per record: block (8) + cpu (4) + thread (4) +
/// function (4) + class (1).
///
/// Public because the record encoding is shared with the
/// `tempstream-serve` wire protocol, whose ingest frames carry runs of
/// records in exactly this layout.
pub const RECORD_BYTES: usize = 21;

/// Records decoded per bulk read in [`read_trace`] (~688 KB chunks).
/// Bounded so a hostile header count cannot drive the allocation.
const CHUNK_RECORDS: u64 = 1 << 15;

/// Errors produced when reading a serialized miss trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The class tag does not match the requested trace type.
    ClassMismatch {
        /// Tag the caller's trace type requires.
        expected: u8,
        /// Tag found in the stream header.
        found: u8,
    },
    /// A record contained an invalid class byte.
    BadClass(u8),
    /// A record named a block above [`Block::MAX_RAW`], which no byte
    /// address maps to.
    BlockOutOfRange(u64),
    /// The stream ended before the header's record count was satisfied.
    TruncatedRecords {
        /// Records promised by the header.
        expected: u64,
        /// Records actually present before the stream ended.
        read: u64,
    },
    /// A record named a CPU outside the header's `num_cpus` range.
    ///
    /// Analyses index per-CPU tables by `cpu`, so an out-of-range id in a
    /// corrupt trace would otherwise panic far from the read site.
    CpuOutOfRange {
        /// CPU id found in the record.
        cpu: u32,
        /// CPU count promised by the header.
        num_cpus: u32,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadMagic => write!(f, "input is not a serialized miss trace"),
            ReadTraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::ClassMismatch { expected, found } => write!(
                f,
                "trace class tag {found} does not match requested type (tag {expected})"
            ),
            ReadTraceError::BadClass(b) => write!(f, "invalid class byte {b} in record"),
            ReadTraceError::BlockOutOfRange(block) => write!(
                f,
                "record names block {block:#x}, above the largest block {:#x}",
                Block::MAX_RAW
            ),
            ReadTraceError::TruncatedRecords { expected, read } => write!(
                f,
                "trace truncated: header promised {expected} records, found {read}"
            ),
            ReadTraceError::CpuOutOfRange { cpu, num_cpus } => write!(
                f,
                "record names cpu {cpu} but header promised only {num_cpus} cpus"
            ),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadTraceError {
    fn from(e: std::io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// A miss classification that can be encoded in the binary trace format.
///
/// This trait is sealed; it is implemented exactly for [`MissClass`] and
/// [`IntraChipClass`].
pub trait TraceClass: sealed::Sealed + Copy {
    /// Distinguishes off-chip from intra-chip traces in the header.
    const TAG: u8;

    /// Encodes the class as a byte.
    fn to_byte(self) -> u8;

    /// Decodes the class from a byte.
    fn from_byte(b: u8) -> Option<Self>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::MissClass {}
    impl Sealed for super::IntraChipClass {}
}

impl TraceClass for MissClass {
    const TAG: u8 = 0;

    fn to_byte(self) -> u8 {
        match self {
            MissClass::Compulsory => 0,
            MissClass::IoCoherence => 1,
            MissClass::Coherence => 2,
            MissClass::Replacement => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => MissClass::Compulsory,
            1 => MissClass::IoCoherence,
            2 => MissClass::Coherence,
            3 => MissClass::Replacement,
            _ => return None,
        })
    }
}

impl TraceClass for IntraChipClass {
    const TAG: u8 = 1;

    fn to_byte(self) -> u8 {
        match self {
            IntraChipClass::CoherencePeerL1 => 0,
            IntraChipClass::CoherenceL2 => 1,
            IntraChipClass::ReplacementL2 => 2,
            IntraChipClass::OffChip => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => IntraChipClass::CoherencePeerL1,
            1 => IntraChipClass::CoherenceL2,
            2 => IntraChipClass::ReplacementL2,
            3 => IntraChipClass::OffChip,
            _ => return None,
        })
    }
}

/// Appends one record to `buf` in the fixed [`RECORD_BYTES`]-byte
/// little-endian layout (`block u64, cpu u32, thread u32, function u32,
/// class u8`).
///
/// This is the single encoding used by both the trace files written by
/// [`write_trace`] and the `tempstream-serve` ingest frames.
pub fn encode_record<C: TraceClass>(record: &MissRecord<C>, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&record.block.raw().to_le_bytes());
    buf.extend_from_slice(&record.cpu.raw().to_le_bytes());
    buf.extend_from_slice(&record.thread.raw().to_le_bytes());
    buf.extend_from_slice(&record.function.raw().to_le_bytes());
    buf.push(record.class.to_byte());
}

/// Decodes one record from exactly [`RECORD_BYTES`] bytes previously
/// produced by [`encode_record`].
///
/// # Errors
///
/// Returns [`ReadTraceError::BadClass`] when the class byte is invalid
/// for `C`.
///
/// # Panics
///
/// Panics if `bytes.len() != RECORD_BYTES`; callers frame records into
/// fixed-size chunks before decoding.
pub fn decode_record<C: TraceClass>(bytes: &[u8]) -> Result<MissRecord<C>, ReadTraceError> {
    assert_eq!(bytes.len(), RECORD_BYTES, "record must be {RECORD_BYTES}B");
    let field = |lo: usize, hi: usize| -> [u8; 4] { bytes[lo..hi].try_into().expect("4B field") };
    let class_byte = bytes[RECORD_BYTES - 1];
    let class = C::from_byte(class_byte).ok_or(ReadTraceError::BadClass(class_byte))?;
    let block = u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte field"));
    if block > Block::MAX_RAW {
        return Err(ReadTraceError::BlockOutOfRange(block));
    }
    Ok(MissRecord {
        block: Block::new(block),
        cpu: CpuId::new(u32::from_le_bytes(field(8, 12))),
        thread: ThreadId::new(u32::from_le_bytes(field(12, 16))),
        function: FunctionId::new(u32::from_le_bytes(field(16, 20))),
        class,
    })
}

/// Writes `trace` to `writer` in the binary trace format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace<C: TraceClass, W: Write>(
    trace: &MissTrace<C>,
    mut writer: W,
) -> std::io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&[C::TAG])?;
    writer.write_all(&trace.num_cpus().to_le_bytes())?;
    writer.write_all(&trace.instructions().to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(trace.len().min(1 << 16) * RECORD_BYTES);
    for r in trace.records() {
        encode_record(r, &mut buf);
        if buf.len() >= 1 << 20 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns [`ReadTraceError`] on malformed input, a class-type mismatch, or
/// an underlying I/O error.
pub fn read_trace<C: TraceClass, R: Read>(mut reader: R) -> Result<MissTrace<C>, ReadTraceError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ReadTraceError::BadMagic);
    }
    let version = read_u16(&mut reader)?;
    if version != VERSION {
        return Err(ReadTraceError::BadVersion(version));
    }
    let tag = read_u8(&mut reader)?;
    if tag != C::TAG {
        return Err(ReadTraceError::ClassMismatch {
            expected: C::TAG,
            found: tag,
        });
    }
    let num_cpus = read_u32(&mut reader)?;
    let instructions = read_u64(&mut reader)?;
    let count = read_u64(&mut reader)?;
    let mut trace = MissTrace::new(num_cpus);
    trace.set_instructions(instructions);
    // Records decode from bulk chunks rather than five tiny reads per
    // record — reading a large trace file takes one `read` per ~688 KB
    // instead of five per 21-byte record. Within the record region,
    // premature EOF means the header's count and the payload disagree —
    // reported as `TruncatedRecords` (with `read` = whole records
    // present) rather than a bare I/O error so callers can distinguish
    // corruption from a broken pipe elsewhere.
    let mut chunk = vec![0u8; count.min(CHUNK_RECORDS) as usize * RECORD_BYTES];
    let mut read_done: u64 = 0;
    while read_done < count {
        let want = (count - read_done).min(CHUNK_RECORDS) as usize * RECORD_BYTES;
        let (got, io_err) = fill(&mut reader, &mut chunk[..want]);
        let whole = got / RECORD_BYTES;
        for rec in chunk[..whole * RECORD_BYTES].chunks_exact(RECORD_BYTES) {
            let record = decode_record::<C>(rec)?;
            if record.cpu.raw() >= num_cpus {
                return Err(ReadTraceError::CpuOutOfRange {
                    cpu: record.cpu.raw(),
                    num_cpus,
                });
            }
            trace.push(record);
        }
        read_done += whole as u64;
        if got < want {
            return Err(match io_err {
                Some(e) if e.kind() != std::io::ErrorKind::UnexpectedEof => ReadTraceError::Io(e),
                _ => ReadTraceError::TruncatedRecords {
                    expected: count,
                    read: read_done,
                },
            });
        }
    }
    Ok(trace)
}

/// Reads until `buf` is full or the stream ends, returning the bytes
/// filled and any hard (non-EOF) error. Complete records in front of an
/// error are still decoded by the caller, matching the record-at-a-time
/// reader this replaced.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> (usize, Option<std::io::Error>) {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return (filled, Some(e)),
        }
    }
    (filled, None)
}

/// Writes `trace` as CSV (`seq,block,cpu,thread,function,class`), with the
/// class rendered through its byte encoding. Intended for external
/// analysis tools (pandas, gnuplot); the binary format is the round-trip
/// format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace_csv<C: TraceClass, W: Write>(
    trace: &MissTrace<C>,
    symbols: Option<&crate::symbol::SymbolTable>,
    mut writer: W,
) -> std::io::Result<()> {
    writeln!(writer, "seq,block,cpu,thread,function,class")?;
    for (i, r) in trace.records().iter().enumerate() {
        let function: std::borrow::Cow<'_, str> = match symbols {
            Some(s) if r.function.index() < s.len() => s.name(r.function).into(),
            _ => r.function.raw().to_string().into(),
        };
        writeln!(
            writer,
            "{},{:#x},{},{},{},{}",
            i,
            r.block.raw(),
            r.cpu.raw(),
            r.thread.raw(),
            function,
            r.class.to_byte()
        )?;
    }
    Ok(())
}

fn read_u8<R: Read>(r: &mut R) -> std::io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u16<R: Read>(r: &mut R) -> std::io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> MissTrace<MissClass> {
        let mut t = MissTrace::new(4);
        t.set_instructions(123_456);
        for i in 0..100u64 {
            t.push(MissRecord {
                block: Block::new(i * 3),
                cpu: CpuId::new((i % 4) as u32),
                thread: ThreadId::new((i % 7) as u32),
                function: FunctionId::new((i % 11) as u32),
                class: MissClass::from_byte((i % 4) as u8).unwrap(),
            });
        }
        t
    }

    #[test]
    fn roundtrip_offchip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back: MissTrace<MissClass> = read_trace(&buf[..]).unwrap();
        assert_eq!(back.num_cpus(), t.num_cpus());
        assert_eq!(back.instructions(), t.instructions());
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn roundtrip_intrachip() {
        let mut t: MissTrace<IntraChipClass> = MissTrace::new(2);
        t.push(MissRecord {
            block: Block::new(9),
            cpu: CpuId::new(1),
            thread: ThreadId::new(1),
            function: FunctionId::new(2),
            class: IntraChipClass::CoherencePeerL1,
        });
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back: MissTrace<IntraChipClass> = read_trace(&buf[..]).unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn class_tag_mismatch_detected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let err = read_trace::<IntraChipClass, _>(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::ClassMismatch { .. }));
    }

    #[test]
    fn bad_magic_detected() {
        let err = read_trace::<MissClass, _>(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
    }

    #[test]
    fn truncated_records_are_distinguished() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_trace::<MissClass, _>(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::TruncatedRecords {
                expected: 100,
                read: 99
            }
        ));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // Cut inside the fixed-size header, before any record bytes.
        buf.truncate(10);
        let err = read_trace::<MissClass, _>(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::Io(_)));
    }

    #[test]
    fn out_of_range_cpu_detected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // Corrupt the first record's cpu field (header is 27 bytes, cpu
        // sits after the 8-byte block).
        let cpu_off = 27 + 8;
        buf[cpu_off..cpu_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace::<MissClass, _>(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::CpuOutOfRange {
                cpu: u32::MAX,
                num_cpus: 4
            }
        ));
    }

    #[test]
    fn out_of_range_block_detected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // The first record's block field follows the 27-byte header.
        buf[27..35].copy_from_slice(&(Block::MAX_RAW + 1).to_le_bytes());
        let err = read_trace::<MissClass, _>(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::BlockOutOfRange(b) if b == Block::MAX_RAW + 1
        ));
        // The largest block itself still reads back.
        buf[27..35].copy_from_slice(&Block::MAX_RAW.to_le_bytes());
        let back = read_trace::<MissClass, _>(&buf[..]).unwrap();
        assert_eq!(back.records()[0].block, Block::new(Block::MAX_RAW));
    }

    #[test]
    fn csv_export_renders_names_and_rows() {
        let mut sym = crate::symbol::SymbolTable::new();
        sym.intern("memcpy", crate::category::MissCategory::BulkMemoryCopy);
        let mut t: MissTrace<MissClass> = MissTrace::new(1);
        t.push(MissRecord {
            block: Block::new(0x10),
            cpu: CpuId::new(0),
            thread: ThreadId::new(0),
            function: FunctionId::new(0),
            class: MissClass::Coherence,
        });
        let mut buf = Vec::new();
        write_trace_csv(&t, Some(&sym), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("seq,block,cpu"));
        assert!(text.contains("0,0x10,0,0,memcpy,2"));
    }

    #[test]
    fn csv_export_without_symbols_uses_ids() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_csv(&t, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 101);
        assert!(text.lines().nth(1).unwrap().contains(",0,"));
    }

    #[test]
    fn record_codec_roundtrip_and_bad_class() {
        for r in sample_trace().records() {
            let mut buf = Vec::new();
            encode_record(r, &mut buf);
            assert_eq!(buf.len(), RECORD_BYTES);
            assert_eq!(&decode_record::<MissClass>(&buf).unwrap(), r);
        }
        let mut buf = vec![0u8; RECORD_BYTES];
        buf[RECORD_BYTES - 1] = 99;
        assert!(matches!(
            decode_record::<MissClass>(&buf),
            Err(ReadTraceError::BadClass(99))
        ));
    }

    #[test]
    fn class_byte_roundtrip() {
        for c in MissClass::ALL {
            assert_eq!(MissClass::from_byte(c.to_byte()), Some(c));
        }
        for c in IntraChipClass::ALL {
            assert_eq!(IntraChipClass::from_byte(c.to_byte()), Some(c));
        }
        assert_eq!(MissClass::from_byte(99), None);
        assert_eq!(IntraChipClass::from_byte(99), None);
    }
}
