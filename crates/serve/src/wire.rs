//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is:
//!
//! ```text
//! len      u32 LE      length of everything after this field
//! version  u8          2 (request/reply) or 1 (connection-level, no seq)
//! type     u8          frame discriminant (see Frame)
//! seq      u32 LE      version 2 only: request sequence id, echoed in replies
//! payload  …           type-specific
//! crc      u32 LE      CRC-32/IEEE over version + type [+ seq] + payload
//! ```
//!
//! There is one request format: every request carries a `u32` sequence
//! id, and its reply echoes it. Clients may pipeline many requests
//! back-to-back and match replies by the echoed id; a client that waits
//! for each reply is the same protocol at a window of one. Replies
//! whose payload exceeds [`MAX_FRAME_BYTES`] are split across
//! [`Frame::Partial`] continuation frames (same sequence id,
//! reassembled by [`MessageAssembler`]) instead of failing to encode.
//! The incremental query frames are [`Frame::QueryDelta`] /
//! [`Frame::DeltaReply`].
//!
//! The envelope without a sequence id (version byte 1) encodes only the
//! server's three frames that answer no request: the accept-time
//! [`Frame::Busy`], `Error{ERR_DRAINING}` to a client that connects
//! during the drain, and `Error{ERR_BAD_FRAME}` on undecodable bytes. It
//! decodes as [`Message::seq`] `== None`; the server refuses a request
//! in it like undecodable bytes.
//!
//! Ingest payloads carry runs of records in the *same* 21-byte encoding
//! as the `trace::io` binary trace format
//! ([`tempstream_trace::io::encode_record`]), so a trace collected
//! offline replays over the wire byte-for-byte.
//!
//! Robustness contract (exercised by `tests/wire_properties.rs`): a
//! malformed, truncated, oversized, or checksum-corrupted frame never
//! panics the decoder — it surfaces as a [`WireError`], which the
//! server answers with an [`Frame::Error`] reply before closing the
//! connection. On the encode side, a payload that cannot fit the
//! protocol bounds surfaces as [`WireError::Oversized`] rather than
//! panicking.

use std::io::{Read, Write};
use tempstream_trace::io::{decode_record, encode_record, ReadTraceError, RECORD_BYTES};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;

/// Version byte of the envelope without a sequence id (the server's
/// connection-level frames).
const VERSION_NO_SEQ: u8 = 1;

/// Version byte of the sequence-tagged request/reply envelope.
const VERSION_SEQ: u8 = 2;

/// Hard cap on `len`: bounds the allocation a hostile or corrupt
/// length prefix can drive (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Hard cap on the total payload a run of [`Frame::Partial`]
/// continuation frames may reassemble into (16 MiB): bounds the memory
/// a hostile never-ending continuation stream can pin.
pub const MAX_REASSEMBLED_BYTES: usize = 16 << 20;

/// Maximum records per ingest frame.
pub const MAX_BATCH_RECORDS: usize = 32_768;

/// Frame overhead after the length prefix without a sequence id:
/// version + type + crc (the shortest valid frame).
const ENVELOPE_BYTES: usize = 1 + 1 + 4;

/// Frame overhead after the length prefix with a sequence id: version +
/// type + seq + crc.
const ENVELOPE_SEQ_BYTES: usize = 1 + 1 + 4 + 4;

/// Error code carried by [`Frame::Error`]: the peer sent a frame that
/// failed to decode, or a request without a sequence id.
pub const ERR_BAD_FRAME: u16 = 1;
/// Error code: the server is draining and rejects new ingest.
pub const ERR_DRAINING: u16 = 2;
// Code 3 is retired (it answered replies too large for the protocol
// without sequence ids) and is not reused.
/// Error code: a shard worker failed, so the server can no longer
/// answer queries or apply ingest routed to that shard.
pub const ERR_SHARD_FAILED: u16 = 4;

/// Counter changes since a connection's last delta cut.
///
/// A [`Frame::DeltaReply`] carries, for every query the server answers,
/// only the *change* since the same connection's previous
/// [`Frame::QueryDelta`] (or since the connection opened). Deltas are
/// signed: stream labels may re-label earlier misses as the grammar
/// grows, so per-label counts are not monotone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaCounts {
    /// Records applied at this consistent cut (the new cursor
    /// watermark; absolute, not a delta).
    pub applied: u64,
    /// Change in misses outside any repeated sequence.
    pub non_repetitive: i64,
    /// Change in misses labeled as a stream's first occurrence.
    pub new_stream: i64,
    /// Change in misses labeled as later stream occurrences.
    pub recurring_stream: i64,
    /// Change in distinct streams summed over shards.
    pub distinct_streams: i64,
    /// Change in demand misses observed by the prefetch evaluator.
    pub total: i64,
    /// Change in misses covered by the prefetch buffer.
    pub covered: i64,
    /// Change in prefetches issued.
    pub issued: i64,
    /// Per-function miss-count changes — only functions whose count
    /// changed, ordered by function id ascending.
    pub origins: Vec<(u32, i64)>,
}

impl DeltaCounts {
    /// True when nothing changed since the last cut.
    pub fn is_empty(&self) -> bool {
        self.non_repetitive == 0
            && self.new_stream == 0
            && self.recurring_stream == 0
            && self.distinct_streams == 0
            && self.total == 0
            && self.covered == 0
            && self.issued == 0
            && self.origins.is_empty()
    }
}

/// One protocol frame, client→server requests and server→client
/// replies together (the discriminant ranges keep them disjoint).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of miss records to ingest (client→server).
    Ingest(Vec<MissRecord<MissClass>>),
    /// Ask for the merged stream-fraction counts (client→server).
    QueryStreamFraction,
    /// Ask for the merged prefetch coverage/accuracy (client→server).
    QueryCoverage,
    /// Ask for the top-N miss-origin functions (client→server).
    QueryTopOrigins(u16),
    /// Ask for the full obsv registry snapshot (client→server).
    QueryMetricsSnapshot,
    /// Ask for the counters changed since this connection's last delta
    /// cut (client→server).
    QueryDelta,
    /// Begin drain-then-shutdown (client→server).
    Shutdown,
    /// Ingest accepted; payload echoes the record count (server→client).
    IngestAck(u32),
    /// Ingest rejected for backpressure; retry later (server→client).
    Busy,
    /// Merged stream-fraction counts (server→client).
    StreamFractionReply {
        /// Misses outside any repeated sequence.
        non_repetitive: u64,
        /// Misses in a stream's first occurrence.
        new_stream: u64,
        /// Misses in later occurrences.
        recurring_stream: u64,
        /// Distinct streams summed over shards.
        distinct_streams: u64,
    },
    /// Merged prefetch evaluation counters (server→client).
    CoverageReply {
        /// Demand misses observed.
        total: u64,
        /// Misses covered by the prefetch buffer.
        covered: u64,
        /// Prefetches issued.
        issued: u64,
    },
    /// Top origins as (function id, miss count), count-descending
    /// (server→client).
    TopOriginsReply(Vec<(u32, u64)>),
    /// Full obsv registry snapshot as JSON text (server→client).
    MetricsReply(String),
    /// Counters changed since the connection's last delta cut
    /// (server→client).
    DeltaReply(DeltaCounts),
    /// One continuation segment of a reply too large for a single
    /// frame. Segments share the originating request's
    /// sequence id and are reassembled by [`MessageAssembler`]; the
    /// concatenated chunks decode as the payload of `inner_type`.
    Partial {
        /// Frame type the reassembled payload decodes as.
        inner_type: u8,
        /// True on the final segment of the reply.
        last: bool,
        /// This segment's slice of the payload.
        chunk: Vec<u8>,
    },
    /// Drain complete, server is exiting (server→client).
    ShutdownAck,
    /// Protocol-level failure; the server closes after sending this
    /// (server→client).
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

/// One decoded protocol message: the frame plus its sequence id.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// The request's sequence id, echoed verbatim in its reply; `None`
    /// only on the server's connection-level frames (see the module
    /// doc).
    pub seq: Option<u32>,
    /// The frame itself.
    pub frame: Frame,
}

/// Why a frame could not be decoded (or encoded).
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The peer closed the stream mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] (or is shorter
    /// than the envelope).
    BadLength(u32),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// The CRC trailer does not match the frame body.
    BadChecksum,
    /// Unknown frame type byte.
    UnknownType(u8),
    /// The payload does not parse for its frame type.
    Malformed(&'static str),
    /// An ingest record failed to decode.
    BadRecord(ReadTraceError),
    /// The frame's payload (the contained byte count) cannot fit the
    /// protocol bounds: over [`MAX_FRAME_BYTES`] for a frame without a
    /// sequence id, or over [`MAX_REASSEMBLED_BYTES`] for a
    /// continuation run.
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => write!(f, "stream closed mid-frame"),
            WireError::BadLength(n) => write!(f, "frame length {n} outside protocol bounds"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::BadRecord(e) => write!(f, "bad record in ingest frame: {e}"),
            WireError::Oversized(n) => write!(f, "payload of {n} bytes exceeds protocol bounds"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// --- CRC-32/IEEE ----------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32/IEEE (the zlib polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

// --- encoding -------------------------------------------------------------

const T_INGEST: u8 = 0;
const T_QUERY_STREAMS: u8 = 1;
const T_QUERY_COVERAGE: u8 = 2;
const T_QUERY_TOP_ORIGINS: u8 = 3;
const T_QUERY_METRICS: u8 = 4;
const T_SHUTDOWN: u8 = 5;
const T_QUERY_DELTA: u8 = 6;
const T_INGEST_ACK: u8 = 16;
const T_BUSY: u8 = 17;
const T_STREAMS_REPLY: u8 = 18;
const T_COVERAGE_REPLY: u8 = 19;
const T_TOP_ORIGINS_REPLY: u8 = 20;
const T_METRICS_REPLY: u8 = 21;
const T_SHUTDOWN_ACK: u8 = 22;
const T_ERROR: u8 = 23;
const T_DELTA_REPLY: u8 = 24;
const T_PARTIAL: u8 = 25;

fn frame_type(frame: &Frame) -> u8 {
    match frame {
        Frame::Ingest(_) => T_INGEST,
        Frame::QueryStreamFraction => T_QUERY_STREAMS,
        Frame::QueryCoverage => T_QUERY_COVERAGE,
        Frame::QueryTopOrigins(_) => T_QUERY_TOP_ORIGINS,
        Frame::QueryMetricsSnapshot => T_QUERY_METRICS,
        Frame::QueryDelta => T_QUERY_DELTA,
        Frame::Shutdown => T_SHUTDOWN,
        Frame::IngestAck(_) => T_INGEST_ACK,
        Frame::Busy => T_BUSY,
        Frame::StreamFractionReply { .. } => T_STREAMS_REPLY,
        Frame::CoverageReply { .. } => T_COVERAGE_REPLY,
        Frame::TopOriginsReply(_) => T_TOP_ORIGINS_REPLY,
        Frame::MetricsReply(_) => T_METRICS_REPLY,
        Frame::DeltaReply(_) => T_DELTA_REPLY,
        Frame::Partial { .. } => T_PARTIAL,
        Frame::ShutdownAck => T_SHUTDOWN_ACK,
        Frame::Error { .. } => T_ERROR,
    }
}

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Ingest(records) => {
            assert!(
                records.len() <= MAX_BATCH_RECORDS,
                "ingest batch over MAX_BATCH_RECORDS; split before encoding"
            );
            out.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for r in records {
                encode_record(r, out);
            }
        }
        Frame::QueryTopOrigins(n) => out.extend_from_slice(&n.to_le_bytes()),
        Frame::IngestAck(n) => out.extend_from_slice(&n.to_le_bytes()),
        Frame::StreamFractionReply {
            non_repetitive,
            new_stream,
            recurring_stream,
            distinct_streams,
        } => {
            out.extend_from_slice(&non_repetitive.to_le_bytes());
            out.extend_from_slice(&new_stream.to_le_bytes());
            out.extend_from_slice(&recurring_stream.to_le_bytes());
            out.extend_from_slice(&distinct_streams.to_le_bytes());
        }
        Frame::CoverageReply {
            total,
            covered,
            issued,
        } => {
            out.extend_from_slice(&total.to_le_bytes());
            out.extend_from_slice(&covered.to_le_bytes());
            out.extend_from_slice(&issued.to_le_bytes());
        }
        Frame::TopOriginsReply(rows) => {
            out.extend_from_slice(&(rows.len() as u16).to_le_bytes());
            for (function, count) in rows {
                out.extend_from_slice(&function.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        Frame::MetricsReply(json) => out.extend_from_slice(json.as_bytes()),
        Frame::DeltaReply(d) => {
            out.extend_from_slice(&d.applied.to_le_bytes());
            out.extend_from_slice(&d.non_repetitive.to_le_bytes());
            out.extend_from_slice(&d.new_stream.to_le_bytes());
            out.extend_from_slice(&d.recurring_stream.to_le_bytes());
            out.extend_from_slice(&d.distinct_streams.to_le_bytes());
            out.extend_from_slice(&d.total.to_le_bytes());
            out.extend_from_slice(&d.covered.to_le_bytes());
            out.extend_from_slice(&d.issued.to_le_bytes());
            out.extend_from_slice(&(d.origins.len() as u32).to_le_bytes());
            for (function, delta) in &d.origins {
                out.extend_from_slice(&function.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
        }
        Frame::Partial {
            inner_type,
            last,
            chunk,
        } => {
            out.push(*inner_type);
            out.push(u8::from(*last));
            out.extend_from_slice(chunk);
        }
        Frame::Error { code, message } => {
            out.extend_from_slice(&code.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Frame::QueryStreamFraction
        | Frame::QueryCoverage
        | Frame::QueryMetricsSnapshot
        | Frame::QueryDelta
        | Frame::Shutdown
        | Frame::Busy
        | Frame::ShutdownAck => {}
    }
}

/// Writes one complete frame (length prefix, envelope, optional seq,
/// payload bytes, CRC) to `out`. The payload must already fit one
/// frame.
fn encode_raw(ftype: u8, seq: Option<u32>, payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    out.push(if seq.is_some() {
        VERSION_SEQ
    } else {
        VERSION_NO_SEQ
    });
    out.push(ftype);
    if let Some(seq) = seq {
        out.extend_from_slice(&seq.to_le_bytes());
    }
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = u32::try_from(out.len() - start - 4).expect("frame fits u32");
    debug_assert!(
        (len as usize) <= MAX_FRAME_BYTES,
        "encode_raw payload precut"
    );
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one message. A request or reply carries `Some(seq)`; a
/// payload too large for a single frame is split across
/// [`Frame::Partial`] continuation frames sharing `seq`. `None` encodes
/// one of the server's connection-level frames (see the module doc),
/// which never splits.
///
/// # Errors
///
/// [`WireError::Oversized`] for a payload over [`MAX_REASSEMBLED_BYTES`],
/// for a payload over [`MAX_FRAME_BYTES`] without a sequence id, or when
/// `frame` is itself a [`Frame::Partial`] too large for one frame
/// (continuations do not nest). `out` is left unchanged on error.
pub fn encode_message(seq: Option<u32>, frame: &Frame, out: &mut Vec<u8>) -> Result<(), WireError> {
    let mut payload = Vec::with_capacity(64);
    encode_payload(frame, &mut payload);
    let ftype = frame_type(frame);
    let envelope = if seq.is_some() {
        ENVELOPE_SEQ_BYTES
    } else {
        ENVELOPE_BYTES
    };
    let max_payload = MAX_FRAME_BYTES - envelope;
    if payload.len() <= max_payload {
        encode_raw(ftype, seq, &payload, out);
        return Ok(());
    }
    if seq.is_none() || payload.len() > MAX_REASSEMBLED_BYTES || ftype == T_PARTIAL {
        return Err(WireError::Oversized(payload.len()));
    }
    // Split into continuation frames: each carries inner type + last
    // flag + a chunk of the payload, all under the same sequence id.
    let chunk_budget = max_payload - 2;
    let last_index = payload.len().div_ceil(chunk_budget) - 1;
    let mut partial = Vec::with_capacity(chunk_budget + 2);
    for (i, chunk) in payload.chunks(chunk_budget).enumerate() {
        partial.clear();
        partial.push(ftype);
        partial.push(u8::from(i == last_index));
        partial.extend_from_slice(chunk);
        encode_raw(T_PARTIAL, seq, &partial, out);
    }
    Ok(())
}

/// Encodes and writes one message (see [`encode_message`]) to `writer`.
///
/// # Errors
///
/// [`WireError::Oversized`] as produced by [`encode_message`], or any
/// underlying I/O error.
pub fn write_message<W: Write>(
    mut writer: W,
    seq: Option<u32>,
    frame: &Frame,
) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(64);
    encode_message(seq, frame, &mut buf)?;
    writer.write_all(&buf)?;
    Ok(())
}

// --- decoding -------------------------------------------------------------

fn u16_at(payload: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(payload[off..off + 2].try_into().expect("2B"))
}

fn u32_at(payload: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(payload[off..off + 4].try_into().expect("4B"))
}

fn u64_at(payload: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(payload[off..off + 8].try_into().expect("8B"))
}

fn i64_at(payload: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(payload[off..off + 8].try_into().expect("8B"))
}

/// Decodes a frame payload for frame type `ftype`. Used both for
/// in-frame payloads and for payloads reassembled from continuation
/// frames (which is why it is independent of the envelope).
fn decode_payload(ftype: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let need = |n: usize, what: &'static str| {
        if payload.len() == n {
            Ok(())
        } else {
            Err(WireError::Malformed(what))
        }
    };
    match ftype {
        T_INGEST => {
            if payload.len() < 4 {
                return Err(WireError::Malformed("ingest header short"));
            }
            let count = u32_at(payload, 0) as usize;
            if count > MAX_BATCH_RECORDS {
                return Err(WireError::Malformed("ingest batch over record cap"));
            }
            if payload.len() != 4 + count * RECORD_BYTES {
                return Err(WireError::Malformed("ingest length/count mismatch"));
            }
            let mut records = Vec::with_capacity(count);
            for rec in payload[4..].chunks_exact(RECORD_BYTES) {
                records.push(decode_record::<MissClass>(rec).map_err(WireError::BadRecord)?);
            }
            Ok(Frame::Ingest(records))
        }
        T_QUERY_STREAMS => need(0, "query takes no payload").map(|()| Frame::QueryStreamFraction),
        T_QUERY_COVERAGE => need(0, "query takes no payload").map(|()| Frame::QueryCoverage),
        T_QUERY_TOP_ORIGINS => {
            need(2, "top-origins takes u16 n").map(|()| Frame::QueryTopOrigins(u16_at(payload, 0)))
        }
        T_QUERY_METRICS => need(0, "query takes no payload").map(|()| Frame::QueryMetricsSnapshot),
        T_QUERY_DELTA => need(0, "query takes no payload").map(|()| Frame::QueryDelta),
        T_SHUTDOWN => need(0, "shutdown takes no payload").map(|()| Frame::Shutdown),
        T_INGEST_ACK => {
            need(4, "ack takes u32 count").map(|()| Frame::IngestAck(u32_at(payload, 0)))
        }
        T_BUSY => need(0, "busy takes no payload").map(|()| Frame::Busy),
        T_STREAMS_REPLY => {
            need(32, "streams reply takes 4×u64").map(|()| Frame::StreamFractionReply {
                non_repetitive: u64_at(payload, 0),
                new_stream: u64_at(payload, 8),
                recurring_stream: u64_at(payload, 16),
                distinct_streams: u64_at(payload, 24),
            })
        }
        T_COVERAGE_REPLY => need(24, "coverage reply takes 3×u64").map(|()| Frame::CoverageReply {
            total: u64_at(payload, 0),
            covered: u64_at(payload, 8),
            issued: u64_at(payload, 16),
        }),
        T_TOP_ORIGINS_REPLY => {
            if payload.len() < 2 {
                return Err(WireError::Malformed("top-origins header short"));
            }
            let n = u16_at(payload, 0) as usize;
            if payload.len() != 2 + n * 12 {
                return Err(WireError::Malformed("top-origins length/count mismatch"));
            }
            let rows = (0..n)
                .map(|i| (u32_at(payload, 2 + i * 12), u64_at(payload, 2 + i * 12 + 4)))
                .collect();
            Ok(Frame::TopOriginsReply(rows))
        }
        T_METRICS_REPLY => String::from_utf8(payload.to_vec())
            .map(Frame::MetricsReply)
            .map_err(|_| WireError::Malformed("metrics reply not utf-8")),
        T_DELTA_REPLY => {
            // applied + 7 signed deltas + origin count.
            if payload.len() < 68 {
                return Err(WireError::Malformed("delta reply header short"));
            }
            let n = u32_at(payload, 64) as usize;
            if payload.len() != 68 + n * 12 {
                return Err(WireError::Malformed("delta reply length/count mismatch"));
            }
            let origins = (0..n)
                .map(|i| {
                    (
                        u32_at(payload, 68 + i * 12),
                        i64_at(payload, 68 + i * 12 + 4),
                    )
                })
                .collect();
            Ok(Frame::DeltaReply(DeltaCounts {
                applied: u64_at(payload, 0),
                non_repetitive: i64_at(payload, 8),
                new_stream: i64_at(payload, 16),
                recurring_stream: i64_at(payload, 24),
                distinct_streams: i64_at(payload, 32),
                total: i64_at(payload, 40),
                covered: i64_at(payload, 48),
                issued: i64_at(payload, 56),
                origins,
            }))
        }
        T_PARTIAL => {
            if payload.len() < 2 {
                return Err(WireError::Malformed("partial header short"));
            }
            if payload[0] == T_PARTIAL {
                return Err(WireError::Malformed("nested continuation"));
            }
            if payload[1] > 1 {
                return Err(WireError::Malformed("partial flags"));
            }
            Ok(Frame::Partial {
                inner_type: payload[0],
                last: payload[1] == 1,
                chunk: payload[2..].to_vec(),
            })
        }
        T_SHUTDOWN_ACK => need(0, "shutdown ack takes no payload").map(|()| Frame::ShutdownAck),
        T_ERROR => {
            if payload.len() < 2 {
                return Err(WireError::Malformed("error frame short"));
            }
            let message = String::from_utf8(payload[2..].to_vec())
                .map_err(|_| WireError::Malformed("error message not utf-8"))?;
            Ok(Frame::Error {
                code: u16_at(payload, 0),
                message,
            })
        }
        other => Err(WireError::UnknownType(other)),
    }
}

fn decode_body(body: &[u8]) -> Result<Message, WireError> {
    // body = version + type [+ seq] + payload + crc; length validated
    // to at least the envelope without a sequence id.
    let crc_off = body.len() - 4;
    let expect = u32::from_le_bytes(body[crc_off..].try_into().expect("4B crc"));
    if crc32(&body[..crc_off]) != expect {
        return Err(WireError::BadChecksum);
    }
    let (seq, payload) = match body[0] {
        VERSION_NO_SEQ => (None, &body[2..crc_off]),
        VERSION_SEQ => {
            if body.len() < ENVELOPE_SEQ_BYTES {
                return Err(WireError::Malformed("sequence envelope short"));
            }
            (Some(u32_at(body, 2)), &body[6..crc_off])
        }
        other => return Err(WireError::BadVersion(other)),
    };
    let frame = decode_payload(body[1], payload)?;
    Ok(Message { seq, frame })
}

/// Incremental frame parser: raw bytes in, single frames out. The
/// private first stage of [`MessageAssembler`], which reassembles the
/// continuation runs it yields.
#[derive(Debug, Default)]
struct FrameAssembler {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameAssembler {
    fn push_bytes(&mut self, bytes: &[u8]) {
        // Compact lazily: drop consumed bytes before growing.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn is_idle(&self) -> bool {
        self.buf.len() == self.consumed
    }

    /// The next complete frame with its sequence id, `Ok(None)` if more
    /// bytes are needed.
    fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4B len"));
        if (len as usize) < ENVELOPE_BYTES || len as usize > MAX_FRAME_BYTES {
            return Err(WireError::BadLength(len));
        }
        if pending.len() < 4 + len as usize {
            return Ok(None);
        }
        let body = &pending[4..4 + len as usize];
        let message = decode_body(body)?;
        self.consumed += 4 + len as usize;
        Ok(Some(message))
    }
}

/// Incremental message parser: feed it raw bytes as they arrive, pull
/// complete messages out. Runs of [`Frame::Partial`] continuation
/// frames (same sequence id) come out as the single oversized frame
/// they carry.
///
/// This is the only decode path — the server's connection readers run
/// it, and [`MessageReader`] wraps it for blocking clients — so the
/// property tests that throw corrupt, truncated, and oversized byte
/// streams at it cover the server's decoder exactly.
///
/// Hostile-input bounds: a continuation run may reassemble at most
/// [`MAX_REASSEMBLED_BYTES`]; a run interrupted by a different frame,
/// sequence id, or inner type is a [`WireError::Malformed`].
#[derive(Debug, Default)]
pub struct MessageAssembler {
    frames: FrameAssembler,
    partial: Option<PartialAssembly>,
}

#[derive(Debug)]
struct PartialAssembly {
    seq: Option<u32>,
    inner_type: u8,
    buf: Vec<u8>,
}

impl MessageAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        MessageAssembler::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.frames.push_bytes(bytes);
    }

    /// True when no partial frame or continuation run is buffered
    /// (safe point to close an idle connection).
    pub fn is_idle(&self) -> bool {
        self.frames.is_idle() && self.partial.is_none()
    }

    /// Extracts the next complete message, reassembling continuation
    /// frames transparently; `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// A [`WireError`] when the buffered bytes cannot be a valid frame
    /// (bad length, version, checksum, type or payload), plus
    /// [`WireError::Oversized`] for a continuation run past
    /// [`MAX_REASSEMBLED_BYTES`] and [`WireError::Malformed`] for an
    /// interrupted or inconsistent run. All errors mean the stream can
    /// no longer be trusted: tear the connection down.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        loop {
            let Some(message) = self.frames.next_message()? else {
                return Ok(None);
            };
            match message.frame {
                Frame::Partial {
                    inner_type,
                    last,
                    chunk,
                } => {
                    let assembly = match &mut self.partial {
                        Some(assembly) => {
                            if assembly.seq != message.seq || assembly.inner_type != inner_type {
                                self.partial = None;
                                return Err(WireError::Malformed("continuation run inconsistent"));
                            }
                            assembly
                        }
                        None => self.partial.insert(PartialAssembly {
                            seq: message.seq,
                            inner_type,
                            buf: Vec::new(),
                        }),
                    };
                    if assembly.buf.len() + chunk.len() > MAX_REASSEMBLED_BYTES {
                        let total = assembly.buf.len() + chunk.len();
                        self.partial = None;
                        return Err(WireError::Oversized(total));
                    }
                    assembly.buf.extend_from_slice(&chunk);
                    if last {
                        let assembly = self.partial.take().expect("assembly in progress");
                        let frame = decode_payload(assembly.inner_type, &assembly.buf)?;
                        return Ok(Some(Message {
                            seq: assembly.seq,
                            frame,
                        }));
                    }
                }
                frame => {
                    if self.partial.is_some() {
                        self.partial = None;
                        return Err(WireError::Malformed("continuation run interrupted"));
                    }
                    return Ok(Some(Message {
                        seq: message.seq,
                        frame,
                    }));
                }
            }
        }
    }
}

/// Blocking message reader that keeps its [`MessageAssembler`] across
/// calls, so replies buffered past the one being returned survive for
/// the next call: with several requests in flight, the kernel routinely
/// delivers many small replies in one `read`. Hold one per connection.
#[derive(Debug, Default)]
pub struct MessageReader {
    asm: MessageAssembler,
}

impl MessageReader {
    /// Creates a reader with an empty buffer.
    pub fn new() -> Self {
        MessageReader::default()
    }

    /// Reads the next message, first draining anything already
    /// buffered, then pulling more bytes from `reader` as needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the stream ends cleanly mid-frame (or
    /// before one starts), [`WireError::Io`] on a transport failure, and
    /// any decode error of [`MessageAssembler::next_message`].
    pub fn next_from<R: Read>(&mut self, mut reader: R) -> Result<Message, WireError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(message) = self.asm.next_message()? {
                return Ok(message);
            }
            match reader.read(&mut chunk) {
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => self.asm.push_bytes(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn assembler_handles_split_delivery() {
        let mut bytes = Vec::new();
        encode_message(Some(1), &Frame::QueryCoverage, &mut bytes).unwrap();
        encode_message(Some(2), &Frame::IngestAck(7), &mut bytes).unwrap();
        let mut asm = MessageAssembler::new();
        let mut got = Vec::new();
        for b in &bytes {
            asm.push_bytes(std::slice::from_ref(b));
            while let Some(m) = asm.next_message().unwrap() {
                got.push((m.seq, m.frame));
            }
        }
        assert_eq!(
            got,
            vec![
                (Some(1), Frame::QueryCoverage),
                (Some(2), Frame::IngestAck(7))
            ]
        );
        assert!(asm.is_idle());
    }

    #[test]
    fn v2_round_trip_echoes_sequence_id() {
        let mut bytes = Vec::new();
        encode_message(Some(0xDEAD_BEEF), &Frame::QueryDelta, &mut bytes).unwrap();
        let mut asm = MessageAssembler::new();
        asm.push_bytes(&bytes);
        let msg = asm.next_message().unwrap().expect("complete");
        assert_eq!(msg.seq, Some(0xDEAD_BEEF));
        assert_eq!(msg.frame, Frame::QueryDelta);
        assert!(asm.is_idle());
    }

    #[test]
    fn message_reader_keeps_replies_coalesced_into_one_read() {
        // Pipelined regression: many small replies arrive in one TCP
        // segment, and the persistent reader must yield every one.
        let mut bytes = Vec::new();
        for seq in 0..5u32 {
            encode_message(Some(seq), &Frame::IngestAck(seq), &mut bytes).unwrap();
        }
        let mut cursor = std::io::Cursor::new(bytes);
        let mut reader = MessageReader::new();
        for seq in 0..5u32 {
            let msg = reader.next_from(&mut cursor).expect("buffered reply");
            assert_eq!(msg.seq, Some(seq));
            assert_eq!(msg.frame, Frame::IngestAck(seq));
        }
        match reader.next_from(&mut cursor) {
            Err(WireError::Truncated) => {}
            other => panic!("expected exhausted stream, got {other:?}"),
        }
    }

    #[test]
    fn oversized_seqless_frame_is_an_error_not_a_panic() {
        let big = Frame::MetricsReply("x".repeat(MAX_FRAME_BYTES + 1));
        let mut out = Vec::new();
        match encode_message(None, &big, &mut out) {
            Err(WireError::Oversized(_)) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(out.is_empty(), "failed encode must not emit bytes");
    }

    #[test]
    fn oversized_v2_reply_splits_and_reassembles() {
        let big = Frame::MetricsReply("y".repeat(3 * MAX_FRAME_BYTES));
        let mut bytes = Vec::new();
        encode_message(Some(9), &big, &mut bytes).unwrap();
        assert!(bytes.len() > 3 * MAX_FRAME_BYTES, "really split");
        let mut asm = MessageAssembler::new();
        asm.push_bytes(&bytes);
        let msg = asm.next_message().unwrap().expect("reassembled");
        assert_eq!(msg.seq, Some(9));
        assert_eq!(msg.frame, big);
        assert!(asm.is_idle());
    }
}
