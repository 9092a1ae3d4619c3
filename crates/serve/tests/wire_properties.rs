//! Property tests for the wire protocol: round-trips, corruption,
//! truncation, and hostile length prefixes, through both the
//! incremental decoder (`MessageAssembler`, which the server runs) and
//! the blocking client reader (`MessageReader`). The decoder's contract
//! is that no byte stream — however malformed — panics it; bad input
//! surfaces as a `WireError`.

use tempstream_serve::wire::{
    crc32, encode_message, DeltaCounts, Frame, Message, MessageAssembler, MessageReader, WireError,
    ERR_BAD_FRAME, ERR_DRAINING, MAX_BATCH_RECORDS, MAX_FRAME_BYTES, MAX_REASSEMBLED_BYTES,
};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::rng::SplitMix64;
use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

fn seeded_records(seed: u64, n: usize) -> Vec<MissRecord<MissClass>> {
    let mut rng = SplitMix64::new(seed);
    let classes = MissClass::ALL;
    (0..n)
        .map(|_| MissRecord {
            // Any block a byte address maps to.
            block: Block::new(rng.next_u64() % (Block::MAX_RAW + 1)),
            cpu: CpuId::new((rng.next_u64() % 64) as u32),
            thread: ThreadId::new((rng.next_u64() % 1024) as u32),
            function: FunctionId::new((rng.next_u64() % 4096) as u32),
            class: classes[(rng.next_u64() % 4) as usize],
        })
        .collect()
}

/// One message per frame kind, each under its own sequence id.
fn sample_messages() -> Vec<(u32, Frame)> {
    let frames = vec![
        Frame::Ingest(Vec::new()),
        Frame::Ingest(seeded_records(1, 1)),
        Frame::Ingest(seeded_records(2, 257)),
        Frame::QueryStreamFraction,
        Frame::QueryCoverage,
        Frame::QueryTopOrigins(0),
        Frame::QueryTopOrigins(u16::MAX),
        Frame::QueryMetricsSnapshot,
        Frame::Shutdown,
        Frame::IngestAck(0),
        Frame::IngestAck(u32::MAX),
        Frame::Busy,
        Frame::StreamFractionReply {
            non_repetitive: u64::MAX,
            new_stream: 0,
            recurring_stream: 1,
            distinct_streams: 42,
        },
        Frame::CoverageReply {
            total: 3,
            covered: 2,
            issued: u64::MAX,
        },
        Frame::TopOriginsReply(Vec::new()),
        Frame::TopOriginsReply(vec![(7, 9), (u32::MAX, u64::MAX)]),
        Frame::MetricsReply(String::new()),
        Frame::MetricsReply("{\"counters\":{}}".to_string()),
        Frame::ShutdownAck,
        Frame::Error {
            code: 2,
            message: "drainiñg ünïcode".to_string(),
        },
    ];
    let mut samples: Vec<(u32, Frame)> = frames
        .into_iter()
        .enumerate()
        .map(|(i, f)| (i as u32 * 0x0101_0101, f))
        .collect();
    samples.push((0, Frame::QueryDelta));
    samples.push((u32::MAX, Frame::DeltaReply(DeltaCounts::default())));
    samples.push((
        7,
        Frame::DeltaReply(DeltaCounts {
            applied: u64::MAX,
            non_repetitive: i64::MIN,
            new_stream: i64::MAX,
            recurring_stream: -1,
            distinct_streams: 0,
            total: 5,
            covered: -5,
            issued: 1,
            origins: vec![(0, -9), (u32::MAX, i64::MAX)],
        }),
    ));
    samples
}

fn encode(seq: u32, frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_message(Some(seq), frame, &mut bytes).expect("single-frame payload");
    bytes
}

/// Decodes the first message of `bytes` with the incremental decoder.
fn decode_one(bytes: &[u8]) -> Result<Option<Message>, WireError> {
    let mut asm = MessageAssembler::new();
    asm.push_bytes(bytes);
    asm.next_message()
}

/// Reads the first message of `bytes` with the blocking reader.
fn read_one(bytes: &[u8]) -> Result<Message, WireError> {
    MessageReader::new().next_from(bytes)
}

#[test]
fn every_frame_round_trips() {
    for (seq, frame) in sample_messages() {
        let got = decode_one(&encode(seq, &frame))
            .unwrap_or_else(|e| panic!("decode {frame:?}: {e}"))
            .expect("complete frame");
        assert_eq!(got.seq, Some(seq));
        assert_eq!(got.frame, frame);
    }
}

#[test]
fn back_to_back_frames_share_a_stream() {
    let messages = sample_messages();
    let mut bytes = Vec::new();
    for (seq, f) in &messages {
        encode_message(Some(*seq), f, &mut bytes).expect("encodable");
    }
    let mut asm = MessageAssembler::new();
    asm.push_bytes(&bytes);
    let mut got = Vec::new();
    while let Some(m) = asm.next_message().expect("valid stream") {
        got.push((m.seq.expect("request seq"), m.frame));
    }
    assert_eq!(got, messages);
    assert!(asm.is_idle());
}

#[test]
fn single_byte_corruption_never_panics_and_never_forges_a_frame() {
    for (seq, frame) in sample_messages() {
        let bytes = encode(seq, &frame);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                match decode_one(&corrupt) {
                    // A corrupted length prefix may ask for more bytes
                    // (Ok(None)); anything else decodable must fail.
                    Ok(None) | Err(_) => {}
                    Ok(Some(got)) => {
                        assert!(
                            got.seq != Some(seq) || got.frame != frame,
                            "corruption at byte {pos} (^{flip:#x}) forged the original message"
                        );
                        // Only a length-prefix corruption can re-frame
                        // the stream; the CRC pins the body bytes.
                        assert!(pos < 4, "body corruption at {pos} decoded to {got:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_incomplete_or_an_error() {
    for (seq, frame) in sample_messages() {
        let bytes = encode(seq, &frame);
        for cut in 0..bytes.len() {
            match decode_one(&bytes[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(got)) => panic!("prefix {cut}/{} decoded to {got:?}", bytes.len()),
            }
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_buffering() {
    for len in [
        MAX_FRAME_BYTES as u32 + 1,
        u32::MAX,
        0, // shorter than the envelope
        1,
        5,
    ] {
        let mut asm = MessageAssembler::new();
        asm.push_bytes(&len.to_le_bytes());
        match asm.next_message() {
            Err(WireError::BadLength(got)) => assert_eq!(got, len),
            other => panic!("len {len}: expected BadLength, got {other:?}"),
        }
    }
}

/// Rewrites the CRC trailer so the corruption under test is the only
/// defect in the frame.
fn fix_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[4..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

/// Offset of the payload in a frame with a sequence id: 4B len + 1B
/// version + 1B type + 4B seq.
const PAYLOAD: usize = 10;

#[test]
fn ingest_count_mismatch_is_malformed() {
    let mut bytes = encode(1, &Frame::Ingest(seeded_records(3, 2)));
    // Claim 3 records while carrying 2.
    bytes[PAYLOAD..PAYLOAD + 4].copy_from_slice(&3u32.to_le_bytes());
    fix_crc(&mut bytes);
    match decode_one(&bytes) {
        Err(WireError::Malformed(what)) => assert!(what.contains("length/count"), "{what}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn ingest_over_record_cap_is_malformed() {
    let mut bytes = encode(1, &Frame::Ingest(seeded_records(4, 1)));
    bytes[PAYLOAD..PAYLOAD + 4].copy_from_slice(&((MAX_BATCH_RECORDS as u32) + 1).to_le_bytes());
    fix_crc(&mut bytes);
    match decode_one(&bytes) {
        Err(WireError::Malformed(what)) => assert!(what.contains("record cap"), "{what}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn unknown_type_and_version_are_rejected() {
    let bytes = encode(1, &Frame::Busy);
    let mut wrong_type = bytes.clone();
    wrong_type[5] = 99;
    fix_crc(&mut wrong_type);
    assert!(matches!(
        decode_one(&wrong_type),
        Err(WireError::UnknownType(99))
    ));
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 9;
    fix_crc(&mut wrong_version);
    assert!(matches!(
        decode_one(&wrong_version),
        Err(WireError::BadVersion(9))
    ));
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0xbad_b17e5);
    for _ in 0..2000 {
        let n = (rng.next_u64() % 64) as usize;
        let garbage: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let _ = decode_one(&garbage); // must not panic
        let _ = read_one(&garbage);
    }
}

// --- the blocking reader ---------------------------------------------------

#[test]
fn v2_messages_round_trip_and_echo_their_sequence_id() {
    for (seq, frame) in sample_messages() {
        let got = read_one(&encode(seq, &frame)).unwrap_or_else(|e| panic!("read {frame:?}: {e}"));
        assert_eq!(got.seq, Some(seq), "sequence id echo for {frame:?}");
        assert_eq!(got.frame, frame);
    }
}

#[test]
fn v2_single_byte_corruption_never_panics_and_never_forges_a_message() {
    for (seq, frame) in sample_messages() {
        let bytes = encode(seq, &frame);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                match read_one(&corrupt) {
                    // A corrupted length prefix may ask for more bytes
                    // than the stream holds (Truncated).
                    Err(_) => {}
                    Ok(got) => {
                        assert!(
                            got.seq != Some(seq) || got.frame != frame,
                            "corruption at byte {pos} (^{flip:#x}) forged the original message"
                        );
                        assert!(pos < 4, "body corruption at {pos} decoded to {got:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn v2_truncations_are_incomplete_or_errors() {
    for (seq, frame) in sample_messages() {
        let bytes = encode(seq, &frame);
        for cut in 0..bytes.len() {
            // The blocking reader reports a clean mid-frame close.
            match read_one(&bytes[..cut]) {
                Err(WireError::Truncated) => {}
                Err(other) => panic!("prefix {cut}: unexpected {other}"),
                Ok(got) => panic!("prefix {cut} read {got:?}"),
            }
        }
    }
}

/// A reply whose payload exceeds one frame (u32-counted `DeltaReply`
/// rows can do this legitimately) splits into continuation frames and
/// reassembles bit-exactly, seq preserved — and the same payload is an
/// `Oversized` error, not a panic, without a sequence id (connection-level
/// frames never split).
#[test]
fn oversized_replies_split_reassemble_and_never_panic() {
    let origins: Vec<(u32, i64)> = (0..120_000u32).map(|f| (f, i64::from(f) - 7)).collect();
    let big_frames = [
        Frame::DeltaReply(DeltaCounts {
            applied: 1,
            origins,
            ..DeltaCounts::default()
        }),
        Frame::MetricsReply("m".repeat(2 * MAX_FRAME_BYTES + 13)),
    ];
    for frame in big_frames {
        let mut seqless = Vec::new();
        match encode_message(None, &frame, &mut seqless) {
            Err(WireError::Oversized(_)) => {}
            other => panic!("seq-less oversized: expected Oversized, got {other:?}"),
        }
        assert!(seqless.is_empty(), "failed encode must not emit bytes");
        let mut bytes = Vec::new();
        encode_message(Some(0xABCD), &frame, &mut bytes).expect("splits");
        // Deliver in awkward chunk sizes to exercise reassembly.
        let mut asm = MessageAssembler::new();
        let mut got = None;
        for chunk in bytes.chunks(65_537) {
            asm.push_bytes(chunk);
            if let Some(m) = asm.next_message().expect("valid continuation run") {
                assert!(got.is_none(), "one oversized reply, one message");
                got = Some(m);
            }
        }
        let got = got.expect("reassembled");
        assert_eq!(got.seq, Some(0xABCD));
        assert_eq!(got.frame, frame);
        assert!(asm.is_idle());
    }
}

#[test]
fn continuation_run_interrupted_or_inconsistent_is_malformed() {
    let open_run = |seq: u32| {
        let mut bytes = Vec::new();
        encode_message(
            Some(seq),
            &Frame::Partial {
                inner_type: 21, // metrics reply
                last: false,
                chunk: vec![b'x'; 32],
            },
            &mut bytes,
        )
        .expect("explicit partial fits");
        bytes
    };
    // A different sequence id mid-run.
    let mut asm = MessageAssembler::new();
    asm.push_bytes(&open_run(1));
    assert!(asm.next_message().expect("run open").is_none());
    asm.push_bytes(&open_run(2));
    assert!(matches!(
        asm.next_message(),
        Err(WireError::Malformed(what)) if what.contains("inconsistent")
    ));
    // A non-continuation frame mid-run.
    let mut asm = MessageAssembler::new();
    asm.push_bytes(&open_run(1));
    assert!(asm.next_message().expect("run open").is_none());
    let mut busy = Vec::new();
    encode_message(Some(1), &Frame::Busy, &mut busy).unwrap();
    asm.push_bytes(&busy);
    assert!(matches!(
        asm.next_message(),
        Err(WireError::Malformed(what)) if what.contains("interrupted")
    ));
    // A nested continuation (Partial wrapping Partial).
    let mut nested = Vec::new();
    encode_message(
        Some(3),
        &Frame::Partial {
            inner_type: 25, // T_PARTIAL itself
            last: true,
            chunk: Vec::new(),
        },
        &mut nested,
    )
    .expect("encoder does not validate inner type");
    assert!(matches!(
        decode_one(&nested),
        Err(WireError::Malformed(what)) if what.contains("nested")
    ));
}

#[test]
fn unbounded_continuation_run_is_rejected_as_oversized() {
    let chunk = vec![0u8; MAX_FRAME_BYTES / 2];
    let mut asm = MessageAssembler::new();
    let mut total = 0usize;
    let mut rejected = false;
    // A hostile peer streams never-ending not-last continuations.
    for _ in 0..(2 * MAX_REASSEMBLED_BYTES / chunk.len() + 4) {
        let mut bytes = Vec::new();
        encode_message(
            Some(5),
            &Frame::Partial {
                inner_type: 21,
                last: false,
                chunk: chunk.clone(),
            },
            &mut bytes,
        )
        .unwrap();
        asm.push_bytes(&bytes);
        total += chunk.len();
        match asm.next_message() {
            Ok(None) => assert!(total <= MAX_REASSEMBLED_BYTES, "run grew past the cap"),
            Err(WireError::Oversized(n)) => {
                assert!(n > MAX_REASSEMBLED_BYTES);
                rejected = true;
                break;
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(rejected, "reassembly cap never enforced");
}

#[test]
fn corrupt_delta_reply_count_is_malformed() {
    let mut bytes = encode(
        1,
        &Frame::DeltaReply(DeltaCounts {
            applied: 3,
            origins: vec![(1, 2), (3, -4)],
            ..DeltaCounts::default()
        }),
    );
    // Claim 3 origin rows while carrying 2 (count sits after the eight
    // u64/i64 counters).
    bytes[PAYLOAD + 64..PAYLOAD + 68].copy_from_slice(&3u32.to_le_bytes());
    fix_crc(&mut bytes);
    match decode_one(&bytes) {
        Err(WireError::Malformed(what)) => assert!(what.contains("length/count"), "{what}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // A short header is malformed, not a slice panic.
    let mut short = encode(1, &Frame::Busy);
    short[5] = 24; // T_DELTA_REPLY with an empty payload
    fix_crc(&mut short);
    match decode_one(&short) {
        Err(WireError::Malformed(what)) => assert!(what.contains("short"), "{what}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn seqless_server_frames_decode_with_no_seq() {
    // The server's three frames that answer no request — the
    // accept-time Busy, the drain refusal, and the bad-frame error —
    // carry no sequence id, and decode between requests as `seq: None`.
    let seqless = [
        Frame::Busy,
        Frame::Error {
            code: ERR_DRAINING,
            message: "server is draining".to_string(),
        },
        Frame::Error {
            code: ERR_BAD_FRAME,
            message: "frame checksum mismatch".to_string(),
        },
    ];
    let mut bytes = Vec::new();
    for (i, f) in seqless.iter().enumerate() {
        encode_message(None, f, &mut bytes).expect("fits one frame");
        encode_message(Some(i as u32), &Frame::IngestAck(7), &mut bytes).expect("fits");
    }
    let mut asm = MessageAssembler::new();
    asm.push_bytes(&bytes);
    let mut got = Vec::new();
    while let Some(m) = asm.next_message().expect("valid stream") {
        got.push((m.seq, m.frame));
    }
    let want: Vec<_> = seqless
        .iter()
        .enumerate()
        .flat_map(|(i, f)| [(None, f.clone()), (Some(i as u32), Frame::IngestAck(7))])
        .collect();
    assert_eq!(got, want);
    // And through the blocking reader.
    let mut reader = MessageReader::new();
    let mut stream = &bytes[..];
    for (seq, frame) in want {
        let m = reader.next_from(&mut stream).expect("buffered message");
        assert_eq!((m.seq, m.frame), (seq, frame));
    }
}
