//! Property and corruption tests for the `TSMT` binary trace format.
//!
//! Round-trips random traces of both class tags through the writer and
//! reader, then attacks the encoded bytes (truncation at every region,
//! header field corruption) and asserts the reader reports the precise
//! [`ReadTraceError`] variant for each failure mode — never a panic and
//! never a silently wrong trace.

use tempstream_trace::io::{read_trace, write_trace, ReadTraceError, TraceClass};
use tempstream_trace::miss::{MissRecord, MissTrace};
use tempstream_trace::rng::SmallRng;
use tempstream_trace::{Block, CpuId, FunctionId, IntraChipClass, MissClass, ThreadId};

/// Header layout: magic(4) + version(2) + class_tag(1) + num_cpus(4) +
/// instructions(8) + record_count(8).
const HEADER_BYTES: usize = 27;
/// Record layout: block(8) + cpu(4) + thread(4) + function(4) + class(1).
const RECORD_BYTES: usize = 21;

fn random_trace<C: TraceClass>(rng: &mut SmallRng, num_classes: u8, len: usize) -> MissTrace<C> {
    let num_cpus = rng.gen_range(1u32..=64);
    let mut t = MissTrace::new(num_cpus);
    t.set_instructions(rng.next_u64());
    for _ in 0..len {
        t.push(MissRecord {
            // Any block a byte address maps to.
            block: Block::new(rng.next_u64() % (Block::MAX_RAW + 1)),
            cpu: CpuId::new(rng.gen_range(0u32..num_cpus)),
            thread: ThreadId::new(rng.next_u64() as u32),
            function: FunctionId::new(rng.next_u64() as u32),
            class: C::from_byte(rng.gen_range(0u32..u32::from(num_classes)) as u8).unwrap(),
        });
    }
    t
}

fn encode<C: TraceClass>(t: &MissTrace<C>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(t, &mut buf).unwrap();
    buf
}

#[test]
fn roundtrip_random_offchip_traces() {
    let mut rng = SmallRng::seed_from_u64(0x10_2008);
    for round in 0..64 {
        let t: MissTrace<MissClass> = random_trace(&mut rng, 4, round * 7);
        let buf = encode(&t);
        assert_eq!(buf.len(), HEADER_BYTES + t.len() * RECORD_BYTES);
        let back: MissTrace<MissClass> = read_trace(&buf[..]).unwrap();
        assert_eq!(back.num_cpus(), t.num_cpus());
        assert_eq!(back.instructions(), t.instructions());
        assert_eq!(back.records(), t.records());
    }
}

#[test]
fn roundtrip_random_intrachip_traces() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for round in 0..64 {
        let t: MissTrace<IntraChipClass> = random_trace(&mut rng, 4, round * 5 + 1);
        let back: MissTrace<IntraChipClass> = read_trace(&encode(&t)[..]).unwrap();
        assert_eq!(back.records(), t.records());
        assert_eq!(back.num_cpus(), t.num_cpus());
    }
}

#[test]
fn truncation_at_every_point_errors_without_panic() {
    let mut rng = SmallRng::seed_from_u64(7);
    let t: MissTrace<MissClass> = random_trace(&mut rng, 4, 13);
    let buf = encode(&t);
    for cut in 0..buf.len() {
        let err = read_trace::<MissClass, _>(&buf[..cut]).unwrap_err();
        if cut < HEADER_BYTES {
            // Mid-header cuts surface as plain I/O errors, except a cut
            // that happens to land after a complete 4-byte magic that no
            // longer matches (impossible here: the magic is intact).
            assert!(
                matches!(err, ReadTraceError::Io(_)),
                "cut {cut}: unexpected {err:?}"
            );
        } else {
            // Mid-record cuts are a count/payload disagreement.
            let whole = ((cut - HEADER_BYTES) / RECORD_BYTES) as u64;
            match err {
                ReadTraceError::TruncatedRecords { expected, read } => {
                    assert_eq!(expected, t.len() as u64, "cut {cut}");
                    assert_eq!(read, whole, "cut {cut}");
                }
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn bad_magic_detected() {
    let mut rng = SmallRng::seed_from_u64(11);
    let t: MissTrace<MissClass> = random_trace(&mut rng, 4, 3);
    let mut buf = encode(&t);
    buf[0] ^= 0xFF;
    assert!(matches!(
        read_trace::<MissClass, _>(&buf[..]).unwrap_err(),
        ReadTraceError::BadMagic
    ));
}

#[test]
fn bad_version_detected() {
    let mut rng = SmallRng::seed_from_u64(12);
    let t: MissTrace<MissClass> = random_trace(&mut rng, 4, 3);
    let mut buf = encode(&t);
    buf[4] = 0x77;
    assert!(matches!(
        read_trace::<MissClass, _>(&buf[..]).unwrap_err(),
        ReadTraceError::BadVersion(0x77)
    ));
}

#[test]
fn wrong_class_tag_detected_both_directions() {
    let mut rng = SmallRng::seed_from_u64(13);
    let off: MissTrace<MissClass> = random_trace(&mut rng, 4, 4);
    let err = read_trace::<IntraChipClass, _>(&encode(&off)[..]).unwrap_err();
    assert!(matches!(
        err,
        ReadTraceError::ClassMismatch {
            expected: 1,
            found: 0
        }
    ));

    let intra: MissTrace<IntraChipClass> = random_trace(&mut rng, 4, 4);
    let err = read_trace::<MissClass, _>(&encode(&intra)[..]).unwrap_err();
    assert!(matches!(
        err,
        ReadTraceError::ClassMismatch {
            expected: 0,
            found: 1
        }
    ));
}

#[test]
fn record_count_mismatch_detected() {
    let mut rng = SmallRng::seed_from_u64(14);
    let t: MissTrace<MissClass> = random_trace(&mut rng, 4, 9);
    let mut buf = encode(&t);
    // Inflate the header's record count beyond the payload.
    let count_at = HEADER_BYTES - 8;
    buf[count_at..HEADER_BYTES].copy_from_slice(&100u64.to_le_bytes());
    match read_trace::<MissClass, _>(&buf[..]).unwrap_err() {
        ReadTraceError::TruncatedRecords { expected, read } => {
            assert_eq!(expected, 100);
            assert_eq!(read, 9);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn invalid_class_byte_detected() {
    let mut rng = SmallRng::seed_from_u64(15);
    let t: MissTrace<MissClass> = random_trace(&mut rng, 4, 5);
    let mut buf = encode(&t);
    // Last byte of the final record is its class byte.
    let last = buf.len() - 1;
    buf[last] = 0xEE;
    assert!(matches!(
        read_trace::<MissClass, _>(&buf[..]).unwrap_err(),
        ReadTraceError::BadClass(0xEE)
    ));
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xD15EA5E);
    for _ in 0..256 {
        let len = rng.gen_range(0usize..512);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any result is fine as long as it is an orderly Err or a valid trace.
        let _ = read_trace::<MissClass, _>(&bytes[..]);
        let _ = read_trace::<IntraChipClass, _>(&bytes[..]);
    }
}
