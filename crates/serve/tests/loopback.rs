//! End-to-end loopback tests: a real server on 127.0.0.1, a real TCP
//! client, and the headline bit-identity property — online answers
//! equal the offline batch stages over the same records.

use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::thread;

use tempstream_serve::offline;
use tempstream_serve::shard::{shard_of, ShardConfig};
use tempstream_serve::wire::{
    write_message, DeltaCounts, Frame, Message, MessageReader, WireError, ERR_BAD_FRAME,
    ERR_DRAINING, ERR_SHARD_FAILED, MAX_FRAME_BYTES,
};
use tempstream_serve::{Server, ServerConfig};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::rng::SplitMix64;
use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

fn seeded_records(seed: u64, n: usize) -> Vec<MissRecord<MissClass>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| MissRecord {
            // A small block universe so streams actually recur.
            block: Block::new(rng.next_u64() % 101),
            cpu: CpuId::new((rng.next_u64() % 4) as u32),
            thread: ThreadId::new((rng.next_u64() % 8) as u32),
            function: FunctionId::new((rng.next_u64() % 17) as u32),
            class: MissClass::Replacement,
        })
        .collect()
}

/// Starts a server on an ephemeral loopback port; returns its address
/// and the thread running it.
fn start_server(config: ServerConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// A client connection: the socket, a persistent reader (replies can
/// share one TCP segment) and the next request's sequence id.
struct Conn {
    stream: TcpStream,
    reader: MessageReader,
    next_seq: u32,
}

fn connect(addr: &str) -> Conn {
    Conn {
        stream: TcpStream::connect(addr).expect("connect"),
        reader: MessageReader::new(),
        next_seq: 0,
    }
}

impl Conn {
    /// Sends `request` under the next sequence id and returns the id.
    fn send(&mut self, request: &Frame) -> u32 {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        write_message(&mut self.stream, Some(seq), request).expect("send");
        seq
    }

    fn recv(&mut self) -> Result<Message, WireError> {
        self.reader.next_from(&mut self.stream)
    }

    /// Reads one of the server's connection-level frames, which answer
    /// no request and so carry no sequence id.
    fn recv_unsolicited(&mut self) -> Frame {
        let msg = self.recv().expect("connection-level frame");
        assert_eq!(msg.seq, None, "{:?} answers no request", msg.frame);
        msg.frame
    }

    /// Asserts the server closed the connection with nothing more sent.
    fn assert_closed(&mut self) {
        match self.recv() {
            Err(WireError::Truncated) => {}
            other => panic!("expected a closed connection, got {other:?}"),
        }
    }
}

/// One request/reply round trip; asserts the reply echoes the request's
/// sequence id.
fn call(conn: &mut Conn, request: &Frame) -> Frame {
    let seq = conn.send(request);
    let msg = conn.recv().expect("recv");
    assert_eq!(msg.seq, Some(seq), "reply must echo the request seq");
    msg.frame
}

fn ingest_all(conn: &mut Conn, records: &[MissRecord<MissClass>], batch: usize) {
    for chunk in records.chunks(batch) {
        loop {
            match call(conn, &Frame::Ingest(chunk.to_vec())) {
                Frame::IngestAck(n) => {
                    assert_eq!(n as usize, chunk.len());
                    break;
                }
                Frame::Busy => thread::yield_now(),
                other => panic!("unexpected ingest reply: {other:?}"),
            }
        }
    }
}

fn shutdown(conn: &mut Conn) {
    assert_eq!(call(conn, &Frame::Shutdown), Frame::ShutdownAck);
}

#[test]
fn online_answers_match_offline_batch_across_shard_counts() {
    let records = seeded_records(0x10ad, 2500);
    for shards in [1usize, 2, 4] {
        let config = ServerConfig {
            shards,
            ..ServerConfig::default()
        };
        let (addr, handle) = start_server(config);
        let mut conn = connect(&addr);
        ingest_all(&mut conn, &records, 128);

        let want = offline::expected(&records, shards, ShardConfig::default(), 8);
        match call(&mut conn, &Frame::QueryStreamFraction) {
            Frame::StreamFractionReply {
                non_repetitive,
                new_stream,
                recurring_stream,
                distinct_streams,
            } => {
                assert_eq!(
                    non_repetitive, want.streams.non_repetitive,
                    "shards={shards}"
                );
                assert_eq!(new_stream, want.streams.new_stream, "shards={shards}");
                assert_eq!(
                    recurring_stream, want.streams.recurring_stream,
                    "shards={shards}"
                );
                assert_eq!(
                    distinct_streams, want.streams.distinct_streams,
                    "shards={shards}"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        match call(&mut conn, &Frame::QueryCoverage) {
            Frame::CoverageReply {
                total,
                covered,
                issued,
            } => {
                assert_eq!(total, want.coverage.total, "shards={shards}");
                assert_eq!(covered, want.coverage.covered, "shards={shards}");
                assert_eq!(issued, want.coverage.issued, "shards={shards}");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        match call(&mut conn, &Frame::QueryTopOrigins(8)) {
            Frame::TopOriginsReply(rows) => assert_eq!(rows, want.top_origins, "shards={shards}"),
            other => panic!("unexpected reply: {other:?}"),
        }

        shutdown(&mut conn);
        handle.join().expect("server thread").expect("server run");
    }
}

#[test]
fn one_shard_server_equals_whole_trace_batch_analysis() {
    let records = seeded_records(0x5eed, 1200);
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = connect(&addr);
    ingest_all(&mut conn, &records, 200);

    let num_cpus = records.iter().map(|r| r.cpu.raw()).max().unwrap_or(0) + 1;
    let batch = tempstream_core::stages::analyze_streams(&records, num_cpus);
    match call(&mut conn, &Frame::QueryStreamFraction) {
        Frame::StreamFractionReply {
            non_repetitive,
            new_stream,
            recurring_stream,
            distinct_streams,
        } => {
            assert_eq!(non_repetitive, batch.stream_fraction.non_repetitive);
            assert_eq!(new_stream, batch.stream_fraction.new_stream);
            assert_eq!(recurring_stream, batch.stream_fraction.recurring_stream);
            assert_eq!(distinct_streams, batch.distinct_streams as u64);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn queries_reflect_every_acked_record_mid_stream() {
    let records = seeded_records(0xface, 900);
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr);
    // Interleave ingest and queries: after each prefix, the answer
    // must equal the offline result for exactly that prefix
    // (read-your-writes + SEQUITUR's online property). The comparator
    // is fed the same increments the server is — each record analyzed
    // once, not once per verification phase.
    let mut comparator = offline::Comparator::new(2, ShardConfig::default());
    for end in [300usize, 600, 900] {
        ingest_all(&mut conn, &records[end - 300..end], 97);
        comparator.push(&records[end - 300..end]);
        assert_eq!(comparator.pushed(), end as u64, "no record re-pushed");
        let want = comparator.expected(4);
        match call(&mut conn, &Frame::QueryCoverage) {
            Frame::CoverageReply {
                total,
                covered,
                issued,
            } => {
                assert_eq!(
                    (total, covered, issued),
                    (
                        want.coverage.total,
                        want.coverage.covered,
                        want.coverage.issued
                    ),
                    "prefix {end}"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        match call(&mut conn, &Frame::QueryStreamFraction) {
            Frame::StreamFractionReply {
                non_repetitive,
                new_stream,
                recurring_stream,
                distinct_streams,
            } => {
                assert_eq!(
                    (
                        non_repetitive,
                        new_stream,
                        recurring_stream,
                        distinct_streams
                    ),
                    (
                        want.streams.non_repetitive,
                        want.streams.new_stream,
                        want.streams.recurring_stream,
                        want.streams.distinct_streams
                    ),
                    "prefix {end}"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn malformed_bytes_get_an_error_frame_then_close() {
    use std::io::Write;
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = connect(&addr);
    // A hostile length prefix followed by garbage.
    conn.stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send");
    conn.stream.write_all(&[0xAA; 32]).expect("send");
    match conn.recv_unsolicited() {
        Frame::Error { code, message } => {
            assert_eq!(code, ERR_BAD_FRAME);
            assert!(!message.is_empty());
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    // The server closes the connection after the error frame.
    conn.assert_closed();

    // The server survives; a fresh connection works.
    let mut conn2 = connect(&addr);
    assert!(matches!(
        call(&mut conn2, &Frame::QueryCoverage),
        Frame::CoverageReply { total: 0, .. }
    ));
    shutdown(&mut conn2);
    handle.join().expect("server thread").expect("server run");
}

/// A request without a sequence id is not a request: it is answered
/// `Error{ERR_BAD_FRAME}` with no seq, the connection closes, and it
/// counts as a decode error, never as a received frame.
#[test]
fn request_without_a_sequence_id_is_refused_and_the_connection_closes() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = connect(&addr);
    write_message(&mut conn.stream, None, &Frame::QueryCoverage).expect("send");
    match conn.recv_unsolicited() {
        Frame::Error { code, message } => {
            assert_eq!(code, ERR_BAD_FRAME);
            assert!(message.contains("sequence id"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    conn.assert_closed();

    // The server survives; a second connection is served.
    let mut conn2 = connect(&addr);
    assert!(matches!(
        call(&mut conn2, &Frame::QueryCoverage),
        Frame::CoverageReply { total: 0, .. }
    ));
    let at = metrics(&mut conn2);
    assert_eq!(at("counters/serve/frames/decode_errors"), 1);
    assert_eq!(
        at("counters/serve/frames/received"),
        2,
        "coverage + snapshot"
    );
    shutdown(&mut conn2);
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn ingest_frame_with_out_of_range_block_is_rejected() {
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let records = seeded_records(0xb10c, 64);
    let mut good = connect(&addr);
    ingest_all(&mut good, &records, 16);

    // A block no byte address maps to: the wire decoder must turn it
    // away before it reaches a shard's grammar builder.
    let mut hostile = records[..4].to_vec();
    hostile[2].block = Block::new(Block::MAX_RAW + 1);
    let mut conn = connect(&addr);
    conn.send(&Frame::Ingest(hostile));
    // The frame never decodes, so the error answers no request.
    match conn.recv_unsolicited() {
        Frame::Error { code, message } => {
            assert_eq!(code, ERR_BAD_FRAME);
            assert!(message.contains("block"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    conn.assert_closed();

    // The server still answers, over exactly the records it accepted,
    // and drains.
    match call(&mut good, &Frame::QueryCoverage) {
        Frame::CoverageReply { total, .. } => assert_eq!(total, records.len() as u64),
        other => panic!("expected coverage reply, got {other:?}"),
    }
    shutdown(&mut good);
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn reply_direction_frame_is_rejected() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = connect(&addr);
    match call(&mut conn, &Frame::IngestAck(1)) {
        Frame::Error { code, .. } => assert_eq!(code, ERR_BAD_FRAME),
        other => panic!("expected error frame, got {other:?}"),
    }
    let mut conn2 = connect(&addr);
    shutdown(&mut conn2);
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn connection_admission_rejects_excess_with_busy() {
    let (addr, handle) = start_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    // First connection occupies the only lane...
    let mut held = connect(&addr);
    assert!(matches!(
        call(&mut held, &Frame::QueryCoverage),
        Frame::CoverageReply { .. }
    ));
    // ...so the second is turned away with Busy and closed.
    let mut rejected = connect(&addr);
    assert_eq!(rejected.recv_unsolicited(), Frame::Busy);
    drop(rejected);

    // Releasing the lane admits a new connection (poll until the
    // handler notices the close and frees the slot).
    drop(held);
    let mut last = None;
    for _ in 0..200 {
        let mut conn = connect(&addr);
        match try_query(&mut conn) {
            Ok(frame) => {
                last = Some((conn, frame));
                break;
            }
            Err(()) => thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    let (mut conn, frame) = last.expect("a connection was admitted after the slot freed");
    assert!(matches!(frame, Frame::CoverageReply { .. }));
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

/// Sends a coverage query; `Err(())` if the server answered `Busy`
/// (admission still exhausted) or closed the connection.
fn try_query(conn: &mut Conn) -> Result<Frame, ()> {
    write_message(&mut conn.stream, Some(0), &Frame::QueryCoverage).map_err(|_| ())?;
    match conn.recv() {
        Ok(Message {
            seq: Some(0),
            frame,
        }) => Ok(frame),
        _ => Err(()),
    }
}

// --- pipelining + incremental deltas ----------------------------------------

fn signed(n: u64) -> i64 {
    i64::try_from(n).expect("count fits i64")
}

fn query_delta(conn: &mut Conn) -> DeltaCounts {
    match call(conn, &Frame::QueryDelta) {
        Frame::DeltaReply(delta) => delta,
        other => panic!("unexpected delta reply: {other:?}"),
    }
}

/// Telescoping accumulator over a connection's `DeltaReply` stream.
#[derive(Default, Clone)]
struct DeltaAcc {
    applied: u64,
    non_repetitive: i64,
    new_stream: i64,
    recurring_stream: i64,
    distinct_streams: i64,
    total: i64,
    covered: i64,
    issued: i64,
    origins: HashMap<u32, i64>,
}

impl DeltaAcc {
    fn absorb(&mut self, d: &DeltaCounts) {
        assert!(d.applied >= self.applied, "applied watermark is monotone");
        self.applied = d.applied;
        self.non_repetitive += d.non_repetitive;
        self.new_stream += d.new_stream;
        self.recurring_stream += d.recurring_stream;
        self.distinct_streams += d.distinct_streams;
        self.total += d.total;
        self.covered += d.covered;
        self.issued += d.issued;
        for &(id, delta) in &d.origins {
            *self.origins.entry(id).or_insert(0) += delta;
        }
    }
}

/// Pipelines `records` with up to `window` requests in flight,
/// interleaving a `QueryDelta` every `delta_every` acks.
/// Returns the records in ack (= admission) order plus the accumulated
/// deltas, with the final delta already absorbed so the telescoped sums
/// cover the whole ingest.
fn ingest_pipelined(
    conn: &mut Conn,
    records: &[MissRecord<MissClass>],
    batch: usize,
    window: usize,
    delta_every: usize,
) -> (Vec<MissRecord<MissClass>>, DeltaAcc) {
    enum Slot {
        Ingest(u32, usize),
        Delta(u32),
    }
    impl Slot {
        fn seq(&self) -> u32 {
            match *self {
                Slot::Ingest(seq, _) | Slot::Delta(seq) => seq,
            }
        }
    }
    let batches: Vec<&[MissRecord<MissClass>]> = records.chunks(batch).collect();
    let mut pending: VecDeque<usize> = (0..batches.len()).collect();
    let mut inflight: VecDeque<Slot> = VecDeque::new();
    let mut acc = DeltaAcc::default();
    let mut acked: Vec<usize> = Vec::new();
    let mut acks_since_delta = 0usize;
    loop {
        // Fill the window, preferring a due delta probe over new ingest
        // so the cursor advances mid-stream, not just at the end.
        while inflight.len() < window {
            if acks_since_delta >= delta_every {
                acks_since_delta = 0;
                inflight.push_back(Slot::Delta(conn.send(&Frame::QueryDelta)));
            } else if let Some(idx) = pending.pop_front() {
                let seq = conn.send(&Frame::Ingest(batches[idx].to_vec()));
                inflight.push_back(Slot::Ingest(seq, idx));
            } else {
                break;
            }
        }
        let Some(slot) = inflight.pop_front() else {
            break;
        };
        let msg = conn.recv().expect("pipelined reply");
        assert_eq!(
            msg.seq,
            Some(slot.seq()),
            "replies come back in FIFO request order: {:?}",
            msg.frame
        );
        match (slot, msg.frame) {
            (Slot::Ingest(_, idx), Frame::IngestAck(n)) => {
                assert_eq!(n as usize, batches[idx].len());
                acked.push(idx);
                acks_since_delta += 1;
            }
            (Slot::Ingest(_, idx), Frame::Busy) => {
                // Router admission is full: re-queue and back off.
                pending.push_front(idx);
                thread::sleep(std::time::Duration::from_millis(1));
            }
            (Slot::Delta(_), Frame::DeltaReply(delta)) => acc.absorb(&delta),
            (slot, other) => {
                let what = match slot {
                    Slot::Ingest(..) => "ingest",
                    Slot::Delta(_) => "delta",
                };
                panic!("unexpected {what} reply: {other:?}");
            }
        }
    }
    // Close the telescope: one final delta covers everything acked
    // after the last interleaved probe.
    acc.absorb(&query_delta(conn));
    let effective = acked
        .iter()
        .flat_map(|&idx| batches[idx].iter().copied())
        .collect();
    (effective, acc)
}

#[test]
fn pipelined_and_delta_answers_match_offline_across_shard_counts() {
    let records = seeded_records(0x9a9a, 2400);
    for shards in [1usize, 2, 4] {
        let (addr, handle) = start_server(ServerConfig {
            shards,
            ..ServerConfig::default()
        });
        let mut conn = connect(&addr);
        let (effective, acc) = ingest_pipelined(&mut conn, &records, 128, 8, 5);
        assert_eq!(effective.len(), records.len(), "shards={shards}");
        assert_eq!(acc.applied, records.len() as u64, "shards={shards}");

        // The offline comparator runs over the ack-order record
        // sequence (identical to send order on one connection, but
        // reconstructing it keeps the check honest).
        let want = offline::expected(&effective, shards, ShardConfig::default(), 8);

        // Absolute queries on the same connection, and the telescoped
        // delta sums equal those absolutes exactly.
        match call(&mut conn, &Frame::QueryStreamFraction) {
            Frame::StreamFractionReply {
                non_repetitive,
                new_stream,
                recurring_stream,
                distinct_streams,
            } => {
                assert_eq!(
                    (
                        non_repetitive,
                        new_stream,
                        recurring_stream,
                        distinct_streams
                    ),
                    (
                        want.streams.non_repetitive,
                        want.streams.new_stream,
                        want.streams.recurring_stream,
                        want.streams.distinct_streams
                    ),
                    "shards={shards}"
                );
                assert_eq!(
                    (
                        acc.non_repetitive,
                        acc.new_stream,
                        acc.recurring_stream,
                        acc.distinct_streams
                    ),
                    (
                        signed(non_repetitive),
                        signed(new_stream),
                        signed(recurring_stream),
                        signed(distinct_streams)
                    ),
                    "shards={shards}: deltas telescope to the absolutes"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        match call(&mut conn, &Frame::QueryCoverage) {
            Frame::CoverageReply {
                total,
                covered,
                issued,
            } => {
                assert_eq!(
                    (acc.total, acc.covered, acc.issued),
                    (signed(total), signed(covered), signed(issued)),
                    "shards={shards}"
                );
                assert_eq!(total, want.coverage.total, "shards={shards}");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        // Origin deltas sum to a straight per-function recount.
        let mut want_origins: HashMap<u32, i64> = HashMap::new();
        for r in &effective {
            *want_origins.entry(r.function.raw()).or_insert(0) += 1;
        }
        let got_origins: HashMap<u32, i64> = acc
            .origins
            .iter()
            .filter(|&(_, &n)| n != 0)
            .map(|(&id, &n)| (id, n))
            .collect();
        assert_eq!(got_origins, want_origins, "shards={shards}");

        // A quiescent connection's next delta is empty, at the same
        // watermark — the version fast path, observable as a no-op.
        let quiet = query_delta(&mut conn);
        assert!(quiet.is_empty(), "shards={shards}: {quiet:?}");
        assert_eq!(quiet.applied, records.len() as u64, "shards={shards}");

        shutdown(&mut conn);
        handle.join().expect("server thread").expect("server run");
    }
}

#[test]
fn delta_cursors_are_per_connection_and_carry_only_changes() {
    let records = seeded_records(0xd1f, 1000);
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut conn1 = connect(&addr);
    let mut conn2 = connect(&addr);

    ingest_all(&mut conn1, &records[..500], 100);
    // One comparator, snapshot at each cut — the 500-record prefix is
    // analyzed once, not re-analyzed for the 1000-record answer.
    let mut comparator = offline::Comparator::new(2, ShardConfig::default());
    comparator.push(&records[..500]);
    let want500 = comparator.expected(8);
    comparator.push(&records[500..]);
    let want1000 = comparator.expected(8);

    // First delta on each connection is absolute (fresh cursor), and
    // both connections see the same consistent cut.
    let d1a = query_delta(&mut conn1);
    assert_eq!(d1a.applied, 500);
    assert_eq!(d1a.non_repetitive, signed(want500.streams.non_repetitive));
    assert_eq!(
        d1a.distinct_streams,
        signed(want500.streams.distinct_streams)
    );
    assert_eq!(d1a.total, signed(want500.coverage.total));
    let d2a = query_delta(&mut conn2);
    assert_eq!(d2a, d1a, "independent cursors over the same cut agree");

    ingest_all(&mut conn1, &records[500..], 100);

    // Second delta carries only the change since each cursor's cut —
    // exactly the difference of the offline prefix answers.
    let d1b = query_delta(&mut conn1);
    assert_eq!(d1b.applied, 1000);
    assert_eq!(
        d1b.non_repetitive,
        signed(want1000.streams.non_repetitive) - signed(want500.streams.non_repetitive)
    );
    assert_eq!(
        d1b.new_stream,
        signed(want1000.streams.new_stream) - signed(want500.streams.new_stream)
    );
    assert_eq!(
        d1b.covered,
        signed(want1000.coverage.covered) - signed(want500.coverage.covered)
    );
    let d2b = query_delta(&mut conn2);
    assert_eq!(d2b, d1b, "same cursor position, same diff");

    // A connection opened late still gets the full absolute picture.
    let mut conn3 = connect(&addr);
    let d3 = query_delta(&mut conn3);
    assert_eq!(d3.applied, 1000);
    assert_eq!(d3.non_repetitive, signed(want1000.streams.non_repetitive));
    assert_eq!(d3.issued, signed(want1000.coverage.issued));

    shutdown(&mut conn1);
    handle.join().expect("server thread").expect("server run");
}

// --- satellite regressions ------------------------------------------------

/// Satellite 1: a metrics registry whose JSON exceeds the 1 MiB frame
/// cap used to trip the encoder's assert and kill the connection
/// thread. Now the snapshot arrives whole across continuation frames.
#[test]
fn oversized_metrics_snapshot_chunks_into_continuation_frames() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = Server::from_listener(listener, ServerConfig::default());
    let registry = server.registry();
    // Inflate the registry well past MAX_FRAME_BYTES of rendered JSON.
    for i in 0..24_000 {
        registry
            .counter(&format!(
                "inflate/{i:06}/abcdefghijklmnopqrstuvwxyz0123456789"
            ))
            .inc();
    }
    let handle = thread::spawn(move || server.run());

    let mut conn = connect(&addr);
    // The snapshot arrives whole, reassembled from continuations.
    match call(&mut conn, &Frame::QueryMetricsSnapshot) {
        Frame::MetricsReply(json) => {
            assert!(
                json.len() > MAX_FRAME_BYTES,
                "snapshot big enough to need continuations: {} bytes",
                json.len()
            );
            let parsed = tempstream_obsv::Json::parse(&json).expect("valid JSON");
            assert!(parsed
                .get_path("counters/inflate/000000/abcdefghijklmnopqrstuvwxyz0123456789")
                .is_some());
        }
        other => panic!("expected metrics reply, got {other:?}"),
    }

    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

/// Satellite 3: a panicking connection handler used to leak its
/// admission slot (`conns.active` never decremented), wedging a
/// `max_connections = 1` server forever. The drop guard frees the slot
/// even on unwind; the parked panic resurfaces when `run` exits.
#[test]
fn panicking_connection_handler_frees_its_slot() {
    let (addr, handle) = start_server(ServerConfig {
        max_connections: 1,
        fault_conn_panics: 1,
        ..ServerConfig::default()
    });
    // The first connection trips the injected panic on its first frame;
    // the server drops the connection without a reply.
    let mut victim = connect(&addr);
    victim.send(&Frame::QueryCoverage);
    assert!(
        victim.recv().is_err(),
        "panicked handler closes the connection unanswered"
    );
    drop(victim);

    // The only slot must come back: poll until a new connection is
    // admitted and answered (pre-fix this loops to exhaustion).
    let mut last = None;
    for _ in 0..200 {
        let mut conn = connect(&addr);
        match try_query(&mut conn) {
            Ok(frame) => {
                last = Some((conn, frame));
                break;
            }
            Err(()) => thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    let (mut conn, frame) = last.expect("slot freed after handler panic");
    assert!(matches!(frame, Frame::CoverageReply { .. }));
    shutdown(&mut conn);
    // The pool re-raises the handler's panic once the drain completes,
    // so the server thread reports the fault instead of hiding it.
    assert!(
        handle.join().is_err(),
        "injected handler panic resurfaces at run() exit"
    );
}

/// A shard worker that panics fails its lane instead of hanging the
/// server: every query — whether the worker died answering its cut
/// marker, the marker was queued behind the fatal batch, or it was
/// pushed after the lane failed — is answered `Error{ERR_SHARD_FAILED}`,
/// ingest routed to the dead shard gets the same error while ingest for
/// the live shard is still acked, the drain completes, and `run`
/// re-raises the panic. The client runs under a watchdog, so a hang
/// fails the test instead of stalling the run.
#[test]
fn panicked_shard_worker_fails_queries_instead_of_hanging() {
    let records = seeded_records(0xdead, 600);
    let lane = |shard: usize| -> Vec<_> {
        records
            .iter()
            .copied()
            .filter(|r| shard_of(r.block.raw(), 2) == shard)
            .collect()
    };
    let (to_dead, to_live) = (lane(0), lane(1));
    assert!(
        to_dead.len() >= 100 && to_live.len() >= 50,
        "both lanes fed"
    );
    // The worker of shard 0 dies on its lane's first item: a sub-batch
    // when ingest comes first, the cut marker when a query does.
    for query_first in [false, true] {
        let (addr, handle) = start_server(ServerConfig {
            shards: 2,
            fault_shard_panics: 1,
            ..ServerConfig::default()
        });
        let (to_dead, to_live) = (to_dead.clone(), to_live.clone());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let client = thread::spawn(move || {
            let expect_failed = |reply: Frame| match reply {
                Frame::Error { code, .. } => assert_eq!(code, ERR_SHARD_FAILED),
                other => panic!("expected a shard-failed error, got {other:?}"),
            };
            let mut conn = connect(&addr);
            if query_first {
                expect_failed(call(&mut conn, &Frame::QueryCoverage));
            } else {
                assert_eq!(
                    call(&mut conn, &Frame::Ingest(to_dead[..50].to_vec())),
                    Frame::IngestAck(50)
                );
            }
            for request in [
                Frame::QueryStreamFraction,
                Frame::QueryCoverage,
                Frame::QueryTopOrigins(3),
                Frame::QueryMetricsSnapshot,
            ] {
                expect_failed(call(&mut conn, &request));
            }
            expect_failed(call(&mut conn, &Frame::QueryDelta));
            expect_failed(call(&mut conn, &Frame::Ingest(to_dead[50..100].to_vec())));
            assert_eq!(
                call(&mut conn, &Frame::Ingest(to_live[..50].to_vec())),
                Frame::IngestAck(50),
                "the live shard keeps taking its own records"
            );
            shutdown(&mut conn);
            done_tx.send(()).expect("watchdog listening");
        });
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(30));
        assert!(
            !matches!(finished, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "client hung (query_first={query_first}): a dead shard worker \
             must fail queries, not block them"
        );
        client.join().expect("client assertions");
        assert!(
            handle.join().is_err(),
            "the shard worker's panic resurfaces at run() exit"
        );
    }
}

/// Every `DeltaReply` sits exactly at its watermark: while one
/// connection pipelines ingest, another polls `QueryDelta`, and after
/// each reply the accumulated deltas equal the offline answers over
/// exactly the first `applied` records in ack order — never a state
/// that already holds records past its watermark.
#[test]
fn every_delta_is_exact_at_its_watermark() {
    let records = seeded_records(0x3a7e, 3000);
    let total = records.len() as u64;
    for shards in [1usize, 2, 4] {
        let (addr, handle) = start_server(ServerConfig {
            shards,
            ..ServerConfig::default()
        });
        let poller = {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut conn = connect(&addr);
                let mut acc = DeltaAcc::default();
                let mut seen = Vec::new();
                loop {
                    acc.absorb(&query_delta(&mut conn));
                    seen.push(acc.clone());
                    if acc.applied == total {
                        break;
                    }
                }
                seen
            })
        };
        let mut conn = connect(&addr);
        let (effective, _) = ingest_pipelined(&mut conn, &records, 50, 8, usize::MAX);
        let seen = poller.join().expect("poller");
        let mut comparator = offline::Comparator::new(shards, ShardConfig::default());
        let mut origins: HashMap<u32, i64> = HashMap::new();
        for acc in &seen {
            let upto = usize::try_from(acc.applied).expect("watermark fits usize");
            let fresh = &effective[comparator.pushed() as usize..upto];
            for r in fresh {
                *origins.entry(r.function.raw()).or_insert(0) += 1;
            }
            comparator.push(fresh);
            let want = comparator.expected(0);
            let at = format!("shards={shards} applied={upto}");
            assert_eq!(
                (
                    acc.non_repetitive,
                    acc.new_stream,
                    acc.recurring_stream,
                    acc.distinct_streams
                ),
                (
                    signed(want.streams.non_repetitive),
                    signed(want.streams.new_stream),
                    signed(want.streams.recurring_stream),
                    signed(want.streams.distinct_streams)
                ),
                "{at}"
            );
            assert_eq!(
                (acc.total, acc.covered, acc.issued),
                (
                    signed(want.coverage.total),
                    signed(want.coverage.covered),
                    signed(want.coverage.issued)
                ),
                "{at}"
            );
            let got: HashMap<u32, i64> = acc
                .origins
                .iter()
                .filter(|&(_, &n)| n != 0)
                .map(|(&id, &n)| (id, n))
                .collect();
            assert_eq!(got, origins, "{at}");
        }
        shutdown(&mut conn);
        handle.join().expect("server thread").expect("server run");
    }
}

/// Satellite 4 (drain half): a client whose connect races the drain
/// used to be silently dropped; now it gets `Error{ERR_DRAINING}`.
#[test]
fn late_client_racing_the_drain_is_answered_not_ghosted() {
    // Hold the acceptor for 100ms after each accept so the test can
    // deterministically land a connect in the drain window.
    let (addr, handle) = start_server(ServerConfig {
        fault_accept_hold_ms: 100,
        ..ServerConfig::default()
    });
    let mut controller = connect(&addr);
    assert!(matches!(
        call(&mut controller, &Frame::QueryCoverage),
        Frame::CoverageReply { .. }
    ));
    // Park the acceptor in its hold: this connect is accepted (popping
    // the blocked accept), then the acceptor sleeps before looping.
    let _opener = TcpStream::connect(&addr).expect("connect opener");
    // Inside the hold window: start the drain, then race a connect in.
    let shutdown_seq = controller.send(&Frame::Shutdown);
    let mut late = connect(&addr);
    late.stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    match late.recv_unsolicited() {
        Frame::Error { code, .. } => assert_eq!(code, ERR_DRAINING),
        other => panic!("expected draining error, got {other:?}"),
    }
    let ack = controller.recv().expect("ack");
    assert_eq!(ack.seq, Some(shutdown_seq));
    assert_eq!(ack.frame, Frame::ShutdownAck);
    handle.join().expect("server thread").expect("server run");
}

/// Satellite 4 (metrics half): the snapshot's gauges are exported on
/// the same consistent cut as its counters — in-state records equal
/// applied records exactly, never a torn mid-ingest view.
#[test]
fn metrics_snapshot_gauges_sit_on_the_query_cut() {
    let records = seeded_records(0x4a4a, 2000);
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr);
    ingest_all(&mut conn, &records, 100);
    match call(&mut conn, &Frame::QueryMetricsSnapshot) {
        Frame::MetricsReply(json) => {
            let parsed = tempstream_obsv::Json::parse(&json).expect("valid JSON");
            let at = |path: &str| {
                parsed
                    .get_path(path)
                    .and_then(tempstream_obsv::Json::as_u64)
                    .unwrap_or_else(|| panic!("missing metric {path}"))
            };
            let applied = at("counters/serve/records/applied");
            let ingested = at("counters/serve/records/ingested");
            let in_state = at("gauges/serve/records/in_state");
            assert_eq!(applied, records.len() as u64);
            assert_eq!(ingested, applied, "the cut sits behind every acked frame");
            assert_eq!(in_state, applied, "gauges share the counters' cut");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

// --- version-keyed query caches (PR 9) ------------------------------------

/// Reads the grammar-walk gauge off a metrics snapshot: how many times
/// any shard actually re-walked its grammar for `StreamCounts`.
fn grammar_walks(conn: &mut Conn) -> u64 {
    match call(conn, &Frame::QueryMetricsSnapshot) {
        Frame::MetricsReply(json) => {
            let parsed = tempstream_obsv::Json::parse(&json).expect("valid JSON");
            parsed
                .get_path("gauges/serve/analysis/grammar_walks")
                .and_then(tempstream_obsv::Json::as_u64)
                .expect("grammar_walks gauge present")
        }
        other => panic!("unexpected metrics reply: {other:?}"),
    }
}

/// The version-keyed `StreamCounts` cache and the cursor's patched
/// origin merge must never serve a stale answer: interleave ingest
/// phases that move both shards, only shard 0, only shard 1, and both
/// again, checking every query type against the offline comparator at
/// each step — including repeated (pure cache-hit) queries.
#[test]
fn version_keyed_caches_never_serve_stale_answers_across_phases() {
    let all = seeded_records(0xcac4e, 1600);
    let shard0: Vec<_> = all
        .iter()
        .copied()
        .filter(|r| shard_of(r.block.raw(), 2) == 0)
        .collect();
    let shard1: Vec<_> = all
        .iter()
        .copied()
        .filter(|r| shard_of(r.block.raw(), 2) == 1)
        .collect();
    assert!(shard0.len() >= 100 && shard1.len() >= 100, "both lanes fed");

    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr);

    // Phase 1: both shards move. Phase 2: only shard 0 (shard 1's
    // cached counts must still be served, and still be right).
    // Phase 3: only shard 1. Phase 4: both again (every cache entry
    // invalidated at once).
    let phases: [&[MissRecord<MissClass>]; 4] =
        [&all[..400], &shard0[..150], &shard1[..150], &all[400..800]];
    let mut ingested: Vec<MissRecord<MissClass>> = Vec::new();
    let mut comparator = offline::Comparator::new(2, ShardConfig::default());
    for (phase, batch) in phases.iter().enumerate() {
        ingest_all(&mut conn, batch, 97);
        ingested.extend_from_slice(batch);
        comparator.push(batch);
        let want = comparator.expected(8);
        // Ask twice: the first answer may rebuild caches, the second
        // must be a pure cache hit — both must equal offline.
        for round in 0..2 {
            let ctx = format!("phase {phase} round {round}");
            match call(&mut conn, &Frame::QueryStreamFraction) {
                Frame::StreamFractionReply {
                    non_repetitive,
                    new_stream,
                    recurring_stream,
                    distinct_streams,
                } => assert_eq!(
                    (
                        non_repetitive,
                        new_stream,
                        recurring_stream,
                        distinct_streams
                    ),
                    (
                        want.streams.non_repetitive,
                        want.streams.new_stream,
                        want.streams.recurring_stream,
                        want.streams.distinct_streams
                    ),
                    "{ctx}"
                ),
                other => panic!("{ctx}: unexpected reply: {other:?}"),
            }
            match call(&mut conn, &Frame::QueryTopOrigins(8)) {
                Frame::TopOriginsReply(rows) => assert_eq!(rows, want.top_origins, "{ctx}"),
                other => panic!("{ctx}: unexpected reply: {other:?}"),
            }
            match call(&mut conn, &Frame::QueryCoverage) {
                Frame::CoverageReply {
                    total,
                    covered,
                    issued,
                } => assert_eq!(
                    (total, covered, issued),
                    (
                        want.coverage.total,
                        want.coverage.covered,
                        want.coverage.issued
                    ),
                    "{ctx}"
                ),
                other => panic!("{ctx}: unexpected reply: {other:?}"),
            }
        }
        // The cursor delta lands on the same cut, and a second probe
        // without ingest is empty (nothing stale left to flush).
        let d = query_delta(&mut conn);
        assert_eq!(d.applied, ingested.len() as u64, "phase {phase}");
        let quiet = query_delta(&mut conn);
        assert!(quiet.is_empty(), "phase {phase}: {quiet:?}");
    }

    // The comparator's grammar work is bounded by (partitions ×
    // phases), not (records × phases): each phase walks at most the
    // two partition grammars, and phases 2/3 walk only the one that
    // moved. The old from-scratch comparator rebuilt every grammar
    // from record zero on every one of the 8 query rounds above.
    assert_eq!(comparator.pushed(), ingested.len() as u64);
    assert!(
        comparator.grammar_walks() <= 2 * phases.len() as u64,
        "walks={}",
        comparator.grammar_walks()
    );

    // A fresh connection (fresh cursor, warm shard caches) sees the
    // same absolutes the offline comparator does.
    let want = comparator.expected(8);
    let mut conn2 = connect(&addr);
    match call(&mut conn2, &Frame::QueryTopOrigins(8)) {
        Frame::TopOriginsReply(rows) => assert_eq!(rows, want.top_origins),
        other => panic!("unexpected reply: {other:?}"),
    }

    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

/// The tentpole's O(changed shards) claim, asserted via the
/// `grammar_walks` gauge: delta probes after single-shard ingest walk
/// exactly one grammar, full queries only walk shards whose version
/// moved, and repeat queries walk nothing.
#[test]
fn delta_probe_walks_only_changed_shards() {
    let all = seeded_records(0x3a1d, 1200);
    let shard0: Vec<_> = all
        .iter()
        .copied()
        .filter(|r| shard_of(r.block.raw(), 2) == 0)
        .collect();
    let shard1: Vec<_> = all
        .iter()
        .copied()
        .filter(|r| shard_of(r.block.raw(), 2) == 1)
        .collect();
    assert!(shard0.len() >= 200 && shard1.len() >= 100, "both lanes fed");

    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr);

    // Hot shard 0, idle shard 1: the delta probe re-snapshots only the
    // shard whose version moved — one walk, not two.
    ingest_all(&mut conn, &shard0[..100], 50);
    assert!(!query_delta(&mut conn).is_empty());
    assert_eq!(
        grammar_walks(&mut conn),
        1,
        "first probe walks shard 0 only"
    );

    ingest_all(&mut conn, &shard0[100..200], 50);
    assert!(!query_delta(&mut conn).is_empty());
    assert_eq!(grammar_walks(&mut conn), 2, "hot-shard probes stay O(1)");

    // A full absolute query touches every shard, but shard 0's counts
    // are memoized at its current version — only idle shard 1's first
    // walk happens now.
    assert!(matches!(
        call(&mut conn, &Frame::QueryStreamFraction),
        Frame::StreamFractionReply { .. }
    ));
    assert_eq!(grammar_walks(&mut conn), 3, "full query walks only shard 1");

    // Nothing changed: repeats of either query shape walk nothing.
    assert!(matches!(
        call(&mut conn, &Frame::QueryStreamFraction),
        Frame::StreamFractionReply { .. }
    ));
    assert!(query_delta(&mut conn).is_empty());
    assert_eq!(
        grammar_walks(&mut conn),
        3,
        "quiescent queries are walk-free"
    );

    // Waking the other shard costs exactly one more walk.
    ingest_all(&mut conn, &shard1[..100], 50);
    assert!(!query_delta(&mut conn).is_empty());
    assert_eq!(
        grammar_walks(&mut conn),
        4,
        "shard 1's delta walks shard 1 only"
    );

    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn draining_server_refuses_new_ingest_but_acked_records_survive() {
    // Covered end-to-end by the shutdown paths above; here the focus
    // is that a post-shutdown server really exited (listener gone).
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = connect(&addr);
    ingest_all(&mut conn, &seeded_records(9, 64), 64);
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
    // The listener is closed once run() returns.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener closed after drain"
    );
}

// --- server-side accounting ------------------------------------------------

/// Takes a metrics snapshot and returns a reader of its integer leaves.
fn metrics(conn: &mut Conn) -> impl Fn(&str) -> u64 {
    let parsed = match call(conn, &Frame::QueryMetricsSnapshot) {
        Frame::MetricsReply(json) => tempstream_obsv::Json::parse(&json).expect("valid JSON"),
        other => panic!("unexpected metrics reply: {other:?}"),
    };
    move |path: &str| {
        parsed
            .get_path(path)
            .and_then(tempstream_obsv::Json::as_u64)
            .unwrap_or_else(|| panic!("missing metric {path}"))
    }
}

/// Every dispatched frame ends as exactly one outcome, so the outcome
/// counters add up to `frames/received`; a byte stream that never
/// decodes is counted apart and not received.
#[test]
fn frame_outcomes_add_up_to_frames_received() {
    use std::io::Write;
    let records = seeded_records(0xacc7, 3000);
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        // Tiny lanes, so some ingest frames may be refused with Busy.
        shard_queue_capacity: 1,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr);
    let (mut acks, mut busies) = (0u64, 0u64);
    for chunk in records.chunks(50) {
        loop {
            match call(&mut conn, &Frame::Ingest(chunk.to_vec())) {
                Frame::IngestAck(n) => {
                    assert_eq!(n as usize, chunk.len());
                    acks += 1;
                    break;
                }
                Frame::Busy => busies += 1,
                other => panic!("unexpected ingest reply: {other:?}"),
            }
        }
    }
    let mut queries = 0u64;
    for request in [
        Frame::QueryStreamFraction,
        Frame::QueryCoverage,
        Frame::QueryTopOrigins(4),
    ] {
        call(&mut conn, &request);
        queries += 1;
    }
    query_delta(&mut conn);
    queries += 1;

    // A reply-direction frame: dispatched, answered with an error.
    let mut wrong = connect(&addr);
    match call(&mut wrong, &Frame::Busy) {
        Frame::Error { code, .. } => assert_eq!(code, ERR_BAD_FRAME),
        other => panic!("expected error frame, got {other:?}"),
    }
    // Garbage: never decodes, so never dispatched.
    let mut garbage = connect(&addr);
    garbage
        .stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send");
    garbage.stream.write_all(&[0xAA; 32]).expect("send");
    assert!(matches!(garbage.recv_unsolicited(), Frame::Error { .. }));

    let at = metrics(&mut conn);
    queries += 1; // the snapshot itself
    let received = at("counters/serve/frames/received");
    assert_eq!(at("counters/serve/frames/acked"), acks);
    assert_eq!(at("counters/serve/frames/busy"), busies);
    assert_eq!(at("counters/serve/frames/errors"), 1);
    assert_eq!(at("counters/serve/frames/shutdown"), 0);
    assert_eq!(at("counters/serve/frames/decode_errors"), 1);
    assert_eq!(at("counters/serve/queries"), queries);
    assert_eq!(received, acks + busies + 1 + queries);
    // Every client here waits for each reply before sending again.
    assert_eq!(at("gauges/serve/conn/max_frames_per_read"), 1);
    assert_eq!(
        received,
        at("counters/serve/frames/acked")
            + at("counters/serve/frames/busy")
            + at("counters/serve/frames/errors")
            + at("counters/serve/queries")
            + at("counters/serve/frames/shutdown"),
        "frame outcomes must add up to the frames received"
    );
    assert_eq!(
        at("counters/serve/records/ingested"),
        at("counters/serve/records/applied")
    );
    assert_eq!(at("counters/serve/records/ingested"), records.len() as u64);
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}

/// Each consistent cut records one answer-time sample per shard and
/// one merge-time sample, after its merge: a snapshot taken after N
/// cut queries shows N samples in each histogram.
#[test]
fn every_consistent_cut_is_timed() {
    let records = seeded_records(0xc07, 1200);
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(&addr);
    let mut cuts = 0u64;
    for chunk in records.chunks(300) {
        ingest_all(&mut conn, chunk, 100);
        call(&mut conn, &Frame::QueryStreamFraction);
        call(&mut conn, &Frame::QueryCoverage);
        call(&mut conn, &Frame::QueryTopOrigins(3));
        query_delta(&mut conn);
        cuts += 4;
    }
    // A metrics snapshot is a cut too; it shows the cuts before it.
    let at = metrics(&mut conn);
    assert_eq!(at("histograms/serve/query/shard0/answer_us/count"), cuts);
    assert_eq!(at("histograms/serve/query/shard1/answer_us/count"), cuts);
    assert_eq!(at("histograms/serve/query/merge_us/count"), cuts);
    cuts += 1;
    let at = metrics(&mut conn);
    assert_eq!(at("histograms/serve/query/shard0/answer_us/count"), cuts);
    assert_eq!(at("histograms/serve/query/shard1/answer_us/count"), cuts);
    assert_eq!(at("histograms/serve/query/merge_us/count"), cuts);
    shutdown(&mut conn);
    handle.join().expect("server thread").expect("server run");
}
