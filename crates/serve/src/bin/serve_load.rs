//! `serve-load`: the in-tree load generator and verification client.
//!
//! Replays a seeded workload trace over N connections against a
//! running `serve` instance and records per-frame ingest latency in an
//! obsv histogram. Each connection keeps up to `--window W` frames in
//! flight (default 1), matching replies to requests by their echoed
//! sequence id, and retries `Busy` backpressure replies with one
//! exponential-backoff pause per refused burst.
//!
//! With `--verify` it checks the answers against the offline batch
//! comparator ([`tempstream_serve::offline::expected`]). With a single
//! connection the check is **bit-exact**: the effective ingest order is
//! reconstructed from the ack order (replies are FIFO per connection,
//! so ack order *is* admission order), and incremental `QueryDelta`
//! frames interleaved into the ingest must telescope to the absolute
//! answers. With several connections it checks the order-independent
//! answers (totals and top origins). Emits a JSON summary (client
//! latency + the server's full metrics snapshot) on stdout and
//! optionally to `--metrics-out`.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tempstream_core::ExperimentConfig;
use tempstream_obsv::{Histogram, Json, Registry};
use tempstream_serve::offline;
use tempstream_serve::wire::{write_message, DeltaCounts, Frame, Message, MessageReader};
use tempstream_serve::ShardConfig;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;
use tempstream_workloads::Workload;

const USAGE: &str = "usage: serve-load --addr HOST:PORT [--workload NAME] [--seed N] \
     [--connections N] [--batch N] [--bytes N] [--window N] [--shards N] [--top N] \
     [--verify] [--shutdown] [--metrics-out PATH]";

/// Encoded bytes per record on the wire (header excluded).
const RECORD_BYTES: usize = tempstream_trace::io::RECORD_BYTES;

/// A verifying connection interleaves one `QueryDelta` after this many
/// ingest acks, so delta cursors move mid-ingest. Each
/// probe stalls the window until every shard worker reaches its cut
/// marker and answers, so they are spaced widely — enough to exercise the cursor
/// across several cuts without dominating the soak's throughput.
const DELTA_EVERY: usize = 48;

struct Args {
    addr: String,
    workload: Workload,
    seed: u64,
    connections: usize,
    batch: usize,
    bytes: usize,
    window: usize,
    shards: usize,
    top: u16,
    verify: bool,
    shutdown: bool,
    metrics_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        workload: Workload::Apache,
        seed: 7,
        connections: 1,
        batch: 256,
        bytes: 256 * 1024,
        window: 1,
        shards: 1,
        top: 8,
        verify: false,
        shutdown: false,
        metrics_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => out.addr = take("--addr")?,
            "--workload" => {
                let name = take("--workload")?;
                out.workload = Workload::ALL
                    .into_iter()
                    .find(|w| w.name().eq_ignore_ascii_case(&name))
                    .ok_or_else(|| format!("unknown workload {name}"))?;
            }
            "--seed" => out.seed = parse_num(&take("--seed")?, "--seed")? as u64,
            "--connections" => {
                out.connections = parse_num(&take("--connections")?, "--connections")?;
            }
            "--batch" => out.batch = parse_num(&take("--batch")?, "--batch")?,
            "--bytes" => out.bytes = parse_num(&take("--bytes")?, "--bytes")?,
            "--window" => out.window = parse_num(&take("--window")?, "--window")?,
            "--shards" => out.shards = parse_num(&take("--shards")?, "--shards")?,
            "--top" => out.top = parse_num(&take("--top")?, "--top")? as u16,
            "--verify" => out.verify = true,
            "--shutdown" => out.shutdown = true,
            "--metrics-out" => out.metrics_out = Some(take("--metrics-out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if out.addr.is_empty() {
        return Err(format!("--addr is required\n{USAGE}"));
    }
    if out.connections == 0 || out.batch == 0 || out.window == 0 {
        return Err("--connections, --batch, and --window must be at least 1".to_string());
    }
    Ok(out)
}

fn parse_num(s: &str, what: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{what}: not a number: {s}"))
}

fn signed(x: u64) -> i64 {
    i64::try_from(x).expect("counter fits i64")
}

/// The frame of `reply` if it answers request `seq`. A reply without a
/// sequence id is one of the server's connection-level frames (a
/// refused connection, the drain, a bad frame), reported as that error.
fn answer_to(seq: u32, reply: Message) -> Result<Frame, String> {
    match reply {
        Message {
            seq: Some(echoed),
            frame,
        } if echoed == seq => Ok(frame),
        Message {
            seq: Some(echoed), ..
        } => Err(format!(
            "seq echo mismatch: oldest in-flight is {seq}, reply carries {echoed}"
        )),
        Message {
            seq: None,
            frame: Frame::Error { code, message },
        } => Err(format!("server error {code}: {message}")),
        Message { seq: None, frame } => Err(format!("server refused the connection: {frame:?}")),
    }
}

/// The control connection: one request at a time over one sequence
/// counter.
struct Control {
    stream: TcpStream,
    reader: MessageReader,
    next_seq: u32,
}

impl Control {
    fn connect(addr: &str) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Control {
            stream,
            reader: MessageReader::new(),
            next_seq: 1,
        })
    }

    /// One request/reply exchange; checks the seq echo.
    fn call(&mut self, request: &Frame) -> Result<Frame, String> {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        write_message(&mut self.stream, Some(seq), request).map_err(|e| format!("send: {e}"))?;
        let reply = self
            .reader
            .next_from(&mut self.stream)
            .map_err(|e| format!("recv: {e}"))?;
        answer_to(seq, reply)
    }
}

/// Accumulated `QueryDelta` replies: i64 sums telescope to the
/// absolute counters of the last cut.
#[derive(Default)]
struct DeltaAcc {
    non_repetitive: i64,
    new_stream: i64,
    recurring_stream: i64,
    distinct_streams: i64,
    total: i64,
    covered: i64,
    issued: i64,
    origins: HashMap<u32, i64>,
    /// Applied watermark of the last delta reply (absolute).
    applied: u64,
    queries: u64,
}

impl DeltaAcc {
    fn absorb(&mut self, d: &DeltaCounts) {
        self.non_repetitive += d.non_repetitive;
        self.new_stream += d.new_stream;
        self.recurring_stream += d.recurring_stream;
        self.distinct_streams += d.distinct_streams;
        self.total += d.total;
        self.covered += d.covered;
        self.issued += d.issued;
        for &(function, delta) in &d.origins {
            *self.origins.entry(function).or_insert(0) += delta;
        }
        self.applied = d.applied;
        self.queries += 1;
    }

    /// The accumulated origin counts as a top-`n` list, same total
    /// order the server and comparator use (count desc, id asc).
    fn top_origins(&self, n: usize) -> Result<Vec<(u32, u64)>, String> {
        let mut rows = Vec::with_capacity(self.origins.len());
        for (&function, &count) in &self.origins {
            let count = u64::try_from(count)
                .map_err(|_| format!("accumulated origin count negative: fn {function}"))?;
            if count > 0 {
                rows.push((function, count));
            }
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        Ok(rows)
    }
}

/// What one connection did: busy retries, the batch indices in ack
/// order (the effective admission order), and any accumulated deltas.
struct ConnOutcome {
    retries: u64,
    acked: Vec<usize>,
    deltas: Option<DeltaAcc>,
}

/// What a pipelined request slot is waiting for.
enum InFlight {
    Ingest(usize),
    Delta,
}

/// Busy handling for a pipelined connection. A full shard lane refuses a
/// whole run of in-flight frames at once; the connection stops sending
/// while that burst's replies come back, pauses once, then resends the
/// refused frames first, in their original order. The pause doubles
/// (1 → 100 ms) with each consecutive refused burst and resets on an ack.
#[derive(Debug)]
struct BurstBackoff {
    refused: Vec<usize>,
    pause: Duration,
}

impl BurstBackoff {
    const FIRST: Duration = Duration::from_millis(1);
    const MAX: Duration = Duration::from_millis(100);

    fn new() -> Self {
        BurstBackoff {
            refused: Vec::new(),
            pause: Self::FIRST,
        }
    }

    /// Whether a refused burst is outstanding (send nothing new).
    fn holding(&self) -> bool {
        !self.refused.is_empty()
    }

    fn refuse(&mut self, idx: usize) {
        self.refused.push(idx);
    }

    fn ack(&mut self) {
        self.pause = Self::FIRST;
    }

    /// Ends the outstanding burst once every frame sent before it has
    /// replied: puts the refused frames back at the front of `pending` in
    /// their original order and returns how long to pause first.
    fn end_burst(&mut self, pending: &mut VecDeque<usize>) -> Option<Duration> {
        if self.refused.is_empty() {
            return None;
        }
        for idx in self.refused.drain(..).rev() {
            pending.push_front(idx);
        }
        let pause = self.pause;
        self.pause = (self.pause * 2).min(Self::MAX);
        Some(pause)
    }
}

/// Replays `batches` on one connection with up to `window` frames in
/// flight. Replies are FIFO per connection, so each reply is matched
/// against the oldest in-flight request and its seq echo is asserted.
/// `Busy` batches are re-queued at the front in their original order
/// (new sequence ids) after one pause per refused burst
/// ([`BurstBackoff`]). When `with_deltas` is set, a `QueryDelta` is
/// interleaved every [`DELTA_EVERY`] acks plus once at the end, and
/// the accumulated deltas are returned for verification.
fn run_connection_pipelined(
    addr: &str,
    batches: &[Vec<MissRecord<MissClass>>],
    window: usize,
    with_deltas: bool,
    latency: &Histogram,
) -> Result<ConnOutcome, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    // Replies coalesce into shared TCP segments; a persistent reader
    // keeps the ones buffered past the message being returned.
    let mut reader = MessageReader::new();
    let mut pending: VecDeque<usize> = (0..batches.len()).collect();
    let mut in_flight: VecDeque<(u32, InFlight, Instant)> = VecDeque::new();
    let mut next_seq = 1u32;
    let mut retries = 0u64;
    let mut acked = Vec::with_capacity(batches.len());
    let mut deltas = DeltaAcc::default();
    let mut busy = BurstBackoff::new();
    let mut acks_since_delta = 0usize;
    let mut delta_due = false;

    loop {
        if in_flight.is_empty() {
            if let Some(pause) = busy.end_burst(&mut pending) {
                // Let the shard lanes drain before refilling the window.
                std::thread::sleep(pause);
            }
        }
        // Fill the window: a due delta query slots in before the next
        // ingest frame (cuts are taken mid-stream, not just at the end).
        while in_flight.len() < window && !busy.holding() {
            let request = if delta_due {
                delta_due = false;
                InFlight::Delta
            } else if let Some(idx) = pending.pop_front() {
                InFlight::Ingest(idx)
            } else {
                break;
            };
            let frame = match &request {
                InFlight::Ingest(idx) => Frame::Ingest(batches[*idx].clone()),
                InFlight::Delta => Frame::QueryDelta,
            };
            write_message(&mut stream, Some(next_seq), &frame).map_err(|e| format!("send: {e}"))?;
            in_flight.push_back((next_seq, request, Instant::now()));
            next_seq = next_seq.wrapping_add(1);
        }
        let Some((seq, request, start)) = in_flight.pop_front() else {
            break;
        };
        let reply = reader
            .next_from(&mut stream)
            .map_err(|e| format!("recv: {e}"))?;
        match (request, answer_to(seq, reply)?) {
            (InFlight::Ingest(idx), Frame::IngestAck(n)) => {
                if n as usize != batches[idx].len() {
                    return Err(format!("short ack: {n} of {}", batches[idx].len()));
                }
                latency.record(start.elapsed().as_micros() as u64);
                acked.push(idx);
                busy.ack();
                if with_deltas {
                    acks_since_delta += 1;
                    if acks_since_delta >= DELTA_EVERY {
                        acks_since_delta = 0;
                        delta_due = true;
                    }
                }
            }
            (InFlight::Ingest(idx), Frame::Busy) => {
                retries += 1;
                busy.refuse(idx);
            }
            (InFlight::Delta, Frame::DeltaReply(d)) => deltas.absorb(&d),
            (_, Frame::Error { code, message }) => {
                return Err(format!("server error {code}: {message}"));
            }
            (_, other) => return Err(format!("unexpected reply: {other:?}")),
        }
    }
    if with_deltas {
        // Final cut after every ack: the accumulated deltas now
        // telescope to the absolute answers. Read through the same
        // persistent reader in case it still buffers bytes.
        write_message(&mut stream, Some(next_seq), &Frame::QueryDelta)
            .map_err(|e| format!("send: {e}"))?;
        let reply = reader
            .next_from(&mut stream)
            .map_err(|e| format!("recv: {e}"))?;
        match answer_to(next_seq, reply)? {
            Frame::DeltaReply(d) => deltas.absorb(&d),
            other => return Err(format!("unexpected delta reply: {other:?}")),
        }
    }
    Ok(ConnOutcome {
        retries,
        acked,
        deltas: with_deltas.then_some(deltas),
    })
}

fn mismatch(what: &str, got: impl std::fmt::Debug, want: impl std::fmt::Debug) -> String {
    format!("verify mismatch: {what}: got {got:?}, want {want:?}")
}

/// Queries the server's absolute answers and checks them against the
/// offline comparator.
fn verify_absolute(
    control: &mut Control,
    want: &offline::Expected,
    top_n: u16,
    exact: bool,
) -> Result<(), String> {
    let streams = match control.call(&Frame::QueryStreamFraction)? {
        Frame::StreamFractionReply {
            non_repetitive,
            new_stream,
            recurring_stream,
            distinct_streams,
        } => (
            non_repetitive,
            new_stream,
            recurring_stream,
            distinct_streams,
        ),
        other => return Err(format!("unexpected streams reply: {other:?}")),
    };
    let coverage = match control.call(&Frame::QueryCoverage)? {
        Frame::CoverageReply {
            total,
            covered,
            issued,
        } => (total, covered, issued),
        other => return Err(format!("unexpected coverage reply: {other:?}")),
    };
    let top = match control.call(&Frame::QueryTopOrigins(top_n))? {
        Frame::TopOriginsReply(rows) => rows,
        other => return Err(format!("unexpected top-origins reply: {other:?}")),
    };
    if exact {
        let got = (streams.0, streams.1, streams.2, streams.3);
        let want_streams = (
            want.streams.non_repetitive,
            want.streams.new_stream,
            want.streams.recurring_stream,
            want.streams.distinct_streams,
        );
        if got != want_streams {
            return Err(mismatch("stream fraction", got, want_streams));
        }
        let want_cov = (
            want.coverage.total,
            want.coverage.covered,
            want.coverage.issued,
        );
        if coverage != want_cov {
            return Err(mismatch("coverage", coverage, want_cov));
        }
    } else {
        // Interleaved connections: per-shard arrival order is not the
        // trace order, so only order-independent answers are pinned.
        let got_total = streams.0 + streams.1 + streams.2;
        let want_total =
            want.streams.non_repetitive + want.streams.new_stream + want.streams.recurring_stream;
        if got_total != want_total {
            return Err(mismatch("labeled miss total", got_total, want_total));
        }
        if coverage.0 != want.coverage.total {
            return Err(mismatch("coverage total", coverage.0, want.coverage.total));
        }
    }
    if top != want.top_origins {
        return Err(mismatch("top origins", &top, &want.top_origins));
    }
    Ok(())
}

/// Exercises the delta protocol on the control connection: its first
/// `QueryDelta` is absolute (delta from the empty cursor), the second
/// must be all-zero at the same watermark.
fn verify_delta_control(
    control: &mut Control,
    want: &offline::Expected,
    top_n: u16,
    exact: bool,
    sent_records: u64,
) -> Result<(), String> {
    let first = match control.call(&Frame::QueryDelta)? {
        Frame::DeltaReply(d) => d,
        other => return Err(format!("unexpected delta reply: {other:?}")),
    };
    if first.applied != sent_records {
        return Err(mismatch(
            "delta applied watermark",
            first.applied,
            sent_records,
        ));
    }
    let mut acc = DeltaAcc::default();
    acc.absorb(&first);
    check_delta_acc(&acc, want, top_n, exact, sent_records)?;
    let second = match control.call(&Frame::QueryDelta)? {
        Frame::DeltaReply(d) => d,
        other => return Err(format!("unexpected delta reply: {other:?}")),
    };
    if !second.is_empty() || second.applied != first.applied {
        return Err(mismatch("quiescent delta", &second, "all-zero delta"));
    }
    Ok(())
}

/// Checks accumulated deltas against the offline comparator: i64 sums
/// must telescope exactly to the absolute answers.
fn check_delta_acc(
    acc: &DeltaAcc,
    want: &offline::Expected,
    top_n: u16,
    exact: bool,
    sent_records: u64,
) -> Result<(), String> {
    if acc.applied != sent_records {
        return Err(mismatch(
            "delta applied watermark",
            acc.applied,
            sent_records,
        ));
    }
    if exact {
        let got = (
            acc.non_repetitive,
            acc.new_stream,
            acc.recurring_stream,
            acc.distinct_streams,
        );
        let want_streams = (
            signed(want.streams.non_repetitive),
            signed(want.streams.new_stream),
            signed(want.streams.recurring_stream),
            signed(want.streams.distinct_streams),
        );
        if got != want_streams {
            return Err(mismatch("delta stream fraction", got, want_streams));
        }
        let got_cov = (acc.total, acc.covered, acc.issued);
        let want_cov = (
            signed(want.coverage.total),
            signed(want.coverage.covered),
            signed(want.coverage.issued),
        );
        if got_cov != want_cov {
            return Err(mismatch("delta coverage", got_cov, want_cov));
        }
    } else {
        let got_total = acc.non_repetitive + acc.new_stream + acc.recurring_stream;
        let want_total = signed(
            want.streams.non_repetitive + want.streams.new_stream + want.streams.recurring_stream,
        );
        if got_total != want_total {
            return Err(mismatch("delta labeled miss total", got_total, want_total));
        }
        if acc.total != signed(want.coverage.total) {
            return Err(mismatch(
                "delta coverage total",
                acc.total,
                want.coverage.total,
            ));
        }
    }
    let got_top = acc.top_origins(top_n as usize)?;
    if got_top != want.top_origins {
        return Err(mismatch("delta top origins", &got_top, &want.top_origins));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Seeded workload replay: simulate once, then cycle the trace to
    // fill the byte budget.
    let cfg = ExperimentConfig::quick().with_seed(args.seed);
    let (trace, _symbols) = tempstream_core::stages::collect_multi_chip(&cfg, args.workload);
    if trace.is_empty() {
        return Err("workload produced an empty trace".to_string());
    }
    let total_records = (args.bytes / RECORD_BYTES).max(1);
    let source = trace.records();
    let sent: Vec<MissRecord<MissClass>> = (0..total_records)
        .map(|i| source[i % source.len()])
        .collect();
    let batches: Vec<Vec<MissRecord<MissClass>>> = sent
        .chunks(args.batch)
        .map(<[MissRecord<MissClass>]>::to_vec)
        .collect();

    // Round-robin batch assignment across connections.
    let mut per_conn: Vec<Vec<Vec<MissRecord<MissClass>>>> = vec![Vec::new(); args.connections];
    for (i, batch) in batches.iter().enumerate() {
        per_conn[i % args.connections].push(batch.clone());
    }

    // Inline deltas ride the ingest connection only when their
    // accumulated answer is checkable (single connection, verifying).
    let inline_deltas = args.verify && args.connections == 1;

    let registry = Registry::new();
    let latency = registry.histogram("load/ingest_latency_us");
    let started = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|batches| {
                let latency = latency.clone();
                let addr = args.addr.as_str();
                let window = args.window;
                scope.spawn(move || {
                    run_connection_pipelined(addr, batches, window, inline_deltas, &latency)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed = started.elapsed();
    let busy_retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    let delta_queries: u64 = outcomes
        .iter()
        .filter_map(|o| o.deltas.as_ref())
        .map(|d| d.queries)
        .sum();

    // Effective ingest order: with one connection, the ack order is the
    // admission order (FIFO replies), so the comparator runs over the
    // batches in exactly their admission order.
    let effective: Vec<MissRecord<MissClass>> = if args.connections == 1 {
        outcomes[0]
            .acked
            .iter()
            .flat_map(|&i| batches[i].iter().copied())
            .collect()
    } else {
        sent.clone()
    };

    let mut control = Control::connect(&args.addr)?;
    let verify_mode = if args.verify {
        let exact = args.connections == 1;
        let want = offline::expected(
            &effective,
            args.shards,
            ShardConfig::default(),
            args.top as usize,
        );
        verify_absolute(&mut control, &want, args.top, exact)?;
        verify_delta_control(&mut control, &want, args.top, exact, sent.len() as u64)?;
        if let Some(acc) = outcomes.iter().find_map(|o| o.deltas.as_ref()) {
            check_delta_acc(acc, &want, args.top, exact, sent.len() as u64)?;
        }
        if exact {
            "exact"
        } else {
            "totals"
        }
    } else {
        "skipped"
    };

    let metrics = match control.call(&Frame::QueryMetricsSnapshot)? {
        Frame::MetricsReply(json) => {
            Json::parse(&json).map_err(|e| format!("bad metrics snapshot json: {e:?}"))?
        }
        other => return Err(format!("unexpected metrics reply: {other:?}")),
    };

    if args.shutdown {
        match control.call(&Frame::Shutdown)? {
            Frame::ShutdownAck => {}
            other => return Err(format!("unexpected shutdown reply: {other:?}")),
        }
    }

    let mut summary = Json::obj();
    summary.set("verify", Json::Str(verify_mode.to_string()));
    summary.set("workload", Json::Str(args.workload.name().to_string()));
    summary.set("connections", Json::UInt(args.connections as u64));
    summary.set("window", Json::UInt(args.window as u64));
    summary.set("sent_records", Json::UInt(sent.len() as u64));
    summary.set("sent_bytes", Json::UInt((sent.len() * RECORD_BYTES) as u64));
    summary.set("busy_retries", Json::UInt(busy_retries));
    summary.set("delta_queries", Json::UInt(delta_queries));
    summary.set("elapsed_us", Json::UInt(elapsed.as_micros() as u64));
    summary.set(
        "records_per_sec",
        Json::Float(sent.len() as f64 / elapsed.as_secs_f64().max(1e-9)),
    );
    summary.set("load", registry.snapshot());
    summary.set("metrics", metrics);
    let rendered = summary.render();
    println!("{rendered}");
    if let Some(path) = &args.metrics_out {
        let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        file.write_all(rendered.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve-load: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_burst_pauses_once_and_resends_in_order() {
        let mut busy = BurstBackoff::new();
        let mut pending: VecDeque<usize> = (8..12).collect();
        assert_eq!(busy.end_burst(&mut pending), None, "no burst, no pause");
        // A window of eight frames, all refused.
        for idx in 0..8 {
            busy.refuse(idx);
        }
        assert!(busy.holding());
        assert_eq!(busy.end_burst(&mut pending), Some(Duration::from_millis(1)));
        assert!(!busy.holding());
        assert_eq!(pending, (0..12).collect::<VecDeque<_>>());
    }

    #[test]
    fn the_pause_doubles_per_burst_up_to_its_cap_and_resets_on_ack() {
        let mut busy = BurstBackoff::new();
        let mut pending = VecDeque::new();
        let mut pauses = Vec::new();
        for _ in 0..9 {
            busy.refuse(0);
            busy.refuse(1);
            pauses.push(busy.end_burst(&mut pending).unwrap().as_millis());
        }
        assert_eq!(pauses, [1, 2, 4, 8, 16, 32, 64, 100, 100]);
        busy.ack();
        busy.refuse(0);
        assert_eq!(busy.end_burst(&mut pending), Some(Duration::from_millis(1)));
    }
}
