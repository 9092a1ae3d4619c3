//! The serve workloads: one paper-scale trace replayed into a fresh
//! two-shard server per pass, answers checked against the offline
//! comparator, plus per-layer probes of the server's crates.

use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use tempstream_core::engine::EngineConfig;
use tempstream_core::AnalysisEngine;
use tempstream_obsv::Json;
use tempstream_serve::offline::{self, Expected};
use tempstream_serve::shard::{shard_of, ShardConfig};
use tempstream_serve::wire::{encode_message, Frame, MessageAssembler};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;
use tempstream_workloads::Workload;

use crate::load::{self, ms, Conn, EncodedFrames, IngestOutcome, Schedule, ServerProc};
use crate::report::Report;

/// Analysis shards of the server under test.
pub const SHARDS: usize = 2;
/// Records per ingest frame.
pub const FRAME_RECORDS: usize = 1024;
/// Frames in flight on the closed-loop ingest connection. With 8, about
/// 40% of frames are acked at once (under 1 ms) and the rest wait out a
/// `Busy` pause (3 ms and more), so the ack p50 sat on the jump between
/// the two and flipped with host speed; with 16 the frames admitted at
/// once queue behind more frames, the two groups overlap, and the
/// throughput is the same.
pub const INGEST_WINDOW: usize = 16;
/// Open-loop ingest rate of `serve-mixed`, records per second.
pub const MIXED_RATE: f64 = 400_000.0;
/// Most frames in flight on the open-loop ingest connection.
pub const MIXED_WINDOW: usize = 32;
/// Dashboard refresh period: probes go out on this grid, skipping grid
/// points while a reply is outstanding. A fixed think time instead (10
/// ms) placed probes at random points of the pass, where the walk cost
/// grows with history, and the query p50 spread 43% over six runs.
pub const REFRESH: Duration = Duration::from_millis(100);
/// Pause after a `Busy` reply before the client sends again.
pub const BUSY_PAUSE: Duration = Duration::from_millis(2);
/// Rows of the top-origins answer that are checked.
pub const TOP_N: u16 = 8;

/// The two serve traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Writes only: closed-loop replay at full speed.
    Ingest,
    /// Open-loop replay at [`MIXED_RATE`] beside a polling dashboard.
    Mixed,
}

impl Mode {
    fn schedule(self) -> Schedule {
        match self {
            Mode::Ingest => Schedule {
                interval: None,
                window: INGEST_WINDOW,
                busy_pause: BUSY_PAUSE,
            },
            Mode::Mixed => Schedule {
                interval: Some(Duration::from_secs_f64(FRAME_RECORDS as f64 / MIXED_RATE)),
                window: MIXED_WINDOW,
                busy_pause: BUSY_PAUSE,
            },
        }
    }
}

/// The replayed trace, generated from the seed.
pub struct Input {
    /// DB2's paper-scale multi-chip miss trace.
    pub records: Vec<MissRecord<MissClass>>,
    /// The same records as encoded ingest frames.
    pub frames: EncodedFrames,
}

/// Simulates DB2 on the paper's 16-node DSM and encodes its miss trace.
pub fn generate(seed: u64) -> Result<Input, String> {
    let cfg = crate::batch::paper_config(seed);
    let (trace, _symbols) = tempstream_core::stages::collect_multi_chip(&cfg, Workload::Oltp);
    let records = trace.records().to_vec();
    if records.is_empty() {
        return Err("DB2 produced an empty miss trace".to_string());
    }
    let frames = EncodedFrames::encode(&records, FRAME_RECORDS)?;
    Ok(Input { records, frames })
}

/// What a `SHARDS`-way server must answer after admitting the frames
/// of `input` in `order`.
fn expected_for_order(input: &Input, order: &[usize]) -> Expected {
    let frames: Vec<&[MissRecord<MissClass>]> = input.records.chunks(FRAME_RECORDS).collect();
    let ordered: Vec<MissRecord<MissClass>> =
        order.iter().flat_map(|&f| frames[f]).copied().collect();
    offline::expected(&ordered, SHARDS, ShardConfig::default(), TOP_N as usize)
}

/// What one pass measured.
pub struct Pass {
    /// First frame due to the final consistent answer.
    pub wall: Duration,
    /// Server CPU time over the whole pass.
    pub server_cpu: Duration,
    /// Server peak resident memory, MiB.
    pub rss_mib: f64,
    /// The ingest replay.
    pub ingest: IngestOutcome,
    /// Dashboard probe latencies (empty for [`Mode::Ingest`]).
    pub query_ms: Vec<f64>,
    /// The server's metrics snapshot at the end of the pass.
    pub snapshot: Json,
}

/// Replays the trace once into `server` (a fresh server), takes the
/// final consistent answer, checks every answer, and shuts it down.
pub fn run_pass(
    input: &Input,
    mode: Mode,
    server: ServerProc,
    report: &mut Report,
) -> Result<Pass, String> {
    let pid = server.pid();
    let mut conn = Conn::connect(server.addr)?;
    let stop = AtomicBool::new(false);
    let cpu_before = crate::procfs::cpu_time(pid)?;
    let start = Instant::now();
    let (timed, dash) = std::thread::scope(|s| {
        let dash = (mode == Mode::Mixed).then(|| {
            let addr = server.addr;
            let stop = &stop;
            s.spawn(move || load::dashboard(addr, REFRESH, stop))
        });
        let timed = (|| {
            let ingest = load::drive_ingest(&mut conn, &input.frames, mode.schedule(), start)?;
            let streams = conn.call(&Frame::QueryStreamFraction)?;
            let wall = start.elapsed();
            let cpu = crate::procfs::cpu_time(pid)?.saturating_sub(cpu_before);
            Ok::<_, String>((ingest, streams, wall, cpu))
        })();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let dash = dash.map(|h| h.join().expect("dashboard thread panicked"));
        (timed, dash)
    });
    let (ingest, final_streams, wall, server_cpu) = timed?;
    let dash = dash.transpose()?;
    report.succeeded(ingest.sends + 1);

    // Outside the timed window: the remaining answers and the counters.
    let coverage = conn.call(&Frame::QueryCoverage)?;
    let top = conn.call(&Frame::QueryTopOrigins(TOP_N))?;
    let snapshot = match conn.call(&Frame::QueryMetricsSnapshot)? {
        Frame::MetricsReply(text) => {
            Json::parse(&text).map_err(|e| format!("metrics snapshot: {e:?}"))?
        }
        other => return Err(format!("unexpected metrics reply: {other:?}")),
    };
    let rss_mib = crate::procfs::peak_rss_mib(pid)?;
    drop(conn);
    server.shutdown()?;

    let want = expected_for_order(input, &ingest.ack_order);
    let sent = input.records.len() as u64;
    let w = &want.streams;
    report.check(
        final_streams
            == Frame::StreamFractionReply {
                non_repetitive: w.non_repetitive,
                new_stream: w.new_stream,
                recurring_stream: w.recurring_stream,
                distinct_streams: w.distinct_streams,
            },
        || format!("stream fraction {final_streams:?}, want {w:?}"),
    );
    let c = &want.coverage;
    report.check(
        coverage
            == Frame::CoverageReply {
                total: c.total,
                covered: c.covered,
                issued: c.issued,
            },
        || format!("coverage {coverage:?}, want {c:?}"),
    );
    report.check(
        top == Frame::TopOriginsReply(want.top_origins.clone()),
        || format!("top origins {top:?}, want {:?}", want.top_origins),
    );
    let mut query_ms = Vec::new();
    if let Some(dash) = dash {
        report.succeeded(dash.query_ms.len() as u64);
        let a = &dash.acc;
        let signed = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let telescoped = a.applied == sent
            && a.streams
                == [
                    signed(w.non_repetitive),
                    signed(w.new_stream),
                    signed(w.recurring_stream),
                    signed(w.distinct_streams),
                ]
            && a.coverage == [signed(c.total), signed(c.covered), signed(c.issued)]
            && a.top_origins(TOP_N as usize)
                == want
                    .top_origins
                    .iter()
                    .map(|&(f, n)| (f, signed(n)))
                    .collect::<Vec<_>>();
        report.check(telescoped, || {
            format!("dashboard deltas do not telescope to the final answer: {a:?}")
        });
        query_ms = dash.query_ms;
    }
    Ok(Pass {
        wall,
        server_cpu,
        rss_mib,
        ingest,
        query_ms,
        snapshot,
    })
}

/// Server-side counters of one pass, read from its metrics snapshot.
pub struct Counters {
    /// Deepest any shard lane got, in sub-batches.
    pub max_queue_depth: u64,
    /// Grammar root walks across shards.
    pub grammar_walks: u64,
    /// Queries the server answered.
    pub queries: u64,
}

/// Reads [`Counters`] out of `snapshot`.
pub fn counters(snapshot: &Json) -> Result<Counters, String> {
    let get = |path: &str| {
        snapshot
            .get_path(path)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics snapshot has no {path}"))
    };
    let mut max_queue_depth = 0;
    for shard in 0..SHARDS {
        max_queue_depth =
            max_queue_depth.max(get(&format!("gauges/serve/queue/shard{shard}/max_depth"))?);
    }
    Ok(Counters {
        max_queue_depth,
        grammar_walks: get("gauges/serve/analysis/grammar_walks")?,
        queries: get("counters/serve/queries")?,
    })
}

/// Per-record costs of the server's layers, each timed alone over the
/// whole trace.
pub struct Probe {
    /// `wire`: encoding ingest frames, ns per record.
    pub encode_ns: f64,
    /// `wire`: decoding them again, ns per record.
    pub decode_ns: f64,
    /// `shard_of` routing into per-shard batches, ns per record.
    pub route_ns: f64,
    /// `core::engine` full configuration (SEQUITUR plus prefetch
    /// evaluator), records per second.
    pub push_rate: f64,
    /// `core::engine` streams-only, records per second.
    pub streams_push_rate: f64,
    /// One root walk per shard at full history, mean ms.
    pub walk_ms: f64,
}

/// Runs the per-layer probes over `records`, partitioned as the server
/// would partition them.
pub fn probe(records: &[MissRecord<MissClass>], report: &mut Report) -> Result<Probe, String> {
    let n = records.len() as f64;
    let frames: Vec<Frame> = records
        .chunks(FRAME_RECORDS)
        .map(|c| Frame::Ingest(c.to_vec()))
        .collect();

    let start = Instant::now();
    let mut bytes = Vec::with_capacity(records.len() * 24);
    for (i, frame) in frames.iter().enumerate() {
        encode_message(Some(i as u32 + 1), frame, &mut bytes)
            .map_err(|e| format!("encode: {e}"))?;
    }
    let encode_ns = start.elapsed().as_secs_f64() * 1e9 / n;

    let start = Instant::now();
    let mut asm = MessageAssembler::new();
    let mut decoded = Vec::with_capacity(frames.len());
    for chunk in bytes.chunks(64 * 1024) {
        asm.push_bytes(chunk);
        while let Some(msg) = asm.next_message().map_err(|e| format!("decode: {e}"))? {
            decoded.push(msg.frame);
        }
    }
    let decode_ns = start.elapsed().as_secs_f64() * 1e9 / n;
    report.check(decoded == frames, || {
        "wire round trip changed the frames".to_string()
    });
    drop((frames, decoded, bytes));

    let start = Instant::now();
    let mut parts: Vec<Vec<MissRecord<MissClass>>> = (0..SHARDS)
        .map(|_| Vec::with_capacity(records.len() / SHARDS + 1))
        .collect();
    for r in records {
        parts[shard_of(r.block.raw(), SHARDS)].push(*r);
    }
    let route_ns = start.elapsed().as_secs_f64() * 1e9 / n;

    let mut push = Duration::ZERO;
    let mut walks = Duration::ZERO;
    let mut walked = 0u64;
    for part in &parts {
        let mut engine: AnalysisEngine = AnalysisEngine::new(EngineConfig::default());
        let start = Instant::now();
        engine.push_records(part);
        push += start.elapsed();
        let start = Instant::now();
        walked += engine.stream_counts().total();
        walks += start.elapsed();
    }
    let retained = parts
        .iter()
        .map(|p| p.len().min(EngineConfig::default().max_retained) as u64)
        .sum::<u64>();
    report.check(walked == retained, || {
        format!("engine walks labeled {walked} of {retained} retained records")
    });

    let mut streams_push = Duration::ZERO;
    for part in &parts {
        let mut engine: AnalysisEngine = AnalysisEngine::streams_only(part.len());
        let start = Instant::now();
        engine.push_records(part);
        streams_push += start.elapsed();
    }

    Ok(Probe {
        encode_ns,
        decode_ns,
        route_ns,
        push_rate: n / push.as_secs_f64(),
        streams_push_rate: n / streams_push.as_secs_f64(),
        walk_ms: ms(walks) / SHARDS as f64,
    })
}
