//! The TCP server: acceptor, per-connection reader/writer pairs,
//! shard workers, and queries.
//!
//! Thread layout (all on one [`tempstream_runtime::pool::scope`]):
//!
//! ```text
//! acceptor (scope body) ──spawns──▶ per connection: reader + writer
//!                                        │ reader decodes back-to-back frames
//!                                        │ and dispatches without waiting for
//!                                        │ the previous reply (pipelining);
//!                                        │ replies go to a bounded ReplyQueue
//!                                        │ drained FIFO by the writer
//!                                        │
//!                                        │ reader splits each ingest frame by
//!                                        │ fxhash(block) into per-shard scratch
//!                                        │ and admits all sub-batches at once
//!                                        ▼
//!                                   ShardQueues (bounded lanes — the
//!                                   admission point, one lane per shard)
//!                                        │ shard workers apply incrementally
//!                                        ▼
//!                                   per-shard AnalysisEngine (owned by its worker)
//! ```
//!
//! Pipelining: every request carries a sequence id, and clients may
//! send many frames back-to-back; the reader dispatches each as soon
//! as it decodes, pushing the reply (with the echoed sequence id) onto
//! the connection's bounded [`ReplyQueue`]. The writer drains it in
//! FIFO order, so replies leave in dispatch order — the invariant that
//! lets the client match replies to requests. A full reply queue
//! blocks only that connection's reader (per-connection backpressure).
//! A request without a sequence id is answered `Error{ERR_BAD_FRAME}`
//! and the connection closes, as on undecodable bytes. The reader
//! records the most requests it decoded from one `read` in the
//! `serve/conn/max_frames_per_read` gauge: exactly 1 when every client
//! waits for each reply before sending the next request.
//!
//! Ingest routing happens **in the readers**: each connection splits a
//! decoded batch by [`shard_of`] into a per-connection scratch buffer
//! and admits the whole frame with one all-or-nothing
//! [`ShardQueues::try_push_batches`]. Readers never block on ingest — a
//! full lane surfaces as a `Busy` reply and the records are *not*
//! counted; all lanes are taken under one lock, so admitted frames get
//! a single total order (which is why per-connection FIFO per shard
//! survives N readers pushing concurrently, with no router thread
//! serializing the split). Applied sub-batch buffers are recycled
//! through the queues' free list back into reader scratch, so the
//! steady-state ingest path allocates nothing. Nothing buffers without
//! bound.
//!
//! Read-your-writes and consistent cuts: every query pushes a cut
//! marker onto every shard lane with [`ShardQueues::try_push_cut`],
//! under the same admission lock as ingest. Each lane therefore holds,
//! ahead of the marker, exactly the sub-batches of the frames admitted
//! before it — including every frame this connection had acked. Each
//! shard worker owns its [`AnalysisEngine`] outright (no lock); when it
//! pops the marker it computes its part of the answer at exactly that
//! point, in parallel with the other shards, and the last shard to
//! answer wakes the reader, which only merges the parts. No lock is
//! held across shards: a query costs the slowest shard's walk, not the
//! sum of them, and a shard's ingest pauses only while its own worker
//! walks (its lane keeps admitting up to capacity meanwhile). A reader
//! waits for its cut before reading on, so markers in flight are
//! bounded by the connections. The cut's watermark (`DeltaReply.applied`) is the
//! exact number of records admitted before the marker, and the metrics
//! gauges exported on a cut describe exactly that state: `in_state`
//! equals the watermark, while counters read after the cut may already
//! count later frames.
//!
//! Incremental queries: each connection keeps a [`DeltaCursor`] — the
//! per-shard state versions plus the merged answers of its last cut.
//! `QueryDelta` takes a consistent cut and folds in **only** the
//! shards whose version moved, replying with the change since the
//! cursor; per-shard `StreamCounts` are version-memoized inside the
//! engine, so a shard that did not move never walks its
//! grammar. The cursor also caches a merged origin table patched per
//! changed shard — a shard sends a copy of its origin table only when
//! its version moved past the cursor's — so delta probes and
//! `QueryTopOrigins` are O(changed shards), not O(all shards).
//!
//! A shard worker that panics fails its lane through a drop guard: its
//! queued and later cuts are answered `Error{ERR_SHARD_FAILED}`, as is
//! ingest routed to it, the lane counts as done for the drain, and
//! `run` re-raises the panic once the drain completes.
//!
//! Shutdown: a `Shutdown` frame marks the lifecycle `Draining`, drains
//! the shard queues, and wakes the acceptor with a loopback connect.
//! Each shard worker finishes its lane's backlog; the last one out
//! flips the lifecycle to `Drained`, and the shutdown connection then
//! answers `ShutdownAck`. No acked record is ever dropped on shutdown.
//! The acceptor answers clients that race the drain with
//! `Error{ERR_DRAINING}` instead of silently dropping them, and an
//! acceptor torn down by a listener-level error still enters the drain
//! handshake so `run` returns instead of deadlocking the workers.
//!
//! All synchronization lives in the [`tempstream_runtime::sync`] shim
//! (enforced by `tempstream-checker`'s `lint-sources` gate).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::queue::{Cut, LaneItem, PushError, ReplyQueue, ShardQueues};
use crate::shard::{
    merge_coverage_counts, merge_stream_counts, shard_of, CoverageCounts, OriginTable, ShardConfig,
    StreamCounts,
};
use crate::wire::{
    encode_message, write_message, DeltaCounts, Frame, Message, MessageAssembler, ERR_BAD_FRAME,
    ERR_DRAINING, ERR_SHARD_FAILED,
};
use tempstream_core::engine::AnalysisEngine;
use tempstream_fxhash::FxHashMap;
use tempstream_obsv::{Counter, Gauge, Histogram, Registry};
use tempstream_runtime::pool;
use tempstream_runtime::sync::{Arc, Condvar, Mutex};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;

/// How long a connection reader sleeps in `read` before re-checking
/// the drain flag.
const READ_POLL: Duration = Duration::from_millis(20);

/// Server-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of analysis shards (and shard worker threads).
    pub shards: usize,
    /// Per-shard analysis parameters.
    pub shard: ShardConfig,
    /// Sub-batch capacity of each shard's ingest lane.
    pub shard_queue_capacity: usize,
    /// Concurrent connections; excess accepts get `Busy` and close.
    pub max_connections: usize,
    /// Reply-frame capacity of each connection's writer queue; a full
    /// queue blocks only that connection's reader.
    pub reply_queue_capacity: usize,
    /// Test hook: the first N accepted connections panic their reader
    /// on the first decoded frame (exercises the slot-release guard).
    #[doc(hidden)]
    pub fault_conn_panics: usize,
    /// Test hook: the workers of shards `0..N` panic on the first item
    /// of their lane, a sub-batch or a cut marker (exercises the
    /// failed-lane path).
    #[doc(hidden)]
    pub fault_shard_panics: usize,
    /// Test hook: the acceptor sleeps this long before each `accept`,
    /// widening the drain window so tests can race it deterministically.
    #[doc(hidden)]
    pub fault_accept_hold_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            shard: ShardConfig::default(),
            shard_queue_capacity: 64,
            max_connections: 32,
            reply_queue_capacity: 32,
            fault_conn_panics: 0,
            fault_shard_panics: 0,
            fault_accept_hold_ms: 0,
        }
    }
}

/// Lifecycle of the server, driven by the `Shutdown` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Drained,
}

#[derive(Debug, Default)]
struct Conns {
    active: usize,
    peak: usize,
}

/// Counter and histogram handles bumped on the hot paths (cheap `Arc`
/// clones; the registry map lock is taken once here, not per event).
///
/// Every dispatched request frame counts once in `frames_received` and
/// once in exactly one outcome, so once no frame is mid-dispatch
/// `received == acked + busy + errors + queries + shutdown` (the soak
/// gates assert it). Frames that fail to decode, and requests without
/// a sequence id, never reach dispatch and count in
/// `frames_decode_errors` alone.
struct Metrics {
    frames_received: Counter,
    /// Ingest frames admitted whole and answered `IngestAck`.
    frames_acked: Counter,
    /// Ingest frames refused whole with `Busy` (a full lane).
    frames_busy: Counter,
    /// Dispatched ingest or reply-direction frames answered `Error`:
    /// ingest while draining or routed to a failed shard, or a
    /// reply-direction frame sent as a request.
    frames_errors: Counter,
    /// `Shutdown` frames.
    frames_shutdown: Counter,
    /// Byte streams that failed to decode into a request.
    frames_decode_errors: Counter,
    /// The most requests one connection reader decoded from one `read`.
    max_frames_per_read: Gauge,
    records_ingested: Counter,
    records_applied: Counter,
    records_rejected: Counter,
    conn_accepted: Counter,
    conn_rejected: Counter,
    /// Query frames of every kind, answered or refused.
    queries: Counter,
    /// Per consistent cut and shard: µs from the marker push until the
    /// shard's part is ready (lane wait plus walk).
    shard_answer_us: Vec<Histogram>,
    /// Per consistent cut: µs merging the shards' parts into the reply.
    merge_us: Histogram,
}

impl Metrics {
    fn new(registry: &Registry, shards: usize) -> Self {
        Metrics {
            frames_received: registry.counter("serve/frames/received"),
            frames_acked: registry.counter("serve/frames/acked"),
            frames_busy: registry.counter("serve/frames/busy"),
            frames_errors: registry.counter("serve/frames/errors"),
            frames_shutdown: registry.counter("serve/frames/shutdown"),
            frames_decode_errors: registry.counter("serve/frames/decode_errors"),
            max_frames_per_read: registry.gauge("serve/conn/max_frames_per_read"),
            records_ingested: registry.counter("serve/records/ingested"),
            records_applied: registry.counter("serve/records/applied"),
            records_rejected: registry.counter("serve/records/rejected"),
            conn_accepted: registry.counter("serve/conn/accepted"),
            conn_rejected: registry.counter("serve/conn/rejected"),
            queries: registry.counter("serve/queries"),
            shard_answer_us: (0..shards)
                .map(|i| registry.histogram(&format!("serve/query/shard{i}/answer_us")))
                .collect(),
            merge_us: registry.histogram("serve/query/merge_us"),
        }
    }
}

/// Whole microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The difference `now - before` as a signed delta (saturating at the
/// i64 range, unreachable for realistic counter values).
fn signed_delta(now: u64, before: u64) -> i64 {
    if now >= before {
        i64::try_from(now - before).unwrap_or(i64::MAX)
    } else {
        i64::try_from(before - now).map_or(i64::MIN, |d| -d)
    }
}

/// Per-connection cursor for incremental (`QueryDelta`) answers: the
/// per-shard snapshot versions of the connection's last consistent cut
/// plus the merged answers replied at that cut. Owned by the reader —
/// no locks, no cross-connection state.
struct DeltaCursor {
    shard_versions: Vec<u64>,
    shard_streams: Vec<StreamCounts>,
    shard_coverage: Vec<CoverageCounts>,
    last_streams: StreamCounts,
    last_coverage: CoverageCounts,
    /// Origin-side versions, tracked separately from `shard_versions`
    /// because `QueryTopOrigins` refreshes origins without consuming
    /// the streams/coverage delta.
    origin_versions: Vec<u64>,
    /// Per-shard origin snapshots at `origin_versions`.
    shard_origins: Vec<OriginTable>,
    /// The merged origin table across all shards, patched in place for
    /// shards whose version moved — the ROADMAP follow-up that makes
    /// hot-shard probes O(changed shards). Serves `QueryTopOrigins`
    /// directly.
    merged_origins: OriginTable,
    /// Signed per-function origin movement accumulated since the last
    /// `DeltaReply` (survives interleaved `QueryTopOrigins` refreshes).
    pending_origins: FxHashMap<u32, i64>,
}

impl DeltaCursor {
    /// A cursor at the empty cut: version 0 with all-zero answers is
    /// exactly a fresh shard's state, so the first delta is absolute.
    fn new(shards: usize) -> Self {
        DeltaCursor {
            shard_versions: vec![0; shards],
            shard_streams: vec![StreamCounts::default(); shards],
            shard_coverage: vec![CoverageCounts::default(); shards],
            last_streams: StreamCounts::default(),
            last_coverage: CoverageCounts::default(),
            origin_versions: vec![0; shards],
            shard_origins: (0..shards).map(|_| OriginTable::new()).collect(),
            merged_origins: OriginTable::new(),
            pending_origins: FxHashMap::default(),
        }
    }

    /// Brings the merged origin table up to a cut: each shard whose
    /// version moved since the last refresh sent a copy of its table
    /// in its part; diff it against the cached snapshot and patch the
    /// merge (and the pending delta) by the difference. Unchanged
    /// shards sent nothing. Counts are monotone per shard, so patching
    /// by the diff is exact — `merged_origins` always equals a fresh
    /// all-shards merge at this cut.
    fn refresh_origins(&mut self, parts: &mut [ShardPart]) {
        for (i, part) in parts.iter_mut().enumerate() {
            let Some(now) = part.origins.take() else {
                continue;
            };
            let before = &self.shard_origins[i];
            for (function, count) in now.iter() {
                let prev = before.get(function);
                if count != prev {
                    self.merged_origins.add(function, count - prev);
                    *self.pending_origins.entry(function).or_insert(0) += signed_delta(count, prev);
                }
            }
            self.shard_origins[i] = now;
            self.origin_versions[i] = part.ingested;
        }
    }

    /// Folds a `QueryDelta` cut into the cursor: takes the parts of the
    /// shards whose version moved and returns the change relative to
    /// the cursor's last answers. A cut where no shard moved is an
    /// empty reply at the new watermark, and the origin delta comes
    /// from the patched merge — never a full all-shards rebuild.
    fn advance(&mut self, applied: u64, mut parts: Vec<ShardPart>) -> DeltaCounts {
        let mut changed = false;
        for (i, part) in parts.iter().enumerate() {
            if let Some(streams) = part.streams {
                self.shard_streams[i] = streams;
                self.shard_coverage[i] = part.coverage;
                self.shard_versions[i] = part.ingested;
                changed = true;
            }
        }
        let mut delta = DeltaCounts {
            applied,
            ..DeltaCounts::default()
        };
        if !changed {
            return delta;
        }
        let streams = merge_stream_counts(self.shard_streams.iter().copied());
        let coverage = merge_coverage_counts(self.shard_coverage.iter().copied());
        delta.non_repetitive =
            signed_delta(streams.non_repetitive, self.last_streams.non_repetitive);
        delta.new_stream = signed_delta(streams.new_stream, self.last_streams.new_stream);
        delta.recurring_stream =
            signed_delta(streams.recurring_stream, self.last_streams.recurring_stream);
        delta.distinct_streams =
            signed_delta(streams.distinct_streams, self.last_streams.distinct_streams);
        delta.total = signed_delta(coverage.total, self.last_coverage.total);
        delta.covered = signed_delta(coverage.covered, self.last_coverage.covered);
        delta.issued = signed_delta(coverage.issued, self.last_coverage.issued);
        self.refresh_origins(&mut parts);
        // Origin counts are monotone, so a function can never
        // vanish from the merged map — no removal pass needed.
        delta.origins = self
            .pending_origins
            .iter()
            .filter(|&(_, &moved)| moved != 0)
            .map(|(&function, &moved)| (function, moved))
            .collect();
        delta
            .origins
            .sort_unstable_by_key(|&(function, _)| function);
        self.pending_origins.clear();
        self.last_streams = streams;
        self.last_coverage = coverage;
        delta
    }
}

/// Which shards send one part of a query's answer.
enum Need {
    Nothing,
    Every,
    /// Shards whose version differs from the connection's, per shard.
    Moved(Vec<u64>),
}

impl Need {
    fn of(&self, index: usize, version: u64) -> bool {
        match self {
            Need::Nothing => false,
            Need::Every => true,
            Need::Moved(since) => since[index] != version,
        }
    }
}

/// What a query asks of every shard at its cut.
struct CutRequest {
    /// Stream counts: the one part that may walk a grammar (memoized
    /// on the shard's version).
    streams: Need,
    /// A copy of the origin table.
    origins: Need,
}

/// A consistent cut in flight: the marker every shard lane carries.
struct QueryCut {
    request: CutRequest,
    /// When the marker went onto the lanes.
    pushed: Instant,
    parts: Cut<ShardPart>,
}

/// One shard's part of a query, computed by its worker exactly at the
/// cut.
struct ShardPart {
    /// Records applied to the shard, which is also its state version:
    /// it advances exactly when observable state changes.
    ingested: u64,
    /// Present when the request's `streams` names this shard.
    streams: Option<StreamCounts>,
    coverage: CoverageCounts,
    /// A copy of the origin table, when the request's `origins` names
    /// this shard.
    origins: Option<OriginTable>,
    overflow: u64,
    grammar_walks: u64,
    /// From the marker push until this part was ready.
    answer: Duration,
}

impl ShardPart {
    /// `engine`'s part of `cut`, where `engine` is shard `index`.
    fn of(engine: &mut AnalysisEngine, index: usize, cut: &QueryCut) -> ShardPart {
        let ingested = engine.ingested();
        let request = &cut.request;
        let streams = request
            .streams
            .of(index, ingested)
            .then(|| engine.stream_counts());
        let origins = request
            .origins
            .of(index, ingested)
            .then(|| engine.origin_table().clone());
        ShardPart {
            ingested,
            streams,
            coverage: engine.coverage(),
            origins,
            overflow: engine.overflow(),
            grammar_walks: engine.grammar_walks(),
            answer: cut.pushed.elapsed(),
        }
    }
}

/// Everything the worker threads share by reference.
struct Shared {
    local_addr: SocketAddr,
    registry: Arc<Registry>,
    metrics: Metrics,
    shard_queues: ShardQueues<MissRecord<MissClass>, QueryCut>,
    lifecycle: Mutex<Phase>,
    drained_cv: Condvar,
    /// Shard workers that have finished their lane; the last one out
    /// flips the lifecycle to `Drained`.
    shards_done: Mutex<usize>,
    conns: Mutex<Conns>,
    /// Remaining reader panics to inject (test hook, see
    /// [`ServerConfig::fault_conn_panics`]).
    fault_conn_panics: Mutex<usize>,
}

/// The error reply to a request the queues refused: draining, or a
/// failed shard lane. (`Full` never reaches here: ingest answers it
/// `Busy`, and cut markers do not count against capacity.)
fn refusal(err: &PushError<()>) -> Frame {
    match err {
        PushError::Failed(()) => Frame::Error {
            code: ERR_SHARD_FAILED,
            message: "a shard worker failed".to_string(),
        },
        PushError::Draining(()) | PushError::Full(()) => Frame::Error {
            code: ERR_DRAINING,
            message: "server is draining".to_string(),
        },
    }
}

impl Shared {
    fn is_draining(&self) -> bool {
        *self.lifecycle.lock() != Phase::Running
    }

    /// Idempotent entry into the drain phase.
    fn begin_drain(&self) {
        {
            let mut phase = self.lifecycle.lock();
            if *phase == Phase::Running {
                *phase = Phase::Draining;
            }
        }
        self.shard_queues.drain();
        // Wake the acceptor blocked in `accept` so it can observe the
        // phase change; the throwaway connection is answered with
        // ERR_DRAINING (or dropped, if this end closes first).
        drop(TcpStream::connect(self.local_addr));
    }

    fn wait_drained(&self) {
        let mut phase = self.lifecycle.lock();
        while *phase != Phase::Drained {
            phase = self.drained_cv.wait(phase);
        }
    }

    /// Takes a consistent cut: pushes a marker onto every shard lane,
    /// waits until every shard worker has answered its part, and
    /// merges the parts (in shard order) into the reply with `f`, which
    /// also receives the cut's watermark — the records admitted before
    /// the marker. When the cut cannot be taken (the server is
    /// draining, or a shard worker failed) the reply is that error.
    ///
    /// Records one `serve/query/shard{i}/answer_us` sample per shard
    /// and one `serve/query/merge_us` sample per cut, after `f`
    /// returns — so a metrics snapshot shows the cuts before its own.
    fn at_cut(&self, request: CutRequest, f: impl FnOnce(u64, Vec<ShardPart>) -> Frame) -> Frame {
        let cut = Arc::new(QueryCut {
            request,
            pushed: Instant::now(),
            parts: Cut::new(self.shard_queues.lanes()),
        });
        let watermark = match self.shard_queues.try_push_cut(&cut) {
            Ok(watermark) => watermark,
            Err(e) => return refusal(&e),
        };
        let Ok(parts) = cut.parts.wait() else {
            return refusal(&PushError::Failed(()));
        };
        debug_assert_eq!(
            parts.iter().map(|p| p.ingested).sum::<u64>(),
            watermark,
            "the shards' parts sit exactly at the cut's watermark"
        );
        let merging = Instant::now();
        let answers: Vec<Duration> = parts.iter().map(|p| p.answer).collect();
        let out = f(watermark, parts);
        let merged = merging.elapsed();
        for (histogram, answer) in self.metrics.shard_answer_us.iter().zip(answers) {
            histogram.record(micros(answer));
        }
        self.metrics.merge_us.record(micros(merged));
        out
    }

    /// Computes the reply for one decoded request. Returns the reply
    /// frame and whether the connection should keep reading. Never
    /// touches the socket — delivery belongs to the writer.
    ///
    /// `scratch` is the connection's routing buffer, one slot per
    /// shard; it must arrive with every slot empty and is left that
    /// way (accepted slots are swapped for recycled empties, refused
    /// ones cleared).
    fn handle_request(
        &self,
        frame: Frame,
        cursor: &mut DeltaCursor,
        scratch: &mut [Vec<MissRecord<MissClass>>],
    ) -> (Frame, bool) {
        self.metrics.frames_received.inc();
        let plain = |streams| CutRequest {
            streams,
            origins: Need::Nothing,
        };
        match frame {
            Frame::Ingest(mut records) => {
                let n = records.len() as u64;
                let lanes = scratch.len();
                if lanes == 1 {
                    // Single shard: no hashing, no copying — the frame's
                    // own Vec becomes the sub-batch.
                    std::mem::swap(&mut scratch[0], &mut records);
                } else {
                    for r in records.drain(..) {
                        scratch[shard_of(r.block.raw(), lanes)].push(r);
                    }
                }
                let reply = match self.shard_queues.try_push_batches(scratch) {
                    Ok(()) => {
                        self.metrics.frames_acked.inc();
                        self.metrics.records_ingested.add(n);
                        Frame::IngestAck(n as u32)
                    }
                    Err(PushError::Full(())) => {
                        self.metrics.frames_busy.inc();
                        self.metrics.records_rejected.add(n);
                        Frame::Busy
                    }
                    Err(e) => {
                        self.metrics.frames_errors.inc();
                        refusal(&e)
                    }
                };
                if !matches!(reply, Frame::IngestAck(_)) {
                    // Refused whole: drop the routed records (the client
                    // retries the frame) but keep the buffers.
                    for sub in scratch.iter_mut() {
                        sub.clear();
                    }
                }
                // The decode-side Vec is empty either way; feed it to
                // the free list so admissions can hand it back to a
                // scratch slot instead of allocating.
                self.shard_queues.recycle(records);
                (reply, true)
            }
            Frame::QueryStreamFraction => {
                self.metrics.queries.inc();
                let reply = self.at_cut(plain(Need::Every), |_, parts| {
                    let counts = merge_stream_counts(parts.iter().filter_map(|p| p.streams));
                    Frame::StreamFractionReply {
                        non_repetitive: counts.non_repetitive,
                        new_stream: counts.new_stream,
                        recurring_stream: counts.recurring_stream,
                        distinct_streams: counts.distinct_streams,
                    }
                });
                (reply, true)
            }
            Frame::QueryCoverage => {
                self.metrics.queries.inc();
                let reply = self.at_cut(plain(Need::Nothing), |_, parts| {
                    let cov = merge_coverage_counts(parts.iter().map(|p| p.coverage));
                    Frame::CoverageReply {
                        total: cov.total,
                        covered: cov.covered,
                        issued: cov.issued,
                    }
                });
                (reply, true)
            }
            Frame::QueryTopOrigins(n) => {
                self.metrics.queries.inc();
                // Served from the cursor's patched merge: only shards
                // whose version moved since this connection last looked
                // send their table; the top-n sort runs on the cached
                // table.
                let request = CutRequest {
                    streams: Need::Nothing,
                    origins: Need::Moved(cursor.origin_versions.clone()),
                };
                let reply = self.at_cut(request, |_, mut parts| {
                    cursor.refresh_origins(&mut parts);
                    Frame::TopOriginsReply(cursor.merged_origins.top_n(n as usize))
                });
                (reply, true)
            }
            Frame::QueryDelta => {
                self.metrics.queries.inc();
                // Only shards whose version moved since this cursor's
                // last delta send counts, so a quiet shard never walks.
                let request = CutRequest {
                    streams: Need::Moved(cursor.shard_versions.clone()),
                    origins: Need::Moved(cursor.origin_versions.clone()),
                };
                let reply = self.at_cut(request, |applied, parts| {
                    Frame::DeltaReply(cursor.advance(applied, parts))
                });
                (reply, true)
            }
            Frame::QueryMetricsSnapshot => {
                self.metrics.queries.inc();
                // Gauges come from the shards' parts at the cut, so
                // `in_state` is exactly the cut's watermark.
                let reply = self.at_cut(plain(Need::Nothing), |_, parts| {
                    self.export_gauges(&parts);
                    Frame::MetricsReply(self.registry.snapshot().render())
                });
                (reply, true)
            }
            Frame::Shutdown => {
                self.metrics.frames_shutdown.inc();
                self.begin_drain();
                self.wait_drained();
                (Frame::ShutdownAck, false)
            }
            // Reply-direction frames are never valid requests. (A
            // `Partial` never reaches here: the assembler reassembles
            // or rejects continuation runs before dispatch.)
            Frame::IngestAck(_)
            | Frame::Busy
            | Frame::StreamFractionReply { .. }
            | Frame::CoverageReply { .. }
            | Frame::TopOriginsReply(_)
            | Frame::MetricsReply(_)
            | Frame::DeltaReply(_)
            | Frame::Partial { .. }
            | Frame::ShutdownAck
            | Frame::Error { .. } => {
                self.metrics.frames_errors.inc();
                (
                    Frame::Error {
                        code: ERR_BAD_FRAME,
                        message: "reply-direction frame sent as request".to_string(),
                    },
                    false,
                )
            }
        }
    }

    /// Publishes point-in-time gauges right before a snapshot, from
    /// the shards' parts of the cut the snapshot renders on.
    fn export_gauges(&self, parts: &[ShardPart]) {
        for i in 0..self.shard_queues.lanes() {
            self.registry
                .gauge(&format!("serve/queue/shard{i}/max_depth"))
                .set(self.shard_queues.max_depth(i) as u64);
        }
        let conns = self.conns.lock();
        self.registry
            .gauge("serve/conn/active")
            .set(conns.active as u64);
        self.registry
            .gauge("serve/conn/peak")
            .set(conns.peak as u64);
        drop(conns);
        let sum = |field: fn(&ShardPart) -> u64| parts.iter().map(field).sum::<u64>();
        self.registry
            .gauge("serve/records/in_state")
            .set(sum(|p| p.ingested));
        self.registry
            .gauge("serve/records/overflow")
            .set(sum(|p| p.overflow));
        // Grammar root walks = StreamCounts cache misses across shards;
        // tests assert unchanged shards never move this.
        self.registry
            .gauge("serve/analysis/grammar_walks")
            .set(sum(|p| p.grammar_walks));
    }
}

/// The reply stream between one connection's reader and writer: the
/// echoed sequence id (`None` only on a connection-level error) plus the
/// reply frame.
type ConnReplies = ReplyQueue<(Option<u32>, Frame)>;

/// Frees one connection slot on drop — a drop guard, so a panicking
/// reader can never leak its slot and shrink capacity permanently.
struct ConnSlot<'a> {
    shared: &'a Shared,
}

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.shared.conns.lock().active -= 1;
    }
}

/// Closes the reply queue on drop — even when the reader panics, so
/// the writer never blocks on a queue nobody will push to again.
struct CloseOnDrop<'a> {
    queue: &'a ConnReplies,
}

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// One connection's reader: assemble messages (reassembling
/// continuation frames), dispatch each request as soon as it decodes —
/// routing ingest frames onto the shard lanes itself — queue the
/// reply, poll the drain flag. Never writes the socket.
fn handle_conn(shared: &Shared, mut stream: TcpStream, replies: &ConnReplies, fault_panic: bool) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut asm = MessageAssembler::new();
    let mut cursor = DeltaCursor::new(shared.shard_queues.lanes());
    // Per-connection routing scratch, one slot per shard; admission
    // swaps accepted slots for recycled buffers, so after warm-up the
    // split allocates nothing.
    let mut scratch: Vec<Vec<MissRecord<MissClass>>> = (0..shared.shard_queues.lanes())
        .map(|_| Vec::new())
        .collect();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let mut decoded = 0u64;
        loop {
            let (seq, frame) = match asm.next_message() {
                Ok(Some(Message {
                    seq: Some(seq),
                    frame,
                })) => (seq, frame),
                Ok(None) => break,
                Ok(Some(Message { seq: None, .. })) => {
                    return refuse(shared, replies, "request carries no sequence id".into());
                }
                // The stream offset can no longer be trusted.
                Err(e) => return refuse(shared, replies, e.to_string()),
            };
            if fault_panic {
                panic!("injected connection-handler fault (test hook)");
            }
            decoded += 1;
            let (reply, keep_going) = shared.handle_request(frame, &mut cursor, &mut scratch);
            if replies.push((Some(seq), reply)).is_err() {
                return; // writer is gone; replies undeliverable
            }
            if !keep_going {
                return;
            }
        }
        shared.metrics.max_frames_per_read.set_max(decoded);
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => asm.push_bytes(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll: leave once the writer died (socket error)
                // or the server drains with no partial frame pending.
                if replies.is_closed() {
                    return;
                }
                if shared.is_draining() && asm.is_idle() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers bytes that are not a request — undecodable, or a frame
/// without a sequence id — with `Error{ERR_BAD_FRAME}`, after which the
/// reader closes the connection.
fn refuse(shared: &Shared, replies: &ConnReplies, message: String) {
    shared.metrics.frames_decode_errors.inc();
    let _ = replies.push((
        None,
        Frame::Error {
            code: ERR_BAD_FRAME,
            message,
        },
    ));
}

/// One connection's writer: drains the reply queue in FIFO order onto
/// the socket. Replies larger than one frame split into continuation
/// frames in `encode_message`; one that cannot be encoded at all (over
/// the reassembly cap) closes the connection.
fn run_conn_writer(mut stream: TcpStream, replies: &ConnReplies) {
    let mut buf = Vec::with_capacity(256);
    while let Some((seq, frame)) = replies.pop() {
        buf.clear();
        if encode_message(seq, &frame, &mut buf).is_err() || stream.write_all(&buf).is_err() {
            break;
        }
    }
    // Socket failure (or reader exit): unblock the reader's pushes.
    replies.close();
}

/// Answers a client accepted during drain — plus every connect already
/// queued in the accept backlog — with `Error{ERR_DRAINING}` instead
/// of silently dropping them. Best-effort: the listener goes
/// non-blocking to sweep the backlog without re-parking the acceptor.
fn reject_drain_backlog(listener: &TcpListener, first: TcpStream, shared: &Shared) {
    let reject = |mut s: TcpStream| {
        shared.metrics.conn_rejected.inc();
        let _ = write_message(
            &mut s,
            None,
            &Frame::Error {
                code: ERR_DRAINING,
                message: "server is draining".to_string(),
            },
        );
    };
    reject(first);
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((s, _peer)) = listener.accept() {
            reject(s);
        }
    }
}

/// Shard worker: owns shard `index`'s engine, applies routed
/// sub-batches from its lane (recycling emptied buffers) and answers
/// each cut marker with its part at exactly that point of the lane.
/// `fault_panic` is the [`ServerConfig::fault_shard_panics`] hook.
fn run_shard(shared: &Shared, index: usize, config: ShardConfig, fault_panic: bool) {
    let mut exit = ShardExit {
        shared,
        index,
        answering: None,
    };
    let mut engine = AnalysisEngine::new(config);
    while let Some(item) = shared.shard_queues.pop(index) {
        if let LaneItem::Marker(cut) = &item {
            exit.answering = Some(Arc::clone(cut));
        }
        if fault_panic {
            panic!("injected shard-worker fault (test hook)");
        }
        match item {
            LaneItem::Batch(batch) => {
                engine.push_records(&batch);
                shared.metrics.records_applied.add(batch.len() as u64);
                shared.shard_queues.recycle(batch);
            }
            LaneItem::Marker(cut) => {
                let part = ShardPart::of(&mut engine, index, &cut);
                exit.answering = None;
                cut.parts.answer(index, part);
            }
        }
    }
}

/// Ends a shard worker on drop — also when it unwinds. A panicking
/// worker first fails its lane: the cut it was answering and the cuts
/// queued on it fail (their readers answer `ERR_SHARD_FAILED`), later
/// ingest and cuts touching it are refused, and the guard waits for the
/// drain like a worker whose lane emptied. Either way the last worker
/// out flips the lifecycle to `Drained`; the pool re-raises the panic
/// after that.
struct ShardExit<'a> {
    shared: &'a Shared,
    index: usize,
    /// The cut whose part the worker is computing, if any.
    answering: Option<Arc<QueryCut>>,
}

impl Drop for ShardExit<'_> {
    fn drop(&mut self) {
        let queues = &self.shared.shard_queues;
        if std::thread::panicking() {
            let queued = queues.fail(self.index);
            for cut in self.answering.take().into_iter().chain(queued) {
                cut.parts.fail();
            }
            // Nothing can be queued on a failed lane; this returns
            // `None` once the queues drain.
            while queues.pop(self.index).is_some() {}
        }
        let mut done = self.shared.shards_done.lock();
        *done += 1;
        let all_done = *done == queues.lanes();
        drop(done);
        if all_done {
            let mut phase = self.shared.lifecycle.lock();
            *phase = Phase::Drained;
            drop(phase);
            self.shared.drained_cv.notify_all();
        }
    }
}

/// A bound-but-not-yet-running ingest/query server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    registry: Arc<Registry>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any `TcpListener::bind` failure.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        Ok(Server::from_listener(TcpListener::bind(addr)?, config))
    }

    /// Wraps an already-bound listener. Callers that need a handle to
    /// the underlying socket (custom options, fault-injection tests)
    /// can `try_clone` the listener before handing it over.
    pub fn from_listener(listener: TcpListener, config: ServerConfig) -> Server {
        Server {
            listener,
            config,
            registry: Arc::new(Registry::new()),
        }
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Any `TcpListener::local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metric registry (exported in full by the
    /// `QueryMetricsSnapshot` frame).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Serves until a client sends `Shutdown` and the drain completes.
    ///
    /// Blocks the calling thread; run it from a dedicated thread (or
    /// process, as the `serve` binary does) and drive it over TCP.
    ///
    /// # Errors
    ///
    /// Fails only on listener-level I/O errors (bind address lost,
    /// local_addr unavailable); per-connection errors are contained.
    /// A listener-level `accept` error still drains the workers before
    /// returning, so acked records are applied and `run` terminates.
    pub fn run(self) -> std::io::Result<()> {
        let config = self.config;
        let shards = config.shards.max(1);
        let local_addr = self.listener.local_addr()?;
        let shared = Shared {
            local_addr,
            registry: Arc::clone(&self.registry),
            metrics: Metrics::new(&self.registry, shards),
            shard_queues: ShardQueues::new(shards, config.shard_queue_capacity),
            lifecycle: Mutex::new(Phase::Running),
            drained_cv: Condvar::new(),
            shards_done: Mutex::new(0),
            conns: Mutex::new(Conns::default()),
            fault_conn_panics: Mutex::new(config.fault_conn_panics),
        };
        let shared = &shared;
        let listener = &self.listener;
        // One lane per long-lived job: shard workers + a reader and a
        // writer per connection. Jobs never exceed lanes, so no
        // long-running job can starve another.
        let workers = shards + 2 * config.max_connections;
        pool::scope(workers, move |p| {
            for index in 0..shards {
                let fault_panic = index < config.fault_shard_panics;
                p.spawn(move |_| run_shard(shared, index, config.shard, fault_panic));
            }

            loop {
                if config.fault_accept_hold_ms > 0 {
                    std::thread::sleep(Duration::from_millis(config.fault_accept_hold_ms));
                }
                let stream = match listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Listener torn down: enter the drain handshake
                        // so the shard workers unblock and run()
                        // returns instead of deadlocking in pop().
                        shared.begin_drain();
                        break;
                    }
                };
                if shared.is_draining() {
                    // Woken by begin_drain's loopback connect, or a
                    // client racing the drain: answer, don't ghost.
                    reject_drain_backlog(listener, stream, shared);
                    break;
                }
                let admitted = {
                    let mut conns = shared.conns.lock();
                    if conns.active >= config.max_connections {
                        false
                    } else {
                        conns.active += 1;
                        conns.peak = conns.peak.max(conns.active);
                        true
                    }
                };
                if admitted {
                    shared.metrics.conn_accepted.inc();
                    let Ok(write_half) = stream.try_clone() else {
                        // No writer, no connection; free the slot.
                        shared.conns.lock().active -= 1;
                        continue;
                    };
                    let fault_panic = {
                        let mut remaining = shared.fault_conn_panics.lock();
                        if *remaining > 0 {
                            *remaining -= 1;
                            true
                        } else {
                            false
                        }
                    };
                    let replies = Arc::new(ConnReplies::new(config.reply_queue_capacity));
                    let writer_q = Arc::clone(&replies);
                    p.spawn(move |_| run_conn_writer(write_half, &writer_q));
                    p.spawn(move |_| {
                        let _slot = ConnSlot { shared };
                        let _close = CloseOnDrop { queue: &replies };
                        handle_conn(shared, stream, &replies, fault_panic);
                    });
                } else {
                    shared.metrics.conn_rejected.inc();
                    let mut stream = stream;
                    let _ = write_message(&mut stream, None, &Frame::Busy);
                }
            }
        });
        Ok(())
    }
}
