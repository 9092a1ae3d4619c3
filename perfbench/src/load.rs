//! The load generator: a pipelined protocol-v2 client, the ingest
//! replay (closed or open loop), the dashboard poller, and the
//! repository's `serve` binary it drives.
//!
//! The generator is one process with at most two threads and two
//! connections: the calling thread drives ingest, and the dashboard, if
//! any, runs on a second thread.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tempstream_serve::wire::{encode_message, DeltaCounts, Frame, Message, MessageAssembler};

/// How long any single reply may take before the run fails.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// First sequence id for requests other than pre-encoded ingest frames
/// (those carry their frame index plus one), so the two never collide.
const CONTROL_SEQ_BASE: u32 = 0x8000_0000;

/// Milliseconds in `d`, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One client connection speaking protocol v2.
pub struct Conn {
    stream: TcpStream,
    asm: MessageAssembler,
    chunk: Vec<u8>,
    out: Vec<u8>,
    next_seq: u32,
}

impl Conn {
    /// Connects to `addr` with Nagle's algorithm off.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            asm: MessageAssembler::new(),
            chunk: vec![0; 64 * 1024],
            out: Vec::with_capacity(256),
            next_seq: CONTROL_SEQ_BASE,
        })
    }

    /// Writes already-encoded message bytes.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Encodes and sends `frame` under a fresh sequence id.
    pub fn send(&mut self, frame: &Frame) -> Result<u32, String> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1).max(CONTROL_SEQ_BASE);
        self.out.clear();
        encode_message(Some(seq), frame, &mut self.out).map_err(|e| format!("encode: {e}"))?;
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        Ok(seq)
    }

    /// The next reply, or `None` once `deadline` passes without one.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<Message>, String> {
        loop {
            if let Some(msg) = self
                .asm
                .next_message()
                .map_err(|e| format!("decode reply: {e}"))?
            {
                return Ok(Some(msg));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = (deadline - now).max(Duration::from_micros(50));
            self.stream
                .set_read_timeout(Some(wait))
                .map_err(|e| format!("set timeout: {e}"))?;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.asm.push_bytes(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// One request/reply exchange; checks the sequence echo.
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, String> {
        let seq = self.send(frame)?;
        let reply = self
            .recv_until(Instant::now() + IO_TIMEOUT)?
            .ok_or_else(|| format!("no reply to {frame:?} within {IO_TIMEOUT:?}"))?;
        if reply.seq != Some(seq) {
            return Err(format!("sent seq {seq}, reply carries {:?}", reply.seq));
        }
        match reply.frame {
            Frame::Error { code, message } => Err(format!("server error {code}: {message}")),
            frame => Ok(frame),
        }
    }
}

/// Ingest frames encoded once, ahead of any timed pass.
pub struct EncodedFrames {
    /// Frame `i` as protocol-v2 bytes with sequence id `i + 1`.
    pub bytes: Vec<Vec<u8>>,
    /// Records in frame `i` (what its `IngestAck` must echo).
    pub records: Vec<u32>,
}

impl EncodedFrames {
    /// Splits `records` into frames of `per_frame` records.
    pub fn encode(
        records: &[tempstream_trace::miss::MissRecord<tempstream_trace::MissClass>],
        per_frame: usize,
    ) -> Result<EncodedFrames, String> {
        let mut bytes = Vec::new();
        let mut counts = Vec::new();
        for (i, chunk) in records.chunks(per_frame).enumerate() {
            let seq = u32::try_from(i + 1).map_err(|_| "too many frames".to_string())?;
            let mut out = Vec::new();
            encode_message(Some(seq), &Frame::Ingest(chunk.to_vec()), &mut out)
                .map_err(|e| format!("encode frame {i}: {e}"))?;
            bytes.push(out);
            counts.push(chunk.len() as u32);
        }
        Ok(EncodedFrames {
            bytes,
            records: counts,
        })
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }
}

/// When frames are sent.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// `Some(i)`: open loop, frame `k` is due at `start + k * i` and its
    /// latency runs from that due time. `None`: closed loop, a frame is
    /// due when a window slot frees and its latency runs from its send.
    pub interval: Option<Duration>,
    /// Most frames in flight at once.
    pub window: usize,
    /// Fixed pause after a `Busy` reply during which nothing is sent;
    /// the refused frame is re-sent first when it ends.
    pub busy_pause: Duration,
}

/// What one ingest replay observed.
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Frame indices in ack order: the order the server admitted them.
    pub ack_order: Vec<usize>,
    /// Per acked frame: due time (open loop) or first send (closed
    /// loop) to `IngestAck`, `Busy` retries included.
    pub ack_ms: Vec<f64>,
    /// Per fresh frame: how late the generator sent it after it was
    /// due, or after the window or a `Busy` hold let it go if that was
    /// later. Server backpressure is therefore not lateness.
    pub late_ms: Vec<f64>,
    /// `Busy` replies.
    pub busy: u64,
    /// Frames sent, retries included.
    pub sends: u64,
}

/// Replays every frame once over `conn`, starting at `start`, and
/// returns when each is acknowledged.
pub fn drive_ingest(
    conn: &mut Conn,
    frames: &EncodedFrames,
    schedule: Schedule,
    start: Instant,
) -> Result<IngestOutcome, String> {
    let n = frames.len();
    let window = schedule.window.max(1);
    let mut out = IngestOutcome {
        ack_order: Vec::with_capacity(n),
        ack_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        ..IngestOutcome::default()
    };
    let mut origin = vec![start; n];
    let mut in_flight: VecDeque<usize> = VecDeque::with_capacity(window);
    // Frames refused `Busy`, re-sent first once the hold has passed.
    let mut retries: VecDeque<usize> = VecDeque::new();
    // When each free window slot became free.
    let mut slot_free: VecDeque<Instant> = (0..window).map(|_| start).collect();
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    // A `Busy` reply holds every send, retries and fresh frames alike,
    // until the fixed pause after it has passed.
    let mut hold_until = start;
    let due_at = |k: usize, interval: Duration| start + interval.mul_f64(k as f64);

    while out.ack_order.len() < n {
        let now = Instant::now();
        while in_flight.len() < window && now >= hold_until {
            if let Some(idx) = retries.pop_front() {
                slot_free.pop_front();
                conn.send_bytes(&frames.bytes[idx])?;
                out.sends += 1;
                in_flight.push_back(idx);
                continue;
            }
            if next < n {
                // The earliest the server let this frame go: a window
                // slot has been free, and any `Busy` hold has ended.
                let ready = slot_free.front().map_or(now, |&free| free.max(hold_until));
                let due = schedule
                    .interval
                    .map_or(ready, |interval| due_at(next, interval));
                if due <= now {
                    slot_free.pop_front();
                    origin[next] = if schedule.interval.is_some() {
                        due
                    } else {
                        now
                    };
                    // Lateness is the generator's alone: time spent
                    // held back by the window or a hold is not counted.
                    out.late_ms.push(ms(now - due.max(ready)));
                    conn.send_bytes(&frames.bytes[next])?;
                    out.sends += 1;
                    in_flight.push_back(next);
                    next += 1;
                    continue;
                }
            }
            break;
        }

        // Wait for a reply, but no longer than the next send falls due.
        let mut wake = now + IO_TIMEOUT;
        if in_flight.len() < window {
            match (next < n, schedule.interval) {
                _ if !retries.is_empty() => wake = now,
                (true, Some(interval)) => wake = due_at(next, interval),
                (true, None) => wake = now,
                (false, _) => {}
            }
            wake = wake.max(hold_until);
        }
        let Some(msg) = conn.recv_until(wake)? else {
            if !in_flight.is_empty() && last_progress.elapsed() > IO_TIMEOUT {
                return Err(format!("no ingest reply for {IO_TIMEOUT:?}"));
            }
            continue;
        };
        let idx = in_flight
            .pop_front()
            .ok_or("reply with no request in flight")?;
        if msg.seq != Some(idx as u32 + 1) {
            return Err(format!(
                "frame {idx}: expected seq {}, reply carries {:?}",
                idx + 1,
                msg.seq
            ));
        }
        let at = Instant::now();
        last_progress = at;
        slot_free.push_back(at);
        match msg.frame {
            Frame::IngestAck(k) if k == frames.records[idx] => {
                out.ack_ms.push(ms(at - origin[idx]));
                out.ack_order.push(idx);
            }
            Frame::IngestAck(k) => {
                return Err(format!(
                    "frame {idx}: short ack {k} of {}",
                    frames.records[idx]
                ))
            }
            Frame::Busy => {
                out.busy += 1;
                hold_until = at + schedule.busy_pause;
                retries.push_back(idx);
            }
            Frame::Error { code, message } => {
                return Err(format!("frame {idx}: server error {code}: {message}"))
            }
            other => return Err(format!("frame {idx}: unexpected reply {other:?}")),
        }
    }
    Ok(out)
}

/// Accumulated `QueryDelta` replies: their sums telescope to the
/// absolute answers of the last cut.
#[derive(Debug, Default)]
pub struct DeltaAcc {
    /// `(non_repetitive, new_stream, recurring_stream, distinct_streams)`.
    pub streams: [i64; 4],
    /// `(total, covered, issued)`.
    pub coverage: [i64; 3],
    /// Per-function origin counts.
    pub origins: HashMap<u32, i64>,
    /// Applied watermark of the last reply.
    pub applied: u64,
}

impl DeltaAcc {
    fn absorb(&mut self, d: &DeltaCounts) {
        let s = [
            d.non_repetitive,
            d.new_stream,
            d.recurring_stream,
            d.distinct_streams,
        ];
        for (acc, v) in self.streams.iter_mut().zip(s) {
            *acc += v;
        }
        for (acc, v) in self.coverage.iter_mut().zip([d.total, d.covered, d.issued]) {
            *acc += v;
        }
        for &(function, delta) in &d.origins {
            *self.origins.entry(function).or_insert(0) += delta;
        }
        self.applied = d.applied;
    }

    /// The top `n` origins, count descending then id ascending.
    pub fn top_origins(&self, n: usize) -> Vec<(u32, i64)> {
        let mut rows: Vec<(u32, i64)> = self
            .origins
            .iter()
            .filter(|&(_, &c)| c != 0)
            .map(|(&f, &c)| (f, c))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }
}

/// What the dashboard saw.
#[derive(Debug, Default)]
pub struct DashOutcome {
    /// Per probe, send to reply.
    pub query_ms: Vec<f64>,
    /// The deltas accumulated, ending with one taken after `stop`.
    pub acc: DeltaAcc,
}

/// The first point of the grid `start + k * period` (k = 1, 2, ...)
/// strictly after `now`.
fn next_tick(start: Instant, period: Duration, now: Instant) -> Instant {
    let k = ((now - start).as_secs_f64() / period.as_secs_f64()).floor() + 1.0;
    start + period.mul_f64(k)
}

/// Polls `QueryDelta` on the grid `start + k * period` until `stop` is
/// set, then takes one final untimed delta. It is a closed loop: a probe
/// goes out at the first grid point after the previous reply, so a slow
/// reply skips grid points instead of queueing probes behind it.
pub fn dashboard(
    addr: SocketAddr,
    period: Duration,
    stop: &AtomicBool,
) -> Result<DashOutcome, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = DashOutcome::default();
    let start = Instant::now();
    loop {
        let last = stop.load(Ordering::SeqCst);
        let sent = Instant::now();
        match conn.call(&Frame::QueryDelta)? {
            Frame::DeltaReply(d) => out.acc.absorb(&d),
            other => return Err(format!("dashboard: unexpected reply {other:?}")),
        }
        if last {
            return Ok(out);
        }
        out.query_ms.push(ms(sent.elapsed()));
        let now = Instant::now();
        std::thread::sleep(next_tick(start, period, now) - now);
    }
}

/// The repository's `serve` binary, running in a child process.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `serve --shards N` (built into the same directory as this
    /// binary) and waits for its `LISTENING <addr>` line.
    pub fn spawn(shards: usize) -> Result<ServerProc, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("current exe: {e}"))?
            .with_file_name("serve");
        let mut child = Command::new(&exe)
            .args(["--shards", &shards.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("LISTENING ")?.parse().ok());
        let proc = ServerProc {
            child,
            stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        if addr.is_none() {
            return Err(format!("server did not report an address: {line:?}"));
        }
        Ok(proc)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `Shutdown`, waits until the process reports `DRAINED` and
    /// exits, and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(self.addr)?;
        match conn.call(&Frame::Shutdown)? {
            Frame::ShutdownAck => {}
            other => return Err(format!("unexpected shutdown reply: {other:?}")),
        }
        drop(conn);
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    let mut rest = String::new();
                    self.stdout
                        .read_to_string(&mut rest)
                        .map_err(|e| format!("read server output: {e}"))?;
                    return match rest.trim() {
                        "DRAINED" => Ok(()),
                        other => Err(format!("server exited without draining: {other:?}")),
                    };
                }
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use tempstream_trace::miss::MissRecord;
    use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

    fn records(n: usize) -> Vec<MissRecord<MissClass>> {
        (0..n)
            .map(|i| MissRecord {
                block: Block::new(i as u64),
                cpu: CpuId::new(0),
                thread: ThreadId::new(0),
                function: FunctionId::new(0),
                class: MissClass::Replacement,
            })
            .collect()
    }

    /// Acks every ingest frame at once, except that it stalls for
    /// `stall` before answering frame `stall_at`.
    fn fake_server(listener: TcpListener, stall_at: u32, stall: Duration) {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut asm = MessageAssembler::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut out = Vec::new();
        loop {
            while let Some(msg) = asm.next_message().expect("decode") {
                let Frame::Ingest(batch) = msg.frame else {
                    return;
                };
                if msg.seq == Some(stall_at + 1) {
                    std::thread::sleep(stall);
                }
                out.clear();
                encode_message(msg.seq, &Frame::IngestAck(batch.len() as u32), &mut out)
                    .expect("encode ack");
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => asm.push_bytes(&buf[..n]),
            }
        }
    }

    /// Open-loop latency runs from each frame's due time, so a stall
    /// in the server shows in the frames due during it, not just in the
    /// one frame the server sat on.
    #[test]
    fn injected_stall_shows_in_later_open_loop_latency() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stall = Duration::from_millis(80);
        let server = std::thread::spawn(move || fake_server(listener, 10, stall));
        let frames = EncodedFrames::encode(&records(40 * 4), 4).expect("encode");
        let mut conn = Conn::connect(addr).expect("connect");
        let schedule = Schedule {
            interval: Some(Duration::from_millis(2)),
            window: 64,
            busy_pause: Duration::from_millis(1),
        };
        let out = drive_ingest(&mut conn, &frames, schedule, Instant::now()).expect("drive");
        drop(conn);
        server.join().expect("fake server");
        assert_eq!(out.ack_order, (0..40).collect::<Vec<_>>());
        // Frame 10 is due at 20 ms and answered at ~100 ms; frame 20 is
        // due at 40 ms but queued behind it, so it waits ~60 ms too.
        assert!(out.ack_ms[10] >= 70.0, "stalled frame: {:?}", out.ack_ms);
        assert!(
            out.ack_ms[20] >= 50.0,
            "frame behind the stall: {:?}",
            out.ack_ms
        );
        assert!(
            out.ack_ms[39] < out.ack_ms[20],
            "latency recovers after the stall"
        );
    }

    /// A frame held back by a full window is not late: lateness stays
    /// near zero while the server stalls, though ack latency shows it.
    #[test]
    fn window_backpressure_is_not_generator_lateness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stall = Duration::from_millis(80);
        let server = std::thread::spawn(move || fake_server(listener, 10, stall));
        let frames = EncodedFrames::encode(&records(40 * 4), 4).expect("encode");
        let mut conn = Conn::connect(addr).expect("connect");
        let schedule = Schedule {
            interval: Some(Duration::from_millis(2)),
            window: 2,
            busy_pause: Duration::from_millis(1),
        };
        let out = drive_ingest(&mut conn, &frames, schedule, Instant::now()).expect("drive");
        drop(conn);
        server.join().expect("fake server");
        assert!(
            out.ack_ms[20] >= 50.0,
            "stall not in ack latency: {:?}",
            out.ack_ms
        );
        let late = out.late_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            late < 30.0,
            "window wait counted as lateness: {:?}",
            out.late_ms
        );
    }

    /// A reply that overruns grid points skips them: the next probe goes
    /// out at the first grid point after it, not once per missed point.
    #[test]
    fn dashboard_probes_skip_missed_grid_points() {
        let start = Instant::now();
        let period = Duration::from_millis(100);
        let at = |millis: u64| start + Duration::from_millis(millis);
        assert_eq!(next_tick(start, period, start), at(100));
        assert_eq!(next_tick(start, period, at(30)), at(100));
        assert_eq!(next_tick(start, period, at(250)), at(300));
    }

    #[test]
    fn closed_loop_keeps_window_and_times_from_send() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server =
            std::thread::spawn(move || fake_server(listener, u32::MAX - 1, Duration::ZERO));
        let frames = EncodedFrames::encode(&records(300), 7).expect("encode");
        let mut conn = Conn::connect(addr).expect("connect");
        let schedule = Schedule {
            interval: None,
            window: 4,
            busy_pause: Duration::from_millis(1),
        };
        let out = drive_ingest(&mut conn, &frames, schedule, Instant::now()).expect("drive");
        drop(conn);
        server.join().expect("fake server");
        assert_eq!(out.ack_order.len(), frames.len());
        assert_eq!(out.late_ms.len(), frames.len());
        assert_eq!(out.sends, frames.len() as u64);
        assert!(out.ack_ms.iter().all(|&l| l < 1000.0));
    }
}
