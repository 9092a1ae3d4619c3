//! The sharded ingest queues, their cut markers and drain handshake,
//! plus the per-connection reply queue.
//!
//! [`ShardQueues`] is the ingest admission point: one bounded FIFO
//! lane per shard behind a single mutex. Connection readers split each
//! decoded batch by shard *themselves* (no router thread) and admit
//! the whole frame with one non-blocking
//! [`try_push_batches`](ShardQueues::try_push_batches) — **all lanes
//! or none**, so a frame is either fully queued (acked) or fully
//! refused ([`PushError::Full`] surfaces to the client as `Busy`,
//! [`PushError::Draining`] and [`PushError::Failed`] as errors).
//! Taking every lane under one lock gives admitted frames a single
//! total order, which is what preserves per-connection FIFO per shard —
//! the property the offline bit-identity comparator depends on. Shard
//! workers block in [`pop`](ShardQueues::pop) on their own lane until
//! work arrives or the queue is drained: [`drain`](ShardQueues::drain)
//! marks every lane closed and wakes every sleeper, after which `pop`
//! hands out the remaining backlog and then returns `None` — the
//! worker's signal to finish and report. Emptied sub-batch buffers are
//! [`recycle`](ShardQueues::recycle)d through an internal free list so
//! the steady-state hot path allocates nothing.
//!
//! Queries ride the same lanes as **cut markers**:
//! [`try_push_cut`](ShardQueues::try_push_cut) appends one marker to
//! every lane under the admission lock, so every lane holds exactly the
//! frames admitted before it ahead of its marker — a consistent cut by
//! construction (Chandy–Lamport markers over FIFO channels), with no
//! lock held across shards while they answer. The push returns the
//! cut's watermark, the records admitted before it. Each lane's worker
//! answers its part into the marker's [`Cut`] collector when it pops
//! the marker, in parallel with the other lanes; the last answer wakes
//! the querier. Markers do not count against lane capacity (each
//! querier has at most one cut in flight). A lane whose worker died is
//! [`fail`](ShardQueues::fail)ed: its queued markers come back to the
//! caller to be failed, and later admissions touching it are refused.
//!
//! [`ReplyQueue`] is the per-connection counterpart on the outbound
//! side: the connection reader pushes reply frames (blocking when the
//! socket writer falls behind — per-connection backpressure), the
//! writer pops and sends them, and either side may
//! [`close`](ReplyQueue::close) the queue when its half of the
//! connection dies. FIFO delivery here *is* the protocol property that
//! pipelined replies leave in dispatch order.
//!
//! All synchronization goes through the [`tempstream_runtime::sync`]
//! shim, so the whole handshake is explorable by the schedule checker;
//! `tempstream-schedcheck` registers closed models over these exact
//! types (`serve_routing_fifo`, `serve_routing_admission`,
//! `serve_routing_drain`, `serve_cut_marker`, `serve_reply_fifo`,
//! `serve_reply_writer_exit`) plus mutations
//! ([`ShardQueues::new_lossy_for_modelcheck`],
//! [`Cut::new_lossy_for_modelcheck`],
//! [`ReplyQueue::new_lossy_for_modelcheck`]) proving a dropped drain,
//! cut-answer or close signal is caught as a deadlock.

use std::collections::VecDeque;
use tempstream_runtime::sync::{Arc, Condvar, Mutex};

/// Sub-batch buffers kept on the free list; beyond this, emptied
/// buffers are simply dropped.
const FREE_LIST_CAP: usize = 64;

/// Why an admission was refused; the payload (if any) comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// A target lane is at capacity (backpressure — reply `Busy`).
    Full(T),
    /// The queues are draining and accept no new work.
    Draining(T),
    /// A target lane's worker has failed and will never apply it.
    Failed(T),
}

/// One entry of a shard lane.
#[derive(Debug, PartialEq, Eq)]
pub enum LaneItem<T, M> {
    /// Records routed to the lane's shard, in admission order.
    Batch(Vec<T>),
    /// A cut marker: every batch admitted before it precedes it in
    /// every lane.
    Marker(Arc<M>),
}

#[derive(Debug)]
struct Lane<T, M> {
    items: VecDeque<LaneItem<T, M>>,
    /// Sub-batches in `items`; markers do not count against capacity.
    batches: usize,
    max_depth: usize,
    /// The lane's worker died: nothing is queued here any more.
    failed: bool,
}

#[derive(Debug)]
struct SqState<T, M> {
    lanes: Vec<Lane<T, M>>,
    draining: bool,
    /// Records admitted so far: the watermark each new marker cuts at.
    admitted: u64,
    /// Emptied sub-batch buffers, cleared but with capacity retained.
    free: Vec<Vec<T>>,
}

/// Bounded per-shard FIFO lanes with all-or-nothing batch admission,
/// cut markers of type `M`, and an explicit drain signal. See the
/// module docs for the protocol.
#[derive(Debug)]
pub struct ShardQueues<T, M = ()> {
    state: Mutex<SqState<T, M>>,
    /// One condvar per lane; that lane's worker waits here for items
    /// (or the drain signal). Pushers never wait.
    ready: Vec<Condvar>,
    /// Per-lane capacity in sub-batches.
    capacity: usize,
    /// Injected bug for the schedule checker's mutation gate: when set,
    /// `drain` flips the flag but "loses" its wakeups.
    lossy_drain: bool,
}

impl<T, M> ShardQueues<T, M> {
    /// Creates `lanes` lanes, each holding at most `capacity`
    /// sub-batches.
    pub fn new(lanes: usize, capacity: usize) -> Self {
        let lanes = lanes.max(1);
        ShardQueues {
            state: Mutex::new(SqState {
                lanes: (0..lanes)
                    .map(|_| Lane {
                        items: VecDeque::with_capacity(capacity.min(1024)),
                        batches: 0,
                        max_depth: 0,
                        failed: false,
                    })
                    .collect(),
                draining: false,
                admitted: 0,
                free: Vec::new(),
            }),
            ready: (0..lanes).map(|_| Condvar::new()).collect(),
            capacity: capacity.max(1),
            lossy_drain: false,
        }
    }

    /// Creates queues whose `drain` drops its wakeups — the schedule
    /// checker's mutation gate proves this lost signal is caught as a
    /// deadlock. Never use outside model checking.
    #[doc(hidden)]
    pub fn new_lossy_for_modelcheck(lanes: usize, capacity: usize) -> Self {
        let mut q = Self::new(lanes, capacity);
        q.lossy_drain = true;
        q
    }

    /// Number of lanes (= shards).
    pub fn lanes(&self) -> usize {
        self.ready.len()
    }

    /// Per-lane capacity the queues were built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sub-batches currently queued on `lane` (markers excluded).
    pub fn len(&self, lane: usize) -> usize {
        self.state.lock().lanes[lane].batches
    }

    /// True when no sub-batch is queued on `lane`.
    pub fn is_empty(&self, lane: usize) -> bool {
        self.len(lane) == 0
    }

    /// High-water mark of `lane`'s depth in sub-batches.
    pub fn max_depth(&self, lane: usize) -> usize {
        self.state.lock().lanes[lane].max_depth
    }

    /// Non-blocking all-or-nothing admission of one split batch.
    ///
    /// `subs` must have exactly [`lanes`](ShardQueues::lanes) entries:
    /// `subs[i]` is the sub-batch destined for lane `i` (empty entries
    /// are skipped). If every non-empty sub-batch fits its lane, all of
    /// them are enqueued under one critical section — a single total
    /// admission order across every pusher — and each moved slot is
    /// refilled with an empty recycled buffer so the caller's scratch
    /// keeps its allocations. If *any* target lane is full or failed
    /// (or the queues are draining) **nothing** is enqueued and `subs`
    /// is left untouched, so a refused frame can be retried or
    /// discarded whole.
    ///
    /// # Errors
    ///
    /// [`PushError::Draining`] after [`drain`](ShardQueues::drain),
    /// [`PushError::Failed`] if any target lane is
    /// [`fail`](ShardQueues::fail)ed, [`PushError::Full`] if any target
    /// lane is at capacity (the backpressure signal).
    ///
    /// # Panics
    ///
    /// If `subs.len()` differs from the lane count.
    pub fn try_push_batches(&self, subs: &mut [Vec<T>]) -> Result<(), PushError<()>> {
        assert_eq!(subs.len(), self.ready.len(), "one sub-batch per lane");
        let mut state = self.state.lock();
        if state.draining {
            return Err(PushError::Draining(()));
        }
        let targets = || subs.iter().enumerate().filter(|(_, sub)| !sub.is_empty());
        if targets().any(|(i, _)| state.lanes[i].failed) {
            return Err(PushError::Failed(()));
        }
        if targets().any(|(i, _)| state.lanes[i].batches >= self.capacity) {
            return Err(PushError::Full(()));
        }
        let mut touched = [false; 64];
        let mut touched_big = Vec::new();
        for (i, sub) in subs.iter_mut().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let replacement = state.free.pop().unwrap_or_default();
            let batch = std::mem::replace(sub, replacement);
            state.admitted += batch.len() as u64;
            let lane = &mut state.lanes[i];
            lane.items.push_back(LaneItem::Batch(batch));
            lane.batches += 1;
            lane.max_depth = lane.max_depth.max(lane.batches);
            if i < touched.len() {
                touched[i] = true;
            } else {
                touched_big.push(i);
            }
        }
        drop(state);
        for (i, hit) in touched.iter().enumerate().take(self.ready.len()) {
            if *hit {
                self.ready[i].notify_one();
            }
        }
        for i in touched_big {
            self.ready[i].notify_one();
        }
        Ok(())
    }

    /// Non-blocking admission of a cut marker: appends `marker` to
    /// every lane under the admission lock, so each lane's worker meets
    /// it after exactly the batches admitted before it. Markers do not
    /// count against lane capacity. Returns the cut's watermark: the
    /// records admitted before the marker.
    ///
    /// # Errors
    ///
    /// [`PushError::Draining`] after [`drain`](ShardQueues::drain) (the
    /// workers may already have finished), [`PushError::Failed`] if any
    /// lane is [`fail`](ShardQueues::fail)ed. Either way no lane holds
    /// the marker.
    pub fn try_push_cut(&self, marker: &Arc<M>) -> Result<u64, PushError<()>> {
        let mut state = self.state.lock();
        if state.draining {
            return Err(PushError::Draining(()));
        }
        if state.lanes.iter().any(|lane| lane.failed) {
            return Err(PushError::Failed(()));
        }
        for lane in &mut state.lanes {
            lane.items.push_back(LaneItem::Marker(Arc::clone(marker)));
        }
        let watermark = state.admitted;
        drop(state);
        for cv in &self.ready {
            cv.notify_one();
        }
        Ok(watermark)
    }

    /// Blocking pop for `lane`'s worker: the next item, or `None` once
    /// the queues are drained *and* the lane is empty (every queued
    /// item is always delivered first).
    pub fn pop(&self, lane: usize) -> Option<LaneItem<T, M>> {
        let mut state = self.state.lock();
        loop {
            let lane_state = &mut state.lanes[lane];
            if let Some(item) = lane_state.items.pop_front() {
                if matches!(item, LaneItem::Batch(_)) {
                    lane_state.batches -= 1;
                }
                return Some(item);
            }
            if state.draining {
                return None;
            }
            state = self.ready[lane].wait(state);
        }
    }

    /// Marks `lane` failed because its worker died: its queued batches
    /// are discarded, later admissions touching it and every later cut
    /// are refused with [`PushError::Failed`], and the markers still
    /// queued on it are returned so the caller can fail their cuts.
    /// `pop` on the lane then waits for the drain and returns `None`.
    pub fn fail(&self, lane: usize) -> Vec<Arc<M>> {
        let mut state = self.state.lock();
        let lane = &mut state.lanes[lane];
        lane.failed = true;
        lane.batches = 0;
        lane.items
            .drain(..)
            .filter_map(|item| match item {
                LaneItem::Marker(marker) => Some(marker),
                LaneItem::Batch(_) => None,
            })
            .collect()
    }

    /// Returns an emptied sub-batch buffer to the free list (capacity
    /// retained) so future admissions can reuse it instead of
    /// allocating. Buffers past the free-list cap are dropped.
    pub fn recycle(&self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        let mut state = self.state.lock();
        if state.free.len() < FREE_LIST_CAP {
            state.free.push(buf);
        }
    }

    /// Marks every lane draining and wakes every waiter: pushers see
    /// `Draining`, workers finish their lane's backlog and then get
    /// `None`.
    pub fn drain(&self) {
        let mut state = self.state.lock();
        state.draining = true;
        drop(state);
        if !self.lossy_drain {
            for cv in &self.ready {
                cv.notify_all();
            }
        }
    }

    /// True once [`drain`](ShardQueues::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.state.lock().draining
    }
}

/// A cut that cannot complete: some lane's worker failed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneFailed;

#[derive(Debug)]
struct CutState<P> {
    parts: Vec<Option<P>>,
    /// Lanes that have neither answered nor failed.
    pending: usize,
    failed: bool,
}

/// The collector of one consistent cut: one slot per lane, filled by
/// that lane's worker when it pops the cut's marker. The querier
/// [`wait`](Cut::wait)s until every lane has answered (or failed); the
/// last lane to settle wakes it.
#[derive(Debug)]
pub struct Cut<P> {
    state: Mutex<CutState<P>>,
    /// The querier waits here for the last lane to settle.
    settled: Condvar,
    /// Injected bug for the schedule checker's mutation gate: when set,
    /// the last answer is stored but its wakeup is "lost".
    lossy: bool,
}

impl<P> Cut<P> {
    /// A cut over `lanes` lanes, none answered yet.
    pub fn new(lanes: usize) -> Self {
        Cut {
            state: Mutex::new(CutState {
                parts: (0..lanes).map(|_| None).collect(),
                pending: lanes,
                failed: false,
            }),
            settled: Condvar::new(),
            lossy: false,
        }
    }

    /// Creates a cut whose last answer drops its wakeup — the schedule
    /// checker's mutation gate proves this lost signal is caught as a
    /// deadlock. Never use outside model checking.
    #[doc(hidden)]
    pub fn new_lossy_for_modelcheck(lanes: usize) -> Self {
        let mut cut = Self::new(lanes);
        cut.lossy = true;
        cut
    }

    /// Stores `lane`'s part of the answer.
    pub fn answer(&self, lane: usize, part: P) {
        self.settle(|state| state.parts[lane] = Some(part));
    }

    /// Settles one lane without an answer: its worker died before
    /// reaching the marker.
    pub fn fail(&self) {
        self.settle(|state| state.failed = true);
    }

    fn settle(&self, record: impl FnOnce(&mut CutState<P>)) {
        let mut state = self.state.lock();
        record(&mut state);
        state.pending -= 1;
        let last = state.pending == 0;
        drop(state);
        if last && !self.lossy {
            self.settled.notify_all();
        }
    }

    /// Blocks until every lane has settled; returns the parts in lane
    /// order.
    ///
    /// # Errors
    ///
    /// [`LaneFailed`] if any lane failed instead of answering.
    pub fn wait(&self) -> Result<Vec<P>, LaneFailed> {
        let mut state = self.state.lock();
        while state.pending > 0 {
            state = self.settled.wait(state);
        }
        if state.failed {
            return Err(LaneFailed);
        }
        Ok(state.parts.drain(..).flatten().collect())
    }
}

#[derive(Debug)]
struct ReplyState<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// A bounded FIFO reply queue between one connection's reader and its
/// socket writer.
///
/// The reader [`push`](ReplyQueue::push)es each reply as it dispatches
/// the request, blocking when the writer falls behind (per-connection
/// backpressure: a slow client throttles only its own pipeline). The
/// writer [`pop`](ReplyQueue::pop)s in strict FIFO order — replies
/// leave the connection in exactly the order requests were dispatched,
/// which is what lets a pipelined client match replies to requests.
/// Either side [`close`](ReplyQueue::close)s the queue when its half of
/// the connection ends: pushes then fail (the reader learns the writer
/// is gone), pops drain the backlog and return `None`.
#[derive(Debug)]
pub struct ReplyQueue<T> {
    state: Mutex<ReplyState<T>>,
    /// The writer waits here for replies (or the close signal).
    ready: Condvar,
    /// A blocked reader waits here for space (or the close signal).
    space: Condvar,
    capacity: usize,
    /// Injected bug for the schedule checker's mutation gate: when set,
    /// `close` flips the flag but "loses" its wakeup.
    lossy_close: bool,
}

impl<T> ReplyQueue<T> {
    /// Creates a queue holding at most `capacity` replies.
    pub fn new(capacity: usize) -> Self {
        ReplyQueue {
            state: Mutex::new(ReplyState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            lossy_close: false,
        }
    }

    /// Creates a queue whose `close` drops its `notify_all` — the
    /// schedule checker's mutation gate proves this lost signal is
    /// caught as a deadlock. Never use outside model checking.
    #[doc(hidden)]
    pub fn new_lossy_for_modelcheck(capacity: usize) -> Self {
        let mut q = Self::new(capacity);
        q.lossy_close = true;
        q
    }

    /// Capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Replies currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the queue depth.
    pub fn max_depth(&self) -> usize {
        self.state.lock().max_depth
    }

    /// True once [`close`](ReplyQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Blocking push: waits for space while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item if the queue is closed — now or while waiting —
    /// meaning the writer is gone and the reply can never be delivered.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                state.max_depth = state.max_depth.max(state.items.len());
                drop(state);
                self.ready.notify_one();
                return Ok(());
            }
            state = self.space.wait(state);
        }
    }

    /// Blocking pop: the next reply in FIFO order, or `None` once the
    /// queue is closed *and* empty (every queued reply is always
    /// delivered first).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state);
        }
    }

    /// Closes the queue (idempotent) and wakes every waiter: pushes
    /// fail from now on, pops finish the backlog and then get `None`.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        if !self.lossy_close {
            self.ready.notify_all();
            self.space.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Pops `lane` until the drained queues return `None`, collecting
    /// the records of its batches in order.
    fn drain_lane<M>(q: &ShardQueues<u32, M>, lane: usize) -> Vec<u32> {
        std::iter::from_fn(|| q.pop(lane))
            .flat_map(|item| match item {
                LaneItem::Batch(batch) => batch,
                LaneItem::Marker(_) => Vec::new(),
            })
            .collect()
    }

    /// Splits `items` into `lanes` sub-batch vectors round-robin.
    fn split(items: &[u32], lanes: usize) -> Vec<Vec<u32>> {
        let mut per = vec![Vec::new(); lanes];
        for (i, &v) in items.iter().enumerate() {
            per[i % lanes].push(v);
        }
        per
    }

    #[test]
    fn per_lane_fifo_and_depth_tracking() {
        let q = ShardQueues::<u32>::new(2, 4);
        for round in 0..3u32 {
            let mut subs = split(&[round * 2, round * 2 + 1], 2);
            q.try_push_batches(&mut subs).unwrap();
            assert!(
                subs.iter().all(Vec::is_empty),
                "accepted slots refilled empty"
            );
        }
        assert_eq!(q.len(0), 3);
        assert_eq!(q.max_depth(1), 3);
        q.drain();
        let mut refused = split(&[8, 9], 2);
        assert_eq!(
            q.try_push_batches(&mut refused),
            Err(PushError::Draining(()))
        );
        assert_eq!(refused[0], [8], "refused sub-batches left untouched");
        let lane0 = drain_lane(&q, 0);
        let lane1 = drain_lane(&q, 1);
        assert_eq!(lane0, [0, 2, 4], "lane 0 FIFO");
        assert_eq!(lane1, [1, 3, 5], "lane 1 FIFO");
        assert!(q.pop(0).is_none(), "drained queue stays closed");
    }

    #[test]
    fn admission_is_all_lanes_or_none() {
        let q = ShardQueues::<u32>::new(2, 1);
        let mut first = split(&[0, 1], 2);
        q.try_push_batches(&mut first).unwrap();
        // Lane 1 is now full: the whole frame must be refused, with
        // lane 0 receiving nothing even though it has space.
        let mut second = split(&[2, 3], 2);
        assert_eq!(q.try_push_batches(&mut second), Err(PushError::Full(())));
        assert_eq!(second[0], [2], "refused frame keeps its records");
        assert_eq!(q.len(0), 1, "partial admission must not happen");
        // Free lane 0; a frame targeting only that lane then goes in
        // even while lane 1 is still full (empty slots don't count).
        assert_eq!(q.pop(0), Some(LaneItem::Batch(vec![0])));
        let mut third = vec![vec![4u32], Vec::new()];
        q.try_push_batches(&mut third).unwrap();
        q.drain();
        assert_eq!(drain_lane(&q, 0), [4]);
        assert_eq!(drain_lane(&q, 1), [1]);
    }

    #[test]
    fn recycled_buffers_are_reused_for_accepted_slots() {
        let q: ShardQueues<u32> = ShardQueues::new(1, 4);
        let mut buf = Vec::with_capacity(128);
        buf.push(1u32);
        buf.clear();
        let cap = buf.capacity();
        q.recycle(buf);
        let mut subs = vec![vec![7u32]];
        q.try_push_batches(&mut subs).unwrap();
        assert!(subs[0].is_empty());
        assert_eq!(
            subs[0].capacity(),
            cap,
            "accepted slot refilled from the free list"
        );
    }

    #[test]
    fn drain_wakes_blocked_lane_workers() {
        let q = Arc::new(ShardQueues::<u32>::new(2, 8));
        let handles: Vec<_> = (0..2)
            .map(|lane| {
                let q = Arc::clone(&q);
                thread::spawn(move || drain_lane(&q, lane))
            })
            .collect();
        for round in 0..5u32 {
            let mut subs = split(&[round * 2, round * 2 + 1], 2);
            q.try_push_batches(&mut subs).unwrap();
        }
        q.drain();
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cut_markers_land_behind_admitted_batches_in_every_lane() {
        let q = ShardQueues::<u32, &str>::new(2, 1);
        q.try_push_batches(&mut [vec![1, 2], vec![3]]).unwrap();
        // Both lanes are full, yet the marker goes in: markers do not
        // count against capacity, and the watermark counts every
        // record admitted before it.
        let marker = Arc::new("cut");
        assert_eq!(q.try_push_cut(&marker), Ok(3));
        assert_eq!(q.len(0), 1, "a marker is not a sub-batch");
        assert_eq!(q.max_depth(1), 1);
        q.try_push_batches(&mut [Vec::new(), Vec::new()]).unwrap();
        assert_eq!(
            q.try_push_batches(&mut [vec![4], Vec::new()]),
            Err(PushError::Full(()))
        );
        assert_eq!(q.pop(0), Some(LaneItem::Batch(vec![1, 2])));
        q.try_push_batches(&mut [vec![4], Vec::new()]).unwrap();
        assert_eq!(q.pop(0), Some(LaneItem::Marker(Arc::clone(&marker))));
        assert_eq!(q.pop(0), Some(LaneItem::Batch(vec![4])));
        assert_eq!(q.pop(1), Some(LaneItem::Batch(vec![3])));
        assert_eq!(q.pop(1), Some(LaneItem::Marker(Arc::clone(&marker))));
        assert_eq!(q.try_push_cut(&marker), Ok(4), "watermark only grows");
        q.drain();
        assert_eq!(q.try_push_cut(&marker), Err(PushError::Draining(())));
    }

    #[test]
    fn failed_lane_hands_back_its_markers_and_refuses_new_work() {
        let q = ShardQueues::<u32, u32>::new(2, 4);
        q.try_push_batches(&mut [vec![1], vec![2]]).unwrap();
        let marker = Arc::new(7);
        q.try_push_cut(&marker).unwrap();
        q.try_push_batches(&mut [vec![3], Vec::new()]).unwrap();
        assert_eq!(q.fail(0), [Arc::clone(&marker)], "queued marker returned");
        assert!(q.is_empty(0), "queued batches discarded");
        assert_eq!(
            q.try_push_batches(&mut [vec![4], Vec::new()]),
            Err(PushError::Failed(()))
        );
        // A frame that does not touch the failed lane still goes in.
        q.try_push_batches(&mut [Vec::new(), vec![5]]).unwrap();
        assert_eq!(q.try_push_cut(&marker), Err(PushError::Failed(())));
        q.drain();
        assert!(q.pop(0).is_none(), "a failed lane pops nothing");
        let lane1: Vec<_> = std::iter::from_fn(|| q.pop(1)).collect();
        assert_eq!(
            lane1,
            [
                LaneItem::Batch(vec![2]),
                LaneItem::Marker(marker),
                LaneItem::Batch(vec![5])
            ]
        );
    }

    #[test]
    fn cut_returns_parts_in_lane_order_once_every_lane_settles() {
        let cut = Arc::new(Cut::new(3));
        let answerers: Vec<_> = [2usize, 0, 1]
            .into_iter()
            .map(|lane| {
                let cut = Arc::clone(&cut);
                thread::spawn(move || cut.answer(lane, lane * 10))
            })
            .collect();
        assert_eq!(cut.wait(), Ok(vec![0, 10, 20]));
        for a in answerers {
            a.join().unwrap();
        }
        let failed = Cut::new(2);
        failed.answer(1, 'b');
        failed.fail();
        assert_eq!(failed.wait(), Err(LaneFailed));
    }

    #[test]
    fn reply_queue_is_fifo_and_drains_backlog_after_close() {
        let q = ReplyQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.max_depth(), 4);
        q.close();
        assert_eq!(q.push(9), Err(9), "closed queue refuses new replies");
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, [0, 1, 2, 3], "backlog delivered in FIFO order");
        assert!(q.pop().is_none(), "closed queue stays closed");
    }

    #[test]
    fn reply_close_wakes_blocked_pusher() {
        let q = Arc::new(ReplyQueue::new(1));
        q.push(0u32).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1))
        };
        thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(1));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reply_close_wakes_blocked_popper() {
        let q = Arc::new(ReplyQueue::<u32>::new(2));
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
