//! The closed models the checker explores.
//!
//! Each model is a small deterministic multi-threaded program built
//! entirely on runtime primitives, with its correctness properties
//! stated as assertions:
//!
//! * **deque** models — no job is lost or duplicated across concurrent
//!   owner pops and thief steals, owner order is LIFO, thief order is
//!   FIFO;
//! * **pool** models — every spawned job (including jobs spawned by
//!   jobs) runs exactly once and the pool shuts down cleanly;
//! * **serve** models — the server's bounded [`ShardQueues`] (the
//!   reader-side routing lanes): all-or-nothing admission of split
//!   batches racing lane workers never half-admits a frame and never
//!   loses anything it accepted, per-lane delivery stays FIFO, and the
//!   drain handshake delivers every lane's backlog to its worker before
//!   the workers observe the close; the per-connection [`ReplyQueue`]:
//!   pipelined replies leave in strict FIFO dispatch order, and a
//!   writer closing the queue under a blocked reader bounces the
//!   undeliverable reply back instead of losing it or hanging; and the
//!   cut-marker handshake: a query's [`Cut`] collects exactly the
//!   records admitted before its marker, and the last answer wakes the
//!   querier.
//!
//! Deadlock-freedom and lost-wakeup-freedom need no assertions: the
//! scheduler itself reports any execution where every live thread
//! blocks.

use tempstream_runtime::deque::WorkDeque;
use tempstream_runtime::pool;
use tempstream_runtime::sync::atomic::{AtomicUsize, Ordering};
use tempstream_runtime::sync::{thread, Arc};
use tempstream_serve::queue::{Cut, LaneItem, PushError, ReplyQueue, ShardQueues};

/// An owner popping (LIFO) races a thief stealing (FIFO) over four
/// queued jobs: the union is exactly the original set, the owner's
/// sequence strictly decreases, the thief's strictly increases.
pub fn deque_steal_race() {
    let deque = Arc::new(WorkDeque::new());
    for i in 0..4u32 {
        deque.push(i);
    }
    let d = Arc::clone(&deque);
    let thief = thread::spawn(move || {
        let mut stolen = Vec::new();
        while let Some(v) = d.steal() {
            stolen.push(v);
        }
        stolen
    });
    let mut popped = Vec::new();
    while let Some(v) = deque.pop() {
        popped.push(v);
    }
    let stolen = thief.join().expect("thief clean");
    let mut all = popped.clone();
    all.extend(&stolen);
    all.sort_unstable();
    assert_eq!(all, [0, 1, 2, 3], "jobs lost or duplicated across steals");
    assert!(
        popped.windows(2).all(|w| w[0] > w[1]),
        "owner must pop LIFO: {popped:?}"
    );
    assert!(
        stolen.windows(2).all(|w| w[0] < w[1]),
        "thief must steal FIFO: {stolen:?}"
    );
}

fn pool_model(workers: usize, jobs: usize) {
    let ran = AtomicUsize::new(0);
    pool::scope(workers, |p| {
        for _ in 0..jobs {
            p.spawn(|w| {
                ran.fetch_add(1, Ordering::SeqCst);
                // A dependent job exercises the worker-deque path.
                w.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
    });
    // `scope` returning at all is the clean-shutdown property; the
    // count is exactly-once execution.
    assert_eq!(
        ran.load(Ordering::SeqCst),
        2 * jobs,
        "jobs lost or duplicated"
    );
}

/// One worker, two injector jobs each spawning a dependent job: all
/// four run exactly once and the pool quiesces and shuts down.
pub fn pool_single_worker() {
    pool_model(1, 2);
}

/// Two workers, two fan-out jobs: adds the steal path and the
/// worker-vs-worker wakeup races.
pub fn pool_two_workers() {
    pool_model(2, 2);
}

// --- serve routing-lane models --------------------------------------------

/// Pops `lane` until the drained queues return `None`, collecting the
/// records of its batches in order.
fn drain_lane<M>(queues: &ShardQueues<u32, M>, lane: usize) -> Vec<u32> {
    let mut got = Vec::new();
    while let Some(item) = queues.pop(lane) {
        if let LaneItem::Batch(batch) = item {
            got.extend(batch);
        }
    }
    got
}

/// A connection reader streams three split batches onto two routing
/// lanes while lane 0's worker races it; lane capacity 3 means every
/// admission succeeds. Lane 0 must deliver exactly `[0, 1, 2]` in push
/// order and then observe the close; lane 1's backlog survives the
/// drain intact and ordered. Per-lane FIFO here is what makes
/// reader-side routing order-equivalent to the old single router.
pub fn serve_routing_fifo() {
    let queues = Arc::new(ShardQueues::<u32>::new(2, 3));
    let worker_queues = Arc::clone(&queues);
    let worker = thread::spawn(move || drain_lane(&worker_queues, 0));
    for i in 0..3u32 {
        let mut subs = vec![vec![i], vec![10 + i]];
        queues
            .try_push_batches(&mut subs)
            .expect("capacity 3 admits all three frames");
    }
    queues.drain();
    let got = worker.join().expect("worker clean");
    assert_eq!(got, [0, 1, 2], "lane 0 lost, duplicated, or reordered");
    assert!(queues.pop(0).is_none(), "drained lane stays closed");
    let lane1 = drain_lane(&queues, 1);
    assert_eq!(lane1, [10, 11, 12], "lane 1 backlog delivered after drain");
}

/// The admission path: all-or-nothing `try_push_batches` against a
/// racing lane worker never blocks, never half-admits, and never lies —
/// a frame blocked by ANY full lane leaves every lane untouched, and
/// whatever was reported accepted is exactly what the workers receive.
pub fn serve_routing_admission() {
    let queues = Arc::new(ShardQueues::<u32>::new(2, 1));
    let worker_queues = Arc::clone(&queues);
    let worker = thread::spawn(move || drain_lane(&worker_queues, 0));
    let mut accepted = vec![1u32];
    let mut first = vec![vec![1u32], vec![2]];
    queues
        .try_push_batches(&mut first)
        .expect("empty lanes accept");
    // Nothing pops lane 1, so it stays full: the next split frame must
    // be refused whole — lane 0 gets nothing even when it has space.
    let mut second = vec![vec![3u32], vec![4]];
    assert_eq!(
        queues.try_push_batches(&mut second),
        Err(PushError::Full(())),
        "a full lane must refuse the whole frame"
    );
    assert_eq!(second[0], [3], "refused frame keeps its records");
    // A lane-0-only frame races the worker: accepted or refused, its
    // fate must match what the worker ends up delivering.
    let mut third = vec![vec![5u32], Vec::new()];
    if queues.try_push_batches(&mut third).is_ok() {
        accepted.push(5);
    }
    queues.drain();
    let got = worker.join().expect("worker clean");
    assert_eq!(got, accepted, "delivered set must equal the accepted set");
    let lane1 = drain_lane(&queues, 1);
    assert_eq!(lane1, [2], "lane 1 holds exactly the admitted sub-batch");
}

/// The per-connection reply path under pipelining: the reader pushes
/// three sequenced replies through a capacity-1 [`ReplyQueue`]
/// (blocking whenever the writer lags — the backpressure path) and
/// closes; the writer must drain exactly `[0, 1, 2]` in order and then
/// observe the close. FIFO here *is* the protocol property that lets a
/// pipelined client match replies to requests by position.
pub fn serve_reply_fifo() {
    let queue = Arc::new(ReplyQueue::new(1));
    let reader_queue = Arc::clone(&queue);
    let reader = thread::spawn(move || {
        for i in 0..3u32 {
            reader_queue.push(i).expect("writer alive for the stream");
        }
        reader_queue.close();
    });
    let mut got = Vec::new();
    while let Some(v) = queue.pop() {
        got.push(v);
    }
    reader.join().expect("reader clean");
    assert_eq!(got, [0, 1, 2], "replies lost, duplicated, or reordered");
    assert!(queue.pop().is_none(), "closed queue stays closed");
}

/// The writer-exit race: the socket writer closes the reply queue out
/// from under a reader mid-push (peer hung up). In every interleaving
/// each reply is either delivered (still poppable after the close) or
/// bounced back to the reader — never silently dropped — and whatever
/// was delivered kept FIFO order. The close waking a parked pusher is
/// the lost-wakeup property the mutation gate breaks on purpose.
pub fn serve_reply_writer_exit() {
    let queue = Arc::new(ReplyQueue::new(1));
    let reader_queue = Arc::clone(&queue);
    let reader = thread::spawn(move || {
        let first = reader_queue.push(0u32);
        let second = reader_queue.push(1u32);
        (first, second)
    });
    queue.close();
    let (first, second) = reader.join().expect("reader clean");
    let mut delivered = Vec::new();
    while let Some(v) = queue.pop() {
        delivered.push(v);
    }
    assert!(
        delivered.windows(2).all(|w| w[0] < w[1]),
        "FIFO violated: {delivered:?}"
    );
    let mut all = delivered;
    if let Err(v) = first {
        all.push(v);
    }
    if let Err(v) = second {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(all, [0, 1], "a reply vanished at writer exit");
}

/// Both lane workers race the drain handshake (the server's shutdown
/// topology in miniature): each worker must receive exactly its lane's
/// sub-batch before observing the close — `drain`'s per-lane wakeups
/// must reach every parked worker, and no sub-batch may leak across
/// lanes or vanish.
pub fn serve_routing_drain() {
    let queues = Arc::new(ShardQueues::<u32>::new(2, 2));
    let workers: Vec<_> = (0..2)
        .map(|lane| {
            let q = Arc::clone(&queues);
            thread::spawn(move || drain_lane(&q, lane))
        })
        .collect();
    let mut subs = vec![vec![0u32], vec![1]];
    queues.try_push_batches(&mut subs).expect("accepting");
    queues.drain();
    let results: Vec<Vec<u32>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker clean"))
        .collect();
    assert_eq!(results[0], [0], "lane 0 worker gets exactly its sub-batch");
    assert_eq!(results[1], [1], "lane 1 worker gets exactly its sub-batch");
}

/// The query path's marker handshake: an ingester admits two frames
/// (1 and 2 records) while the querier (the root thread) pushes a cut
/// marker and waits on its [`Cut`], and the lane's worker applies
/// batches and answers the marker with the records it has applied so
/// far. In every interleaving the querier's part must equal exactly the
/// watermark `try_push_cut` returned — the records admitted before the
/// marker, no more and no fewer — and the worker's last answer must
/// wake the querier. `cut` is the collector under test (the mutation
/// gate passes one that drops that wakeup).
pub fn cut_marker(cut: Cut<u64>) {
    let queues = Arc::new(ShardQueues::<u32, Cut<u64>>::new(1, 2));
    let worker_queues = Arc::clone(&queues);
    let worker = thread::spawn(move || {
        let mut applied = 0u64;
        while let Some(item) = worker_queues.pop(0) {
            match item {
                LaneItem::Batch(batch) => applied += batch.len() as u64,
                LaneItem::Marker(cut) => cut.answer(0, applied),
            }
        }
        applied
    });
    let ingest_queues = Arc::clone(&queues);
    let ingester = thread::spawn(move || {
        for frame in [vec![1u32], vec![2, 3]] {
            ingest_queues
                .try_push_batches(&mut [frame])
                .expect("capacity 2 admits both frames");
        }
    });
    let cut = Arc::new(cut);
    let watermark = queues.try_push_cut(&cut).expect("queues are open");
    let parts = cut.wait().expect("no lane fails");
    assert_eq!(
        parts,
        [watermark],
        "the cut must see exactly the records admitted before its marker"
    );
    ingester.join().expect("ingester clean");
    queues.drain();
    assert_eq!(worker.join().expect("worker clean"), 3);
}

/// [`cut_marker`] over the correct collector.
pub fn serve_cut_marker() {
    cut_marker(Cut::new(1));
}
