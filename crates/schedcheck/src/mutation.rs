//! The mutation tests: deliberately broken primitives the checker must
//! catch.
//!
//! [`LossyQueue`] is a minimal condvar-guarded queue with an injectable
//! bug: when constructed lossy, `push` skips its `notify_one`. The
//! classic lost-wakeup schedule — consumer checks the queue, finds it
//! empty, and parks; producer then pushes without notifying — deadlocks
//! the consumer forever. [`lossy_model`] must therefore fail
//! exploration (it does, with one preemption), while [`control_model`]
//! — the same program with the notify intact — must pass at the same
//! bound. Together they prove the checker discriminates real lost
//! wakeups rather than passing everything or flagging anything.
//!
//! [`serve_drain_lossy_model`] is the same gate aimed at the server's
//! routing lanes: `ShardQueues::new_lossy_for_modelcheck` builds lanes
//! whose `drain` flips the draining flag but drops its per-lane
//! wakeups, so a lane worker parked waiting for sub-batches never
//! learns the queues closed — the exact bug the drain handshake's
//! wakeup exists to prevent. [`serve_drain_control_model`] runs the
//! identical program on the correct queues and must pass.
//!
//! [`serve_reply_close_lossy_model`] does the same for the
//! per-connection [`ReplyQueue`]: `close` flips the closed flag but
//! drops both `notify_all`s, so a connection reader parked waiting for
//! reply-queue space never learns the writer died — the leak the
//! reader/writer split's close-on-drop guard exists to prevent.
//! [`serve_reply_close_control_model`] must pass unmutated.
//!
//! [`serve_cut_lossy_model`] aims the gate at the query path's cut
//! collector: `Cut::new_lossy_for_modelcheck` stores the last shard's
//! answer but drops its wakeup, so a querier parked on the cut never
//! learns its answer is complete. It runs [`models::cut_marker`], whose
//! correct-collector run is the registered `serve_cut_marker` model —
//! that model is this mutation's control.

use crate::models;
use tempstream_runtime::sync::{thread, Arc, Condvar, Mutex};
use tempstream_serve::queue::{Cut, ReplyQueue, ShardQueues};

/// A one-condvar queue whose `push` can be built to drop its wakeup.
pub struct LossyQueue {
    items: Mutex<Vec<u32>>,
    ready: Condvar,
    lose_notify: bool,
}

impl LossyQueue {
    /// Creates the queue; `lose_notify` injects the lost-wakeup bug.
    pub fn new(lose_notify: bool) -> Self {
        LossyQueue {
            items: Mutex::new(Vec::new()),
            ready: Condvar::new(),
            lose_notify,
        }
    }

    /// Appends `value`, waking a waiting consumer — unless this queue
    /// was built lossy, in which case the wakeup is silently dropped.
    pub fn push(&self, value: u32) {
        let mut items = self.items.lock();
        items.push(value);
        if !self.lose_notify {
            self.ready.notify_one();
        }
    }

    /// Blocks until an item is available and takes it.
    pub fn pop_blocking(&self) -> u32 {
        let mut items = self.items.lock();
        loop {
            if let Some(v) = items.pop() {
                return v;
            }
            items = self.ready.wait(items);
        }
    }
}

fn queue_model(lose_notify: bool) {
    let queue = Arc::new(LossyQueue::new(lose_notify));
    let consumer_queue = Arc::clone(&queue);
    let consumer = thread::spawn(move || consumer_queue.pop_blocking());
    queue.push(7);
    assert_eq!(consumer.join().expect("consumer clean"), 7);
}

/// The broken queue: exploration MUST find the lost-wakeup deadlock
/// (consumer parks first, push never notifies).
pub fn lossy_model() {
    queue_model(true);
}

/// The correct queue: exploration must find nothing at the same bound.
pub fn control_model() {
    queue_model(false);
}

fn serve_drain_model(lossy: bool) {
    let queues = Arc::new(if lossy {
        ShardQueues::<u32>::new_lossy_for_modelcheck(2, 1)
    } else {
        ShardQueues::new(2, 1)
    });
    let worker_queues = Arc::clone(&queues);
    let worker = thread::spawn(move || {
        let mut drained = 0u32;
        while worker_queues.pop(0).is_some() {
            drained += 1;
        }
        drained
    });
    let mut subs = vec![vec![7u32], Vec::new()];
    queues
        .try_push_batches(&mut subs)
        .expect("empty lanes accept");
    queues.drain();
    let drained = worker.join().expect("worker clean");
    assert_eq!(drained, 1, "backlog must be delivered before close");
}

/// The server's routing lanes with the drain wakeups dropped: in the
/// schedule where the lane worker finishes the backlog and parks before
/// `drain` runs, nothing ever wakes it — exploration MUST report the
/// deadlock.
pub fn serve_drain_lossy_model() {
    serve_drain_model(true);
}

/// The correct routing lanes under the identical program: clean at the
/// same bound.
pub fn serve_drain_control_model() {
    serve_drain_model(false);
}

fn serve_reply_close_model(lossy: bool) {
    let queue = Arc::new(if lossy {
        ReplyQueue::new_lossy_for_modelcheck(1)
    } else {
        ReplyQueue::new(1)
    });
    let reader_queue = Arc::clone(&queue);
    let reader = thread::spawn(move || {
        // Fill the queue, then block pushing into it.
        let first = reader_queue.push(0u32);
        let second = reader_queue.push(1u32);
        (first, second)
    });
    queue.close();
    let (_, second) = reader.join().expect("reader clean");
    assert!(second.is_err(), "push must observe the closed queue");
}

/// The reply queue with its close wakeup dropped: in the schedule
/// where the reader parks waiting for space before `close` runs,
/// nothing ever wakes it — exploration MUST report the deadlock.
pub fn serve_reply_close_lossy_model() {
    serve_reply_close_model(true);
}

/// The correct reply queue under the identical program: clean at the
/// same bound.
pub fn serve_reply_close_control_model() {
    serve_reply_close_model(false);
}

/// The cut-marker handshake with the collector's wakeup dropped: in
/// the schedule where the querier parks on its cut before the shard
/// worker answers, nothing ever wakes it — exploration MUST report the
/// deadlock.
pub fn serve_cut_lossy_model() {
    models::cut_marker(Cut::new_lossy_for_modelcheck(1));
}
