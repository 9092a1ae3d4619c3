//! An online ingest/query server that runs the paper's
//! characterization as a live service.
//!
//! The batch pipeline in `tempstream-core` answers "what fraction of
//! misses are temporal streams?" after a whole trace is on disk. This
//! crate answers the same questions *while the trace happens*: clients
//! stream miss records over a length-prefixed binary protocol
//! ([`wire`]), each connection's reader shards them by block-address
//! hash ([`shard`]) straight onto per-shard queues feeding workers that
//! each own one `AnalysisEngine` running **incremental** stream
//! detection and the temporal prefetch engine, and query frames are
//! answered from per-shard state merged on demand ([`server`]).
//!
//! The headline property is **bit-identity with the offline batch
//! stages**: because SEQUITUR is an online algorithm, a grammar
//! snapshot over an ingest prefix equals the batch grammar of that
//! prefix, so the server's answers match
//! [`offline::expected`] — the same records pushed through
//! `tempstream_core::stages` per partition — exactly, not
//! approximately. The loopback tests and the `serve-load --verify`
//! client enforce this.
//!
//! Connections are **pipelined**: every request carries a sequence id
//! echoed in its reply (a client that waits for each reply is the same
//! protocol at a window of one), a per-connection reader dispatches
//! frames back-to-back while a writer drains a bounded reply queue in
//! FIFO order, and `QueryDelta` answers carry only the counters that
//! changed since the connection's last consistent cut (a per-shard
//! version check makes an idle delta query free, per-shard stream
//! counts are memoized on that version, and each cursor patches a
//! cached merged origin table only for the shards that moved).
//! Oversized replies split across continuation frames instead of
//! failing.
//!
//! Flow control is explicit everywhere: ingest admission happens at
//! the bounded per-shard lanes ([`queue::ShardQueues`]) with
//! all-or-nothing frame admission whose overflow surfaces to the
//! client as a `Busy` frame, per-connection replies
//! back-pressure through a bounded [`queue::ReplyQueue`], and shutdown
//! is a drain-then-ack handshake that never drops an acked record. All
//! synchronization goes through the [`tempstream_runtime::sync`] shim,
//! so the queues and handshakes are exercised by the schedule checker
//! (`tempstream-schedcheck`) as closed models, including mutations
//! that drop the drain/close signals.

pub mod offline;
pub mod queue;
pub mod server;
pub mod shard;
pub mod wire;

pub use server::{Server, ServerConfig};
pub use shard::ShardConfig;
