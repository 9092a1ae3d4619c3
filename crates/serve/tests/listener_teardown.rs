//! Regression test for the listener-error drain deadlock (satellite of
//! the pipelining PR): when `accept` fails with a non-transient error,
//! the acceptor used to `break` without entering the drain handshake,
//! leaving the shard workers parked in `pop()` forever and
//! `Server::run` never returning.
//!
//! The listener is broken out from under a *running* server without
//! `unsafe` (the workspace forbids it): `try_clone` shares the open
//! file description, so flipping `O_NONBLOCK` on the clone makes the
//! server's next `accept` fail with `WouldBlock` — which is not
//! `Interrupted`, the only error kind the acceptor retries.

#![cfg(unix)]

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use tempstream_serve::wire::{write_message, Frame, MessageReader};
use tempstream_serve::{Server, ServerConfig};

#[test]
fn listener_error_still_drains_and_returns() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let breaker = listener.try_clone().expect("clone listener");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::from_listener(listener, ServerConfig::default());
    let handle = thread::spawn(move || server.run());

    // Prove the server is live before pulling the rug.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    write_message(&mut conn, Some(1), &Frame::QueryCoverage).expect("send");
    let reply = MessageReader::new().next_from(&mut conn).expect("recv");
    assert_eq!(reply.seq, Some(1));
    assert!(matches!(reply.frame, Frame::CoverageReply { .. }));
    drop(conn);

    // Break the listener, then pop the accept the acceptor is already
    // parked in with one throwaway connect; its next accept call sees
    // the shared O_NONBLOCK flag and fails.
    breaker.set_nonblocking(true).expect("set nonblocking");
    drop(TcpStream::connect(&addr));

    // Fixed behavior: the acceptor enters the drain handshake and
    // run() returns cleanly. Buggy behavior: run() hangs forever on
    // workers blocked in pop(), which this bounded poll turns into a
    // test failure instead of a test timeout.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "Server::run deadlocked after a listener error"
        );
        thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("server thread").expect("run exits Ok");
}
