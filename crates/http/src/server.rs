//! The listener's vocabulary: connection ids, the events one poll
//! iteration surfaces, the front-end configuration and the lifecycle
//! counters. The owner calls [`HttpServer::poll`](crate::HttpServer::poll)
//! in a loop, consumes the returned events, and queues response bytes with
//! [`HttpServer::send`](crate::HttpServer::send).

use crate::parse::Request;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Unique id for a connection within one server instance.
pub type ConnId = u64;

/// Event surfaced by one poll iteration.
#[derive(Debug)]
pub enum ConnectionEvent {
    /// A complete request arrived on the connection.
    Request(ConnId, Request),
    /// The connection closed (peer hangup, error, or after
    /// `Connection: close`).
    Closed(ConnId),
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest accepted request (head + body).
    pub max_request_size: usize,
    /// Connections with no activity (no byte movement in either direction
    /// and no response queued) for this long are reaped; the deadline
    /// resets on every byte, so slow-but-live keep-alive clients survive.
    /// A connection with a surfaced request still awaiting its response is
    /// never idle: the runtime's deadline governs execution time, and the
    /// window restarts when the response is queued. `Duration::ZERO`
    /// disables reaping.
    pub idle_timeout: Duration,
    /// Connection budget: when this many connections are live, further
    /// accepts are answered with a pre-serialized `503` +
    /// `Connection: close` before any parse cost is paid. 0 = unlimited.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_request_size: 4 << 20,
            idle_timeout: Duration::from_secs(10),
            max_connections: 0,
        }
    }
}

/// Per-connection-lifecycle counters, shared (via `Arc`) with whoever
/// renders metrics. All monotonic; the live-connection gauge is
/// `accepted - closed - shed`.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections accepted and registered.
    pub accepted: AtomicU64,
    /// Registered connections that ended (any reason, including reaping).
    pub closed: AtomicU64,
    /// Accepts answered with the socket-tier 503 (budget or drain) and
    /// immediately closed — never registered, never parsed.
    pub shed: AtomicU64,
    /// Connections reaped by the idle deadline (also counted in `closed`).
    pub reaped: AtomicU64,
    /// Complete requests parsed and surfaced.
    pub requests: AtomicU64,
    /// Responses queued by the owner.
    pub responses: AtomicU64,
    /// Request bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Response bytes written to sockets.
    pub bytes_out: AtomicU64,
}

impl ConnCounters {
    /// A point-in-time copy.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ConnCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    pub accepted: u64,
    pub closed: u64,
    pub shed: u64,
    pub reaped: u64,
    pub requests: u64,
    pub responses: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl ConnSnapshot {
    /// Connections currently live (accepted, not yet closed).
    pub fn active(&self) -> u64 {
        self.accepted.saturating_sub(self.closed)
    }
}
