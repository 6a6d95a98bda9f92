//! Listener front ends: the shared connection vocabulary (events, counters,
//! configuration), the legacy single-thread scan loop ([`PollServer`]), and
//! the [`HttpServer`] facade that selects between it and the epoll-backed
//! [`ReactorServer`](crate::ReactorServer).
//!
//! Both backends speak the same protocol to their owner: call
//! [`HttpServer::poll`] in a loop, consume the returned events, and queue
//! response bytes with [`HttpServer::send`]. The poll backend scans every
//! connection per iteration (O(connections) syscalls); the reactor touches
//! only ready connections and is the production default.

use crate::parse::{ParseStatus, Request, RequestParser};
use crate::{Response, StatusCode};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Which intake implementation serves the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Readiness-driven epoll reactor: per-connection state machines, only
    /// ready connections are touched. The production default.
    #[default]
    Reactor,
    /// The legacy non-blocking scan loop: every connection is read/flushed
    /// every iteration. Kept as the compat/ablation configuration.
    Poll,
}

impl Backend {
    /// Human-readable name (used in banners and bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reactor => "reactor",
            Backend::Poll => "poll",
        }
    }
}

/// Front-end configuration shared by both backends.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest accepted request (head + body).
    pub max_request_size: usize,
    /// Connections with no activity (no byte movement in either direction
    /// and no response queued) for this long are reaped; the deadline
    /// resets on every byte, so slow-but-live keep-alive clients survive.
    /// `Duration::ZERO` disables reaping.
    pub idle_timeout: Duration,
    /// Connection budget: when this many connections are live, further
    /// accepts are answered with a pre-serialized `503` +
    /// `Connection: close` before any parse cost is paid. 0 = unlimited.
    pub max_connections: usize,
    /// Which implementation to use.
    pub backend: Backend,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_request_size: 4 << 20,
            idle_timeout: Duration::from_secs(10),
            max_connections: 0,
            backend: Backend::default(),
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

/// The pre-serialized socket-tier load-shed answer: `503` with
/// `Connection: close`, written best-effort into the (empty) socket buffer
/// of a just-accepted connection before it is dropped.
pub(crate) fn shed_response_bytes() -> Vec<u8> {
    let mut resp = Response::error(
        StatusCode::ServiceUnavailable,
        "connection budget exhausted",
    );
    resp.close = true;
    resp.to_bytes()
}

/// Front-end facade selecting a backend at bind time; both sides expose the
/// identical poll/send protocol, so the listener core and the torture suite
/// drive either interchangeably.
#[derive(Debug)]
pub enum HttpServer {
    /// Epoll-backed readiness reactor.
    Reactor(crate::ReactorServer),
    /// Legacy scan loop.
    Poll(PollServer),
}

impl HttpServer {
    /// Bind to `addr` with the configured backend.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll errors.
    pub fn bind(addr: SocketAddr, config: ServerConfig) -> io::Result<HttpServer> {
        match config.backend {
            Backend::Reactor => Ok(HttpServer::Reactor(crate::ReactorServer::bind(
                addr, config,
            )?)),
            Backend::Poll => Ok(HttpServer::Poll(PollServer::bind_with(addr, config)?)),
        }
    }

    /// The bound local address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match self {
            HttpServer::Reactor(s) => s.local_addr(),
            HttpServer::Poll(s) => s.local_addr(),
        }
    }

    /// Which backend is serving.
    pub fn backend(&self) -> Backend {
        match self {
            HttpServer::Reactor(_) => Backend::Reactor,
            HttpServer::Poll(_) => Backend::Poll,
        }
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        match self {
            HttpServer::Reactor(s) => s.connection_count(),
            HttpServer::Poll(s) => s.connection_count(),
        }
    }

    /// One intake iteration; see the backend docs. The reactor blocks in
    /// `epoll_wait` for up to `timeout` (millisecond resolution; sub-ms
    /// rounds down to a non-blocking poll); the scan loop is always
    /// non-blocking and ignores `timeout`.
    pub fn poll(&mut self, timeout: Duration) -> Vec<ConnectionEvent> {
        match self {
            HttpServer::Reactor(s) => s.poll(timeout),
            HttpServer::Poll(s) => s.poll(),
        }
    }

    /// Queue response bytes for connection `id`. Returns `false` if the
    /// connection is gone.
    pub fn send(&mut self, id: ConnId, bytes: &[u8]) -> bool {
        match self {
            HttpServer::Reactor(s) => s.send(id, bytes),
            HttpServer::Poll(s) => s.send(id, bytes),
        }
    }

    /// Stop accepting new connections: further accepts get the socket-tier
    /// 503, existing connections are closed as soon as their queued and
    /// in-flight responses have been delivered.
    pub fn begin_drain(&mut self) {
        match self {
            HttpServer::Reactor(s) => s.begin_drain(),
            HttpServer::Poll(s) => s.begin_drain(),
        }
    }

    /// Connections with queued-but-unflushed response bytes (the shutdown
    /// path polls until this reaches zero so no delivered completion is
    /// dropped on the floor).
    pub fn unflushed(&self) -> usize {
        match self {
            HttpServer::Reactor(s) => s.unflushed(),
            HttpServer::Poll(s) => s.unflushed(),
        }
    }

    /// The shared lifecycle counters.
    pub fn counters(&self) -> Arc<ConnCounters> {
        match self {
            HttpServer::Reactor(s) => s.counters(),
            HttpServer::Poll(s) => s.counters(),
        }
    }
}

/// One client connection owned by the poll server.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    parser: RequestParser,
    /// Bytes queued for writing.
    out: Vec<u8>,
    /// Write progress within `out`.
    written: usize,
    /// Close once the output queue drains and every surfaced request has
    /// been answered (armed by `Connection: close` or a parse error).
    close_after_write: bool,
    /// Whether any response bytes were ever queued (governs the 408 on
    /// idle reap, not the close decision).
    responded: bool,
    /// Peer half-closed (read returned EOF). Queued and in-flight
    /// responses are still flushed before the connection is torn down —
    /// honoring EOF immediately would drop pipelined responses.
    eof: bool,
    /// Requests surfaced to the owner but not yet answered via `send`.
    outstanding: usize,
    /// Requests parsed but not yet consumed by the runtime.
    inbox: Vec<Request>,
    /// Last time bytes moved on this connection (either direction) or a
    /// response was queued; idle reaping is measured from here — never
    /// from accept time — so slow-but-live clients are not reaped.
    last_activity: Instant,
    dead: bool,
}

/// A minimal single-threaded non-blocking HTTP front end that scans every
/// connection per iteration.
///
/// Call [`poll`](Self::poll) in a loop; it accepts new connections, reads
/// available bytes, parses requests, flushes queued responses, and returns
/// the batch of events. Kept as the compat/ablation backend; the epoll
/// [`ReactorServer`](crate::ReactorServer) replaces it in production.
#[derive(Debug)]
pub struct PollServer {
    listener: TcpListener,
    conns: HashMap<ConnId, Connection>,
    next_id: ConnId,
    config: ServerConfig,
    counters: Arc<ConnCounters>,
    draining: bool,
    shed_bytes: Vec<u8>,
}

impl PollServer {
    /// Bind to `addr` in non-blocking mode. Connections with no activity
    /// for `idle_timeout` are reaped (a slow-loris client holding a
    /// half-sent request does not pin a slot forever); `Duration::ZERO`
    /// disables reaping.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(
        addr: SocketAddr,
        max_request_size: usize,
        idle_timeout: Duration,
    ) -> io::Result<Self> {
        Self::bind_with(
            addr,
            ServerConfig {
                max_request_size,
                idle_timeout,
                backend: Backend::Poll,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind with a full [`ServerConfig`] (the `backend` field is ignored —
    /// this constructor always builds the scan-loop backend).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_with(addr: SocketAddr, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(PollServer {
            listener,
            conns: HashMap::new(),
            next_id: 1,
            config,
            counters: Arc::new(ConnCounters::default()),
            draining: false,
            shed_bytes: shed_response_bytes(),
        })
    }

    /// The bound local address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// The shared lifecycle counters.
    pub fn counters(&self) -> Arc<ConnCounters> {
        Arc::clone(&self.counters)
    }

    /// Stop accepting (socket-tier 503 for new peers); existing
    /// connections close once their responses are delivered.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        for conn in self.conns.values_mut() {
            conn.close_after_write = true;
        }
    }

    /// Connections with queued-but-unflushed response bytes.
    pub fn unflushed(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.written < c.out.len())
            .count()
    }

    /// One non-blocking iteration: accept, read/parse, flush writes.
    /// Returns all events produced by this iteration; an empty vector means
    /// nothing was ready (caller may sleep briefly or do other work).
    pub fn poll(&mut self) -> Vec<ConnectionEvent> {
        let mut events = Vec::new();

        // Accept as many as are pending; over-budget (or draining) peers
        // get the pre-serialized 503 before any parse cost is paid.
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    let over_budget = self.config.max_connections > 0
                        && self.conns.len() >= self.config.max_connections;
                    if over_budget || self.draining {
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                        // Best-effort: the socket buffer of a brand-new
                        // connection is empty, so this almost never blocks.
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.write(&self.shed_bytes);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        id,
                        Connection {
                            stream,
                            parser: RequestParser::new(self.config.max_request_size),
                            out: Vec::new(),
                            written: 0,
                            close_after_write: false,
                            responded: false,
                            eof: false,
                            outstanding: 0,
                            inbox: Vec::new(),
                            last_activity: Instant::now(),
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        let mut buf = [0u8; 16 * 1024];
        let mut closed = Vec::new();
        let now = Instant::now();
        for (&id, conn) in self.conns.iter_mut() {
            // Read available bytes (unless the peer already half-closed).
            while !conn.eof {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // Half-close: stop reading, but flush queued and
                        // in-flight responses before tearing down.
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = now;
                        self.counters
                            .bytes_in
                            .fetch_add(n as u64, Ordering::Relaxed);
                        match conn.parser.feed(&buf[..n]) {
                            Ok(ParseStatus::Complete(req)) => {
                                conn.inbox.push(req);
                                // Drain any pipelined requests.
                                while let Ok(ParseStatus::Complete(r)) = conn.parser.advance() {
                                    conn.inbox.push(r);
                                }
                            }
                            Ok(ParseStatus::NeedMore) => {}
                            Err(_) => {
                                // Malformed: 400 and close.
                                let resp =
                                    Response::error(StatusCode::BadRequest, "malformed request");
                                conn.out.extend_from_slice(&resp.to_bytes());
                                conn.close_after_write = true;
                                conn.responded = true;
                                conn.eof = true; // stop reading garbage
                                break;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            for req in conn.inbox.drain(..) {
                if req.close {
                    conn.close_after_write = true;
                }
                conn.outstanding += 1;
                self.counters.requests.fetch_add(1, Ordering::Relaxed);
                events.push(ConnectionEvent::Request(id, req));
            }
            // Flush queued output.
            while conn.written < conn.out.len() {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = now;
                        self.counters
                            .bytes_out
                            .fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.written == conn.out.len() {
                conn.out.clear();
                conn.written = 0;
                // Close only when everything queued has been flushed AND
                // every surfaced request has been answered: an EOF (or a
                // `Connection: close`) observed mid-pipeline must not drop
                // the responses still in flight.
                if conn.outstanding == 0 && (conn.close_after_write || conn.eof) {
                    conn.dead = true;
                }
            }
            // Idle reaping: no bytes moved in either direction for the
            // configured window, measured from the last activity (never
            // from accept). A best-effort 408 is written directly (the
            // socket buffer is almost certainly empty for an idle peer).
            if !conn.dead
                && !self.config.idle_timeout.is_zero()
                && now.duration_since(conn.last_activity) > self.config.idle_timeout
            {
                if !conn.responded {
                    let resp =
                        Response::error(StatusCode::RequestTimeout, "idle connection timed out");
                    let _ = conn.stream.write(&resp.to_bytes());
                }
                self.counters.reaped.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
            }
            if conn.dead {
                closed.push(id);
            }
        }
        for id in closed {
            self.conns.remove(&id);
            self.counters.closed.fetch_add(1, Ordering::Relaxed);
            events.push(ConnectionEvent::Closed(id));
        }
        events
    }

    /// Queue `bytes` to be written to connection `id`. Returns `false` if
    /// the connection is gone.
    pub fn send(&mut self, id: ConnId, bytes: &[u8]) -> bool {
        match self.conns.get_mut(&id) {
            Some(c) => {
                c.out.extend_from_slice(bytes);
                c.responded = true;
                c.outstanding = c.outstanding.saturating_sub(1);
                c.last_activity = Instant::now();
                self.counters.responses.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Response;
    use std::net::Shutdown;
    use std::time::{Duration, Instant};

    fn poll_until<F: FnMut(&mut PollServer) -> bool>(server: &mut PollServer, mut done: F) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(server) {
            assert!(Instant::now() < deadline, "poll_until timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn end_to_end_request_response() {
        let mut server = PollServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            1 << 20,
            Duration::from_secs(30),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();

        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /fn/echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
            let mut resp = Vec::new();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        resp.extend_from_slice(&buf[..n]);
                        if resp.windows(4).any(|w| w == b"\r\n\r\n") && resp.ends_with(b"HELLO") {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = s.shutdown(Shutdown::Both);
            resp
        });

        let mut answered = false;
        poll_until(&mut server, |srv| {
            for ev in srv.poll() {
                if let ConnectionEvent::Request(id, req) = ev {
                    assert_eq!(req.path, "/fn/echo");
                    let body = req.body.to_ascii_uppercase();
                    srv.send(id, &Response::ok(body).to_bytes());
                    answered = true;
                }
            }
            answered
        });
        // Keep polling until the write drains and the client hangs up.
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.connection_count() == 0
        });

        let resp = client.join().unwrap();
        let s = String::from_utf8(resp).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK"));
        assert!(s.ends_with("HELLO"));

        let snap = server.counters().snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.closed, 1);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.responses, 1);
        assert!(snap.bytes_in > 0 && snap.bytes_out > 0);
        assert_eq!(snap.active(), 0);
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let mut server = PollServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            1 << 20,
            Duration::from_secs(30),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
            let mut resp = Vec::new();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 1024];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
                resp.extend_from_slice(&buf[..n]);
            }
            resp
        });
        // Not `connection_count() == 0`: that holds before the accept too.
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.counters().snapshot().closed == 1
        });
        let resp = String::from_utf8(client.join().unwrap()).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }

    #[test]
    fn half_close_mid_flush_still_delivers_pipelined_responses() {
        // Regression: the peer sends two pipelined requests and immediately
        // shuts down its write half. Honoring the EOF before the responses
        // are queued+flushed used to tear the connection down and drop
        // them; both answers must still arrive, in order.
        let mut server = PollServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            1 << 20,
            Duration::from_secs(30),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none\
                  POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo",
            )
            .unwrap();
            // Half-close before any response exists.
            s.shutdown(Shutdown::Write).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut resp = Vec::new();
            let mut buf = [0u8; 1024];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
                resp.extend_from_slice(&buf[..n]);
            }
            String::from_utf8(resp).unwrap()
        });
        // Collect both requests first, then answer them one poll later so
        // the EOF is definitely observed before any response is queued.
        let mut pending = Vec::new();
        poll_until(&mut server, |srv| {
            for ev in srv.poll() {
                if let ConnectionEvent::Request(id, req) = ev {
                    pending.push((id, req.body));
                }
            }
            pending.len() == 2
        });
        for (id, body) in pending.drain(..) {
            assert!(server.send(id, &Response::ok(body).to_bytes()));
        }
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.connection_count() == 0
        });
        let resp = client.join().unwrap();
        let one = resp.find("one").expect("first response delivered");
        let two = resp.find("two").expect("second response delivered");
        assert!(one < two, "responses out of order: {resp}");
    }

    #[test]
    fn connection_budget_sheds_with_503_close() {
        let mut server = PollServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig {
                max_connections: 1,
                idle_timeout: Duration::from_secs(30),
                backend: Backend::Poll,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        // First connection occupies the only slot.
        let first = TcpStream::connect(addr).unwrap();
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.connection_count() == 1
        });
        // Second connection is shed at the socket tier.
        let shed = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut resp = Vec::new();
            let mut buf = [0u8; 1024];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
                resp.extend_from_slice(&buf[..n]);
            }
            String::from_utf8(resp).unwrap()
        });
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.counters().snapshot().shed == 1
        });
        let resp = shed.join().unwrap();
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("Connection: close"), "{resp}");
        drop(first);
    }

    #[test]
    fn slow_loris_connection_is_reaped() {
        let mut server = PollServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            1 << 20,
            Duration::from_millis(50),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Half a request, then silence: the server must not wait forever.
            s.write_all(b"POST /fn HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
                .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut resp = Vec::new();
            let mut buf = [0u8; 1024];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
                resp.extend_from_slice(&buf[..n]);
            }
            resp
        });
        // Wait for the connection to appear, then for the reaper to kill it.
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.connection_count() == 1
        });
        let start = Instant::now();
        poll_until(&mut server, |srv| {
            srv.poll();
            srv.connection_count() == 0
        });
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "idle reap took too long"
        );
        assert_eq!(server.counters().snapshot().reaped, 1);
        let resp = String::from_utf8(client.join().unwrap()).unwrap();
        assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");
    }

    #[test]
    fn active_connection_survives_idle_reaper() {
        let idle = Duration::from_millis(800);
        let mut server = PollServer::bind("127.0.0.1:0".parse().unwrap(), 1 << 20, idle).unwrap();
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Trickle a complete request slowly: each chunk lands well within
            // the idle window, but the whole request takes longer than one
            // window — it can only succeed if activity resets the timer. The
            // worst client-side gap is measured so a scheduler stall on a
            // loaded test machine (sleep overshooting the idle window) is
            // distinguishable from a reaper bug.
            let mut max_gap = Duration::ZERO;
            let mut last = Instant::now();
            for chunk in [
                &b"POST /fn HTTP/1.1\r\n"[..],
                &b"Content-Length: 4\r\n\r\n"[..],
                &b"pi"[..],
                &b"ng"[..],
            ] {
                std::thread::sleep(Duration::from_millis(300));
                s.write_all(chunk).unwrap();
                max_gap = max_gap.max(last.elapsed());
                last = Instant::now();
            }
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut resp = Vec::new();
            let mut buf = [0u8; 1024];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
                resp.extend_from_slice(&buf[..n]);
                if resp.ends_with(b"pong") {
                    break;
                }
            }
            (resp, max_gap)
        });
        poll_until(&mut server, |srv| {
            for ev in srv.poll() {
                if let ConnectionEvent::Request(id, _) = ev {
                    srv.send(id, &Response::ok(b"pong".to_vec()).to_bytes());
                }
            }
            // `send` only queues; later polls perform the actual write. Keep
            // polling until the response reaches the client and the
            // connection winds down (also covers the reaped-under-stall
            // case, where the 408 closes it). Counted closes, not a zero
            // connection count, which also holds before the accept.
            srv.counters().snapshot().closed == 1
        });
        let (resp, max_gap) = client.join().unwrap();
        let resp = String::from_utf8(resp).unwrap();
        if max_gap < idle {
            assert!(
                resp.starts_with("HTTP/1.1 200"),
                "reaped despite activity (max client gap {max_gap:?}): {resp}"
            );
        } else {
            // The client genuinely went idle past the window; either outcome
            // is correct, so just require a well-formed response.
            assert!(
                resp.starts_with("HTTP/1.1 200") || resp.starts_with("HTTP/1.1 408"),
                "{resp}"
            );
        }
    }

    #[test]
    fn many_concurrent_connections() {
        let mut server = PollServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            1 << 20,
            Duration::from_secs(30),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        const N: usize = 32;
        let clients: Vec<_> = (0..N)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    let body = format!("client-{i}");
                    s.write_all(
                        format!(
                            "POST /fn HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                            body.len(),
                            body
                        )
                        .as_bytes(),
                    )
                    .unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    let mut resp = Vec::new();
                    let mut buf = [0u8; 1024];
                    loop {
                        match s.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                resp.extend_from_slice(&buf[..n]);
                                if resp.ends_with(body.as_bytes()) {
                                    break;
                                }
                            }
                        }
                    }
                    String::from_utf8(resp).unwrap()
                })
            })
            .collect();

        let mut served = 0;
        poll_until(&mut server, |srv| {
            for ev in srv.poll() {
                if let ConnectionEvent::Request(id, req) = ev {
                    srv.send(id, &Response::ok(req.body).to_bytes());
                    served += 1;
                }
            }
            served == N
        });
        // Drain writes.
        for _ in 0..200 {
            server.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        for (i, c) in clients.into_iter().enumerate() {
            let resp = c.join().unwrap();
            assert!(resp.contains(&format!("client-{i}")));
        }
    }
}
