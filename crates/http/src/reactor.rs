//! The listener front end: an epoll-backed readiness reactor.
//!
//! Per-connection state machines are driven by kernel readiness events —
//! one `epoll_wait` yields exactly the connections with work, so cost
//! scales with *ready* connections, not *open* ones. A fleet of idle
//! keep-alive connections costs nothing per iteration.
//!
//! Design:
//! - The listener is registered level-triggered (`EPOLLIN`): pending
//!   accepts keep re-reporting until the queue is drained, so an accept
//!   burst can never be lost to a missed edge.
//! - Connections are registered edge-triggered
//!   (`EPOLLIN | EPOLLRDHUP | EPOLLET`); every readable event is drained to
//!   `WouldBlock` as ET requires. `EPOLLOUT` interest is added only while a
//!   flush is blocked on a full socket buffer and removed as soon as the
//!   queue drains, so an idle writable socket never wakes the loop.
//! - Responses are queued as per-response buffers and flushed with
//!   `write_vectored` (writev on Linux): a pipelined burst of N responses
//!   leaves in one syscall instead of N.
//! - Connection slots live in a slab with generation-tagged ids
//!   (`gen << 32 | slot`), used verbatim as the epoll cookie — stale events
//!   for a recycled slot fail the generation check and are dropped.
//! - The connection budget is enforced at accept time: over-budget (or
//!   draining) peers get a pre-serialized `503` + `Connection: close`
//!   before any parse cost is paid.
//! - An eventfd [`Waker`] sits in the same epoll set, so an owner that also
//!   consumes a queue fed by other threads can block in `epoll_wait` for
//!   sockets and queue alike instead of sleep-polling one of them.
//!
//! Close discipline: a connection dies only once its output queue is
//! flushed and every surfaced request has been answered — a half-close or
//! `Connection: close` observed mid-pipeline never drops in-flight
//! responses.

use crate::parse::{ParseStatus, Request, RequestParser};
use crate::server::{ConnCounters, ConnId, ConnectionEvent, ServerConfig};
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::{Response, StatusCode};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epoll cookie for the listening socket (never a valid connection id:
/// connection slots are bounded far below `u32::MAX`).
const LISTENER_COOKIE: u64 = u64::MAX;

/// Epoll cookie for the waker's eventfd (no valid connection id either).
const WAKER_COOKIE: u64 = u64::MAX - 1;

/// Max `IoSlice`s per `write_vectored` call (Linux caps at `IOV_MAX`
/// = 1024; 64 already amortizes the syscall for any realistic pipeline).
const MAX_IOVEC: usize = 64;

/// Base interest mask for every connection.
const CONN_INTEREST: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// Per-connection state machine.
#[derive(Debug)]
struct RConn {
    stream: TcpStream,
    /// Generation for stale-cookie detection; mirrored in `gens[slot]`.
    gen: u32,
    parser: RequestParser,
    /// Queued response buffers, flushed with vectored writes.
    out: VecDeque<Vec<u8>>,
    /// Write progress within `out.front()`.
    front_written: usize,
    /// Peer half-closed; flush everything queued/in-flight before closing.
    eof: bool,
    /// Close once output drains and all surfaced requests are answered.
    close_after_drain: bool,
    /// Whether any response was ever queued (governs the reap-time 408).
    responded: bool,
    /// Requests surfaced to the owner but not yet answered via `send`.
    outstanding: usize,
    /// `EPOLLOUT` currently registered (a flush hit `WouldBlock`).
    want_write: bool,
    /// Last byte movement or queued response; the idle deadline is
    /// measured from here, never from accept time.
    last_activity: Instant,
    dead: bool,
}

impl RConn {
    fn should_close(&self) -> bool {
        self.dead
            || (self.out.is_empty()
                && self.outstanding == 0
                && (self.close_after_drain || self.eof))
    }
}

/// Wakes an [`HttpServer`]'s owner out of a blocking
/// [`poll`](HttpServer::poll).
///
/// Threads that hand the owner work through a queue of their own call
/// [`wake`](Self::wake) after they enqueue. The owner keeps one protocol:
/// [`HttpServer::arm`], then re-check every such queue *and* its shutdown
/// flag, then `poll`. A producer that enqueues after the arm finds the owner
/// armed and signals the eventfd, so the poll returns at once; whatever was
/// enqueued before the arm, the re-check sees. `poll` disarms when it
/// returns, so producers of a busy owner pay no syscall.
#[derive(Debug)]
pub struct Waker {
    eventfd: EventFd,
    armed: AtomicBool,
}

impl Waker {
    /// Signal the owner if it is armed; without a syscall otherwise.
    pub fn wake(&self) {
        // Pairs with the fence in `HttpServer::arm`: either the owner's
        // re-check sees what this thread enqueued, or this swap sees the arm.
        fence(Ordering::SeqCst);
        if self.armed.swap(false, Ordering::SeqCst) {
            self.eventfd.signal();
        }
    }
}

/// Readiness-driven epoll listener; see the module docs for the design.
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
    epoll: Epoll,
    waker: Arc<Waker>,
    conns: Vec<Option<RConn>>,
    /// Per-slot generation counters (bumped on free).
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    config: ServerConfig,
    counters: Arc<ConnCounters>,
    draining: bool,
    shed_bytes: Vec<u8>,
    events_buf: Vec<EpollEvent>,
    /// Connections whose close condition was met outside `poll` (e.g. the
    /// final `send` drained inline); edge-triggering means no further
    /// kernel event will arrive for them, so the next poll finishes the
    /// close here.
    pending_close: Vec<ConnId>,
    last_reap: Instant,
}

fn conn_id(slot: u32, gen: u32) -> ConnId {
    (u64::from(gen) << 32) | u64::from(slot)
}

fn split_id(id: ConnId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// The pre-serialized socket-tier load-shed answer: `503` with
/// `Connection: close`, written best-effort into the (empty) socket buffer
/// of a just-accepted connection before it is dropped.
fn shed_response_bytes() -> Vec<u8> {
    let mut resp = Response::error(
        StatusCode::ServiceUnavailable,
        "connection budget exhausted",
    );
    resp.close = true;
    resp.to_bytes()
}

impl HttpServer {
    /// Bind to `addr` and create the epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll errors.
    pub fn bind(addr: SocketAddr, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        // Level-triggered on purpose: pending accepts re-report until the
        // queue is drained, so a burst can never be lost to a missed edge.
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_COOKIE)?;
        let waker = Arc::new(Waker {
            eventfd: EventFd::new()?,
            armed: AtomicBool::new(false),
        });
        epoll.add(waker.eventfd.raw_fd(), EPOLLIN, WAKER_COOKIE)?;
        Ok(HttpServer {
            listener,
            epoll,
            waker,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            config,
            counters: Arc::new(ConnCounters::default()),
            draining: false,
            shed_bytes: shed_response_bytes(),
            events_buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            pending_close: Vec::new(),
            last_reap: Instant::now(),
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
        self.live
    }

    /// The shared lifecycle counters.
    pub fn counters(&self) -> Arc<ConnCounters> {
        Arc::clone(&self.counters)
    }

    /// The waker other threads use to end this server's blocking `poll`.
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Let the next [`Waker::wake`] signal the eventfd, until `poll`
    /// returns. Call it *before* the last check of the queues the waker's
    /// users feed, then `poll`: see [`Waker`] for the protocol.
    pub fn arm(&self) {
        self.waker.armed.store(true, Ordering::SeqCst);
        // Pairs with the fence in `Waker::wake`.
        fence(Ordering::SeqCst);
    }

    /// Stop accepting (socket-tier 503 for new peers); existing
    /// connections close once their queued and in-flight responses have
    /// been delivered.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        for slot in 0..self.conns.len() {
            if let Some(conn) = &mut self.conns[slot] {
                conn.close_after_drain = true;
                // Idle keep-alive connections have nothing outstanding and
                // nothing queued, so no kernel event will ever fire for
                // them again — schedule the close check explicitly.
                self.pending_close.push(conn_id(slot as u32, conn.gen));
            }
        }
    }

    /// Connections with queued-but-unflushed response bytes.
    pub fn unflushed(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .filter(|c| !c.out.is_empty())
            .count()
    }

    /// One reactor iteration: wait up to `timeout` for readiness
    /// (millisecond resolution; a sub-millisecond timeout is a non-blocking
    /// poll), then service exactly the ready connections. Returns the batch
    /// of events.
    ///
    /// The wait also ends when the [`Waker`] fires (its eventfd is
    /// registered under a reserved cookie, never a connection id): the
    /// eventfd is drained and no event is surfaced for it, since the owner's
    /// own queues are what it woke for. Returning disarms the waker. With
    /// idle reaping on, the wait is capped at the reap interval.
    pub fn poll(&mut self, timeout: Duration) -> Vec<ConnectionEvent> {
        let mut events = Vec::new();

        // Closes deferred from `send` (no further kernel event will come
        // for an edge-triggered connection whose queue drained inline).
        for id in std::mem::take(&mut self.pending_close) {
            let (slot, gen) = split_id(id);
            if let Some(Some(conn)) = self.conns.get(slot as usize) {
                if conn.gen == gen && conn.should_close() {
                    self.close_conn(slot, &mut events);
                }
            }
        }

        // Cap the wait so the idle reaper runs even on a quiet socket.
        let reap_every = self.reap_interval();
        let mut timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        if let Some(interval) = reap_every {
            timeout_ms = timeout_ms.min(interval.as_millis().max(1) as i32);
        }
        let n = self
            .epoll
            .wait(&mut self.events_buf, timeout_ms)
            .unwrap_or(0);
        // Relaxed: the flag publishes nothing. A wake that misses the
        // disarm only signals once more, and the owner re-checks its queues
        // after its next `arm` in any case.
        self.waker.armed.store(false, Ordering::Relaxed);
        for i in 0..n {
            let ev = self.events_buf[i];
            let (data, mask) = (ev.data, ev.events);
            if data == LISTENER_COOKIE {
                self.accept_ready(&mut events);
            } else if data == WAKER_COOKIE {
                self.waker.eventfd.drain();
            } else {
                self.conn_ready(data, mask, &mut events);
            }
        }

        if let Some(interval) = reap_every {
            let now = Instant::now();
            if now.duration_since(self.last_reap) >= interval {
                self.last_reap = now;
                self.reap_idle(now, &mut events);
            }
        }
        events
    }

    /// Queue `bytes` for connection `id` and flush opportunistically.
    /// Returns `false` if the connection is gone.
    pub fn send(&mut self, id: ConnId, bytes: &[u8]) -> bool {
        let (slot, gen) = split_id(id);
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return false;
        };
        if conn.gen != gen {
            return false;
        }
        conn.out.push_back(bytes.to_vec());
        conn.responded = true;
        conn.outstanding = conn.outstanding.saturating_sub(1);
        conn.last_activity = Instant::now();
        self.counters.responses.fetch_add(1, Ordering::Relaxed);
        // Flush now: the socket is almost always writable, and waiting for
        // the next poll would add a full scheduling round-trip of latency.
        Self::flush_conn(conn, &self.counters);
        self.update_write_interest(slot);
        if let Some(Some(conn)) = self.conns.get(slot as usize) {
            if conn.should_close() {
                self.pending_close.push(id);
            }
        }
        true
    }

    fn reap_interval(&self) -> Option<Duration> {
        if self.config.idle_timeout.is_zero() {
            None
        } else {
            Some(
                (self.config.idle_timeout / 4)
                    .clamp(Duration::from_millis(1), Duration::from_millis(250)),
            )
        }
    }

    /// Drain the accept queue; over-budget or draining peers are shed with
    /// the pre-serialized 503 before any parse cost is paid.
    fn accept_ready(&mut self, events: &mut Vec<ConnectionEvent>) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    let over_budget =
                        self.config.max_connections > 0 && self.live >= self.config.max_connections;
                    if over_budget || self.draining {
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                        // Best-effort: a brand-new socket buffer is empty.
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.write(&self.shed_bytes);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let slot = match self.alloc_slot() {
                        Some(s) => s,
                        None => continue,
                    };
                    let gen = self.gens[slot as usize];
                    let id = conn_id(slot, gen);
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), CONN_INTEREST, id)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot as usize] = Some(RConn {
                        stream,
                        gen,
                        parser: RequestParser::new(self.config.max_request_size),
                        out: VecDeque::new(),
                        front_written: 0,
                        eof: false,
                        close_after_drain: false,
                        responded: false,
                        outstanding: 0,
                        want_write: false,
                        last_activity: Instant::now(),
                        dead: false,
                    });
                    self.live += 1;
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    // Bytes may have raced registration; ET reports
                    // readiness present at ADD time, but draining now saves
                    // that extra epoll round-trip.
                    self.conn_ready(id, EPOLLIN, events);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn alloc_slot(&mut self) -> Option<u32> {
        if let Some(slot) = self.free.pop() {
            return Some(slot);
        }
        // Slots are u32-indexed so ids pack into gen<<32|slot.
        if self.conns.len() >= u32::MAX as usize {
            return None;
        }
        let slot = self.conns.len() as u32;
        self.conns.push(None);
        self.gens.push(0);
        Some(slot)
    }

    /// Service one ready connection: drain reads (ET contract), surface
    /// parsed requests, flush writes, and close if the state machine says
    /// so.
    fn conn_ready(&mut self, id: ConnId, mask: u32, events: &mut Vec<ConnectionEvent>) {
        let (slot, gen) = split_id(id);
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return; // stale cookie for a recycled slot
        };
        if conn.gen != gen {
            return;
        }

        if mask & EPOLLRDHUP != 0 {
            // Peer half-closed; any final bytes are still drained below.
            conn.eof = true;
        }

        let mut buf = [0u8; 16 * 1024];
        if mask & EPOLLIN != 0 || mask & (EPOLLERR | EPOLLHUP) != 0 {
            // ET contract: read until WouldBlock (or EOF/error), else the
            // edge is lost and the connection stalls.
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        self.counters
                            .bytes_in
                            .fetch_add(n as u64, Ordering::Relaxed);
                        match conn.parser.feed(&buf[..n]) {
                            Ok(ParseStatus::Complete(req)) => {
                                Self::surface(conn, id, req, &self.counters, events);
                                while let Ok(ParseStatus::Complete(r)) = conn.parser.advance() {
                                    Self::surface(conn, id, r, &self.counters, events);
                                }
                            }
                            Ok(ParseStatus::NeedMore) => {}
                            Err(_) => {
                                let resp =
                                    Response::error(StatusCode::BadRequest, "malformed request");
                                conn.out.push_back(resp.to_bytes());
                                conn.close_after_drain = true;
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
        }

        if mask & EPOLLOUT != 0 || !conn.out.is_empty() {
            Self::flush_conn(conn, &self.counters);
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 && conn.out.is_empty() {
            conn.dead = true;
        }

        if conn.should_close() {
            self.close_conn(slot, events);
        } else {
            self.update_write_interest(slot);
        }
    }

    fn surface(
        conn: &mut RConn,
        id: ConnId,
        req: Request,
        counters: &ConnCounters,
        events: &mut Vec<ConnectionEvent>,
    ) {
        if req.close {
            conn.close_after_drain = true;
        }
        conn.outstanding += 1;
        counters.requests.fetch_add(1, Ordering::Relaxed);
        events.push(ConnectionEvent::Request(id, req));
    }

    /// Flush the output queue with vectored writes until drained or
    /// `WouldBlock`.
    fn flush_conn(conn: &mut RConn, counters: &ConnCounters) {
        while !conn.out.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.out.len().min(MAX_IOVEC));
            for (i, bufv) in conn.out.iter().take(MAX_IOVEC).enumerate() {
                let start = if i == 0 { conn.front_written } else { 0 };
                slices.push(IoSlice::new(&bufv[start..]));
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(mut n) => {
                    conn.last_activity = Instant::now();
                    counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    // Retire fully-written buffers from the front.
                    while n > 0 {
                        let front_len = conn.out.front().map_or(0, Vec::len);
                        let remaining = front_len - conn.front_written;
                        if n >= remaining {
                            conn.out.pop_front();
                            conn.front_written = 0;
                            n -= remaining;
                        } else {
                            conn.front_written += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Register `EPOLLOUT` only while a flush is blocked; deregister the
    /// moment the queue drains so an idle writable socket never wakes the
    /// loop.
    fn update_write_interest(&mut self, slot: u32) {
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        let need = !conn.out.is_empty();
        if need == conn.want_write {
            return;
        }
        let mut interest = CONN_INTEREST;
        if need {
            interest |= EPOLLOUT;
        }
        let id = conn_id(slot, conn.gen);
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), interest, id)
            .is_ok()
        {
            if let Some(Some(conn)) = self.conns.get_mut(slot as usize) {
                conn.want_write = need;
            }
        }
    }

    fn close_conn(&mut self, slot: u32, events: &mut Vec<ConnectionEvent>) {
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::take) else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let id = conn_id(slot, conn.gen);
        self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        self.counters.closed.fetch_add(1, Ordering::Relaxed);
        events.push(ConnectionEvent::Closed(id));
        drop(conn);
    }

    /// Reap connections idle past the deadline (measured from last
    /// activity). A connection with a surfaced request still awaiting its
    /// response is not idle — the runtime's deadline governs execution, and
    /// `send` restarts the window. Runs amortized — at most every `idle/4`,
    /// capped at 250 ms — so the scan cost stays negligible.
    fn reap_idle(&mut self, now: Instant, events: &mut Vec<ConnectionEvent>) {
        let idle = self.config.idle_timeout;
        let mut victims = Vec::new();
        for (slot, entry) in self.conns.iter_mut().enumerate() {
            if let Some(conn) = entry {
                if conn.outstanding == 0 && now.duration_since(conn.last_activity) > idle {
                    if !conn.responded {
                        let resp = Response::error(
                            StatusCode::RequestTimeout,
                            "idle connection timed out",
                        );
                        let _ = conn.stream.write(&resp.to_bytes());
                    }
                    self.counters.reaped.fetch_add(1, Ordering::Relaxed);
                    victims.push(slot as u32);
                }
            }
        }
        for slot in victims {
            self.close_conn(slot, events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Response;
    use std::net::Shutdown;

    fn bind_reactor(max_connections: usize, idle: Duration) -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig {
                max_request_size: 1 << 20,
                idle_timeout: idle,
                max_connections,
            },
        )
        .unwrap()
    }

    fn poll_until<F: FnMut(&mut HttpServer) -> bool>(server: &mut HttpServer, mut done: F) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(server) {
            assert!(Instant::now() < deadline, "poll_until timed out");
        }
    }

    #[test]
    fn reactor_end_to_end_roundtrip() {
        let mut server = bind_reactor(0, Duration::from_secs(30));
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /fn/echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut resp = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        resp.extend_from_slice(&buf[..n]);
                        if resp.ends_with(b"HELLO") {
                            break;
                        }
                    }
                }
            }
            let _ = s.shutdown(Shutdown::Both);
            String::from_utf8(resp).unwrap()
        });
        let mut answered = false;
        poll_until(&mut server, |srv| {
            for ev in srv.poll(Duration::from_millis(10)) {
                if let ConnectionEvent::Request(id, req) = ev {
                    assert_eq!(req.path, "/fn/echo");
                    srv.send(id, &Response::ok(req.body.to_ascii_uppercase()).to_bytes());
                    answered = true;
                }
            }
            answered
        });
        poll_until(&mut server, |srv| {
            srv.poll(Duration::from_millis(10));
            srv.connection_count() == 0
        });
        let resp = client.join().unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.ends_with("HELLO"), "{resp}");
        let snap = server.counters().snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.closed, 1);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.responses, 1);
        assert!(snap.bytes_in > 0 && snap.bytes_out > 0);
        assert_eq!(snap.active(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut server = bind_reactor(0, Duration::from_secs(30));
        let addr = server.local_addr().unwrap();

        let first = TcpStream::connect(addr).unwrap();
        poll_until(&mut server, |srv| {
            srv.poll(Duration::from_millis(5));
            srv.connection_count() == 1
        });
        drop(first);
        let mut first_id = None;
        poll_until(&mut server, |srv| {
            for ev in srv.poll(Duration::from_millis(5)) {
                if let ConnectionEvent::Closed(id) = ev {
                    first_id = Some(id);
                }
            }
            srv.connection_count() == 0
        });

        let _second = TcpStream::connect(addr).unwrap();
        poll_until(&mut server, |srv| {
            srv.poll(Duration::from_millis(5));
            srv.connection_count() == 1
        });
        let first_id = first_id.unwrap();
        // Same slot, new generation: a send to the stale id must fail.
        assert!(!server.send(first_id, b"stale"));
    }

    /// No reaping, so nothing but readiness or the waker ends a `poll`.
    fn bind_unreaped() -> HttpServer {
        bind_reactor(0, Duration::ZERO)
    }

    #[test]
    fn waker_loses_no_wakeup_under_racing_producers() {
        // A single lost wakeup strands the owner in a 10 s poll, past the
        // 5 s bound, with messages still queued.
        const PER_PRODUCER: usize = 10_000;
        let mut server = bind_unreaped();
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let (tx, waker) = (tx.clone(), server.waker());
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send(i).unwrap();
                        waker.wake();
                    }
                })
            })
            .collect();
        drop(tx);
        let start = Instant::now();
        let mut received = 0;
        loop {
            server.arm();
            received += rx.try_iter().count();
            if received == 2 * PER_PRODUCER {
                break;
            }
            server.poll(Duration::from_secs(10));
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "lost wakeup: {received} of {} received",
                2 * PER_PRODUCER
            );
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn armed_wake_ends_a_blocking_poll() {
        let mut server = bind_unreaped();
        let waker = server.waker();
        let ready = Arc::new(std::sync::Barrier::new(2));
        let waking = {
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                ready.wait();
                waker.wake();
            })
        };
        server.arm();
        // The wake lands before or during the poll; either way it ends it.
        ready.wait();
        let start = Instant::now();
        assert!(server.poll(Duration::from_secs(10)).is_empty());
        assert!(start.elapsed() < Duration::from_millis(100));
        waking.join().unwrap();
        // `poll` drained the eventfd: nothing is left to report.
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(server.epoll.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn unarmed_wake_signals_nothing() {
        let mut server = bind_unreaped();
        server.waker().wake();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(server.epoll.wait(&mut buf, 0).unwrap(), 0);

        // A poll disarms: a wake after it is a no-op again.
        server.arm();
        server.poll(Duration::ZERO);
        server.waker().wake();
        assert_eq!(server.epoll.wait(&mut buf, 0).unwrap(), 0);
    }
}
