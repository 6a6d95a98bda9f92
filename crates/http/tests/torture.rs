//! Protocol-torture integration suite for the listener front end.
//!
//! Holds [`HttpServer`] to its contract over real sockets: slowloris
//! reaping, pipelined bursts answered in order, keep-alive reuse,
//! socket-tier connection-budget shedding, drain semantics, malformed
//! input, many concurrent peers, and the half-close / idle-deadline
//! regressions.

use sledge_http::{ConnectionEvent, HttpServer, Request, Response, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn bind(max_connections: usize, idle: Duration) -> HttpServer {
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
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(server) {
        assert!(Instant::now() < deadline, "poll_until timed out");
    }
}

/// Drive the server as a plain uppercase-echo service until `stop` says
/// we're finished. Returns every event seen.
fn echo_step(server: &mut HttpServer) -> Vec<(u64, Request)> {
    let mut got = Vec::new();
    for ev in server.poll(Duration::from_millis(5)) {
        if let ConnectionEvent::Request(id, req) = ev {
            let body = req.body.to_ascii_uppercase();
            server.send(id, &Response::ok(body).to_bytes());
            got.push((id, req));
        }
    }
    got
}

fn read_to_eof(s: &mut TcpStream) -> Vec<u8> {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut resp = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => resp.extend_from_slice(&buf[..n]),
        }
    }
    resp
}

fn post(route: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {route} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Read exactly one HTTP/1.1 response off the stream (headers to CRLFCRLF,
/// then Content-Length body bytes). Returns (status-line, body).
fn read_one_response(s: &mut TcpStream) -> (String, Vec<u8>) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 1];
    // Headers, byte at a time (test-grade, not perf-sensitive).
    while !raw.ends_with(b"\r\n\r\n") {
        match s.read(&mut buf) {
            Ok(1) => raw.push(buf[0]),
            _ => panic!(
                "connection ended mid-headers: {:?}",
                String::from_utf8_lossy(&raw)
            ),
        }
    }
    let head = String::from_utf8_lossy(&raw).to_string();
    let status = head.lines().next().unwrap_or_default().to_string();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).expect("body");
    (status, body)
}

#[test]
fn slowloris_trickle_is_reaped_with_408() {
    let mut server = bind(0, Duration::from_millis(80));
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // A header trickle that never completes the request.
        let _ = s.write_all(b"POST /fn HTTP/1.1\r\nContent-Le");
        read_to_eof(&mut s)
    });
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.connection_count() == 0 && srv.counters().snapshot().accepted == 1
    });
    let resp = String::from_utf8(client.join().unwrap()).unwrap();
    assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");
    assert_eq!(server.counters().snapshot().reaped, 1);
}

#[test]
fn pipelined_burst_answered_in_order() {
    const N: usize = 32;
    let mut server = bind(0, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // The whole burst leaves in one write: the server must parse
        // all N back-to-back requests and answer them in order.
        let mut burst = Vec::new();
        for i in 0..N {
            burst.extend_from_slice(&post("/fn", &format!("req-{i:02}")));
        }
        s.write_all(&burst).unwrap();
        let mut bodies = Vec::new();
        for _ in 0..N {
            let (status, body) = read_one_response(&mut s);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            bodies.push(String::from_utf8(body).unwrap());
        }
        bodies
    });
    let mut answered = 0;
    poll_until(&mut server, |srv| {
        answered += echo_step(srv).len();
        answered == N
    });
    // Flush whatever is still queued.
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(2));
        srv.unflushed() == 0
    });
    let bodies = client.join().unwrap();
    let expect: Vec<String> = (0..N).map(|i| format!("REQ-{i:02}")).collect();
    assert_eq!(bodies, expect);
    let snap = server.counters().snapshot();
    assert_eq!(snap.requests, N as u64);
    assert_eq!(snap.responses, N as u64);
}

#[test]
fn keep_alive_serves_many_sequential_requests() {
    const N: usize = 12;
    let mut server = bind(0, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut bodies = Vec::new();
        for i in 0..N {
            s.write_all(&post("/fn", &format!("ping-{i}"))).unwrap();
            let (status, body) = read_one_response(&mut s);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            bodies.push(String::from_utf8(body).unwrap());
        }
        bodies
    });
    let mut answered = 0;
    poll_until(&mut server, |srv| {
        answered += echo_step(srv).len();
        answered == N
    });
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(2));
        srv.unflushed() == 0
    });
    let bodies = client.join().unwrap();
    assert_eq!(bodies.len(), N);
    for (i, b) in bodies.iter().enumerate() {
        assert_eq!(b, &format!("PING-{i}"));
    }
    // One connection served everything.
    let snap = server.counters().snapshot();
    assert_eq!(snap.accepted, 1);
    assert_eq!(snap.requests, N as u64);
}

#[test]
fn connection_budget_shed_is_503_close_before_parse() {
    let mut server = bind(2, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    // Fill the budget.
    let _a = TcpStream::connect(addr).unwrap();
    let _b = TcpStream::connect(addr).unwrap();
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.connection_count() == 2
    });
    // The third peer is shed at the socket tier.
    let shed = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        read_to_eof(&mut s)
    });
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.counters().snapshot().shed == 1
    });
    let resp = String::from_utf8(shed.join().unwrap()).unwrap();
    assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    // Shed before parse: no request was ever surfaced or counted.
    let snap = server.counters().snapshot();
    assert_eq!(snap.requests, 0);
    assert_eq!(snap.accepted, 2, "shed conns are never accepted");
}

#[test]
fn drain_finishes_in_flight_responses_then_sheds_new_peers() {
    let mut server = bind(0, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&post("/fn", "in-flight")).unwrap();
        let (status, body) = read_one_response(&mut s);
        // After the response the server closes the drained connection.
        let rest = read_to_eof(&mut s);
        (status, body, rest)
    });
    // Surface the request but do NOT answer yet.
    let mut pending = Vec::new();
    poll_until(&mut server, |srv| {
        for ev in srv.poll(Duration::from_millis(5)) {
            if let ConnectionEvent::Request(id, req) = ev {
                pending.push((id, req.body));
            }
        }
        !pending.is_empty()
    });
    // Drain starts with the response still in flight.
    server.begin_drain();
    // A new peer arriving mid-drain is shed at the socket tier.
    let late = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        read_to_eof(&mut s)
    });
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.counters().snapshot().shed == 1
    });
    // Now the worker answers; the drained connection must still carry
    // the response out before closing.
    for (id, body) in pending.drain(..) {
        assert!(server.send(id, &Response::ok(body).to_bytes()));
    }
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.connection_count() == 0
    });
    let (status, body, _rest) = client.join().unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(body, b"in-flight");
    let late_resp = String::from_utf8(late.join().unwrap()).unwrap();
    assert!(late_resp.starts_with("HTTP/1.1 503"), "{late_resp}");
}

#[test]
fn half_close_mid_flush_delivers_all_pipelined_responses() {
    // Regression: EOF observed while responses are queued or in
    // flight must not drop them.
    let mut server = bind(0, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut burst = post("/fn", "first");
        burst.extend_from_slice(&post("/fn", "second"));
        s.write_all(&burst).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let raw = read_to_eof(&mut s);
        String::from_utf8_lossy(&raw).to_string()
    });
    // Collect both requests, then answer strictly after the EOF has
    // had time to be observed.
    let mut pending = Vec::new();
    poll_until(&mut server, |srv| {
        for ev in srv.poll(Duration::from_millis(5)) {
            if let ConnectionEvent::Request(id, req) = ev {
                pending.push((id, req.body));
            }
        }
        pending.len() == 2
    });
    for _ in 0..20 {
        server.poll(Duration::from_millis(1));
    }
    for (id, body) in pending.drain(..) {
        assert!(server.send(id, &Response::ok(body).to_bytes()));
    }
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.connection_count() == 0
    });
    let resp = client.join().unwrap();
    let first = resp.find("first");
    let second = resp.find("second");
    assert!(
        first.is_some() && second.is_some(),
        "dropped pipelined response: {resp}"
    );
    assert!(first.unwrap() < second.unwrap(), "out of order: {resp}");
}

#[test]
fn idle_deadline_resets_on_activity() {
    // Satellite regression: the idle reaper measures from the last byte
    // moved, never from accept — a slow-but-live client survives windows
    // longer than the idle timeout as long as each gap stays under it.
    let idle = Duration::from_millis(400);
    let mut server = bind(0, idle);
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // Total transmission time ~3× the idle window; each gap ~idle/3.
        let mut max_gap = Duration::ZERO;
        let mut last = Instant::now();
        let payload = post("/fn", "alive");
        for chunk in payload.chunks(5) {
            std::thread::sleep(idle / 3);
            if s.write_all(chunk).is_err() {
                break;
            }
            max_gap = max_gap.max(last.elapsed());
            last = Instant::now();
        }
        let (status, body) = read_one_response(&mut s);
        (status, body, max_gap)
    });
    let mut answered = 0;
    poll_until(&mut server, |srv| {
        answered += echo_step(srv).len();
        answered == 1
    });
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(2));
        srv.unflushed() == 0
    });
    let (status, body, max_gap) = client.join().unwrap();
    // Only assert survival when the client genuinely kept every gap
    // under the window (a loaded test machine can overshoot the sleep).
    if max_gap < idle {
        assert!(
            status.starts_with("HTTP/1.1 200"),
            "reaped a live connection (max gap {max_gap:?}): {status}"
        );
        assert_eq!(body, b"ALIVE");
        assert_eq!(server.counters().snapshot().reaped, 0);
    }
}

#[test]
fn idle_reaper_spares_a_request_awaiting_its_response() {
    // A complete request the runtime is still serving is not an idle
    // connection: the reaper must not answer it with 408 and drop the real
    // response, however long the invocation outlives the idle window.
    let idle = Duration::from_millis(80);
    let mut server = bind(0, idle);
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&post("/fn", "slow")).unwrap();
        read_one_response(&mut s)
    });
    let mut pending = None;
    poll_until(&mut server, |srv| {
        for ev in srv.poll(Duration::from_millis(5)) {
            if let ConnectionEvent::Request(id, req) = ev {
                pending = Some((id, req.body));
            }
        }
        pending.is_some()
    });
    // Keep the listener turning (and the reaper scanning) for four idle
    // windows before the response is ready.
    let answer_at = Instant::now() + idle * 4;
    while Instant::now() < answer_at {
        server.poll(Duration::from_millis(5));
    }
    let (id, body) = pending.unwrap();
    assert!(
        server.send(id, &Response::ok(body).to_bytes()),
        "connection reaped while its request was outstanding"
    );
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.unflushed() == 0
    });
    let (status, body) = client.join().unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(body, b"slow");
    assert_eq!(server.counters().snapshot().reaped, 0);
}

#[test]
fn malformed_request_gets_400_and_close() {
    let mut server = bind(0, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        read_to_eof(&mut s)
    });
    // Not `connection_count() == 0`: that holds before the accept too.
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(5));
        srv.counters().snapshot().closed == 1
    });
    let resp = String::from_utf8(client.join().unwrap()).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert_eq!(server.counters().snapshot().requests, 0);
}

#[test]
fn many_concurrent_connections() {
    const N: usize = 32;
    let mut server = bind(0, Duration::from_secs(30));
    let addr = server.local_addr().unwrap();
    let clients: Vec<_> = (0..N)
        .map(|i| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&post("/fn", &format!("client-{i}"))).unwrap();
                let (status, body) = read_one_response(&mut s);
                assert!(status.starts_with("HTTP/1.1 200"), "{status}");
                String::from_utf8(body).unwrap()
            })
        })
        .collect();
    let mut answered = 0;
    poll_until(&mut server, |srv| {
        answered += echo_step(srv).len();
        answered == N
    });
    poll_until(&mut server, |srv| {
        srv.poll(Duration::from_millis(2));
        srv.unflushed() == 0
    });
    for (i, c) in clients.into_iter().enumerate() {
        assert_eq!(c.join().unwrap(), format!("CLIENT-{i}"));
    }
    assert_eq!(server.counters().snapshot().accepted, N as u64);
}
