//! Minimal blocking HTTP/1.1 client with keep-alive and pipelining.
//!
//! This is the outbound twin of the listener front ends: a small
//! `TcpStream`-backed client that keeps its connection open across
//! requests, supports writing a pipelined burst and draining the matching
//! responses, and transparently re-dials once when a reused keep-alive
//! connection turns out to have been closed by the peer. It serves every
//! in-tree HTTP consumer — the load generator, the cluster router's
//! forwarding/probe paths, and tests — so connection handling and response
//! parsing live in exactly one place.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connection knobs for [`HttpClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Dial timeout.
    pub connect_timeout: Duration,
    /// Per-read timeout on the socket (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Disable Nagle batching (on by default: every in-tree consumer is
    /// latency-sensitive request/response traffic).
    pub nodelay: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            nodelay: true,
        }
    }
}

/// A parsed HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// Header name/value pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body (sized by `Content-Length`; empty when absent).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Serialize one HTTP/1.1 request. `Content-Length` is always emitted so
/// requests are safely pipelinable; pass extra headers as `(name, value)`
/// pairs.
pub fn format_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    for (n, v) in headers {
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out
}

/// A request written by [`HttpClient::begin`], whose response
/// [`HttpClient::finish`] reads.
#[derive(Debug)]
#[must_use = "pass it to `HttpClient::finish`"]
pub struct InFlight {
    /// Whether the request rode a connection an earlier exchange opened.
    reused: bool,
    sent: io::Result<()>,
}

/// A keep-alive HTTP/1.1 connection to one address.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// A client for `addr` with default timeouts. Nothing is dialed until
    /// the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, ClientConfig::default())
    }

    /// A client with explicit connection knobs.
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> Self {
        HttpClient {
            addr,
            config,
            stream: None,
        }
    }

    /// Whether a keep-alive connection is currently open.
    pub(crate) fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Drop the current connection (the next request re-dials).
    pub fn disconnect(&mut self) {
        self.stream = None;
    }

    fn ensure_connected(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
            stream.set_nodelay(self.config.nodelay)?;
            stream.set_read_timeout(self.config.read_timeout)?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().unwrap())
    }

    /// Write pre-serialized request bytes (e.g. a pipelined burst built
    /// with [`format_request`]), connecting first if needed. On error the
    /// connection is dropped.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let r = self
            .ensure_connected()
            .and_then(|s| s.get_mut().write_all(bytes));
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    /// Read the next response off the connection. On any error (EOF,
    /// timeout, malformed framing) the connection is dropped so the next
    /// request re-dials; a `Connection: close` response likewise retires
    /// the socket after the body is read.
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let Some(reader) = self.stream.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "no request in flight",
            ));
        };
        match read_one_response(reader) {
            Ok(resp) => {
                let close = resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if close {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// One full request/response exchange: [`begin`](Self::begin) then
    /// [`finish`](Self::finish).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let bytes = format_request(method, path, headers, body);
        let sent = self.begin(&bytes);
        self.finish(&bytes, sent)
    }

    /// Write one pre-serialized request (see [`format_request`]) without
    /// waiting for its response, so a caller can put a request on several
    /// connections before it reads any of them.
    pub fn begin(&mut self, request: &[u8]) -> InFlight {
        InFlight {
            reused: self.is_connected(),
            sent: self.send_raw(request),
        }
    }

    /// Read the response to the `request` that [`begin`](Self::begin)
    /// wrote.
    ///
    /// A reused keep-alive connection may have been closed by the peer
    /// between requests; if the write or the read failed on a reused
    /// connection, the exchange is retried once on a fresh dial. A failure
    /// on a fresh connection is returned as-is — retrying it is the
    /// caller's policy decision (the cluster router, for instance, fails
    /// over to another node instead).
    pub fn finish(&mut self, request: &[u8], sent: InFlight) -> io::Result<ClientResponse> {
        match sent.sent.and_then(|()| self.read_response()) {
            Err(_) if sent.reused => {
                self.send_raw(request)?;
                self.read_response()
            }
            other => other,
        }
    }
}

/// Read one HTTP/1.1 response (status line, headers, `Content-Length`
/// body) off a buffered stream.
fn read_one_response(r: &mut BufReader<TcpStream>) -> io::Result<ClientResponse> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof before status line",
        ));
    }
    let t = line.trim_end();
    let status: u16 = t
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line: {t}")))?;

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof mid-headers",
            ));
        }
        let t = line.trim_end();
        if t.is_empty() {
            break;
        }
        let Some((k, v)) = t.split_once(':') else {
            return Err(io::Error::other(format!("malformed header: {t}")));
        };
        let name = k.trim().to_ascii_lowercase();
        let value = v.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(io::Error::other)?;
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A tiny echo server: answers every request with its body, tracking
    /// how many connections it accepted. `close_after` makes it close each
    /// connection after N responses (simulating keep-alive expiry).
    fn echo_server(close_after: Option<usize>) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let counter = accepted.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                counter.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    let mut served = 0usize;
                    loop {
                        // Parse one request: headers then body.
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        let mut len = 0usize;
                        loop {
                            let mut h = String::new();
                            if reader.read_line(&mut h).unwrap_or(0) == 0 {
                                return;
                            }
                            let t = h.trim_end();
                            if t.is_empty() {
                                break;
                            }
                            if let Some((k, v)) = t.split_once(':') {
                                if k.eq_ignore_ascii_case("content-length") {
                                    len = v.trim().parse().unwrap_or(0);
                                }
                            }
                        }
                        let mut body = vec![0u8; len];
                        if reader.read_exact(&mut body).is_err() {
                            return;
                        }
                        let resp = format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n");
                        let s = reader.get_mut();
                        if s.write_all(resp.as_bytes()).is_err() || s.write_all(&body).is_err() {
                            return;
                        }
                        served += 1;
                        if close_after == Some(served) {
                            return;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    #[test]
    fn request_roundtrip_and_keepalive_reuse() {
        let (addr, accepted) = echo_server(None);
        let mut c = HttpClient::new(addr);
        for i in 0..5 {
            let body = format!("hello-{i}");
            let resp = c.request("POST", "/echo", &[], body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200);
            assert!(resp.is_success());
            assert_eq!(resp.body, body.as_bytes());
        }
        // All five requests rode one connection.
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pipelined_burst_drains_in_order() {
        let (addr, _) = echo_server(None);
        let mut c = HttpClient::new(addr);
        let mut burst = Vec::new();
        for i in 0..4 {
            burst.extend_from_slice(&format_request(
                "POST",
                "/echo",
                &[],
                format!("req-{i}").as_bytes(),
            ));
        }
        c.send_raw(&burst).unwrap();
        for i in 0..4 {
            let resp = c.read_response().unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("req-{i}").as_bytes());
        }
    }

    #[test]
    fn stale_keepalive_connection_is_redialed_once() {
        // Server closes every connection after one response: each request
        // after the first hits a dead socket and must transparently
        // reconnect.
        let (addr, accepted) = echo_server(Some(1));
        let mut c = HttpClient::new(addr);
        for i in 0..3 {
            let resp = c.request("POST", "/x", &[], b"ping").unwrap();
            assert_eq!(resp.status, 200, "request {i}");
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn connect_failure_is_reported() {
        // A port with nothing listening: grab one, then drop the listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut c = HttpClient::with_config(
            addr,
            ClientConfig {
                connect_timeout: Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(c.request("GET", "/", &[], b"").is_err());
        assert!(!c.is_connected());
    }

    #[test]
    fn non_success_statuses_are_responses_not_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 4\r\n\r\nbusy")
                .unwrap();
        });
        let mut c = HttpClient::new(addr);
        let resp = c.request("GET", "/", &[], b"").unwrap();
        assert_eq!(resp.status, 503);
        assert!(!resp.is_success());
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.body, b"busy");
    }

    #[test]
    fn formats_requests_with_content_length() {
        let bytes = format_request("POST", "/fn/echo", &[("X-A", "b")], b"abc");
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("POST /fn/echo HTTP/1.1\r\n"));
        assert!(s.contains("X-A: b\r\n"));
        assert!(s.ends_with("Content-Length: 3\r\n\r\nabc"));
    }
}
