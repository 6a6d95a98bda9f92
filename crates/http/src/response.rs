//! HTTP response construction and serialization.

use std::fmt;
use std::time::Duration;

/// Format a back-off hint as `Retry-After` delta-seconds: rounded up to
/// whole seconds, minimum 1 (the header has second granularity, and a `0`
/// would invite an immediate retry, defeating the back-off). Every emitter
/// of the header — circuit-breaker 503s and admission-control 429s alike —
/// must go through this so clients see one consistent format.
pub(crate) fn retry_after_secs(hint: Duration) -> u64 {
    hint.as_secs_f64().ceil().max(1.0) as u64
}

/// The subset of status codes the runtime emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 429
    TooManyRequests,
    /// 408
    RequestTimeout,
    /// 500
    InternalServerError,
    /// 503
    ServiceUnavailable,
    /// 504
    GatewayTimeout,
}

impl StatusCode {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::TooManyRequests => 429,
            StatusCode::RequestTimeout => 408,
            StatusCode::InternalServerError => 500,
            StatusCode::ServiceUnavailable => 503,
            StatusCode::GatewayTimeout => 504,
        }
    }

    /// Canonical reason phrase.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::TooManyRequests => "Too Many Requests",
            StatusCode::RequestTimeout => "Request Timeout",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::ServiceUnavailable => "Service Unavailable",
            StatusCode::GatewayTimeout => "Gateway Timeout",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.reason())
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status line code.
    pub status: StatusCode,
    /// Extra headers (`Content-Length` is added automatically).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether to signal `Connection: close`.
    pub close: bool,
}

impl Response {
    /// A `200 OK` response with the given body.
    pub fn ok(body: Vec<u8>) -> Self {
        Response {
            status: StatusCode::Ok,
            headers: Vec::new(),
            body,
            close: false,
        }
    }

    /// An error response with a short text body.
    pub fn error(status: StatusCode, message: &str) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: message.as_bytes().to_vec(),
            close: false,
        }
    }

    /// Add a header (builder style).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Attach a `Retry-After` header formatted by `retry_after_secs`.
    pub fn retry_after(self, hint: Duration) -> Self {
        self.header("Retry-After", &retry_after_secs(hint).to_string())
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        out.extend_from_slice(b"HTTP/1.1 ");
        out.extend_from_slice(self.status.to_string().as_bytes());
        out.extend_from_slice(b"\r\n");
        for (n, v) in &self.headers {
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if self.close {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_with_content_length() {
        let r = Response::ok(b"abc".to_vec()).header("X-Fn", "echo");
        let bytes = r.to_bytes();
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("X-Fn: echo\r\n"));
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.ends_with("\r\n\r\nabc"));
    }

    #[test]
    fn error_statuses() {
        for (st, code) in [
            (StatusCode::BadRequest, 400),
            (StatusCode::NotFound, 404),
            (StatusCode::RequestTimeout, 408),
            (StatusCode::TooManyRequests, 429),
            (StatusCode::InternalServerError, 500),
            (StatusCode::ServiceUnavailable, 503),
            (StatusCode::GatewayTimeout, 504),
        ] {
            assert_eq!(st.code(), code);
            let bytes = Response::error(st, "nope").to_bytes();
            assert!(String::from_utf8(bytes)
                .unwrap()
                .starts_with(&format!("HTTP/1.1 {code}")));
        }
    }

    #[test]
    fn retry_after_rounds_up_to_whole_seconds_min_one() {
        // Ceil-to-seconds with a floor of 1: sub-second hints and zero both
        // become "1"; exact seconds pass through; fractions round up.
        for (hint, secs) in [
            (Duration::ZERO, 1),
            (Duration::from_millis(1), 1),
            (Duration::from_millis(999), 1),
            (Duration::from_secs(1), 1),
            (Duration::from_millis(1001), 2),
            (Duration::from_millis(2500), 3),
            (Duration::from_secs(60), 60),
        ] {
            assert_eq!(retry_after_secs(hint), secs, "hint {hint:?}");
        }
        // The builder emits exactly that format — 503 breakers and 429
        // admission rejections share it.
        for status in [StatusCode::ServiceUnavailable, StatusCode::TooManyRequests] {
            let r = Response::error(status, "later").retry_after(Duration::from_millis(1400));
            let s = String::from_utf8(r.to_bytes()).unwrap();
            assert!(s.contains("Retry-After: 2\r\n"), "{s}");
        }
    }

    #[test]
    fn close_header_emitted() {
        let mut r = Response::ok(vec![]);
        r.close = true;
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.contains("Connection: close\r\n"));
    }
}
