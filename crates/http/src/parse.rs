//! Incremental HTTP/1.1 request parsing.

use std::error::Error;
use std::fmt;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/fn/echo`.
    pub path: String,
    /// Header name/value pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
}

impl Request {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header.
    Malformed(&'static str),
    /// Headers or body exceed the configured maximum.
    TooLarge,
    /// Invalid `Content-Length` value.
    BadContentLength,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed http request: {what}"),
            HttpError::TooLarge => write!(f, "request exceeds configured size limit"),
            HttpError::BadContentLength => write!(f, "invalid content-length"),
        }
    }
}

impl Error for HttpError {}

/// Result of feeding bytes to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseStatus {
    /// More bytes are needed.
    NeedMore,
    /// A complete request was parsed. Any pipelined surplus bytes stay
    /// buffered for the next `feed` call.
    Complete(Request),
}

/// Incremental request parser: feed it network reads as they arrive.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_size: usize,
    /// Parsed head, waiting for the body.
    pending: Option<(Request, usize)>,
}

impl RequestParser {
    /// Create a parser that rejects requests larger than `max_size` bytes
    /// (head + body).
    pub fn new(max_size: usize) -> Self {
        RequestParser {
            buf: Vec::new(),
            max_size,
            pending: None,
        }
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feed newly received bytes; returns a complete request as soon as one
    /// is available.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] for malformed or oversized requests; the
    /// connection should be closed.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<ParseStatus, HttpError> {
        if self.buf.len() + bytes.len() > self.max_size {
            return Err(HttpError::TooLarge);
        }
        self.buf.extend_from_slice(bytes);
        self.advance()
    }

    /// Try to produce the next pipelined request from already-buffered data.
    ///
    /// # Errors
    ///
    /// Same as [`feed`](Self::feed).
    pub fn advance(&mut self) -> Result<ParseStatus, HttpError> {
        // Body phase.
        if let Some((req, want)) = self.pending.take() {
            return self.try_body(req, want);
        }
        // Head phase: find CRLFCRLF.
        let Some(head_end) = find_double_crlf(&self.buf) else {
            return Ok(ParseStatus::NeedMore);
        };
        let head = &self.buf[..head_end];
        let mut lines = head.split(|&b| b == b'\n').map(|l| {
            let l = if l.last() == Some(&b'\r') {
                &l[..l.len() - 1]
            } else {
                l
            };
            l
        });
        let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
        let rl = std::str::from_utf8(request_line).map_err(|_| HttpError::Malformed("non-utf8"))?;
        let mut parts = rl.split_whitespace();
        let method = parts
            .next()
            .ok_or(HttpError::Malformed("missing method"))?
            .to_ascii_uppercase();
        let path = parts
            .next()
            .ok_or(HttpError::Malformed("missing path"))?
            .to_string();
        let version = parts
            .next()
            .ok_or(HttpError::Malformed("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported version"));
        }
        if parts.next().is_some() {
            return Err(HttpError::Malformed("garbage after version"));
        }

        let mut headers = Vec::new();
        let mut content_length: Option<usize> = None;
        let mut close = version == "HTTP/1.0";
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let s = std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8"))?;
            let (name, value) = s
                .split_once(':')
                .ok_or(HttpError::Malformed("header missing colon"))?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name.is_empty() {
                return Err(HttpError::Malformed("empty header name"));
            }
            if name == "content-length" {
                // RFC 9110 §8.6: digits only (`usize::from_str` would take a
                // sign); all digits yet unparseable is a length past usize.
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::BadContentLength);
                }
                let n = value.parse().map_err(|_| HttpError::TooLarge)?;
                // Two lengths that disagree frame two different requests.
                if content_length.replace(n).is_some_and(|prev| prev != n) {
                    return Err(HttpError::BadContentLength);
                }
            }
            // Chunked bodies are not implemented; read as `Content-Length: 0`
            // the chunk stream would parse as pipelined requests (smuggling).
            if name == "transfer-encoding" {
                return Err(HttpError::Malformed("transfer-encoding not supported"));
            }
            if name == "connection" {
                let v = value.to_ascii_lowercase();
                if v == "close" {
                    close = true;
                } else if v == "keep-alive" {
                    close = false;
                }
            }
            headers.push((name, value));
        }
        let content_length = content_length.unwrap_or(0);
        // Checked: the length is the peer's number, up to `usize::MAX`.
        if (head_end + 4)
            .checked_add(content_length)
            .is_none_or(|total| total > self.max_size)
        {
            return Err(HttpError::TooLarge);
        }
        self.buf.drain(..head_end + 4);
        let req = Request {
            method,
            path,
            headers,
            body: Vec::new(),
            close,
        };
        self.try_body(req, content_length)
    }

    fn try_body(&mut self, mut req: Request, want: usize) -> Result<ParseStatus, HttpError> {
        if self.buf.len() < want {
            self.pending = Some((req, want));
            return Ok(ParseStatus::NeedMore);
        }
        req.body = self.buf.drain(..want).collect();
        Ok(ParseStatus::Complete(req))
    }
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_get() {
        let mut p = RequestParser::new(4096);
        let st = p.feed(b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        let ParseStatus::Complete(req) = st else {
            panic!("incomplete")
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(req.header("HOST"), Some("a"));
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn parses_post_body_across_fragments() {
        let mut p = RequestParser::new(4096);
        assert_eq!(
            p.feed(b"POST /fn HTTP/1.1\r\nConte").unwrap(),
            ParseStatus::NeedMore
        );
        assert_eq!(
            p.feed(b"nt-Length: 10\r\n\r\n12345").unwrap(),
            ParseStatus::NeedMore
        );
        let st = p.feed(b"67890").unwrap();
        let ParseStatus::Complete(req) = st else {
            panic!("incomplete")
        };
        assert_eq!(req.body, b"1234567890");
    }

    #[test]
    fn pipelined_requests() {
        let mut p = RequestParser::new(4096);
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseStatus::Complete(r1) = p.feed(two).unwrap() else {
            panic!()
        };
        assert_eq!(r1.path, "/a");
        let ParseStatus::Complete(r2) = p.advance().unwrap() else {
            panic!()
        };
        assert_eq!(r2.path, "/b");
        assert_eq!(p.advance().unwrap(), ParseStatus::NeedMore);
    }

    #[test]
    fn connection_close_and_http10() {
        let mut p = RequestParser::new(4096);
        let ParseStatus::Complete(r) = p
            .feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
        else {
            panic!()
        };
        assert!(r.close);
        let ParseStatus::Complete(r) = p.feed(b"GET / HTTP/1.0\r\n\r\n").unwrap() else {
            panic!()
        };
        assert!(r.close);
        let ParseStatus::Complete(r) = p
            .feed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
        else {
            panic!()
        };
        assert!(!r.close);
    }

    #[test]
    fn rejects_malformed() {
        assert!(RequestParser::new(4096).feed(b"BROKEN\r\n\r\n").is_err());
        assert!(RequestParser::new(4096)
            .feed(b"GET / FTP/1.1\r\n\r\n")
            .is_err());
        assert!(RequestParser::new(4096)
            .feed(b"GET / HTTP/1.1\r\nBad-Header\r\n\r\n")
            .is_err());
        assert!(RequestParser::new(4096)
            .feed(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n")
            .is_err());
    }

    #[test]
    fn rejects_hostile_framing() {
        let reject = |head: &str| RequestParser::new(4096).feed(head.as_bytes()).unwrap_err();
        // usize::MAX overflowed the size check: a panic in debug builds, and
        // in release a wrap that waited for 2^64 body bytes.
        assert_eq!(
            reject("POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n"),
            HttpError::TooLarge
        );
        assert_eq!(
            reject("POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
            HttpError::TooLarge
        );
        assert_eq!(
            reject("POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"),
            HttpError::BadContentLength
        );
        assert_eq!(
            reject("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"),
            HttpError::BadContentLength
        );
        assert!(matches!(
            reject("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"),
            HttpError::Malformed(_)
        ));
        // Repeating the same length is legal.
        let mut p = RequestParser::new(4096);
        let st = p.feed(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert!(matches!(st, Ok(ParseStatus::Complete(r)) if r.body == b"ok"));
    }

    #[test]
    fn rejects_oversized() {
        let mut p = RequestParser::new(16);
        assert_eq!(
            p.feed(b"POST /very-long-path HTTP/1.1\r\n"),
            Err(HttpError::TooLarge)
        );
        // Declared body exceeds the limit even though the head fits.
        let mut p = RequestParser::new(128);
        assert!(matches!(
            p.feed(b"POST / HTTP/1.1\r\nContent-Length: 10000\r\n\r\n"),
            Err(HttpError::TooLarge)
        ));
    }
}
