//! The client side of the wire: split a byte stream into HTTP/1.1 responses
//! however the reads tear it, and check each one against the native twin.

/// A response stream that is not `HTTP/1.x <code> ...` with a numeric
/// `Content-Length`.
#[derive(Debug, PartialEq, Eq)]
pub struct Malformed;

/// Incremental splitter for `Content-Length`-framed responses.
#[derive(Default)]
pub struct Splitter {
    buf: Vec<u8>,
    /// Start of the first response not yet returned.
    head: usize,
    /// Parsed head of the response at `head`, so a body that arrives in many
    /// reads does not re-scan its headers each time: (status, body offset
    /// from `head`, body length).
    parsed: Option<(u16, usize, usize)>,
}

impl Splitter {
    pub fn new() -> Self {
        Splitter::default()
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 1 << 16 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response as `(status, body)`, or `None` until more
    /// bytes arrive.
    pub fn next_response(&mut self) -> Result<Option<(u16, &[u8])>, Malformed> {
        let rest = &self.buf[self.head..];
        let (status, body_at, body_len) = match self.parsed {
            Some(p) => p,
            None => {
                let Some(end) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
                    return Ok(None);
                };
                let p = parse_head(&rest[..end])?;
                let p = (p.0, end + 4, p.1);
                self.parsed = Some(p);
                p
            }
        };
        if rest.len() < body_at + body_len {
            return Ok(None);
        }
        let start = self.head + body_at;
        self.head = start + body_len;
        self.parsed = None;
        Ok(Some((status, &self.buf[start..start + body_len])))
    }
}

/// Status code and `Content-Length` (0 when absent) of a response head.
fn parse_head(head: &[u8]) -> Result<(u16, usize), Malformed> {
    let text = std::str::from_utf8(head).map_err(|_| Malformed)?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1."))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or(Malformed)?;
    let mut len = 0;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or(Malformed)?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            len = value.trim().parse().map_err(|_| Malformed)?;
        }
    }
    Ok((status, len))
}

/// A response is correct when it is a 200 whose body equals the native
/// twin's output for the request body that was sent.
pub fn is_correct(status: u16, body: &[u8], expected: &[u8]) -> bool {
    status == 200 && body == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: &str, body: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {status}\r\nContent-Type: x\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn splits_pipelined_responses_under_every_tear() {
        let bodies: [&[u8]; 3] = [b".", b"", &[0xab; 300]];
        let stream: Vec<u8> = [
            response("200 OK", bodies[0]),
            response("404 Not Found", bodies[1]),
            response("200 OK", bodies[2]),
        ]
        .concat();
        for chunk in [1, 2, 3, 5, 7, 64, stream.len()] {
            let mut sp = Splitter::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                sp.feed(piece);
                while let Some((status, body)) = sp.next_response().unwrap() {
                    got.push((status, body.to_vec()));
                }
            }
            assert_eq!(got.len(), 3, "chunk {chunk}");
            assert_eq!(got[0], (200, bodies[0].to_vec()));
            assert_eq!(got[1], (404, Vec::new()));
            assert_eq!(got[2], (200, bodies[2].to_vec()));
        }
    }

    #[test]
    fn compacts_without_losing_a_torn_response() {
        let big = response("200 OK", &vec![7u8; 70_000]);
        let mut sp = Splitter::new();
        for _ in 0..3 {
            let (a, b) = big.split_at(65_000);
            sp.feed(a);
            assert_eq!(sp.next_response(), Ok(None));
            sp.feed(b);
            // The next response's first bytes arrive with this one's last.
            sp.feed(&big[..10]);
            assert_eq!(sp.next_response().unwrap().unwrap().1.len(), 70_000);
            assert_eq!(sp.next_response(), Ok(None));
            sp.feed(&big[10..]);
            assert_eq!(sp.next_response().unwrap().unwrap().1.len(), 70_000);
        }
    }

    #[test]
    fn rejects_a_stream_that_is_not_http() {
        let mut sp = Splitter::new();
        sp.feed(b"SSH-2.0 hello\r\n\r\n");
        assert_eq!(sp.next_response(), Err(Malformed));
        let mut sp = Splitter::new();
        sp.feed(b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n");
        assert_eq!(sp.next_response(), Err(Malformed));
    }

    #[test]
    fn checker_rejects_a_flipped_byte_and_a_non_200() {
        let input: Vec<u8> = (0..=255).collect();
        let expected = sledge_apps::echo::native(&input);
        assert!(is_correct(200, &expected, &expected));
        let mut flipped = expected.clone();
        flipped[100] ^= 1;
        assert!(!is_correct(200, &flipped, &expected));
        assert!(!is_correct(200, &expected[..255], &expected));
        assert!(!is_correct(503, &expected, &expected));
    }
}
