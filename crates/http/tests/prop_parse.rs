//! Seeded generative fragmentation tests for the incremental request parser.
//!
//! The central invariant: **parsing a byte stream in fragments is
//! indistinguishable from parsing it whole** — same requests, same order,
//! same bodies, same terminal error — no matter where the kernel happens
//! to tear the reads. The reactor's edge-triggered drain loop hands the
//! parser arbitrarily torn chunks, so this is exactly the surface the
//! listener exercises under load.

use sledge_http::{HttpError, ParseStatus, Request, RequestParser};
use sledge_testkit::{cases, Rng};

const MAX: usize = 1 << 20;

/// Feed `wire` to a fresh parser in the given fragment sizes (the final
/// fragment takes whatever remains) and collect every pipelined request.
/// Returns the requests plus the first error, if any.
fn parse_fragmented(wire: &[u8], cuts: &[usize]) -> (Vec<Request>, Option<HttpError>) {
    let mut parser = RequestParser::new(MAX);
    let mut out = Vec::new();
    let mut consumed = 0usize;
    let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(usize::MAX));
    while consumed < wire.len() {
        let n = cut_iter
            .next()
            .expect("infinite")
            .clamp(1, wire.len() - consumed);
        match parser.feed(&wire[consumed..consumed + n]) {
            Ok(ParseStatus::Complete(req)) => {
                out.push(req);
                // Drain every pipelined request already buffered.
                loop {
                    match parser.advance() {
                        Ok(ParseStatus::Complete(req)) => out.push(req),
                        Ok(ParseStatus::NeedMore) => break,
                        Err(e) => return (out, Some(e)),
                    }
                }
            }
            Ok(ParseStatus::NeedMore) => {}
            Err(e) => return (out, Some(e)),
        }
        consumed += n;
    }
    (out, None)
}

/// Parse the whole wire in one feed (plus advance drain).
fn parse_whole(wire: &[u8]) -> (Vec<Request>, Option<HttpError>) {
    parse_fragmented(wire, &[usize::MAX])
}

/// Serialize a pipelined sequence of POSTs with the given bodies; bodies
/// may be empty (zero-length Content-Length is a required case).
fn pipeline_wire(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        wire.extend_from_slice(
            format!(
                "POST /fn/{i} HTTP/1.1\r\nHost: edge\r\nX-Seq: {i}\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(body);
    }
    wire
}

/// `lo..hi` fragment sizes of `1..max` bytes each.
fn cuts(rng: &mut Rng, lo: usize, hi: usize, max: usize) -> Vec<usize> {
    rng.vec(lo, hi, |r| r.index(1, max))
}

/// Pipelined back-to-back requests with arbitrary bodies and arbitrary
/// fragment boundaries parse identically to the unfragmented stream.
#[test]
fn fragmented_pipeline_equals_whole() {
    cases(256, 0xF2A6_3E27, |rng| {
        let bodies = rng.vec(1, 6, |r| r.bytes(0, 512));
        let wire = pipeline_wire(&bodies);
        let (whole, whole_err) = parse_whole(&wire);
        let (frag, frag_err) = parse_fragmented(&wire, &cuts(rng, 0, 32, 48));
        assert_eq!(whole_err, None);
        assert_eq!(frag_err, None);
        assert_eq!(frag, whole);
        assert_eq!(frag.len(), bodies.len());
        for (i, (req, body)) in frag.iter().zip(&bodies).enumerate() {
            assert_eq!(req.path, format!("/fn/{i}"));
            assert_eq!(req.header("x-seq"), Some(format!("{i}").as_str()));
            assert_eq!(&req.body, body);
        }
    });
}

/// A stream the parser must refuse, and the test of the error it must give.
type Refusal = (&'static [u8], fn(&HttpError) -> bool);

/// The last five are hostile framing: a length that overflows the size
/// check, one past `usize`, two lengths that disagree, a signed length, and
/// a chunked body (which would otherwise parse as pipelined requests).
const REFUSED: &[Refusal] = &[
    (b"BROKEN\r\n\r\n", is_malformed),
    (b"GET / FTP/1.1\r\n\r\n", is_malformed),
    (b"GET / HTTP/1.1\r\nNo-Colon-Header\r\n\r\n", is_malformed),
    (
        b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        is_bad_length,
    ),
    (
        b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
        is_too_large,
    ),
    (
        b"POST / HTTP/1.1\r\nContent-Length: 184467440737095516150\r\n\r\n",
        is_too_large,
    ),
    (
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
        is_bad_length,
    ),
    (
        b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        is_bad_length,
    ),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        is_malformed,
    ),
];

fn is_malformed(e: &HttpError) -> bool {
    matches!(e, HttpError::Malformed(_))
}

fn is_bad_length(e: &HttpError) -> bool {
    *e == HttpError::BadContentLength
}

fn is_too_large(e: &HttpError) -> bool {
    *e == HttpError::TooLarge
}

/// Refused streams fail identically whole or torn: the error kind the
/// listener acts on (400 + close) must not depend on read boundaries.
#[test]
fn torn_malformed_stream_fails_like_whole() {
    cases(256, 0x7022_BAD0, |rng| {
        let prefix_bodies = rng.vec(0, 3, |r| r.bytes(0, 64));
        let (refused, expected) = rng.pick(REFUSED);
        let mut wire = pipeline_wire(&prefix_bodies);
        wire.extend_from_slice(refused);
        let (whole, whole_err) = parse_whole(&wire);
        let (frag, frag_err) = parse_fragmented(&wire, &cuts(rng, 0, 32, 24));
        // Valid prefix requests all surface, then the same error fires.
        assert_eq!(frag, whole);
        assert_eq!(frag.len(), prefix_bodies.len());
        let text = String::from_utf8_lossy(refused);
        assert!(
            whole_err.as_ref().is_some_and(expected),
            "{text:?}: {whole_err:?}"
        );
        assert_eq!(frag_err, whole_err, "{text:?}");
    });
}

/// A declared body larger than the configured cap is rejected with
/// `TooLarge` regardless of how the stream is torn.
#[test]
fn oversize_body_rejected_under_any_fragmentation() {
    cases(256, 0x0B16_B0D7, |rng| {
        let wire = b"POST /big HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        let mut parser = RequestParser::new(256);
        let mut consumed = 0usize;
        let mut err = None;
        let cuts = cuts(rng, 0, 16, 16);
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(usize::MAX));
        while consumed < wire.len() {
            let n = cut_iter.next().unwrap().clamp(1, wire.len() - consumed);
            match parser.feed(&wire[consumed..consumed + n]) {
                Ok(_) => consumed += n,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(HttpError::TooLarge));
    });
}

/// Exhaustive (non-generative) leg: a two-request pipeline with a torn
/// header and a zero-length body, split at EVERY byte boundary. Catches
/// off-by-one state bugs that random cuts can miss.
#[test]
fn every_byte_boundary_split_equals_whole() {
    let wire = pipeline_wire(&[b"hello world".to_vec(), Vec::new()]);
    let (whole, whole_err) = parse_whole(&wire);
    assert_eq!(whole_err, None);
    assert_eq!(whole.len(), 2);
    for i in 1..wire.len() {
        let (frag, frag_err) = parse_fragmented(&wire, &[i]);
        assert_eq!(frag_err, None, "split at byte {i}");
        assert_eq!(frag, whole, "split at byte {i}");
    }
    // And every pair of boundaries across the first request's head, which
    // covers all torn-header shapes for this wire.
    let head_len = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    for i in 1..head_len {
        for j in 1..(wire.len() - i) {
            let (frag, frag_err) = parse_fragmented(&wire, &[i, j]);
            assert_eq!(frag_err, None, "splits at {i},{}", i + j);
            assert_eq!(frag, whole, "splits at {i},{}", i + j);
        }
    }
}
