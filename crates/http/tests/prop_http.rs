//! Seeded property tests for the HTTP layer: serialize→parse round trips
//! with random bodies and fragmentation, and parser robustness against
//! random bytes.

use sledge_http::{ParseStatus, RequestParser, Response, StatusCode};
use sledge_testkit::cases;

#[test]
fn request_roundtrip_with_arbitrary_fragmentation() {
    cases(256, 0x4707_F2A6, |rng| {
        let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
        let path_seg: String = rng
            .vec(1, 25, |r| *r.pick(alphabet) as char)
            .into_iter()
            .collect();
        let body = rng.bytes(0, 2048);
        let cuts = rng.vec(0, 8, |r| r.index(1, 64));
        let raw = format!(
            "POST /{path_seg} HTTP/1.1\r\nHost: edge\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = raw.into_bytes();
        wire.extend_from_slice(&body);

        // Feed in arbitrary fragments.
        let mut parser = RequestParser::new(1 << 20);
        let mut consumed = 0usize;
        let mut result = None;
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(17));
        while consumed < wire.len() {
            let n = cut_iter
                .next()
                .expect("infinite")
                .min(wire.len() - consumed);
            match parser
                .feed(&wire[consumed..consumed + n])
                .expect("valid request")
            {
                ParseStatus::Complete(req) => {
                    result = Some(req);
                    break;
                }
                ParseStatus::NeedMore => consumed += n,
            }
        }
        let req = result.expect("request completes");
        assert_eq!(req.path, format!("/{path_seg}"));
        assert_eq!(req.header("host"), Some("edge"));
        assert_eq!(req.body, body);
    });
}

#[test]
fn parser_never_panics_on_random_bytes() {
    cases(256, 0x0BAD_B17E, |rng| {
        let _ = RequestParser::new(4096).feed(&rng.bytes(0, 512));
    });
}

#[test]
fn response_roundtrips_through_its_own_wire_format() {
    cases(256, 0x2E59_0A5E, |rng| {
        let body = rng.bytes(0, 1024);
        let close = rng.flip();
        let mut resp = Response::ok(body.clone());
        resp.close = close;
        let wire = resp.to_bytes();
        // Head/body split.
        let split = wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head end");
        let head = std::str::from_utf8(&wire[..split]).expect("ascii head");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(close, head.contains("Connection: close"));
        assert_eq!(&wire[split + 4..], &body[..]);
    });
}

#[test]
fn error_responses_carry_status() {
    for status in [
        StatusCode::BadRequest,
        StatusCode::NotFound,
        StatusCode::TooManyRequests,
        StatusCode::InternalServerError,
        StatusCode::ServiceUnavailable,
    ] {
        let wire = Response::error(status, "why").to_bytes();
        let head = String::from_utf8_lossy(&wire).to_string();
        assert!(head.starts_with(&format!("HTTP/1.1 {}", status.code())));
    }
}
