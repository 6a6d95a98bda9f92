//! Minimal HTTP/1.1 machinery for the Sledge runtime: an incremental
//! request parser, a response serializer, a keep-alive client, and the
//! listener front end — an epoll readiness reactor ([`HttpServer`]).
//!
//! This plays the role of the paper's request-forwarding layer (epoll-based
//! HTTP intake feeding function instantiation) without any external
//! dependencies: the epoll and eventfd syscalls are wrapped directly in
//! the private `sys` module.
//!
//! # Examples
//!
//! ```
//! use sledge_http::{RequestParser, ParseStatus, Response};
//!
//! let mut p = RequestParser::new(1 << 20);
//! let bytes = b"POST /fn/echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
//! match p.feed(bytes).unwrap() {
//!     ParseStatus::Complete(req) => {
//!         assert_eq!(req.method, "POST");
//!         assert_eq!(req.path, "/fn/echo");
//!         assert_eq!(req.body, b"hello");
//!     }
//!     ParseStatus::NeedMore => panic!("request was complete"),
//! }
//!
//! let resp = Response::ok(b"world".to_vec()).to_bytes();
//! assert!(resp.starts_with(b"HTTP/1.1 200 OK\r\n"));
//! ```

#![warn(unreachable_pub)]

pub mod client;
mod parse;
mod reactor;
mod response;
mod server;
mod sys;

pub use client::{format_request, ClientConfig, ClientResponse, HttpClient, InFlight};
pub use parse::{HttpError, ParseStatus, Request, RequestParser};
pub use reactor::{HttpServer, Waker};
pub use response::{Response, StatusCode};
pub use server::{ConnCounters, ConnId, ConnSnapshot, ConnectionEvent, ServerConfig};
