//! Connection-churn chaos: a seeded [`Rng`] decides which client
//! connections abort mid-read (half a request, then a hard close) or
//! mid-write (full request sent, socket closed before the response), while
//! well-behaved clients share the same listener. The runtime must deliver
//! exactly one completion per surfaced request, lose no phase samples, and
//! account for every connection it accepted.

use sledge_core::{FunctionConfig, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_testkit::Rng;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

/// Echo the request body (same guest the resilience suite uses).
fn echo_guest() -> Module {
    let mut mb = ModuleBuilder::new("echo");
    mb.memory(2, Some(64));
    let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
    let req_read = mb.import_func(
        "env",
        "request_read",
        &[ValType::I32, ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let resp_write = mb.import_func(
        "env",
        "response_write",
        &[ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let n = f.local(ValType::I32);
    f.extend([
        set(n, call(req_len, vec![])),
        exec(call(req_read, vec![i32c(0), local(n), i32c(0)])),
        exec(call(resp_write, vec![i32c(0), local(n)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

#[test]
fn connection_churn_loses_no_completions_or_samples() {
    const CONNS: u64 = 64;
    const THREADS: u64 = 4;

    // How each connection ends, decided up front so the assertions are
    // exact: 35 % abort, half of those mid-read (`Some(true)`) and half
    // mid-write (`Some(false)`); the rest finish their exchange (`None`).
    let mut rng = Rng::new(7);
    let aborts: Arc<Vec<Option<bool>>> = Arc::new(
        (0..CONNS)
            .map(|_| (rng.range(0, 100) < 35).then(|| rng.flip()))
            .collect(),
    );
    let count = |shape: Option<bool>| aborts.iter().filter(|&&a| a == shape).count() as u64;
    let (expect_good, expect_mid_read, expect_mid_write) =
        (count(None), count(Some(true)), count(Some(false)));
    assert!(expect_good > 0, "seed aborts everything");
    assert!(
        expect_mid_read > 0 && expect_mid_write > 0,
        "seed must exercise both abort shapes \
         (mid-read {expect_mid_read}, mid-write {expect_mid_write})"
    );

    for (label, config) in common::plain_and_armed(RuntimeConfig {
        workers: 4,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        conn_idle: Duration::from_secs(5),
        ..Default::default()
    }) {
        eprintln!("config: {label}");
        let rt = Runtime::with_http(config, "127.0.0.1:0".parse().unwrap()).unwrap();
        let _ = rt
            .register_module(FunctionConfig::new("echo"), &echo_guest())
            .unwrap();
        let addr = rt.http_addr().unwrap();

        // Four client threads interleave good traffic with seeded aborts.
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let aborts = Arc::clone(&aborts);
            handles.push(std::thread::spawn(move || {
                let mut good_ok = 0u64;
                for i in (t..CONNS).step_by(THREADS as usize) {
                    let body = format!("churn-{i}");
                    let head = format!(
                        "POST /echo HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    );
                    let mut s = TcpStream::connect(addr).unwrap();
                    if let Some(mid_read) = aborts[i as usize] {
                        if mid_read {
                            // Abort mid-read: half the head, then a hard close.
                            let _ = s.write_all(&head.as_bytes()[..head.len() / 2]);
                        } else {
                            // Abort mid-write: full request, then close without
                            // ever reading the response.
                            let _ = s.write_all(head.as_bytes());
                            let _ = s.write_all(body.as_bytes());
                        }
                        drop(s);
                        continue;
                    }
                    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    s.write_all(head.as_bytes()).unwrap();
                    s.write_all(body.as_bytes()).unwrap();
                    let mut resp = Vec::new();
                    s.read_to_end(&mut resp).unwrap();
                    let text = String::from_utf8_lossy(&resp);
                    assert!(text.starts_with("HTTP/1.1 200"), "conn {i}: {text}");
                    assert!(text.ends_with(&body), "conn {i}: {text}");
                    good_ok += 1;
                }
                good_ok
            }));
        }
        let good_ok: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            good_ok, expect_good,
            "every good request answered exactly once"
        );

        // Mid-write aborts still surface a request (the abort hits the response
        // path); mid-read aborts never complete a parse, so no request exists.
        let surfaced = expect_good + expect_mid_write;

        // Wait for the listener to accept and retire every churned socket. A
        // mid-read abort surfaces no request, so `active() == 0` alone can
        // hold before the listener has accepted the last such connection.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let report = rt.latency_report();
            let (conns, stats) = (report.connections, report.stats);
            if conns.accepted == CONNS && conns.active() == 0 && stats.completed == surfaced {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "churn never settled: accepted {} active {} completed {} (want {CONNS} / 0 / {surfaced})",
                conns.accepted,
                conns.active(),
                stats.completed
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        // Exactly-one-completion: every surfaced request ran to completion,
        // none duplicated, none stranded by a dead client socket.
        let report = rt.latency_report();
        let stats = report.stats;
        assert_eq!(stats.admitted, surfaced);
        assert_eq!(stats.completed, surfaced);
        assert_eq!(stats.trapped, 0);
        assert_eq!(stats.timed_out, 0);

        // No phase-sample loss: the latency pipeline recorded every completion
        // even when the response write found a reset socket.
        assert_eq!(report.global.count(), surfaced, "phase samples lost");

        // Connection accounting closes the books.
        let conns = report.connections;
        assert_eq!(conns.accepted, CONNS);
        assert_eq!(conns.closed, CONNS);
        assert_eq!(conns.requests, surfaced);

        rt.shutdown();
    }
}
