//! Fault-tolerance tests: execution deadlines, per-function circuit
//! breakers, graceful drain, and chaos runs whose faults come from a seeded
//! request schedule (`common::Mix`).

use common::{Chaos, ChaosTenants, Mix};
use sledge_core::{BreakerConfig, FunctionConfig, Outcome, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

mod common;

mod guests {
    use super::*;

    /// Echo the request body.
    pub fn echo() -> Module {
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

    /// Run forever (runaway guest).
    pub fn infinite() -> Module {
        let mut mb = ModuleBuilder::new("infinite");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        let i = f.local(ValType::I32);
        f.extend([
            while_(i32c(1), vec![set(i, add(local(i), i32c(1)))]),
            ret(Some(local(i))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Spin for `iters` (first 4 body bytes, LE), then respond "done".
    pub fn spin() -> Module {
        let mut mb = ModuleBuilder::new("spin");
        mb.memory(1, Some(1));
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
        let iters = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        let acc = f.local(ValType::I32);
        f.extend([
            exec(call(req_read, vec![i32c(0), i32c(4), i32c(0)])),
            set(iters, load(Scalar::I32, i32c(0), 0)),
            for_loop(
                i,
                i32c(0),
                lt_u(local(i), local(iters)),
                1,
                vec![set(acc, add(mul(local(acc), i32c(31)), local(i)))],
            ),
            store(Scalar::I32, i32c(8), 0, local(acc)),
            store(Scalar::U8, i32c(16), 0, i32c('d' as i32)),
            exec(call(resp_write, vec![i32c(16), i32c(1)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Block on emulated async I/O for N microseconds (first 4 body bytes).
    pub fn io_sleeper() -> Module {
        let mut mb = ModuleBuilder::new("sleeper");
        mb.memory(1, Some(1));
        let req_read = mb.import_func(
            "env",
            "request_read",
            &[ValType::I32, ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let io_delay = mb.import_func("env", "io_delay", &[ValType::I32], Some(ValType::I32));
        let resp_write = mb.import_func(
            "env",
            "response_write",
            &[ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.extend([
            exec(call(req_read, vec![i32c(0), i32c(4), i32c(0)])),
            exec(call(io_delay, vec![load(Scalar::I32, i32c(0), 0)])),
            store(Scalar::U8, i32c(16), 0, i32c('w' as i32)),
            exec(call(resp_write, vec![i32c(16), i32c(1)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Trap (division by zero) iff the first body byte is 1, else reply "ok".
    /// Gives tests input-controlled failures for the breaker lifecycle.
    pub fn picky() -> Module {
        let mut mb = ModuleBuilder::new("picky");
        mb.memory(1, Some(1));
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
        f.extend([
            exec(call(req_read, vec![i32c(0), i32c(1), i32c(0)])),
            if_(
                eq(load(Scalar::U8, i32c(0), 0), i32c(1)),
                vec![store(Scalar::I32, i32c(8), 0, div(i32c(1), i32c(0)))],
            ),
            store(Scalar::U8, i32c(16), 0, i32c('o' as i32)),
            store(Scalar::U8, i32c(17), 0, i32c('k' as i32)),
            exec(call(resp_write, vec![i32c(16), i32c(2)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }
}

fn kind(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Success(_) => "success",
        Outcome::Trapped(_) => "trapped",
        Outcome::Rejected(_) => "rejected",
        Outcome::TimedOut => "timed_out",
        Outcome::CircuitOpen { .. } => "circuit_open",
        Outcome::Throttled { .. } => "throttled",
    }
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn deadline_kills_runaway_guest() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        deadline: Some(Duration::from_millis(100)),
        ..Default::default()
    });
    let inf = rt
        .register_module(FunctionConfig::new("infinite"), &guests::infinite())
        .unwrap();
    let start = Instant::now();
    let done = rt
        .invoke(inf, Vec::new())
        .wait_timeout(Duration::from_secs(10))
        .expect("runaway guest must still complete (as TimedOut)");
    assert!(
        matches!(done.outcome, Outcome::TimedOut),
        "{:?}",
        done.outcome
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "deadline fired far too late: {:?}",
        start.elapsed()
    );
    assert_eq!(rt.latency_report().stats.timed_out, 1);
    assert_eq!(common::stats_of(&rt, "infinite").timed_out, 1);
    rt.shutdown();
}

#[test]
fn per_function_deadline_overrides_runtime_default() {
    // Generous runtime-wide deadline, tight per-function override.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    });
    let mut cfg = FunctionConfig::new("infinite");
    cfg.deadline = Some(Duration::from_millis(80));
    let inf = rt.register_module(cfg, &guests::infinite()).unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let start = Instant::now();
    let done = rt.invoke(inf, Vec::new()).wait().unwrap();
    assert!(
        matches!(done.outcome, Outcome::TimedOut),
        "{:?}",
        done.outcome
    );
    assert!(start.elapsed() < Duration::from_secs(2));
    // The sibling function is untouched by the override.
    let ok = rt.invoke(echo, &b"hi"[..]).wait().unwrap();
    assert!(matches!(ok.outcome, Outcome::Success(ref b) if b == b"hi"));
    rt.shutdown();
}

#[test]
fn deadline_applies_to_parked_io() {
    // A guest sleeping 10 s on emulated I/O with a 100 ms deadline must be
    // killed at the deadline, not when the I/O would have completed.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        deadline: Some(Duration::from_millis(100)),
        ..Default::default()
    });
    let sleeper = rt
        .register_module(FunctionConfig::new("sleeper"), &guests::io_sleeper())
        .unwrap();
    let start = Instant::now();
    let done = rt
        .invoke(sleeper, 10_000_000u32.to_le_bytes().to_vec())
        .wait()
        .unwrap();
    assert!(
        matches!(done.outcome, Outcome::TimedOut),
        "{:?}",
        done.outcome
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "parked sandbox overslept its deadline: {:?}",
        start.elapsed()
    );
    rt.shutdown();
}

#[test]
fn http_deadline_maps_to_504() {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 1,
            quantum: Duration::from_millis(2),
            cost_units_per_us: 100,
            deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    let _ = rt
        .register_module(FunctionConfig::new("infinite"), &guests::infinite())
        .unwrap();
    let addr = rt.http_addr().unwrap();
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /infinite HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8(resp).unwrap();
    assert!(text.starts_with("HTTP/1.1 504"), "{text}");
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

#[test]
fn breaker_trips_fast_rejects_and_recovers() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        circuit_breaker: Some(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(200),
        }),
        ..Default::default()
    });
    let picky = rt
        .register_module(FunctionConfig::new("picky"), &guests::picky())
        .unwrap();

    // Three consecutive traps trip the breaker.
    for _ in 0..3 {
        let done = rt.invoke(picky, vec![1u8]).wait().unwrap();
        assert!(
            matches!(done.outcome, Outcome::Trapped(_)),
            "{:?}",
            done.outcome
        );
    }
    // Now fast-rejected without execution.
    let rejected = rt.invoke(picky, vec![0u8]).wait().unwrap();
    match rejected.outcome {
        Outcome::CircuitOpen { retry_after } => {
            assert!(retry_after > Duration::ZERO);
            assert!(retry_after <= Duration::from_millis(200));
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert!(rt.latency_report().stats.breaker_rejected >= 1);
    assert_eq!(common::stats_of(&rt, "picky").breaker_trips, 1);

    // After the cooldown a half-open probe is admitted; its success closes
    // the breaker and traffic flows again.
    std::thread::sleep(Duration::from_millis(250));
    let probe = rt.invoke(picky, vec![0u8]).wait().unwrap();
    assert!(
        matches!(probe.outcome, Outcome::Success(ref b) if b == b"ok"),
        "probe should run and succeed: {:?}",
        probe.outcome
    );
    for _ in 0..5 {
        let done = rt.invoke(picky, vec![0u8]).wait().unwrap();
        assert!(
            matches!(done.outcome, Outcome::Success(_)),
            "{:?}",
            done.outcome
        );
    }
    assert_eq!(common::stats_of(&rt, "picky").breaker_trips, 1);
    rt.shutdown();
}

#[test]
fn breaker_failed_probe_reopens() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        circuit_breaker: Some(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(150),
        }),
        ..Default::default()
    });
    let picky = rt
        .register_module(FunctionConfig::new("picky"), &guests::picky())
        .unwrap();
    for _ in 0..2 {
        let done = rt.invoke(picky, vec![1u8]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Trapped(_)));
    }
    std::thread::sleep(Duration::from_millis(200));
    // The probe itself fails → breaker re-opens immediately.
    let probe = rt.invoke(picky, vec![1u8]).wait().unwrap();
    assert!(
        matches!(probe.outcome, Outcome::Trapped(_)),
        "{:?}",
        probe.outcome
    );
    let rejected = rt.invoke(picky, vec![0u8]).wait().unwrap();
    assert!(
        matches!(rejected.outcome, Outcome::CircuitOpen { .. }),
        "{:?}",
        rejected.outcome
    );
    assert_eq!(common::stats_of(&rt, "picky").breaker_trips, 2);
    rt.shutdown();
}

#[test]
fn breaker_is_per_function() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        circuit_breaker: Some(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_secs(30),
        }),
        ..Default::default()
    });
    let picky = rt
        .register_module(FunctionConfig::new("picky"), &guests::picky())
        .unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for _ in 0..2 {
        rt.invoke(picky, vec![1u8]).wait().unwrap();
    }
    assert!(matches!(
        rt.invoke(picky, vec![0u8]).wait().unwrap().outcome,
        Outcome::CircuitOpen { .. }
    ));
    // The healthy function is unaffected.
    let ok = rt.invoke(echo, &b"fine"[..]).wait().unwrap();
    assert!(matches!(ok.outcome, Outcome::Success(ref b) if b == b"fine"));
    rt.shutdown();
}

#[test]
fn http_breaker_maps_to_503_with_retry_after() {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 1,
            quantum: Duration::from_millis(2),
            cost_units_per_us: 100,
            circuit_breaker: Some(BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_secs(30),
            }),
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    let _ = rt
        .register_module(FunctionConfig::new("picky"), &guests::picky())
        .unwrap();
    let addr = rt.http_addr().unwrap();

    let post = |body: &[u8]| -> String {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let head = format!(
            "POST /picky HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        String::from_utf8(resp).unwrap()
    };

    assert!(post(&[1]).starts_with("HTTP/1.1 500"));
    assert!(post(&[1]).starts_with("HTTP/1.1 500"));
    let tripped = post(&[0]);
    assert!(tripped.starts_with("HTTP/1.1 503"), "{tripped}");
    assert!(tripped.contains("Retry-After: "), "{tripped}");
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Instantiation failures (the dropped-responder bug)
// ---------------------------------------------------------------------------

#[test]
fn failed_instantiation_still_answers_the_client() {
    // Before the fix, a Sandbox::new error silently dropped the responder
    // and the invoker hung forever.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let bad = rt
        .register_module(FunctionConfig::new("bad"), &common::bad_instantiation())
        .unwrap();
    let done = rt
        .invoke(bad, Vec::new())
        .wait_timeout(Duration::from_secs(5))
        .expect("instantiation failure must deliver a completion, not hang");
    assert!(
        matches!(done.outcome, Outcome::Rejected("instantiation failed")),
        "{:?}",
        done.outcome
    );
    assert_eq!(rt.latency_report().stats.rejected, 1);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain and shutdown
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drain_completes_queued_work() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        ..Default::default()
    });
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    let handles: Vec<_> = (0..50)
        .map(|_| rt.invoke(spin, 200_000u32.to_le_bytes().to_vec()))
        .collect();
    // Wait until the listener has accepted everything — the drain stops
    // intake immediately, and this test is about the accepted backlog.
    while rt.latency_report().stats.admitted < 50 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drained = rt.shutdown_drain(Duration::from_secs(30));
    assert!(drained, "backlog should drain well within the timeout");
    for h in handles {
        let done = h
            .wait_timeout(Duration::from_secs(1))
            .expect("drained invocation must have delivered its completion");
        assert!(
            matches!(done.outcome, Outcome::Success(_)),
            "{:?}",
            done.outcome
        );
    }
}

#[test]
fn drain_rejects_new_work() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    rt.begin_drain();
    // The flag is checked at admission on the listener thread, which
    // processes this invoke strictly after the flag was set.
    let done = rt
        .invoke(echo, &b"late"[..])
        .wait_timeout(Duration::from_secs(5))
        .expect("rejected intake still gets a completion");
    assert!(
        matches!(done.outcome, Outcome::Rejected("draining")),
        "{:?}",
        done.outcome
    );
    assert!(rt.shutdown_drain(Duration::from_secs(5)));
}

#[test]
fn shutdown_drain_force_kills_runaways_and_reports_timeout() {
    // No deadline: only the drain's own timeout bounds the runaway. The
    // drain must return false but every invocation still completes.
    for (label, config) in common::plain_and_armed(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        ..Default::default()
    }) {
        eprintln!("config: {label}");
        let mut rt = Runtime::new(config);
        let inf = rt
            .register_module(FunctionConfig::new("infinite"), &guests::infinite())
            .unwrap();
        let handles: Vec<_> = (0..4).map(|_| rt.invoke(inf, Vec::new())).collect();
        std::thread::sleep(Duration::from_millis(30));
        let start = Instant::now();
        let drained = rt.shutdown_drain(Duration::from_millis(300));
        assert!(!drained, "runaways cannot drain");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "force-kill drain took {:?}",
            start.elapsed()
        );
        for h in handles {
            let done = h
                .wait_timeout(Duration::from_secs(1))
                .expect("force-killed invocation must still complete");
            assert!(
                matches!(done.outcome, Outcome::TimedOut),
                "{:?}",
                done.outcome
            );
        }
    }
}

#[test]
fn plain_shutdown_returns_promptly_with_runaway_guest() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        ..Default::default()
    });
    let inf = rt
        .register_module(FunctionConfig::new("infinite"), &guests::infinite())
        .unwrap();
    let h = rt.invoke(inf, Vec::new());
    std::thread::sleep(Duration::from_millis(20));
    let start = Instant::now();
    rt.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown wedged behind a runaway guest: {:?}",
        start.elapsed()
    );
    // Dropped work: the invoker observes the channel closing, not a hang.
    assert!(h.wait_timeout(Duration::from_secs(1)).is_none());
}

// ---------------------------------------------------------------------------
// The chaos test: everything at once
// ---------------------------------------------------------------------------

#[test]
fn chaos_every_accepted_invocation_completes_exactly_once() {
    const N: usize = 600;
    for (label, config) in common::plain_and_armed(RuntimeConfig {
        workers: 4,
        quantum: Duration::from_millis(1),
        deadline: Some(Duration::from_millis(400)),
        circuit_breaker: Some(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(200),
        }),
        ..Default::default()
    }) {
        eprintln!("config: {label}");
        let mut rt = Runtime::new(config);
        let chaos = ChaosTenants::register(&rt);
        let spin = rt
            .register_module(FunctionConfig::new("spin"), &guests::spin())
            .unwrap();
        let sleeper = rt
            .register_module(FunctionConfig::new("sleeper"), &guests::io_sleeper())
            .unwrap();
        let inf = rt
            .register_module(FunctionConfig::new("infinite"), &guests::infinite())
            .unwrap();

        // Mixed workload: mostly healthy, some blocking, some runaway; the
        // echo slots are seeded chaos (failed instantiations, traps, 1 ms
        // stalls).
        let schedule = Mix {
            reject_pct: 5,
            trap_pct: 5,
            delay_pct: 5,
            delay_us: 1_000,
            ..Default::default()
        }
        .draw(42, N);
        let handles: Vec<_> = (0..N)
            .map(|i| match i % 40 {
                39 => rt.invoke(inf, Vec::new()),
                n if n % 7 == 3 => rt.invoke(sleeper, 2_000u32.to_le_bytes().to_vec()),
                n if n % 5 == 1 => rt.invoke(spin, 50_000u32.to_le_bytes().to_vec()),
                _ => chaos.invoke(&rt, schedule[i], format!("c{i}").as_bytes()),
            })
            .collect();

        // INVARIANT 1: exactly one completion per invocation — nothing
        // hangs, nothing is double-delivered (the bounded(1) channel would
        // panic the worker on a second send; a hang would trip the timeout).
        let mut counts = std::collections::HashMap::new();
        for (i, h) in handles.into_iter().enumerate() {
            let done = h
                .wait_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("invocation {i} never completed"));
            *counts.entry(kind(&done.outcome)).or_insert(0u64) += 1;
        }
        let delivered: u64 = counts.values().sum();
        assert_eq!(delivered, N as u64);

        // INVARIANT 2: the runtime's books balance. Every submission was
        // either admitted (then completed/trapped/timed out) or rejected at
        // the door.
        let stats = rt.latency_report().stats;
        assert_eq!(
            stats.completed + stats.trapped + stats.timed_out,
            stats.admitted,
            "admitted work must finish one of the three ways: {stats:?}"
        );
        assert_eq!(
            stats.admitted + stats.rejected + stats.breaker_rejected,
            N as u64,
            "every submission accounted for: {stats:?}"
        );

        // INVARIANT 3: the fault classes and the deadline actually fired.
        assert!(stats.timed_out >= 10, "runaways must be killed: {stats:?}");
        assert!(stats.trapped >= 1, "chaos traps must fire: {stats:?}");
        assert!(
            stats.rejected >= 1,
            "failed instantiations must be rejected: {stats:?}"
        );
        assert!(stats.preemptions > 0, "RR must have preempted: {stats:?}");

        // INVARIANT 4: after the storm, a graceful drain finishes in
        // bounded time (everything left is deadline-bounded).
        let start = Instant::now();
        let drained = rt.shutdown_drain(Duration::from_secs(30));
        assert!(drained, "deadline-bounded backlog must drain");
        assert!(start.elapsed() < Duration::from_secs(30));
    }
}

#[test]
fn chaos_with_breaker_recovery_probe() {
    // Drive one function through trip → cooldown → probe → recovery while a
    // healthy function keeps serving, one request in ten of it stalling.
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 4,
        quantum: Duration::from_millis(1),
        deadline: Some(Duration::from_millis(400)),
        circuit_breaker: Some(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(150),
        }),
        ..Default::default()
    });
    let picky = rt
        .register_module(FunctionConfig::new("picky"), &guests::picky())
        .unwrap();
    let chaos = ChaosTenants::register(&rt);
    let schedule = Mix {
        delay_pct: 10,
        delay_us: 500,
        ..Default::default()
    }
    .draw(1234, 20);
    assert!(schedule.contains(&Chaos::Delay(500)), "{schedule:?}");

    // Trip picky's breaker.
    for _ in 0..3 {
        let done = rt.invoke(picky, vec![1u8]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Trapped(_)));
    }
    // While open: picky fast-rejects, the chaos guest is untouched.
    let mut saw_circuit_open = false;
    for (i, &kind) in schedule.iter().enumerate() {
        if matches!(
            rt.invoke(picky, vec![0u8]).wait().unwrap().outcome,
            Outcome::CircuitOpen { .. }
        ) {
            saw_circuit_open = true;
        }
        let tag = format!("e{i}");
        let ok = chaos.invoke(&rt, kind, tag.as_bytes()).wait().unwrap();
        assert!(
            matches!(ok.outcome, Outcome::Success(ref b) if b.ends_with(tag.as_bytes())),
            "{:?}",
            ok.outcome
        );
    }
    assert!(saw_circuit_open);
    // Past the cooldown, healthy probes close the breaker again.
    std::thread::sleep(Duration::from_millis(200));
    let mut recovered = false;
    for _ in 0..10 {
        if matches!(
            rt.invoke(picky, vec![0u8]).wait().unwrap().outcome,
            Outcome::Success(_)
        ) {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(recovered, "breaker must recover via the half-open probe");
    assert!(rt.latency_report().stats.breaker_rejected >= 1);
    assert!(common::stats_of(&rt, "picky").breaker_trips >= 1);
    assert!(rt.shutdown_drain(Duration::from_secs(10)));
}
