//! End-to-end runtime tests: scheduling, isolation, admission, blocking
//! I/O, and the HTTP front end.

use awsm::Trap;
use sledge_core::{
    BreakerConfig, FunctionConfig, FunctionId, Outcome, RegisterError, Runtime, RuntimeConfig,
};
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

mod common;

/// Guest module builders shared across tests. (The full application suite
/// lives in `sledge-apps`; these are purpose-built minimal guests.)
mod guests {
    use super::*;

    /// `n` straight-line stores: a translation that is long next to a
    /// request (about 9 µs per store in a debug build, against a ~100 µs
    /// `ping` invoke).
    pub fn slow_to_translate(n: i32) -> Module {
        let mut mb = ModuleBuilder::new("slow");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        for i in 0..n {
            f.push(store(
                Scalar::I32,
                i32c((i % 8000) * 4),
                0,
                mul(i32c(i), i32c(3)),
            ));
        }
        f.push(ret(Some(i32c(0))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

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

    /// Spin for `iters` (first 4 bytes of the body, LE) loop iterations,
    /// then respond with "done".
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
            // Prevent the loop from being "optimized away" semantically;
            // store the accumulator then reply.
            store(Scalar::I32, i32c(8), 0, local(acc)),
            store(Scalar::U8, i32c(16), 0, i32c('d' as i32)),
            store(Scalar::U8, i32c(17), 0, i32c('o' as i32)),
            store(Scalar::U8, i32c(18), 0, i32c('n' as i32)),
            store(Scalar::U8, i32c(19), 0, i32c('e' as i32)),
            exec(call(resp_write, vec![i32c(16), i32c(4)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Run forever (for temporal-isolation tests).
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

    /// An address past the one-page memory, computed through a memory load
    /// (0 at runtime) so the load-time analyzer cannot prove it out of
    /// bounds and reject the module — the point of these guests is the
    /// *runtime* trap path.
    fn past_memory() -> Expr {
        add(load(Scalar::I32, i32c(0), 0), i32c(70000))
    }

    /// Trap with an out-of-bounds `i32.load`.
    pub fn oob() -> Module {
        let mut mb = ModuleBuilder::new("oob");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(load(Scalar::I32, past_memory(), 0))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Trap with an out-of-bounds `i64.store`.
    pub fn oob_store() -> Module {
        let mut mb = ModuleBuilder::new("oob_store");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.extend([
            store(Scalar::I64, past_memory(), 0, i64c(-1)),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Trap by asking the host to copy the request body past memory.
    pub fn oob_request_read() -> Module {
        let mut mb = ModuleBuilder::new("oob_request_read");
        mb.memory(1, Some(1));
        let req_read = mb.import_func(
            "env",
            "request_read",
            &[ValType::I32, ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(call(
            req_read,
            vec![past_memory(), i32c(16), i32c(0)],
        ))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Every way a guest can reach past its memory, by function name.
    pub fn out_of_bounds() -> [(&'static str, Module); 3] {
        [
            ("oob", oob()),
            ("oob_store", oob_store()),
            ("oob_request_read", oob_request_read()),
        ]
    }

    /// Block on emulated async I/O for N microseconds (first 4 body bytes),
    /// then echo "woke".
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
            store(Scalar::U8, i32c(17), 0, i32c('o' as i32)),
            store(Scalar::U8, i32c(18), 0, i32c('k' as i32)),
            store(Scalar::U8, i32c(19), 0, i32c('e' as i32)),
            exec(call(resp_write, vec![i32c(16), i32c(4)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }
}

fn small_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        ..Default::default()
    }
}

fn small_runtime(workers: usize) -> Runtime {
    Runtime::new(small_config(workers))
}

#[test]
fn echo_end_to_end() {
    let rt = small_runtime(2);
    let id = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let done = rt.invoke(id, &b"hello sledge"[..]).wait().unwrap();
    match done.outcome {
        Outcome::Success(body) => assert_eq!(body, b"hello sledge"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(done.timings.instantiation < Duration::from_millis(50));
    let stats = rt.latency_report().stats;
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.admitted, 1);
    rt.shutdown();
}

#[test]
fn many_concurrent_requests_complete_exactly_once() {
    for (label, config) in common::plain_and_armed(small_config(4)) {
        eprintln!("config: {label}");
        let rt = Runtime::new(config);
        let id = rt
            .register_module(FunctionConfig::new("echo"), &guests::echo())
            .unwrap();
        const N: usize = 500;
        let handles: Vec<_> = (0..N)
            .map(|i| rt.invoke(id, format!("req-{i}").into_bytes()))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let done = h.wait().unwrap();
            match done.outcome {
                Outcome::Success(body) => assert_eq!(body, format!("req-{i}").as_bytes()),
                other => panic!("req {i}: {other:?}"),
            }
        }
        let stats = rt.latency_report().stats;
        assert_eq!(stats.completed, N as u64);
        assert_eq!(stats.trapped, 0);
        assert_eq!(stats.rejected, 0);
        rt.shutdown();
    }
}

#[test]
fn multi_tenant_functions_coexist() {
    let rt = small_runtime(3);
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    let mut handles = Vec::new();
    for i in 0..50 {
        handles.push((0, rt.invoke(echo, format!("e{i}").into_bytes())));
        handles.push((1, rt.invoke(spin, 50_000u32.to_le_bytes().to_vec())));
    }
    for (kind, h) in handles {
        let done = h.wait().unwrap();
        match (kind, done.outcome) {
            (0, Outcome::Success(_)) | (1, Outcome::Success(_)) => {}
            (_, other) => panic!("unexpected {other:?}"),
        }
    }
    rt.shutdown();
}

#[test]
fn temporal_isolation_spinner_does_not_starve_short_requests() {
    // One worker. Start an infinite function, then a short echo: the echo
    // must still complete thanks to preemptive RR.
    for (label, config) in common::plain_and_armed(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 250,
        ..Default::default()
    }) {
        eprintln!("config: {label}");
        let rt = Runtime::new(config);
        let inf = rt
            .register_module(FunctionConfig::new("infinite"), &guests::infinite())
            .unwrap();
        let echo = rt
            .register_module(FunctionConfig::new("echo"), &guests::echo())
            .unwrap();
        let _ = rt.invoke(inf, Vec::new());
        // Give the spinner time to get scheduled.
        std::thread::sleep(Duration::from_millis(20));
        let done = rt
            .invoke(echo, &b"alive"[..])
            .wait_timeout(Duration::from_secs(10))
            .expect("echo starved behind infinite function");
        assert!(matches!(done.outcome, Outcome::Success(ref b) if b == b"alive"));
        assert!(
            rt.latency_report().stats.preemptions > 0,
            "RR must have preempted the spinner"
        );
        rt.shutdown();
    }
}

#[test]
fn quantum_past_i64_max_still_serves() {
    // JSON numbers are f64, so a quantum and a rate that derive a 1e19
    // budget parse; the run queue must still dispatch with it, whether
    // sandboxes share a lane or not.
    for json in [
        r#"{"workers": 1, "quantum_us": 1e13, "cost_units_per_us": 1e6}"#,
        r#"{"workers": 1, "quantum_us": 1e13, "cost_units_per_us": 1e6, "fairness": true}"#,
    ] {
        let (config, _) = RuntimeConfig::from_json(json).unwrap();
        assert_eq!(config.dispatch_fuel(), 10_000_000_000_000_000_000);
        let rt = Runtime::new(config);
        let echo = rt
            .register_module(FunctionConfig::new("echo"), &guests::echo())
            .unwrap();
        let Some(done) = rt
            .invoke(echo, &b"big"[..])
            .wait_timeout(Duration::from_secs(10))
        else {
            // A wedged worker would wedge the shutdown too: leak the runtime.
            std::mem::forget(rt);
            panic!("{json}: invocation never completed");
        };
        assert!(
            matches!(done.outcome, Outcome::Success(ref b) if b == b"big"),
            "{json}: {:?}",
            done.outcome
        );
        rt.shutdown();
    }
}

#[test]
fn default_sandbox_traps_every_out_of_bounds_access() {
    // The default configuration, plus a breaker so failures are counted.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        circuit_breaker: Some(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_secs(60),
        }),
        ..Default::default()
    });
    for (name, module) in guests::out_of_bounds() {
        let id = rt
            .register_module(FunctionConfig::new(name), &module)
            .unwrap();
        for trips in [0, 1] {
            let done = rt.invoke(id, &b"request"[..]).wait().unwrap();
            assert!(
                matches!(done.outcome, Outcome::Trapped(Trap::OutOfBounds)),
                "{name}: {:?}",
                done.outcome
            );
            // The second consecutive failure reaches the threshold.
            assert_eq!(common::stats_of(&rt, name).breaker_trips, trips, "{name}");
        }
        assert_eq!(common::stats_of(&rt, name).trapped, 2, "{name}");
    }
    rt.shutdown();
}

#[test]
fn spatial_isolation_trap_does_not_kill_runtime() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 100,
        ..Default::default()
    });
    let oob = rt
        .register_module(FunctionConfig::new("oob"), &guests::oob())
        .unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let t = rt.invoke(oob, Vec::new()).wait().unwrap();
    assert!(matches!(t.outcome, Outcome::Trapped(_)), "{:?}", t.outcome);
    // The runtime keeps serving.
    for _ in 0..10 {
        let done = rt.invoke(echo, &b"still here"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    let stats = rt.latency_report().stats;
    assert_eq!(stats.trapped, 1);
    assert_eq!(stats.completed, 10);
    rt.shutdown();
}

#[test]
fn blocked_io_overlaps_with_compute() {
    // 8 sleepers (5 ms each) + constant echo traffic on 2 workers: the
    // sleepers must not occupy workers while blocked.
    let rt = small_runtime(2);
    let sleeper = rt
        .register_module(FunctionConfig::new("sleeper"), &guests::io_sleeper())
        .unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let start = std::time::Instant::now();
    let sleepers: Vec<_> = (0..8)
        .map(|_| rt.invoke(sleeper, 5000u32.to_le_bytes().to_vec()))
        .collect();
    let echoes: Vec<_> = (0..100).map(|_| rt.invoke(echo, &b"x"[..])).collect();
    for h in echoes {
        assert!(matches!(h.wait().unwrap().outcome, Outcome::Success(_)));
    }
    for h in sleepers {
        let done = h.wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(ref b) if b == b"woke"));
    }
    // 8 x 5 ms of sleep on 2 workers must overlap: well under serial time.
    assert!(start.elapsed() < Duration::from_millis(2000));
    assert!(rt.latency_report().stats.blocked >= 8);
    rt.shutdown();
}

#[test]
fn admission_control_rejects_overload() {
    // max_pending = 4 with a slow function and a single worker.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        max_pending: 4,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 50,
        ..Default::default()
    });
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    let handles: Vec<_> = (0..200)
        .map(|_| rt.invoke(spin, 3_000_000u32.to_le_bytes().to_vec()))
        .collect();
    let mut rejected = 0;
    let mut succeeded = 0;
    for h in handles {
        match h.wait().unwrap().outcome {
            Outcome::Rejected(_) => rejected += 1,
            Outcome::Success(_) => succeeded += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(rejected > 0, "overload must reject");
    assert!(succeeded > 0, "some requests must be served");
    assert_eq!(rt.latency_report().stats.rejected, rejected as u64);
    rt.shutdown();
}

#[test]
fn unknown_function_is_rejected() {
    let rt = small_runtime(1);
    let bogus = {
        // Register one real function so ids exist, then forge another id.
        let _ = rt
            .register_module(FunctionConfig::new("echo"), &guests::echo())
            .unwrap();
        // FunctionId is opaque; obtain an invalid one via name lookup miss.
        assert!(rt.function_by_name("nope").is_none());
        // Use the real one for the positive path.
        rt.function_by_name("echo").unwrap()
    };
    let ok = rt.invoke(bogus, &b"x"[..]).wait().unwrap();
    assert!(matches!(ok.outcome, Outcome::Success(_)));
    rt.shutdown();
}

#[test]
fn work_conservation_all_workers_participate() {
    let rt = small_runtime(4);
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    let handles: Vec<_> = (0..64)
        .map(|_| rt.invoke(spin, 400_000u32.to_le_bytes().to_vec()))
        .collect();
    for h in handles {
        assert!(matches!(h.wait().unwrap().outcome, Outcome::Success(_)));
    }
    let stats = rt.latency_report().stats;
    // All requests were stolen from the global deque by workers.
    assert_eq!(stats.steals, 64);
    assert_eq!(stats.completed, 64);
    rt.shutdown();
}

#[test]
fn http_front_end_serves_functions() {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    let _ = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let addr = rt.http_addr().unwrap();

    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\nedge-ping")
        .unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8(resp).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.ends_with("edge-ping"), "{text}");

    // Unknown route → 404.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /missing HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    assert!(String::from_utf8(resp).unwrap().starts_with("HTTP/1.1 404"));
    rt.shutdown();
}

#[test]
fn http_trap_maps_to_500() {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 1,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    for (name, module) in guests::out_of_bounds() {
        let _ = rt
            .register_module(FunctionConfig::new(name), &module)
            .unwrap();
    }
    let addr = rt.http_addr().unwrap();
    for (name, _) in guests::out_of_bounds() {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let req =
            format!("POST /{name} HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody");
        s.write_all(req.as_bytes()).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 500"), "{name}: {text}");
        assert!(
            text.contains("function trapped: out-of-bounds memory access"),
            "{name}: {text}"
        );
    }
    rt.shutdown();
}

#[test]
fn instantiation_is_microsecond_scale() {
    // The headline claim behind Table 3: sandbox startup must be orders of
    // magnitude below process fork+exec (~500 µs in the paper). Allow a very
    // generous bound to keep CI stable.
    let rt = small_runtime(2);
    let id = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    // Warm up.
    for _ in 0..20 {
        rt.invoke(id, &b"w"[..]).wait().unwrap();
    }
    let mut total = Duration::ZERO;
    const N: u32 = 200;
    for _ in 0..N {
        let done = rt.invoke(id, &b"x"[..]).wait().unwrap();
        total += done.timings.instantiation;
    }
    let mean = total / N;
    assert!(
        mean < Duration::from_millis(2),
        "instantiation too slow: {mean:?}"
    );
    rt.shutdown();
}

#[test]
fn shutdown_is_clean_with_inflight_work() {
    let rt = small_runtime(2);
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    for _ in 0..32 {
        let _ = rt.invoke(spin, 10_000_000u32.to_le_bytes().to_vec());
    }
    std::thread::sleep(Duration::from_millis(10));
    rt.shutdown(); // must not hang or panic
}

#[test]
fn per_function_stats_are_tracked() {
    let rt = small_runtime(2);
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    for _ in 0..5 {
        rt.invoke(echo, &b"x"[..]).wait().unwrap();
    }
    for _ in 0..3 {
        rt.invoke(spin, 10_000u32.to_le_bytes().to_vec())
            .wait()
            .unwrap();
    }
    let report = rt.latency_report();
    let e = common::function(&report, "echo").stats;
    let s = common::function(&report, "spin").stats;
    assert_eq!(e.completed, 5);
    assert_eq!(s.completed, 3);
    assert_eq!(e.trapped + s.trapped, 0);
    // The spin function's execution time is its execution phase.
    let spin_exec = &common::function(&report, "spin").phases().execution;
    assert_eq!(spin_exec.count(), 3);
    assert!(spin_exec.quantile(0.5) > 0);
    // Global equals sum of per-function.
    assert_eq!(report.stats.completed, 8);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Module store: one compiled module per distinct binary
// ---------------------------------------------------------------------------

#[test]
fn one_binary_under_many_names_is_compiled_once() {
    let rt = small_runtime(2);
    let wasm = sledge_wasm::encode::encode_module(&guests::echo());
    let ids: Vec<FunctionId> = (0..16)
        .map(|t| {
            rt.register_wasm(FunctionConfig::new(format!("t{t:02}-echo")), &wasm)
                .unwrap()
        })
        .collect();
    // One build: all sixteen functions share the module it made.
    let reg = rt.latency_report().registry;
    assert_eq!(reg.modules_compiled, 1);
    assert_eq!(reg.modules_verified, 16, "gates run per registration");
    assert_eq!(reg.cost_certified, 16);
    for (t, &id) in ids.iter().enumerate() {
        let body = format!("{id:?}");
        let done = rt.invoke(id, body.clone().into_bytes()).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(ref b) if *b == body.as_bytes()));
        let name = format!("t{t:02}-echo");
        assert_eq!(common::stats_of(&rt, &name).completed, 1);
    }
    rt.shutdown();
}

#[test]
fn a_module_and_its_encoding_share_one_compiled_module() {
    let rt = small_runtime(1);
    let module = guests::echo();
    let a = rt
        .register_module(FunctionConfig::new("from-module"), &module)
        .unwrap();
    let wasm = sledge_wasm::encode::encode_module(&module);
    let b = rt
        .register_wasm(FunctionConfig::new("from-wasm"), &wasm)
        .unwrap();
    // The store is keyed by exact bytes: one build means the module's
    // encoding is those bytes, and both functions share what it made.
    assert_eq!(rt.latency_report().registry.modules_compiled, 1);
    for id in [a, b] {
        let done = rt.invoke(id, &b"shared"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(ref body) if body == b"shared"));
    }
    rt.shutdown();
}

#[test]
fn the_catalogue_for_three_tenants_compiles_each_guest_once() {
    // The benchmark's catalogue: the paper's 7 applications and the 30
    // PolyBench kernels, registered from `.wasm` bytes for every tenant.
    let apps = sledge_apps::all_apps().into_iter().map(|a| (a.module)());
    let kernels = sledge_apps::polybench::kernels()
        .into_iter()
        .map(|k| (k.build)());
    let catalogue: Vec<Vec<u8>> = apps
        .chain(kernels)
        .map(|m| sledge_wasm::encode::encode_module(&m))
        .collect();
    assert_eq!(catalogue.len(), 37);
    let rt = small_runtime(2);
    for tenant in 0..3 {
        for (g, wasm) in catalogue.iter().enumerate() {
            rt.register_wasm(FunctionConfig::new(format!("t{tenant}-g{g}")), wasm)
                .unwrap();
        }
    }
    let reg = rt.latency_report().registry;
    assert_eq!(reg.modules_compiled, 37);
    assert_eq!(reg.modules_verified, 3 * 37);
    rt.shutdown();
}

#[test]
fn a_capability_rejection_on_a_shared_module_is_per_tenant() {
    // Grants are per tenant, effects per module: tenant B registers echo
    // with no policy, tenant A then hits the same module with a policy that
    // withholds echo's request_* host calls and is refused, and B serves.
    let rt = small_runtime(2);
    let wasm = sledge_wasm::encode::encode_module(&guests::echo());
    let b = rt
        .register_wasm(FunctionConfig::new("tenant-b"), &wasm)
        .unwrap();
    let mut a = FunctionConfig::new("tenant-a");
    a.allowed_hostcalls = Some(vec!["response_write".into()]);
    let err = rt.register_wasm(a, &wasm).unwrap_err();
    assert!(matches!(err, RegisterError::Capability(_)), "{err}");
    assert!(rt.function_by_name("tenant-a").is_none());
    let mut c = FunctionConfig::new("tenant-c");
    c.allowed_hostcalls = Some(
        ["request_len", "request_read", "response_write"]
            .map(String::from)
            .to_vec(),
    );
    let c = rt.register_wasm(c, &wasm).unwrap();
    let reg = rt.latency_report().registry;
    assert_eq!(reg.modules_compiled, 1);
    assert_eq!(reg.capability_rejected, 1);
    assert_eq!(reg.capability_certified, 1);
    assert_eq!(reg.modules_rejected, 1);
    for id in [b, c] {
        let done = rt.invoke(id, &b"still here"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(ref body) if body == b"still here"));
    }
    rt.shutdown();
}

#[test]
fn duplicate_name_and_route_are_refused() {
    let rt = small_runtime(1);
    let mut a = FunctionConfig::new("a");
    a.route = Some("/x".into());
    let a = rt.register_module(a, &guests::echo()).unwrap();
    // `b` on `/x` would leave `a` registered but unreachable over HTTP.
    let mut b = FunctionConfig::new("b");
    b.route = Some("/x".into());
    let err = rt.register_module(b, &guests::spin()).unwrap_err();
    assert!(
        matches!(err, RegisterError::DuplicateRoute(ref r) if r == "/x"),
        "{err}"
    );
    let err = rt
        .register_module(FunctionConfig::new("a"), &guests::spin())
        .unwrap_err();
    assert!(
        matches!(err, RegisterError::DuplicateName(ref n) if n == "a"),
        "{err}"
    );
    // Both were refused before any translation.
    assert_eq!(rt.latency_report().registry.modules_compiled, 1);
    assert!(rt.function_by_name("b").is_none());
    let done = rt.invoke(a, &b"mine"[..]).wait().unwrap();
    assert!(matches!(done.outcome, Outcome::Success(ref body) if body == b"mine"));
    rt.shutdown();
}

#[test]
fn requests_are_served_while_a_registration_translates() {
    let wasm = sledge_wasm::encode::encode_module(&guests::slow_to_translate(8000));
    let rt = small_runtime(2);
    let ping = rt
        .register_module(FunctionConfig::new("ping"), &sledge_apps::ping::module())
        .unwrap();
    let invoke = (0..20)
        .map(|_| {
            let t = Instant::now();
            rt.invoke(ping, Vec::new()).wait().unwrap();
            t.elapsed()
        })
        .min()
        .unwrap();
    // Calibrate on a second node, whose module store is empty: the
    // translation must dwarf an invoke, or the check below proves nothing.
    let translate = {
        let other = small_runtime(1);
        let t = Instant::now();
        other
            .register_wasm(FunctionConfig::new("slow"), &wasm)
            .unwrap();
        let d = t.elapsed();
        other.shutdown();
        d
    };
    assert!(
        translate >= invoke * 10,
        "translation {translate:?} vs invoke {invoke:?}"
    );

    let started = AtomicBool::new(false);
    let registered = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            started.store(true, Ordering::SeqCst);
            rt.register_wasm(FunctionConfig::new("slow"), &wasm)
                .unwrap();
            registered.store(true, Ordering::SeqCst);
        });
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Ping back to back until the registration returns. Its translation
        // holds no registry lock, so the listener keeps admitting and the
        // workers keep serving; had it held the write lock, at most the one
        // ping admitted before the lock was taken would count here.
        let mut served = 0;
        loop {
            let done = rt.invoke(ping, Vec::new()).wait().unwrap();
            assert!(matches!(done.outcome, Outcome::Success(_)));
            if registered.load(Ordering::SeqCst) {
                break;
            }
            served += 1;
        }
        assert!(
            served >= 3,
            "{served} ping(s) served during a {translate:?} translation"
        );
    });
    assert!(rt.function_by_name("slow").is_some());
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// The idle listener's blocking poll
// ---------------------------------------------------------------------------

/// An HTTP runtime with the idle reaper off, so nothing but a socket or a
/// wake ends its idle listener's poll: a lost wake blocks it for good, and
/// the bounds below catch that.
fn unreaped_http_runtime() -> Runtime {
    Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            conn_idle: Duration::ZERO,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap()
}

/// Long enough for the listener to arm and block in its poll, and past the
/// 50 ms it keeps polling after a reply.
const IDLE: Duration = Duration::from_millis(100);

/// What a woken listener has to beat; a lost wake never does.
const WAKE_BOUND: Duration = Duration::from_secs(5);

/// Run `scenario` on a thread of its own and fail unless it ends within
/// twice [`WAKE_BOUND`]. A listener that lost a wake hangs whatever waits
/// for it, dropping its `Runtime` included, so the test would otherwise
/// hang instead of failing.
fn within_wake_bound(scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    // A hung scenario cannot be joined; it is left to the process exit.
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = done.recv_timeout(2 * WAKE_BOUND) {
        panic!("no answer within {:?}: a wake was lost", 2 * WAKE_BOUND);
    }
    if let Err(panic) = scenario.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn idle_listener_wakes_for_an_in_process_invoke() {
    within_wake_bound(|| {
        let rt = unreaped_http_runtime();
        let id = rt
            .register_module(FunctionConfig::new("echo"), &guests::echo())
            .unwrap();
        // Each round finds the listener blocked again after the last reply.
        for round in 0..3 {
            std::thread::sleep(IDLE);
            let done = rt.invoke(id, &b"wake"[..]).wait_timeout(WAKE_BOUND);
            match done.map(|c| c.outcome) {
                Some(Outcome::Success(body)) => assert_eq!(body, b"wake", "round {round}"),
                other => panic!("round {round}: {other:?}"),
            }
        }
        rt.shutdown();
    });
}

#[test]
fn idle_listener_wakes_for_a_drain() {
    within_wake_bound(|| {
        let rt = unreaped_http_runtime();
        let addr = rt.http_addr().unwrap();
        // An idle keep-alive connection: only the socket tier's drain, which
        // the listener starts once it sees the flag, closes it.
        let mut held = std::net::TcpStream::connect(addr).unwrap();
        held.set_read_timeout(Some(WAKE_BOUND)).unwrap();
        while rt.latency_report().connections.accepted == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(IDLE);
        rt.begin_drain();
        let mut rest = Vec::new();
        held.read_to_end(&mut rest)
            .expect("the drain closes an idle keep-alive connection");
        assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));

        // A new peer, a `/healthz` probe included, gets the socket tier's
        // 503 at accept, before it speaks (a request written after it
        // would race the close).
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(WAKE_BOUND)).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        rt.shutdown();
    });
}

#[test]
fn idle_listener_wakes_for_shutdown() {
    within_wake_bound(|| {
        let rt = unreaped_http_runtime();
        std::thread::sleep(IDLE);
        rt.shutdown();
    });
}
