//! Warm-pool integration tests: recycling counters through real invocations,
//! state isolation across reuse, drain interaction, the
//! phase-accounting contract for pool hits, a seeded trap/success mix, and
//! the pool's series in every surface, on or off.

use common::{Chaos, ChaosTenants, Mix};
use sledge_core::{FunctionConfig, Outcome, PoolStatsSnapshot, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};

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

    /// Respond with the byte at address 64 *then* scribble 0xAA over it. A
    /// recycled sandbox that leaks state answers 0xAA instead of 0.
    pub fn peek_poke() -> Module {
        let mut mb = ModuleBuilder::new("peek");
        mb.memory(1, Some(1));
        let resp_write = mb.import_func(
            "env",
            "response_write",
            &[ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.extend([
            exec(call(resp_write, vec![i32c(64), i32c(1)])),
            store(Scalar::U8, i32c(64), 0, i32c(0xAA)),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Respond with the 8 bytes at address 64, then copy the request's first
    /// 8 bytes there: a per-request marker that any later request on a
    /// leaked instance would read back.
    pub fn marker() -> Module {
        let mut mb = ModuleBuilder::new("marker");
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
            exec(call(resp_write, vec![i32c(64), i32c(8)])),
            exec(call(req_read, vec![i32c(64), i32c(8), i32c(0)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Trap (division by zero) whenever the first body byte is 1; the
    /// data dependency keeps the load-time analyzer from rejecting it.
    pub fn picky() -> Module {
        let mut mb = ModuleBuilder::new("picky");
        mb.memory(1, Some(1));
        let req_read = mb.import_func(
            "env",
            "request_read",
            &[ValType::I32, ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.extend([
            exec(call(req_read, vec![i32c(0), i32c(1), i32c(0)])),
            if_(
                eq(load(Scalar::U8, i32c(0), 0), i32c(1)),
                vec![store(Scalar::I32, i32c(8), 0, div(i32c(1), i32c(0)))],
            ),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Performs no guest store at all: responds with the byte at 64 and
    /// returns. Its effect certificate is `Pure`, so the pool may skip the
    /// memory reset entirely when recycling it.
    pub fn pure_reader() -> Module {
        let mut mb = ModuleBuilder::new("pure");
        mb.memory(1, Some(1));
        let resp_write = mb.import_func(
            "env",
            "response_write",
            &[ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.extend([
            exec(call(resp_write, vec![i32c(64), i32c(1)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }
}

/// A one-worker runtime configuration whose pools hold `pool_size`.
fn config(pool_size: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        pool_size,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Recycling counters and reuse
// ---------------------------------------------------------------------------

#[test]
fn sequential_invocations_recycle_one_sandbox() {
    let rt = Runtime::new(config(2));
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for i in 0..10 {
        let done = rt.invoke(echo, &b"hi"[..]).wait().unwrap();
        match done.outcome {
            Outcome::Success(body) => assert_eq!(&body[..], b"hi", "#{i}"),
            other => panic!("#{i}: {other:?}"),
        }
    }
    let pool = rt.latency_report().pool;
    rt.shutdown();
    // One cold miss, then nine warm hits on the same recycled instance.
    assert_eq!(pool.misses, 1, "{pool:?}");
    assert_eq!(pool.hits, 9, "{pool:?}");
    assert_eq!(pool.recycled, 10, "{pool:?}");
    assert_eq!(pool.discarded, 0, "{pool:?}");
    assert_eq!(pool.size, 1, "{pool:?}");
}

#[test]
fn recycled_sandboxes_leak_no_state() {
    let rt = Runtime::new(config(1));
    let peek = rt
        .register_module(FunctionConfig::new("peek"), &guests::peek_poke())
        .unwrap();
    for i in 0..6 {
        let done = rt.invoke(peek, Vec::new()).wait().unwrap();
        match done.outcome {
            // Every run answers the *template* byte (0), never the 0xAA the
            // previous invocation scribbled.
            Outcome::Success(body) => assert_eq!(&body[..], &[0u8], "#{i}"),
            other => panic!("#{i}: {other:?}"),
        }
    }
    let pool = rt.latency_report().pool;
    rt.shutdown();
    assert!(pool.hits >= 5, "no reuse actually happened: {pool:?}");
}

#[test]
fn tenants_sharing_a_module_never_read_each_others_memory() {
    // Two tenants registered from the same bytes share one compiled module
    // but nothing else: each has its own pool, and every instance, fresh or
    // recycled, starts from the module's template rather than the other
    // tenant's last request.
    let wasm = sledge_wasm::encode::encode_module(&guests::marker());
    let base = RuntimeConfig {
        workers: 2,
        ..config(4)
    };
    for (label, cfg) in common::plain_and_armed(base) {
        let rt = Runtime::new(cfg);
        let a = rt
            .register_wasm(FunctionConfig::new("tenant-a"), &wasm)
            .unwrap();
        let b = rt
            .register_wasm(FunctionConfig::new("tenant-b"), &wasm)
            .unwrap();
        // One build, so both tenants run the one module it made.
        let reg = rt.latency_report().registry;
        assert_eq!(reg.modules_compiled, 1, "{label}");
        for i in 0..12u8 {
            for (id, tag) in [(a, b'A'), (b, b'B')] {
                let marker = [tag, i, tag, i, tag, i, tag, i];
                let done = rt.invoke(id, marker.to_vec()).wait().unwrap();
                match done.outcome {
                    Outcome::Success(body) => {
                        assert_eq!(body, [0u8; 8], "{label}: {} #{i}", tag as char)
                    }
                    other => panic!("{label}: {} #{i}: {other:?}", tag as char),
                }
            }
        }
        // Each tenant's pool apart is `lib.rs`'s
        // `tenants_sharing_a_module_keep_their_own_pools`.
        let total = rt.latency_report().pool;
        rt.shutdown();
        assert_eq!(total.hits + total.misses, 24, "{label}: {total:?}");
        assert_eq!(total.recycled, 24, "{label}: {total:?}");
        assert!(total.hits >= 2, "{label}: never recycled: {total:?}");
    }
}

#[test]
fn trapped_invocations_are_never_recycled() {
    let rt = Runtime::new(config(2));
    let picky = rt
        .register_module(FunctionConfig::new("picky"), &guests::picky())
        .unwrap();
    for _ in 0..3 {
        let done = rt.invoke(picky, vec![1u8]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Trapped(_)));
    }
    let pool = rt.latency_report().pool;
    rt.shutdown();
    assert_eq!(pool.recycled, 0, "{pool:?}");
    assert_eq!(pool.hits, 0, "{pool:?}");
    assert_eq!(pool.misses, 3, "{pool:?}");
    assert_eq!(pool.discarded, 3, "{pool:?}");
    assert_eq!(pool.size, 0, "{pool:?}");
}

// ---------------------------------------------------------------------------
// Elided resets (derived from the effect certificate)
// ---------------------------------------------------------------------------

#[test]
fn pure_function_recycles_with_elided_resets() {
    let rt = Runtime::new(config(1));
    let pure = rt
        .register_module(FunctionConfig::new("pure"), &guests::pure_reader())
        .unwrap();
    for i in 0..6 {
        let done = rt.invoke(pure, Vec::new()).wait().unwrap();
        match done.outcome {
            Outcome::Success(body) => assert_eq!(&body[..], &[0u8], "#{i}"),
            other => panic!("#{i}: {other:?}"),
        }
    }
    let pool = rt.latency_report().pool;
    rt.shutdown();
    // Every recycle skipped the memory reset: the certificate proves the
    // guest never stores, and no host write dirtied the instance.
    assert_eq!(pool.recycled, 6, "{pool:?}");
    assert_eq!(pool.resets_elided, 6, "{pool:?}");
}

#[test]
fn request_reading_function_falls_back_to_full_resets() {
    // `echo` calls `request_read`, which writes guest memory from the host
    // side, and it stores and grows memory itself. Each forces the classic
    // high-water reset, so no reset is elided.
    let rt = Runtime::new(config(1));
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for _ in 0..4 {
        let done = rt.invoke(echo, &b"hi"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    let pool = rt.latency_report().pool;
    rt.shutdown();
    assert_eq!(pool.recycled, 4, "{pool:?}");
    assert_eq!(pool.resets_elided, 0, "{pool:?}");
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

#[test]
fn drain_empties_pools_and_keeps_them_empty() {
    let rt = Runtime::new(config(4));
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for _ in 0..6 {
        let done = rt.invoke(echo, &b"x"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    assert!(rt.latency_report().pool.size > 0, "pool never filled");
    rt.begin_drain();
    let pool = rt.latency_report().pool;
    assert_eq!(pool.size, 0, "drained pool still holds instances: {pool:?}");
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Phase accounting on the warm path (satellite: pool hits charge
// `instantiation`, never `queue`; the phase-sum invariant survives pooling)
// ---------------------------------------------------------------------------

#[test]
fn pool_hits_keep_phase_accounting_sound() {
    let rt = Runtime::new(config(2));
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    const N: u64 = 20;
    for i in 0..N {
        let done = rt.invoke(echo, &b"ping"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)), "#{i}");
        let t = &done.timings;
        // The acquire (warm or cold) happens inside the measured
        // instantiation window, so the disjoint-phase invariant holds for
        // pool hits exactly as it does for cold starts.
        let sum = t.instantiation + t.queue_delay + t.execution + t.preempted + t.blocked;
        assert!(sum <= t.total, "#{i}: phase sum {sum:?} exceeds {t:?}");
    }
    let report = rt.latency_report();
    let pool = rt.latency_report().pool;
    rt.shutdown();
    assert_eq!(pool.hits, N - 1, "{pool:?}");
    // Warm invocations still record exactly one sample per phase: nothing
    // about a pool hit is smeared into `queue` or dropped.
    assert_eq!(report.global.count(), N);
    for (phase, h) in report.global.phases() {
        assert_eq!(h.count(), N, "phase {phase} lost warm-path samples");
    }
    // The report carries the merged pool snapshot for rendering.
    assert_eq!(report.pool.hits, N - 1);
    assert!(report.pool.capacity > 0);
}

// ---------------------------------------------------------------------------
// Chaos: a trap/success mix
// ---------------------------------------------------------------------------

#[test]
fn partial_poisoning_accounts_for_every_retirement() {
    // A seeded 35 % of requests trap. Traps are never recycled; every
    // success is, unless the pool is full.
    let rt = Runtime::new(config(4));
    let chaos = ChaosTenants::register(&rt);
    const N: u64 = 60;
    let schedule = Mix {
        trap_pct: 35,
        ..Default::default()
    }
    .draw(42, N as usize);
    for (i, &kind) in schedule.iter().enumerate() {
        let done = chaos.invoke(&rt, kind, b"hi").wait().unwrap();
        match (kind, done.outcome) {
            (Chaos::Trap, Outcome::Trapped(_)) | (Chaos::Echo, Outcome::Success(_)) => {}
            (kind, outcome) => panic!("#{i} {kind:?}: {outcome:?}"),
        }
    }
    let traps = schedule.iter().filter(|&&k| k == Chaos::Trap).count() as u64;
    let pool = rt.latency_report().pool;
    rt.shutdown();
    assert!(traps > 0, "35% mix never trapped");
    assert!(pool.recycled > 0, "35% mix trapped everything: {pool:?}");
    // Every retirement is counted exactly once: recycled into the pool,
    // discarded (trapped), or evicted from a full pool.
    assert_eq!(pool.discarded, traps, "{pool:?}");
    assert_eq!(pool.recycled + pool.discarded + pool.evicted, N, "{pool:?}");
}

// ---------------------------------------------------------------------------
// Disabled pool: invisible end to end
// ---------------------------------------------------------------------------

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Runs five echoes on a node with `pool_size` slots and checks that the
/// pool's series are in `/metrics` and its segment in the summary line,
/// each reading what `pool_stats` reads.
fn pool_surfaces(pool_size: usize) -> PoolStatsSnapshot {
    let rt = Runtime::with_http(config(pool_size), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = rt.http_addr().unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for _ in 0..5 {
        let done = rt.invoke(echo, &b"ping"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    let pool = rt.latency_report().pool;
    assert_eq!(pool.capacity, pool_size as u64);

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for event in ["hit", "miss", "recycled", "discarded", "evicted"] {
        let series = format!("sledge_pool_events_total{{event=\"{event}\"}} ");
        assert!(metrics.contains(&series), "missing {series}\n{metrics}");
    }
    let hits = format!("sledge_pool_events_total{{event=\"hit\"}} {}\n", pool.hits);
    assert!(metrics.contains(&hits), "{metrics}");
    assert!(metrics.contains("sledge_pool_size{} "), "{metrics}");
    let capacity = format!("sledge_pool_capacity{{}} {pool_size}\n");
    assert!(metrics.contains(&capacity), "{metrics}");
    let recycled = format!(
        "sledge_pool_events_total{{event=\"recycled\"}} {}\n",
        pool.recycled
    );
    assert!(metrics.contains(&recycled), "{metrics}");
    let line = sledge_core::summary_line(&rt.latency_report());
    assert!(line.contains(&format!("pool hit={} ", pool.hits)), "{line}");
    rt.shutdown();
    pool
}

#[test]
fn disabled_pool_is_invisible_in_every_surface() {
    // With `pool_size = 0` no pool counter moves: the series and segment are
    // still rendered, and every one of them reads zero.
    assert_eq!(pool_surfaces(0), PoolStatsSnapshot::default());
}

#[test]
fn enabled_pool_surfaces_in_metrics_and_stats() {
    let pool = pool_surfaces(2);
    assert_eq!(pool.hits, 4, "{pool:?}");
}
