//! End-to-end tests for multi-tenant fairness and admission control: work
//! budgets (429 + Retry-After over HTTP), priority-class shedding under an
//! in-flight cap, queue-SLO rejection, DWRR scheduling, burst antagonists,
//! and the defaults-off guarantee.

use common::{Chaos, ChaosTenants, Mix, BURST_WINDOW};
use sledge_core::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
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
}

// ---------------------------------------------------------------------------
// Work budgets
// ---------------------------------------------------------------------------

#[test]
fn http_budget_exhaustion_answers_429_with_retry_after() {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 1,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    let addr = rt.http_addr().unwrap();
    let mut cfg = FunctionConfig::new("echo");
    // The full bucket covers about one admission charge.
    cfg.budget_us_per_s = Some(1);
    rt.register_module(cfg, &guests::echo()).unwrap();

    let post = |body: &str| -> String {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(
            format!(
                "POST /echo HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        String::from_utf8_lossy(&buf).into_owned()
    };

    let first = post("hi");
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");

    // Burn through the remaining balance; one of the follow-ups must hit the
    // empty bucket and come back 429 with a concrete Retry-After.
    let mut saw_429 = false;
    for _ in 0..8 {
        let resp = post("again");
        if resp.starts_with("HTTP/1.1 429") {
            assert!(resp.contains("Retry-After: "), "429 without hint: {resp}");
            let secs: u64 = resp
                .lines()
                .find_map(|l| l.strip_prefix("Retry-After: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("integer Retry-After");
            assert!(secs >= 1, "Retry-After must round up to at least 1 s");
            saw_429 = true;
            break;
        }
    }
    assert!(saw_429, "budget never rejected over HTTP");

    let stats = rt.latency_report().stats;
    assert!(stats.budget_rejected > 0);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Priority classes under the in-flight cap
// ---------------------------------------------------------------------------

#[test]
fn low_priority_is_shed_before_high_priority() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        max_inflight: 4,
        ..Default::default()
    });
    // Background tenants that hold in-flight slots on the I/O wait list.
    let mut sleepy_cfg = FunctionConfig::new("sleepy");
    sleepy_cfg.priority = 3;
    let sleepy = rt
        .register_module(sleepy_cfg, &guests::io_sleeper())
        .unwrap();
    let mut low_cfg = FunctionConfig::new("low");
    low_cfg.priority = 0;
    let low = rt.register_module(low_cfg, &guests::echo()).unwrap();
    let mut high_cfg = FunctionConfig::new("high");
    high_cfg.priority = 3;
    let high = rt.register_module(high_cfg, &guests::echo()).unwrap();

    // Occupy half the cap (inflight = 2): priority 0 sheds at 1/4 of the
    // cap (threshold 1), priority 3 keeps flowing until the full cap (4).
    let parked: Vec<_> = (0..2)
        .map(|_| rt.invoke(sleepy, 500_000u32.to_le_bytes().to_vec()))
        .collect();
    let t0 = Instant::now();
    while rt.latency_report().stats.admitted < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "sleepers never became in-flight"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let shed = rt.invoke(low, &b"x"[..]).wait().expect("completion");
    match shed.outcome {
        Outcome::Throttled { why, retry_after } => {
            assert!(why.contains("shed"), "{why}");
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("low-priority request not shed: {other:?}"),
    }

    let served = rt.invoke(high, &b"x"[..]).wait().expect("completion");
    assert!(
        matches!(served.outcome, Outcome::Success(_)),
        "high-priority request rejected under partial load: {:?}",
        served.outcome
    );

    for h in parked {
        let done = h.wait().expect("completion");
        assert!(
            matches!(done.outcome, Outcome::Success(_)),
            "{:?}",
            done.outcome
        );
    }

    let stats = rt.latency_report().stats;
    assert!(stats.shed >= 1);
    let low_stats = common::stats_of(&rt, "low");
    assert!(low_stats.shed >= 1);
    assert_eq!(low_stats.completed, 0);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Queue-SLO gate
// ---------------------------------------------------------------------------

#[test]
fn queue_slo_gate_rejects_when_p99_is_blown() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let mut cfg = FunctionConfig::new("spin");
    // Any real queue wait (tens of ns at minimum) blows a 1 ns SLO, so the
    // gate closes as soon as the function has queue-phase history.
    cfg.queue_slo = Some(Duration::from_nanos(1));
    let spin = rt.register_module(cfg, &guests::spin()).unwrap();

    // Build queue-phase history. The first requests are admitted: the p99
    // cache starts empty, and an empty histogram reads as zero.
    let mut admitted = 0;
    for _ in 0..4 {
        let done = rt
            .invoke(spin, 50_000u32.to_le_bytes().to_vec())
            .wait()
            .expect("completion");
        if matches!(done.outcome, Outcome::Success(_)) {
            admitted += 1;
        }
    }
    assert!(admitted >= 1, "gate closed before any history existed");

    // Let the 5 ms p99 cache expire, then the gate must reject.
    std::thread::sleep(Duration::from_millis(10));
    let done = rt
        .invoke(spin, 50_000u32.to_le_bytes().to_vec())
        .wait()
        .expect("completion");
    match done.outcome {
        Outcome::Throttled { why, retry_after } => {
            assert!(why.contains("SLO"), "{why}");
            // The back-off hint is the SLO span.
            assert_eq!(retry_after, Duration::from_nanos(1));
        }
        other => panic!("blown SLO not rejected: {other:?}"),
    }
    let stats = rt.latency_report().stats;
    assert!(stats.slo_rejected >= 1);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// DWRR scheduling end to end
// ---------------------------------------------------------------------------

#[test]
fn dwrr_contended_tenants_all_complete() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        fairness: true,
        quantum: Duration::from_millis(1),
        cost_units_per_us: 50,
        ..Default::default()
    });
    let mut heavy_cfg = FunctionConfig::new("heavy");
    heavy_cfg.weight = 8;
    let heavy = rt.register_module(heavy_cfg, &guests::spin()).unwrap();
    let mut light_cfg = FunctionConfig::new("light");
    light_cfg.weight = 1;
    let light = rt.register_module(light_cfg, &guests::spin()).unwrap();

    // Two tenants flood the same workers; DWRR interleaves their lanes.
    // Nothing is lost, nothing deadlocks, and every invocation succeeds.
    let handles: Vec<_> = (0..40u32)
        .map(|i| {
            let id = if i % 2 == 0 { heavy } else { light };
            rt.invoke(id, 300_000u32.to_le_bytes().to_vec())
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let done = h.wait().expect("completion");
        assert!(
            matches!(done.outcome, Outcome::Success(_)),
            "#{i}: {:?}",
            done.outcome
        );
    }

    let report = rt.latency_report();
    assert_eq!(report.stats.completed, 40);
    assert_eq!(report.per_function.len(), 2);
    rt.shutdown();
}

#[test]
fn fairness_key_chooses_one_shared_lane_or_one_per_function() {
    // One worker; every quantum is ended by the fuel budget (20 000 units),
    // so scheduling order depends only on the run queue. Equal-cost
    // invocations alternate between a weight-8 and a weight-1 function.
    const N: usize = 16;
    for fairness in [false, true] {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            fairness,
            quantum: Duration::from_millis(20),
            cost_units_per_us: 1,
            ..Default::default()
        });
        let mut heavy_cfg = FunctionConfig::new("heavy");
        heavy_cfg.weight = 8;
        let heavy = rt.register_module(heavy_cfg, &guests::spin()).unwrap();
        let light = rt
            .register_module(FunctionConfig::new("light"), &guests::spin())
            .unwrap();
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let id = if i % 2 == 0 { heavy } else { light };
                rt.invoke(id, 50_000u32.to_le_bytes().to_vec())
            })
            .collect();
        // Completion instants, in submission order: one worker retires
        // one sandbox at a time, so these are strictly ordered.
        let done_at: Vec<Instant> = handles
            .into_iter()
            .map(|h| {
                let done = h.wait().expect("completion");
                assert!(matches!(done.outcome, Outcome::Success(_)));
                // Sliced by fuel alone: requeued after spent budgets, never
                // preempted by the timer.
                assert!(done.timings.preempted > Duration::ZERO);
                assert_eq!(done.timings.preemptions, 0, "the timer fired");
                done.timings.arrival + done.timings.total
            })
            .collect();
        let deferrals = |name| common::stats_of(&rt, name).dwrr_deferrals;
        let last = |parity| done_at.iter().skip(parity).step_by(2).max().copied();
        if fairness {
            // Per-function lanes: the weight-1 lane is passed over while
            // the weight-8 lane spends its larger share, so the heavy
            // function finishes its backlog first.
            assert!(deferrals("light") > 0, "light lane never deferred");
            assert!(last(0) < last(1), "heavy did not finish first");
        } else {
            // One shared lane: plain round-robin in arrival order, so
            // equal-cost invocations finish in the order they came.
            assert!(
                done_at.windows(2).all(|w| w[0] < w[1]),
                "completions out of submission order"
            );
            assert_eq!(deferrals("heavy"), 0);
            assert_eq!(deferrals("light"), 0);
        }
        rt.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Burst antagonists
// ---------------------------------------------------------------------------

#[test]
fn burst_faults_still_deliver_exactly_one_completion_each() {
    // Burst windows stall whole stretches of arrivals in 2 ms of blocking
    // I/O. Robustness invariant: every invocation still gets exactly one
    // completion and the books balance.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(1),
        cost_units_per_us: 50,
        ..Default::default()
    });
    let chaos = ChaosTenants::register(&rt);
    let sleeper = rt
        .register_module(FunctionConfig::new("sleeper"), &guests::io_sleeper())
        .unwrap();

    const M: usize = 120;
    let schedule = Mix {
        burst_pct: 50,
        delay_us: 2_000,
        ..Default::default()
    }
    .draw(11, M);
    // Request `k` is the `k / 3`-th of client `k % 3`, so a window of
    // consecutive requests lands on all three clients at once.
    assert!(
        schedule.chunks(BURST_WINDOW).any(|w| w[0] == Chaos::Echo)
            && schedule.chunks(BURST_WINDOW).any(|w| w[0] != Chaos::Echo),
        "seed must give calm and burst windows: {schedule:?}"
    );
    let schedule = &schedule;
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..3usize {
            let rt = &rt;
            joins.push(s.spawn(move || {
                (0..M / 3)
                    .map(|i| {
                        let h = match schedule[i * 3 + c] {
                            Chaos::Echo if (c + i) % 2 == 1 => {
                                rt.invoke(sleeper, 800u32.to_le_bytes().to_vec())
                            }
                            chaos_kind => chaos.invoke(rt, chaos_kind, b"hello"),
                        };
                        h.wait().expect("completion").outcome
                    })
                    .collect::<Vec<_>>()
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });
    assert_eq!(outcomes.len(), M);
    for (i, o) in outcomes.iter().enumerate() {
        assert!(matches!(o, Outcome::Success(_)), "#{i}: {o:?}");
    }

    let report = rt.latency_report();
    rt.shutdown();
    assert_eq!(report.stats.completed, M as u64);
    assert_eq!(report.global.count(), M as u64);
}

// ---------------------------------------------------------------------------
// Defaults off
// ---------------------------------------------------------------------------

#[test]
fn defaults_leave_admission_machinery_dark() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for _ in 0..5 {
        let done = rt.invoke(echo, &b"ping"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    let stats = rt.latency_report().stats;
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.budget_rejected, 0);
    assert_eq!(stats.slo_rejected, 0);
    rt.shutdown();
}
