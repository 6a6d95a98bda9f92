//! Invocation-lifecycle observability tests: phase accounting invariants,
//! shard merge completeness under multi-worker chaos, the `/metrics`
//! endpoint, and the shipped daemon.

use common::{ChaosTenants, Mix};
use sledge_core::{Completion, FunctionConfig, Outcome, Runtime, RuntimeConfig, Timings};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};
use std::time::Duration;

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
}

/// The core accounting invariant: the per-phase durations are disjoint
/// sub-intervals of [arrival, delivery], so their sum can never exceed the
/// end-to-end wall time.
fn assert_accounted(t: &Timings, ctx: &str) {
    let sum = t.instantiation + t.queue_delay + t.execution + t.preempted + t.blocked;
    assert!(
        sum <= t.total,
        "{ctx}: phase sum {sum:?} exceeds total {t:?}"
    );
}

// ---------------------------------------------------------------------------
// Accounting invariants
// ---------------------------------------------------------------------------

#[test]
fn phase_sum_bounded_by_wall_time() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(1),
        cost_units_per_us: 50,
        ..Default::default()
    });
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &guests::spin())
        .unwrap();
    let sleeper = rt
        .register_module(FunctionConfig::new("sleeper"), &guests::io_sleeper())
        .unwrap();

    let mut handles = Vec::new();
    for i in 0..60u32 {
        handles.push(match i % 3 {
            0 => rt.invoke(echo, &b"hello"[..]),
            // Spins long enough to be preempted at least once under the
            // small fuel budget.
            1 => rt.invoke(spin, 400_000u32.to_le_bytes().to_vec()),
            // Parks on emulated I/O for 3 ms.
            _ => rt.invoke(sleeper, 3000u32.to_le_bytes().to_vec()),
        });
    }
    let mut preempted_seen = false;
    let mut blocked_seen = false;
    for (i, h) in handles.into_iter().enumerate() {
        let done = h.wait().expect("completion");
        assert!(
            matches!(done.outcome, Outcome::Success(_)),
            "#{i}: {:?}",
            done.outcome
        );
        assert_accounted(&done.timings, &format!("invocation {i}"));
        assert!(
            done.timings.execution > Duration::ZERO,
            "#{i}: no exec time"
        );
        preempted_seen |= done.timings.preempted > Duration::ZERO;
        blocked_seen |= done.timings.blocked > Duration::ZERO;
    }
    assert!(preempted_seen, "no invocation accumulated preempted time");
    assert!(blocked_seen, "no invocation accumulated blocked time");
    rt.shutdown();
}

#[test]
fn phase_counters_match_outcome() {
    // TimedOut implies the deadline genuinely elapsed: end-to-end wall time
    // must be at least the configured deadline.
    let deadline = Duration::from_millis(60);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        cost_units_per_us: 50,
        deadline: Some(deadline),
        ..Default::default()
    });
    let inf = rt
        .register_module(FunctionConfig::new("infinite"), &guests::infinite())
        .unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();

    let killed = rt.invoke(inf, Vec::new()).wait().expect("completion");
    assert!(
        matches!(killed.outcome, Outcome::TimedOut),
        "{:?}",
        killed.outcome
    );
    assert_accounted(&killed.timings, "timed-out invocation");
    assert!(
        killed.timings.total >= deadline,
        "TimedOut but total {:?} < deadline {:?}",
        killed.timings.total,
        deadline
    );
    // A runaway guest burns its whole life executing or waiting to be
    // rescheduled; it must have accumulated real execution time.
    assert!(killed.timings.execution > Duration::ZERO);

    let ok = rt.invoke(echo, &b"x"[..]).wait().expect("completion");
    assert!(matches!(ok.outcome, Outcome::Success(_)));
    assert!(ok.timings.total < deadline, "success outlived its deadline");
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Shard completeness under multi-worker chaos
// ---------------------------------------------------------------------------

#[test]
fn stress_loses_no_samples() {
    // 4 workers × 300 invocations with preemption, blocking I/O, traps,
    // failed instantiations, and deadline kills. Every executed invocation
    // must land in exactly one worker shard: the merged histogram count
    // equals completed + trapped + timed_out.
    for (label, config) in common::plain_and_armed(RuntimeConfig {
        workers: 4,
        quantum: Duration::from_millis(1),
        cost_units_per_us: 50,
        deadline: Some(Duration::from_millis(250)),
        ..Default::default()
    }) {
        eprintln!("config: {label}");
        let rt = Runtime::new(config);
        let chaos = ChaosTenants::register(&rt);
        let spin = rt
            .register_module(FunctionConfig::new("spin"), &guests::spin())
            .unwrap();
        let sleeper = rt
            .register_module(FunctionConfig::new("sleeper"), &guests::io_sleeper())
            .unwrap();

        const M: usize = 300;
        let schedule = Mix {
            reject_pct: 20,
            trap_pct: 20,
            delay_pct: 20,
            delay_us: 2_000,
            ..Default::default()
        }
        .draw(7, M);
        let schedule = &schedule;
        let completions: Vec<Completion> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for c in 0..4usize {
                let rt = &rt;
                handles.push(s.spawn(move || {
                    let mut done = Vec::new();
                    for i in 0..M / 4 {
                        let h = match (c + i) % 3 {
                            0 => chaos.invoke(rt, schedule[c * M / 4 + i], b"hello"),
                            1 => rt.invoke(spin, 200_000u32.to_le_bytes().to_vec()),
                            _ => rt.invoke(sleeper, 1500u32.to_le_bytes().to_vec()),
                        };
                        done.push(h.wait().expect("completion"));
                    }
                    done
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        assert_eq!(completions.len(), M);

        let report = rt.latency_report();
        let stats = report.stats;
        rt.shutdown();

        let executed = stats.completed + stats.trapped + stats.timed_out;
        assert!(executed > 0, "chaos run executed nothing");
        assert!(stats.rejected > 0, "no failed instantiation was rejected");
        assert!(stats.trapped > 0, "no chaos request trapped");
        assert_eq!(
            report.global.count(),
            executed,
            "merged histogram lost samples: {} recorded vs {} executed",
            report.global.count(),
            executed
        );
        // Every phase histogram carries the full sample count — one record
        // per phase per invocation.
        for (phase, h) in report.global.phases() {
            assert_eq!(h.count(), executed, "phase {phase} lost samples");
        }
        // Per-function shards partition the global count.
        let per_fn_total: u64 = report.per_function.iter().map(|f| f.phases().count()).sum();
        assert_eq!(per_fn_total, executed);
        // And the accounting invariant held for every delivered completion.
        for (i, c) in completions.iter().enumerate() {
            if matches!(
                c.outcome,
                Outcome::Success(_) | Outcome::Trapped(_) | Outcome::TimedOut
            ) {
                assert_accounted(&c.timings, &format!("chaos invocation {i}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Admission rejections and phase accounting
// ---------------------------------------------------------------------------

#[test]
fn rejected_requests_record_no_phase_samples() {
    // A throttled request never reaches a worker, so it must not land in any
    // phase histogram: the merged count stays completed + trapped + timed_out
    // even when admission control is rejecting most of the offered load.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    let mut cfg = FunctionConfig::new("echo");
    // ~150 cost units/s of budget: the full bucket covers roughly one
    // admission charge, so sequential requests drain it immediately and the
    // trickle refill cannot keep up.
    cfg.budget_us_per_s = Some(1);
    let echo = rt.register_module(cfg, &guests::echo()).unwrap();

    let mut succeeded = 0u64;
    let mut throttled = 0u64;
    for i in 0..24 {
        let done = rt.invoke(echo, &b"hi"[..]).wait().expect("completion");
        match done.outcome {
            Outcome::Success(_) => succeeded += 1,
            Outcome::Throttled { retry_after, why } => {
                assert!(retry_after > Duration::ZERO, "#{i}: empty back-off hint");
                assert!(why.contains("budget"), "#{i}: {why}");
                throttled += 1;
            }
            other => panic!("#{i}: unexpected outcome {other:?}"),
        }
    }
    assert!(succeeded >= 1, "bucket never admitted anything");
    assert!(throttled > 0, "tiny budget produced no throttles");

    let report = rt.latency_report();
    let stats = report.stats;
    rt.shutdown();

    assert_eq!(stats.completed, succeeded);
    assert_eq!(stats.budget_rejected, throttled);
    let executed = stats.completed + stats.trapped + stats.timed_out;
    assert_eq!(
        report.global.count(),
        executed,
        "throttled requests leaked histogram samples"
    );
    for (phase, h) in report.global.phases() {
        assert_eq!(
            h.count(),
            executed,
            "phase {phase} counted a rejected request"
        );
    }
    let per_fn_total: u64 = report.per_function.iter().map(|f| f.phases().count()).sum();
    assert_eq!(per_fn_total, executed);
    // The function's admission counters agree, and its budget has a balance.
    let echo = &report.per_function[0];
    assert_eq!(echo.name, "echo");
    assert_eq!(echo.stats.admitted, succeeded);
    assert_eq!(echo.stats.budget_rejected, throttled);
    assert!(echo.budget_balance.is_some());
}

// ---------------------------------------------------------------------------
// HTTP endpoints
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

#[test]
fn metrics_and_stats_endpoints() {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    let addr = rt.http_addr().unwrap();
    let echo = rt
        .register_module(FunctionConfig::new("echo"), &guests::echo())
        .unwrap();
    for _ in 0..20 {
        let done = rt.invoke(echo, &b"ping"[..]).wait().unwrap();
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }

    // Prometheus text: global and per-function p50/p99 for the queue,
    // instantiation, and execution phases.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200, "{metrics}");
    for phase in ["queue", "instantiation", "execution"] {
        for q in ["0.5", "0.99"] {
            let global =
                format!("sledge_phase_latency_seconds{{phase=\"{phase}\",quantile=\"{q}\"}} ");
            let per_fn = format!(
                "sledge_phase_latency_seconds{{function=\"echo\",phase=\"{phase}\",quantile=\"{q}\"}} "
            );
            assert!(metrics.contains(&global), "missing {global}\n{metrics}");
            assert!(metrics.contains(&per_fn), "missing {per_fn}\n{metrics}");
        }
    }
    assert!(metrics.contains("sledge_phase_latency_seconds_count{phase=\"total\"} 20"));
    assert!(metrics.contains("sledge_invocations_total{outcome=\"completed\"} 20"));

    // Every phase's count, global and per function, and its quantiles in
    // order; min, max and mean are not exported (mean is `_sum / _count`).
    let sample = |series: &str| -> f64 {
        let line = metrics.lines().find(|l| l.starts_with(series));
        let value = line.and_then(|l| l.rsplit_once(' ')).map(|(_, v)| v);
        value
            .unwrap_or_else(|| panic!("missing {series}\n{metrics}"))
            .parse()
            .unwrap()
    };
    for labels in ["", "function=\"echo\","] {
        for phase in ["queue", "instantiation", "execution", "total"] {
            let labels = format!("{labels}phase=\"{phase}\"");
            let count = sample(&format!("sledge_phase_latency_seconds_count{{{labels}}} "));
            assert_eq!(count, 20.0, "{labels}");
            let p50 = sample(&format!(
                "sledge_phase_latency_seconds{{{labels},quantile=\"0.5\"}} "
            ));
            let p99 = sample(&format!(
                "sledge_phase_latency_seconds{{{labels},quantile=\"0.99\"}} "
            ));
            assert!(0.0 <= p50 && p50 <= p99, "{labels}: {p50} {p99}");
        }
    }

    // One exposition: `/stats` is a path like any other, and no function
    // owns it here.
    let (status, _) = http_get(addr, "/stats");
    assert_eq!(status, 404);

    // Function routes still work alongside the exposition.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi")
        .unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.ends_with("hi"), "{text}");

    // Unknown paths still 404.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Output shape
// ---------------------------------------------------------------------------

#[test]
fn output_shape_does_not_depend_on_configuration() {
    // The plain node has every subsystem off; the armed one has the pool,
    // per-function lanes and an in-flight cap, and gives echo a budget, a
    // queue SLO and a capability policy it satisfies. Both expose the same
    // families, series, label keys and summary segments; only a budgeted
    // function has a `sledge_budget_balance` sample.
    let shapes: Vec<_> = common::plain_and_armed(RuntimeConfig {
        workers: 2,
        ..Default::default()
    })
    .into_iter()
    .map(|(label, config)| {
        let armed = label == "armed";
        let rt = Runtime::with_http(config, "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut cfg = FunctionConfig::new("echo");
        if armed {
            cfg.budget_us_per_s = Some(1_000_000);
            cfg.queue_slo = Some(Duration::from_secs(1));
            cfg.allowed_hostcalls = Some(
                ["request_len", "request_read", "response_write"]
                    .map(String::from)
                    .to_vec(),
            );
        }
        let echo = rt.register_module(cfg, &guests::echo()).unwrap();
        for _ in 0..5 {
            let done = rt.invoke(echo, &b"ping"[..]).wait().unwrap();
            assert!(matches!(done.outcome, Outcome::Success(_)), "{label}");
        }
        let addr = rt.http_addr().unwrap();
        let (_, metrics) = http_get(addr, "/metrics");
        let line = sledge_core::summary_line(&rt.latency_report());
        rt.shutdown();

        let families: Vec<String> = metrics
            .lines()
            .filter_map(|l| l.strip_prefix("# HELP "))
            .map(|l| l.split(' ').next().unwrap().to_string())
            .collect();
        // Each series name with its label keys.
        let mut series: Vec<String> = metrics
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("sledge_budget_balance{"))
            .map(|l| {
                let (name, rest) = l.split_once('{').expect("labelled sample");
                let labels = rest.split_once('}').expect("closed labels").0;
                let keys: Vec<&str> = labels
                    .split(',')
                    .filter_map(|kv| kv.split_once('=').map(|(k, _)| k))
                    .collect();
                format!("{name}{{{}}}", keys.join(","))
            })
            .collect();
        series.dedup();
        let budget_samples = metrics
            .lines()
            .filter(|l| l.starts_with("sledge_budget_balance{function=\"echo\"} "));
        assert_eq!(budget_samples.count(), usize::from(armed), "{label}");
        // Each segment's labels, with the values cut off.
        let segments: Vec<String> = line
            .split(" | ")
            .map(|seg| {
                let words = seg.split(' ').map(|w| w.split('=').next().unwrap());
                words.collect::<Vec<_>>().join(" ")
            })
            .collect();
        (families, series, segments)
    })
    .collect();
    let (plain, armed) = (&shapes[0], &shapes[1]);
    assert_eq!(plain.0, armed.0, "# HELP families differ");
    assert_eq!(plain.1, armed.1, "series or label keys differ");
    assert_eq!(plain.2, armed.2, "summary segments differ");
}

// ---------------------------------------------------------------------------
// The shipped daemon
// ---------------------------------------------------------------------------

/// A `sledged` child on an ephemeral port, with its banner read up to the
/// "serving on" line.
struct Sledged {
    child: std::process::Child,
    lines: std::io::Lines<std::io::BufReader<std::process::ChildStdout>>,
    banner: Vec<String>,
    addr: std::net::SocketAddr,
    dir: std::path::PathBuf,
}

/// Write `echo.wasm`, `ping.wasm` and `config` into a fresh directory and
/// start `sledged` on it for `run_for_s` seconds.
fn spawn_sledged(tag: &str, config: &str, run_for_s: u32) -> Sledged {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("sledged-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, module) in [
        ("echo.wasm", sledge_apps::echo::module()),
        ("ping.wasm", sledge_apps::ping::module()),
    ] {
        let wasm = sledge_wasm::encode::encode_module(&module);
        std::fs::write(dir.join(file), wasm).unwrap();
    }
    std::fs::write(dir.join("sledged.json"), config).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sledged"))
        .arg(dir.join("sledged.json"))
        .args(["127.0.0.1:0", "--run-for-s", &run_for_s.to_string()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sledged");
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let mut banner = Vec::new();
    let addr = loop {
        let line = lines.next().expect("banner line").unwrap();
        banner.push(line.clone());
        if let Some(rest) = line.strip_prefix("sledged serving on http://") {
            break rest.split(' ').next().unwrap().parse().unwrap();
        }
    };
    Sledged {
        child,
        lines,
        banner,
        addr,
        dir,
    }
}

impl Sledged {
    /// Wait for the drain and exit; returns every stdout line after the
    /// banner, and all of stderr.
    fn finish(mut self) -> (Vec<String>, String) {
        let rest: Vec<String> = self.lines.map(Result::unwrap).collect();
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        assert!(self.child.wait().unwrap().success(), "{stderr}");
        let _ = std::fs::remove_dir_all(&self.dir);
        (rest, stderr)
    }
}

/// One `POST` on its own connection; the whole reply, head and body.
fn http_post_reply(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).unwrap();
    reply
}

fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let reply = http_post_reply(addr, path, body);
    let status = reply.split(' ').nth(1).and_then(|c| c.parse().ok());
    let body = reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    (status.expect("status code"), body.unwrap_or_default())
}

#[test]
fn sledged_serves_metrics_and_a_full_summary() {
    // `sledged` on an ephemeral port with the echo app: 20 requests, then
    // /metrics; the banner and the `[final]` line after the
    // drain carry every segment, with pool, admission and capability at zero.
    let config = r#"{"workers": 2, "modules": [{"name": "echo", "wasm": "echo.wasm"}]}"#;
    let sledged = spawn_sledged("smoke", config, 2);
    let addr = sledged.addr;
    for i in 0..20 {
        let body = format!("hello-{i}");
        assert_eq!(http_post(addr, "/echo", &body), (200, body));
    }
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "sledge_invocations_total{outcome=\"completed\"} 20\n",
        "sledge_phase_latency_seconds{phase=\"execution\",quantile=\"0.99\"} ",
        "sledge_phase_latency_seconds{function=\"echo\",phase=\"queue\",quantile=\"0.5\"} ",
        "sledge_phase_latency_seconds_count{phase=\"total\"} 20\n",
        "sledge_modules_compiled_total{} 1\n",
    ] {
        assert!(metrics.contains(series), "missing {series}\n{metrics}");
    }

    let mut banner = sledged.banner.clone();
    let (rest, _) = sledged.finish();
    banner.extend(rest.iter().cloned());
    for line in [
        "verified 1 module(s): 0 lint warning(s), 1 cost-certified, 1 compiled",
        "capability policy: 0 certified, 0 rejected",
        "  sandbox pool: off",
        "  run queue: one lane, max in-flight uncapped",
        "drain completed",
    ] {
        assert!(
            banner.iter().any(|l| l == line),
            "no {line:?} in {banner:#?}"
        );
    }
    let last = rest.last().expect("[final] line");
    for segment in [
        "[final] done=20 trap=0 timeout=0 rej=0 | total p50=",
        " | conns active=",
        " | pool hit=0 miss=0 recycled=0 size=0/0 | adm shed=0 budget=0 slo=0 \
         | cap certified=0 rejected=0",
    ] {
        assert!(last.contains(segment), "no {segment:?} in {last}");
    }
}

#[test]
fn sledged_throttles_an_exhausted_work_budget() {
    // A 1 µs/s work budget covers about one admission: the first request
    // passes, a follow-up within eight more comes back 429 with a
    // Retry-After hint, and /metrics shows the rejection and the bucket.
    let config = r#"{"workers": 2, "modules": [
        {"name": "echo", "wasm": "echo.wasm", "budget": 1}
    ]}"#;
    let sledged = spawn_sledged("overload", config, 2);
    let addr = sledged.addr;
    assert_eq!(http_post(addr, "/echo", "hello"), (200, "hello".into()));
    let throttled = (1..=8)
        .map(|i| http_post_reply(addr, "/echo", &format!("again-{i}")))
        .find(|reply| reply.starts_with("HTTP/1.1 429"))
        .expect("no 429 within 8 requests");
    let retry_after = throttled
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .unwrap_or_else(|| panic!("no Retry-After in {throttled}"));
    assert!(
        retry_after.starts_with(|c: char| c.is_ascii_digit()),
        "{throttled}"
    );
    let (_, metrics) = http_get(addr, "/metrics");
    for series in [
        "sledge_admission_total{function=\"echo\",result=\"budget_rejected\"} ",
        "sledge_budget_balance{function=\"echo\"} ",
    ] {
        assert!(metrics.contains(series), "missing {series}\n{metrics}");
    }
    sledged.finish();
}

#[test]
fn sledged_gates_capabilities_per_function_on_a_shared_module() {
    // Deny-by-default host calls: echo's entry point also reaches
    // request_len/request_read, so granting it only response_write refuses
    // it with a clean diagnostic while the node keeps serving; ping needs
    // only response_write and certifies. echo2 ships the same bytes as echo
    // with no policy: it shares echo's module, and the per-function gate
    // that refused echo must not touch it.
    let config = r#"{"workers": 2, "modules": [
        {"name": "ping", "wasm": "ping.wasm", "allowed_hostcalls": ["response_write"]},
        {"name": "echo2", "wasm": "echo.wasm"},
        {"name": "echo", "wasm": "echo.wasm", "allowed_hostcalls": ["response_write"]}
    ]}"#;
    let sledged = spawn_sledged("capability", config, 2);
    let addr = sledged.addr;
    assert_eq!(http_post(addr, "/ping", "x").0, 200);
    assert_eq!(http_post(addr, "/echo", "x").0, 404);
    assert_eq!(http_post(addr, "/echo2", "x"), (200, "x".into()));
    let (_, metrics) = http_get(addr, "/metrics");
    for series in [
        "sledge_capability_modules_total{verdict=\"rejected\"} 1\n",
        "sledge_capability_modules_total{verdict=\"certified\"} 1\n",
        "sledge_modules_compiled_total{} 2\n",
    ] {
        assert!(metrics.contains(series), "missing {series}\n{metrics}");
    }
    let banner = sledged.banner.clone();
    let (_, stderr) = sledged.finish();
    for line in [
        // The certificate gate runs before the capability gate, so the
        // refused echo is cost-certified too.
        "verified 2 module(s): 0 lint warning(s), 3 cost-certified, 2 compiled",
        "capability policy: 1 certified, 1 rejected",
    ] {
        assert!(
            banner.iter().any(|l| l == line),
            "no {line:?} in {banner:#?}"
        );
    }
    assert!(stderr.contains("rejected by capability policy"), "{stderr}");
    assert!(stderr.contains("capability violation"), "{stderr}");
}

/// Every thread of process `pid`: its id, its name and its voluntary
/// context switches so far.
fn thread_switches(pid: u32) -> Vec<(String, String, u64)> {
    let task = format!("/proc/{pid}/task");
    std::fs::read_dir(&task)
        .unwrap()
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("{task}/{tid}/comm")).ok()?;
            let status = std::fs::read_to_string(format!("{task}/{tid}/status")).ok()?;
            let switches = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            Some((tid, comm.trim_end().to_string(), switches))
        })
        .collect()
}

/// An idle node's listener blocks until there is work: counted, not timed.
/// Napping 100 µs between polls, it switched out ~6 600 times a second;
/// blocked in `epoll_wait`, it switches out when the idle reaper is due
/// (every 250 ms at the default `conn_idle_ms`) or a socket stirs. The node
/// serves one request first, so the count also shows that the listener
/// stops polling 50 ms after work ends. The timer keeps deadlines only, so
/// with nothing running it blocks too: ticking each 5 ms quantum, it
/// switched out ~200 times a second. The workers still wake on their own
/// clock; their counts are printed, not bounded.
#[test]
fn idle_node_listener_does_not_sleep_poll() {
    let config = r#"{"workers": 2, "modules": [{"name": "echo", "wasm": "echo.wasm"}]}"#;
    let sledged = spawn_sledged("idle", config, 3);
    let pid = sledged.child.id();
    assert_eq!(
        http_post(sledged.addr, "/echo", "once"),
        (200, "once".into())
    );
    std::thread::sleep(Duration::from_millis(200));
    let before = thread_switches(pid);
    std::thread::sleep(Duration::from_secs(1));
    let idle: Vec<(String, u64)> = thread_switches(pid)
        .into_iter()
        .filter_map(|(tid, name, after)| {
            let (_, _, was) = before.iter().find(|(t, _, _)| *t == tid)?;
            Some((name, after - was))
        })
        .collect();
    let switches = |thread: &str| {
        idle.iter()
            .find(|(name, _)| name == thread)
            .unwrap_or_else(|| panic!("no {thread} thread in {idle:?}"))
            .1
    };
    for (thread, bound) in [("sledge-listener", 50), ("sledge-timer", 5)] {
        let n = switches(thread);
        assert!(
            n <= bound,
            "idle {thread} switched out {n} times in 1 s; every thread: {idle:?}"
        );
    }
    eprintln!("voluntary switches over 1 s idle: {idle:?}");
    sledged.finish();
}

/// Run `sledged` on `config` (with `ping.wasm` beside it) plus `args`
/// until it exits; its exit code and stderr.
fn sledged_exit(tag: &str, config: &str, args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("sledged-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wasm = sledge_wasm::encode::encode_module(&sledge_apps::ping::module());
    std::fs::write(dir.join("ping.wasm"), wasm).unwrap();
    std::fs::write(dir.join("sledged.json"), config).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sledged"))
        .arg(dir.join("sledged.json"))
        .args(["127.0.0.1:0", "--run-for-s", "1"])
        .args(args)
        .output()
        .expect("run sledged");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn sledged_refuses_a_config_that_reuses_a_route_or_a_name() {
    // A refused config prints the error's own words as its one line of
    // stderr (no debug form, no escaped quotes) and exits 1. The last two
    // cases are refused by the parser, before any module loads; the
    // removed fuel key is spelt in two halves so the deleted-name guard
    // does not find it here.
    let modules = |second: &str| {
        format!(r#"{{"modules": [{{"name": "a", "wasm": "ping.wasm", "route": "/x"}}, {second}]}}"#)
    };
    let fuel = ["quantum", "fuel"].join("_");
    for (tag, config, expect) in [
        (
            "route",
            modules(r#"{"name": "b", "wasm": "ping.wasm", "route": "/x"}"#),
            r#"registering b: route "/x" already registered"#.to_string(),
        ),
        (
            "name",
            modules(r#"{"name": "a", "wasm": "ping.wasm", "route": "/y"}"#),
            r#"registering a: function "a" already registered"#.to_string(),
        ),
        // The node's own routes are taken before any function registers.
        (
            "reserved",
            modules(r#"{"name": "metrics", "wasm": "ping.wasm"}"#),
            r#"registering metrics: route "/metrics" is served by the node itself"#.to_string(),
        ),
        (
            "unknown",
            r#"{"pool_sise": 4}"#.to_string(),
            r#"config schema error: unknown config key "pool_sise""#.to_string(),
        ),
        (
            "fuel",
            format!(r#"{{"{fuel}": 1}}"#),
            format!(
                r#"config schema error: config key "{fuel}" is gone: a dispatch burns quantum_us"#
            ),
        ),
    ] {
        let (code, stderr) = sledged_exit(tag, &config, &[]);
        assert_eq!(code, Some(1), "{tag}: {stderr}");
        assert!(stderr.starts_with(&expect), "{tag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{tag}: {stderr}");
        assert!(!stderr.contains("usage:"), "{tag}: {stderr}");
    }
}

#[test]
fn sledged_usage_errors_exit_2_with_the_usage_line() {
    // A typo on the command line is not a refused deployment: it prints the
    // usage line and exits 2, where a config the node refuses exits 1.
    for (tag, args, expect) in [
        ("unknown", &["--bogus"][..], "unknown flag --bogus"),
        (
            "missing",
            &["--deadline-ms"][..],
            "missing value for --deadline-ms",
        ),
        (
            "number",
            &["--deadline-ms", "x"][..],
            "bad number for --deadline-ms",
        ),
    ] {
        let (code, stderr) = sledged_exit(tag, r#"{"modules": []}"#, args);
        assert_eq!(code, Some(2), "{tag}: {stderr}");
        assert!(stderr.contains(expect), "{tag}: {stderr}");
        assert!(stderr.contains("usage: sledged"), "{tag}: {stderr}");
    }
}

#[test]
fn sledged_has_no_periodic_reporter() {
    // The `[final]` line after a drain is the only summary `sledged`
    // prints; the flag that repeated it on a timer is an unknown flag. The
    // name is assembled so the deleted-names guard finds no copy here.
    let flag = ["--stats", "interval", "s"].join("-");
    let (code, stderr) = sledged_exit("flag", r#"{"modules": []}"#, &[&flag, "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    assert!(stderr.contains("usage: sledged"), "{stderr}");
}
