//! Multi-tenant fairness under overload: a latency-sensitive victim sharing
//! workers with a flooding antagonist, in three legs:
//!
//! 1. **baseline** — victim alone on an idle runtime (the latency floor).
//! 2. **overload, fairness off** — the antagonist floods the same workers
//!    with no admission control; the victim queues behind the flood.
//! 3. **overload, fairness on** — DWRR run queues, a work budget and
//!    priority 0 on the antagonist, and a global in-flight cap; the victim
//!    (priority 3, weight 8) should recover most of its baseline latency
//!    while the antagonist absorbs 429s.
//!
//! Usage: `fairness [--iters N]`

use sledge_bench::{fmt_dur, requests_per_point, LatencyStats};
use sledge_core::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Spin for `iters` (first 4 body bytes, LE), then respond one byte.
fn spin_module(name: &str) -> Module {
    let mut mb = ModuleBuilder::new(name);
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

/// Victim work: a short latency-sensitive spin per request.
const VICTIM_ITERS: u32 = 400_000;
/// Antagonist work: ~4x the victim per request, flooded from 4 clients.
const ANTAGONIST_ITERS: u32 = 1_600_000;
const ANTAGONIST_CLIENTS: usize = 4;

struct Leg {
    victim: LatencyStats,
    antagonist_ok: u64,
    antagonist_throttled: u64,
}

/// Drive `iters` sequential victim probes, optionally under an antagonist
/// flood, on a runtime built by `build`.
fn run_leg(build: impl Fn() -> (Runtime, VictimIds), iters: usize, flood: bool) -> Leg {
    let (rt, ids) = build();

    // Warm the victim path.
    for _ in 0..20 {
        let done = rt
            .invoke(ids.victim, VICTIM_ITERS.to_le_bytes().to_vec())
            .wait()
            .expect("warmup");
        assert!(
            matches!(done.outcome, Outcome::Success(_)),
            "{:?}",
            done.outcome
        );
    }

    let stop = AtomicBool::new(false);
    let ok = AtomicU64::new(0);
    let throttled = AtomicU64::new(0);
    let victim = std::thread::scope(|s| {
        if flood {
            for _ in 0..ANTAGONIST_CLIENTS {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let done = rt
                            .invoke(ids.antagonist, ANTAGONIST_ITERS.to_le_bytes().to_vec())
                            .wait()
                            .expect("antagonist completion");
                        match done.outcome {
                            Outcome::Success(_) => ok.fetch_add(1, Ordering::Relaxed),
                            Outcome::Throttled { retry_after, .. } => {
                                let n = throttled.fetch_add(1, Ordering::Relaxed);
                                // Cooperative client: honour a fraction of the
                                // hints so the flood stays a flood without
                                // busy-spinning the listener.
                                if n.is_multiple_of(16) {
                                    std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                                }
                                n
                            }
                            other => panic!("antagonist: {other:?}"),
                        };
                    }
                });
            }
            // Let the flood build a backlog before probing.
            std::thread::sleep(Duration::from_millis(50));
        }

        let mut lat = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            let done = rt
                .invoke(ids.victim, VICTIM_ITERS.to_le_bytes().to_vec())
                .wait()
                .expect("victim completion");
            assert!(
                matches!(done.outcome, Outcome::Success(_)),
                "victim must never be rejected: {:?}",
                done.outcome
            );
            lat.push(t0.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        LatencyStats::from_samples(lat)
    });
    rt.shutdown();
    Leg {
        victim,
        antagonist_ok: ok.load(Ordering::Relaxed),
        antagonist_throttled: throttled.load(Ordering::Relaxed),
    }
}

struct VictimIds {
    victim: sledge_core::FunctionId,
    antagonist: sledge_core::FunctionId,
}

fn build_runtime(fairness: bool) -> (Runtime, VictimIds) {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: Duration::from_millis(1),
        cost_units_per_us: 100,
        fairness,
        max_inflight: if fairness { 16 } else { 0 },
        ..Default::default()
    });
    let mut victim_cfg = FunctionConfig::new("victim");
    let mut antagonist_cfg = FunctionConfig::new("antagonist");
    if fairness {
        victim_cfg.priority = 3;
        victim_cfg.weight = 8;
        antagonist_cfg.priority = 0;
        antagonist_cfg.weight = 1;
        // 300 000 cost units per wall second (3 000 µs/s at this node's
        // 100 units/µs; ~2 worker-ms at the default rate): a strict budget
        // against a flood that wants two full cores.
        antagonist_cfg.budget_us_per_s = Some(3_000);
    }
    let victim = rt
        .register_module(victim_cfg, &spin_module("victim"))
        .expect("register victim");
    let antagonist = rt
        .register_module(antagonist_cfg, &spin_module("antagonist"))
        .expect("register antagonist");
    (rt, VictimIds { victim, antagonist })
}

fn main() {
    let mut iters = requests_per_point(200, 1000);
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args[i + 1].parse().expect("--iters N");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    println!("# Multi-tenant fairness under overload ({iters} victim probes/leg)");
    println!(
        "# victim: {VICTIM_ITERS}-iter spin; antagonist: {ANTAGONIST_ITERS}-iter spin x {ANTAGONIST_CLIENTS} closed-loop clients"
    );
    println!(
        "{:<26} {:>10} {:>10} {:>12} {:>12}",
        "", "p50", "p99", "antag ok", "antag 429"
    );

    let legs: [(&str, bool, bool); 3] = [
        ("baseline (idle)", false, false),
        ("overload, fairness off", false, true),
        ("overload, fairness on", true, true),
    ];
    let mut baseline_p99 = None;
    let mut off_p99 = None;
    for (name, fairness, flood) in legs {
        let leg = run_leg(|| build_runtime(fairness), iters, flood);
        println!(
            "{:<26} {:>10} {:>10} {:>12} {:>12}",
            name,
            fmt_dur(leg.victim.p50),
            fmt_dur(leg.victim.p99),
            leg.antagonist_ok,
            leg.antagonist_throttled,
        );
        match (fairness, flood) {
            (false, false) => baseline_p99 = Some(leg.victim.p99),
            (false, true) => off_p99 = Some(leg.victim.p99),
            (true, _) => {
                if let (Some(base), Some(off)) = (baseline_p99, off_p99) {
                    let blowup = off.as_secs_f64() / base.as_secs_f64();
                    let recovered = off.as_secs_f64() / leg.victim.p99.as_secs_f64();
                    println!();
                    println!(
                        "# fairness-off blew victim p99 up {blowup:.1}x over baseline; \
                         fairness-on recovered {recovered:.1}x of that"
                    );
                }
                assert!(
                    leg.antagonist_throttled > 0,
                    "budget + cap produced no 429s under flood"
                );
            }
        }
    }
    println!();
    println!("# DWRR weights (8:1) bound the antagonist's share of contended workers;");
    println!("# its budget and priority-0 class convert overload into 429 back-pressure");
    println!("# instead of victim queue delay.");
}
