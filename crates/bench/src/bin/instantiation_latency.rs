//! Instantiation latency: cold starts vs. warm-pool acquires, per app.
//!
//! For each workload the same invocation stream is driven through two
//! runtimes — one with the sandbox pool disabled (every request pays a full
//! template-based instantiation) and one with a recycling pool, warmed by
//! one request before the stream (so every request of the stream pops a
//! reset instance). Latencies come from the
//! runtime's own `instantiation`-phase histograms, so the warm number is the
//! true acquire cost as accounted on the hot path, not a client stopwatch.
//!
//! A second section isolates the *reset* cost a recycled sandbox pays at
//! retirement, per strategy: the classic high-water-mark reset against the
//! fully elided reset the effect certificate derives for a `Pure` entry
//! point.
//!
//! Usage: `instantiation_latency [--iters N]`

use awsm::{translate, EngineConfig, Instance, NullHost, ResetPolicy, Tier};
use sledge_bench::{fmt_dur, requests_per_point};
use sledge_core::{
    FunctionConfig, LatencyReport, Outcome, PoolStatsSnapshot, Runtime, RuntimeConfig,
};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;
use std::time::{Duration, Instant};

const POOL: usize = 4;

/// `iters` invocations on a node whose pools hold `pool_size`. With a pool,
/// one warm-up request fills it first, so the stream measures steady-state
/// acquires: the returned pool counters cover the stream alone, and the
/// warm-up is one cold sample among the histograms' `iters + 1`.
fn run_stream(
    pool_size: usize,
    module: &Module,
    body: &[u8],
    iters: usize,
) -> (LatencyReport, PoolStatsSnapshot) {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        pool_size,
        ..Default::default()
    });
    let f = rt
        .register_module(FunctionConfig::new("bench"), module)
        .expect("register");
    let invoke = || {
        let done = rt.invoke(f, body.to_vec()).wait().expect("completion");
        assert!(matches!(done.outcome, Outcome::Success(_)));
    };
    if pool_size > 0 {
        invoke();
    }
    let warmed = rt.latency_report().pool;
    for _ in 0..iters {
        invoke();
    }
    let report = rt.latency_report();
    let mut pool = report.pool;
    rt.shutdown();
    pool.hits -= warmed.hits;
    pool.misses -= warmed.misses;
    (report, pool)
}

/// Pure compute over locals against a 4 KiB template: provably no store, no
/// grow — the derived policy skips the memory reset entirely.
fn pure_module() -> Module {
    let mut mb = ModuleBuilder::new("pure");
    mb.memory(2, Some(2));
    mb.data(0, vec![7u8; 4096]);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let i = f.local(ValType::I32);
    let acc = f.local(ValType::I32);
    f.push(for_loop(
        i,
        i32c(0),
        lt_s(local(i), i32c(64)),
        1,
        vec![set(acc, add(local(acc), mul(local(i), i32c(3))))],
    ));
    f.push(ret(Some(local(acc))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

/// Mean ns per `reset_with(policy)` across `iters` dirty-run/reset cycles
/// (only the reset is on the clock).
fn time_resets(cm: &Arc<awsm::CompiledModule>, policy: ResetPolicy, iters: usize) -> u64 {
    let mut inst = Instance::new(Arc::clone(cm), EngineConfig::default()).unwrap();
    let mut total = Duration::ZERO;
    for _ in 0..iters.max(1) {
        inst.call_complete("main", &[], &mut NullHost)
            .expect("bench guest must complete");
        let t0 = Instant::now();
        inst.reset_with(policy).expect("reset");
        total += t0.elapsed();
    }
    (total.as_nanos() / iters.max(1) as u128) as u64
}

fn main() {
    let mut iters = requests_per_point(500, 5_000);
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

    let apps: Vec<(&str, Module, Vec<u8>)> = vec![
        ("ping", sledge_apps::ping::module(), Vec::new()),
        (
            "echo-8KiB",
            sledge_apps::echo::module(),
            sledge_apps::echo::payload(8 * 1024),
        ),
        (
            "gps_ekf",
            sledge_apps::gps_ekf::module(),
            sledge_apps::gps_ekf::sample_input(),
        ),
        (
            "cifar10",
            sledge_apps::cifar10::module(),
            sledge_apps::cifar10::sample_input(),
        ),
    ];

    println!("# Instantiation latency: cold start vs warm-pool acquire ({iters} iterations/app)");
    println!(
        "# cold: pool disabled; warm: pool_size={POOL}, warmed by one request \
         (in-runtime instantiation-phase histograms)"
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "app", "cold p50", "cold p99", "warm p50", "warm p99", "speedup", "hit rate"
    );

    let d = |ns: u64| fmt_dur(Duration::from_nanos(ns));
    for (name, module, body) in &apps {
        let (cold, _) = run_stream(0, module, body, iters);
        let (warm, pool) = run_stream(POOL, module, body, iters);
        let cold_p50 = cold.global.instantiation.quantile(0.5);
        let cold_p99 = cold.global.instantiation.quantile(0.99);
        let warm_p50 = warm.global.instantiation.quantile(0.5);
        let warm_p99 = warm.global.instantiation.quantile(0.99);
        let speedup = cold_p50 as f64 / warm_p50.max(1) as f64;
        let hit_rate = pool.hit_rate().unwrap_or(0.0) * 100.0;
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>8.1}x {:>8.1}%",
            name,
            d(cold_p50),
            d(cold_p99),
            d(warm_p50),
            d(warm_p99),
            speedup,
            hit_rate,
        );
    }
    println!();
    println!("# A warm acquire is a LIFO pop of an instance reset at retirement, so its");
    println!("# cost is independent of linear-memory size and data-segment weight, while");
    println!("# a cold start pays allocation plus template copy for every request.");

    let reset_iters = iters.min(2_000);
    println!();
    println!("# Reset strategy at recycle (mean ns/reset over {reset_iters} dirty-run cycles;");
    println!("# \"derived\" is the policy the effect certificate picks for the workload)");
    println!(
        "{:<14} {:>10} {:>12} {:>10}   derived policy",
        "workload", "hwm", "certified", "speedup"
    );
    let name = "pure-compute";
    let cm = Arc::new(translate(&pure_module(), Tier::Optimized).expect("translate"));
    let policy = cm.reset_policy("main");
    assert_eq!(
        policy,
        ResetPolicy::Elide,
        "{name}: certificate failed to beat the default policy"
    );
    let hwm_ns = time_resets(&cm, ResetPolicy::HighWater, reset_iters);
    let cert_ns = time_resets(&cm, policy, reset_iters);
    println!(
        "{:<14} {:>10} {:>12} {:>9.1}x   elided",
        name,
        hwm_ns,
        cert_ns,
        hwm_ns as f64 / cert_ns.max(1) as f64,
    );
    println!();
    println!("# The high-water reset re-zeroes every byte past the template the run may");
    println!("# have touched; a Pure entry point skips the memory reset altogether.");
}
