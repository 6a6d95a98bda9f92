//! Table 3: churn — the cost of starting one GPS-EKF execution via
//! `fork + exec + wait` (the Nuclio per-invocation path) vs. a Sledge
//! sandbox (allocate linear memory + stacks + context, run, tear down).
//!
//! Usage: `table3_churn [--iters N]`

use awsm::{translate, EngineConfig, Instance, StepResult, Tier};
use sledge_apps::testutil::BufferHost;
use sledge_baseline::worker_child_main;
use sledge_bench::{baseline_function_table, fmt_dur, requests_per_point, LatencyStats};
use sledge_core::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let table = baseline_function_table();
    worker_child_main(&table);

    let mut iters = requests_per_point(2000, 10_000);
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

    let body = sledge_apps::gps_ekf::sample_input();
    let exe = std::env::current_exe().expect("current exe");

    // fork + exec + wait running the native GPS-EKF once per process.
    let mut fork_lat = Vec::with_capacity(iters);
    {
        use std::io::{Read, Write};
        use std::process::{Command, Stdio};
        for _ in 0..iters {
            let t0 = Instant::now();
            let mut child = Command::new(&exe)
                .env(sledge_baseline::WORKER_ENV, "gps_ekf")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn");
            child
                .stdin
                .take()
                .expect("stdin")
                .write_all(&body)
                .expect("write body");
            let mut out = Vec::new();
            child
                .stdout
                .take()
                .expect("stdout")
                .read_to_end(&mut out)
                .expect("read response");
            child.wait().expect("wait");
            fork_lat.push(t0.elapsed());
            assert!(!out.is_empty());
        }
    }
    let fork = LatencyStats::from_samples(fork_lat);

    // Sledge sandbox: instantiate + run + teardown (module pre-loaded).
    let module =
        Arc::new(translate(&sledge_apps::gps_ekf::module(), Tier::Optimized).expect("translate"));
    let mut sb_lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let mut inst =
            Instance::new(Arc::clone(&module), EngineConfig::default()).expect("instantiate");
        let mut host = BufferHost::new(body.clone());
        inst.invoke_export("main", &[]).expect("invoke");
        loop {
            match inst.run(&mut host, u64::MAX) {
                StepResult::Complete(_) => break,
                StepResult::Trapped(t) => panic!("{t}"),
                _ => continue,
            }
        }
        drop(inst); // teardown
        sb_lat.push(t0.elapsed());
    }
    let sandbox = LatencyStats::from_samples(sb_lat);

    // Instantiation-only cost (the function startup the paper quotes).
    let mut inst_lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let inst =
            Instance::new(Arc::clone(&module), EngineConfig::default()).expect("instantiate");
        inst_lat.push(t0.elapsed());
        drop(inst);
    }
    let inst_only = LatencyStats::from_samples(inst_lat);

    // The same churn through the full runtime (listener → deque → worker),
    // measured by the runtime's own per-phase histograms instead of a
    // client-side stopwatch: instantiation and end-to-end quantiles come
    // from Runtime::latency_report.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    let ekf = rt
        .register_module(
            FunctionConfig::new("gps_ekf"),
            &sledge_apps::gps_ekf::module(),
        )
        .expect("register gps_ekf");
    for _ in 0..iters {
        let done = rt.invoke(ekf, body.clone()).wait().expect("ekf");
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    let report = rt.latency_report();
    rt.shutdown();

    // The same stream again with the warm sandbox pool enabled: steady-state
    // requests acquire a recycled, template-reset instance instead of paying
    // a fresh instantiation.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        pool_size: 4,
        ..Default::default()
    });
    let ekf = rt
        .register_module(
            FunctionConfig::new("gps_ekf"),
            &sledge_apps::gps_ekf::module(),
        )
        .expect("register gps_ekf");
    for _ in 0..iters {
        let done = rt.invoke(ekf, body.clone()).wait().expect("ekf");
        assert!(matches!(done.outcome, Outcome::Success(_)));
    }
    let warm_report = rt.latency_report();
    let warm_pool = warm_report.pool;
    rt.shutdown();

    println!("# Table 3: churn for GPS-EKF ({iters} iterations)");
    println!("{:<36} {:>10} {:>10}", "", "99%", "Avg");
    println!(
        "{:<36} {:>10} {:>10}",
        "fork + exec + wait (native)",
        fmt_dur(fork.p99),
        fmt_dur(fork.avg)
    );
    println!(
        "{:<36} {:>10} {:>10}",
        "Sledge sandbox (create+run+teardown)",
        fmt_dur(sandbox.p99),
        fmt_dur(sandbox.avg)
    );
    println!(
        "{:<36} {:>10} {:>10}",
        "Sledge sandbox creation only",
        fmt_dur(inst_only.p99),
        fmt_dur(inst_only.avg)
    );
    let d = |ns: u64| fmt_dur(Duration::from_nanos(ns));
    let g = &report.global;
    println!(
        "{:<36} {:>10} {:>10}",
        "full runtime, internal total",
        d(g.total.quantile(0.99)),
        d(g.total.mean().unwrap_or(0)),
    );
    println!(
        "{:<36} {:>10} {:>10}",
        "full runtime, internal instantiation",
        d(g.instantiation.quantile(0.99)),
        d(g.instantiation.mean().unwrap_or(0)),
    );
    let w = &warm_report.global;
    println!(
        "{:<36} {:>10} {:>10}",
        "full runtime, warm-pool acquire",
        d(w.instantiation.quantile(0.99)),
        d(w.instantiation.mean().unwrap_or(0)),
    );
    println!(
        "# warm pool: {:.0}% hit rate ({} recycled)",
        warm_pool.hit_rate().unwrap_or(0.0) * 100.0,
        warm_pool.recycled
    );
    println!();
    println!(
        "# speedup (avg): {:.1}x",
        fork.avg.as_secs_f64() / sandbox.avg.as_secs_f64()
    );
    println!("# Paper: fork+exec+wait 487µs avg / 588µs p99; Sledge sandbox 61µs avg /");
    println!("#   146µs p99 — sandbox startup is an order of magnitude cheaper.");
}
