//! Scheduler ablation (§3.4): quantify what the paper's preemptive
//! round-robin buys over run-to-completion (an unbounded quantum,
//! `Duration::MAX`), and how the quantum length trades scheduling overhead
//! against short-request tail latency.
//!
//! Workload: a mix of long CPU-bound requests (`lpd`, whose fuel is over
//! twice the longest round-robin row's dispatch budget, so every row cuts
//! it into quanta) and a stream of short requests on a fixed worker count;
//! reports short-request latency percentiles and aggregate throughput per
//! configuration.
//!
//! Usage: `ablation_scheduler [--shorts N]`

use sledge_bench::{fmt_dur, LatencyStats};
use sledge_core::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

/// Cost units one `lpd` request burns on its sample input.
fn hog_fuel() -> u64 {
    let module = awsm::translate(&sledge_apps::lpd::module(), awsm::Tier::Optimized);
    let module = std::sync::Arc::new(module.expect("translate lpd"));
    let mut inst = awsm::Instance::new(module, Default::default()).expect("instantiate lpd");
    let mut host = sledge_apps::testutil::BufferHost::new(sledge_apps::lpd::sample_input());
    inst.call_complete("main", &[], &mut host)
        .expect("lpd runs");
    inst.fuel_used()
}

fn run_config(label: &str, quantum: Duration, shorts: usize) -> (String, LatencyStats, Duration) {
    let config = RuntimeConfig {
        workers: 2.min(sledge_core::num_cpus()),
        // Each row's fuel budget per dispatch is derived from its quantum
        // (an unbounded one saturates), so a row's label is its quantum.
        quantum,
        ..Default::default()
    };
    let rt = Runtime::new(config);
    let spin = rt
        .register_module(FunctionConfig::new("spin"), &sledge_apps::lpd::module())
        .expect("register spin");
    let ekf = rt
        .register_module(FunctionConfig::new("ekf"), &sledge_apps::gps_ekf::module())
        .expect("register ekf");

    // Background hogs: continuous medium-length compute requests.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hog_count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let wall0 = Instant::now();
    let hog_body = sledge_apps::lpd::sample_input();
    let lat = std::thread::scope(|s| {
        for _ in 0..4 {
            let rt = &rt;
            let stop = std::sync::Arc::clone(&stop);
            let hog_count = std::sync::Arc::clone(&hog_count);
            let hog_body = &hog_body;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let done = rt.invoke(spin, hog_body.clone()).wait();
                    if matches!(
                        done.map(|c| matches!(c.outcome, Outcome::Success(_))),
                        Some(true)
                    ) {
                        hog_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        // Foreground: short EKF requests, one at a time (latency probe).
        let body = sledge_apps::gps_ekf::sample_input();
        let mut lats = Vec::with_capacity(shorts);
        for _ in 0..shorts {
            let t0 = Instant::now();
            let done = rt.invoke(ekf, body.clone()).wait().expect("completion");
            assert!(matches!(done.outcome, Outcome::Success(_)));
            lats.push(t0.elapsed());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        LatencyStats::from_samples(lats)
    });
    let wall = wall0.elapsed();
    let hogs = hog_count.load(std::sync::atomic::Ordering::Relaxed);
    rt.shutdown();
    (
        format!(
            "{label:<26} short p50 {:>9} p99 {:>9} max {:>9} | {:>5} hog completions",
            fmt_dur(lat.p50),
            fmt_dur(lat.p99),
            fmt_dur(lat.max),
            hogs
        ),
        lat,
        wall,
    )
}

fn main() {
    let mut shorts = 200usize;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--shorts" => {
                shorts = args[i + 1].parse().expect("--shorts N");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    println!("# Scheduler ablation: short-request latency behind CPU hogs");
    let hog = hog_fuel();
    println!("# ({shorts} short EKF probes; 4 closed-loop lpd hog clients, {hog} units each)");
    let configs = [
        ("run-to-completion", Duration::MAX),
        ("preemptive-rr 1ms", Duration::from_millis(1)),
        ("preemptive-rr 5ms (paper)", Duration::from_millis(5)),
        ("preemptive-rr 20ms", Duration::from_millis(20)),
    ];
    for (label, quantum) in configs {
        // A hog that fits in two dispatches would make a row read as
        // run-to-completion.
        let budget = RuntimeConfig {
            quantum,
            ..Default::default()
        }
        .dispatch_fuel();
        assert!(
            quantum == Duration::MAX || hog > 2 * budget,
            "{label}: a {hog}-unit hog fits in two {budget}-unit dispatches"
        );
        let (line, _, _) = run_config(label, quantum, shorts);
        println!("{line}");
    }
    println!();
    println!("# Expected shape (§3.4): RTC shows head-of-line blocking on short");
    println!("#   requests; shorter quanta tighten the tail at the cost of more");
    println!("#   preemptions (lower hog throughput).");
}
