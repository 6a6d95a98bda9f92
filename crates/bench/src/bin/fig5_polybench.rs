//! Figure 5 + Table 1: PolyBench/C execution time of the one engine
//! (Sledge+aWsm), normalized to native.
//!
//! The paper's other runtimes (Wasmer, Lucet, WAVM, Node.js) have no
//! stand-in here, and its guard-page, explicit-check and MPX variants are
//! one trapping semantics, so neither are separate rows (EXPERIMENTS.md,
//! Figure 5).
//!
//! Usage: `fig5_polybench [--iters N] [--kernels a,b,c]`

use sledge_apps::polybench::{kernels, Kernel, PreparedKernel};
use sledge_bench::{geomean, mean, preempt_latencies, stddev};
use std::time::Instant;

fn time_native(k: &Kernel, iters: u32) -> f64 {
    // Warm up once; then best-effort mean over iters.
    let mut sink = (k.native)();
    let t0 = Instant::now();
    for _ in 0..iters {
        sink += (k.native)();
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    std::hint::black_box(sink);
    per
}

fn time_guest(k: &Kernel, iters: u32) -> f64 {
    // Translate once (the paper's AoT step is off the measured path), then
    // time instantiation + execution per iteration.
    let prepared = PreparedKernel::new(k);
    let mut sink = prepared.run(); // warm-up
    let t0 = Instant::now();
    for _ in 0..iters {
        sink += prepared.run();
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    std::hint::black_box(sink);
    per
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut iters: u32 = 15; // the paper's methodology (15 iterations)
    let mut filter: Option<Vec<String>> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args[i + 1].parse().expect("--iters N");
                i += 2;
            }
            "--kernels" => {
                filter = Some(args[i + 1].split(',').map(str::to_string).collect());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let ks: Vec<Kernel> = kernels()
        .into_iter()
        .filter(|k| {
            filter
                .as_ref()
                .is_none_or(|f| f.iter().any(|n| n == k.name))
        })
        .collect();

    println!("# Figure 5: PolyBench/C normalized (vs native) execution time");
    println!("# {} kernels, {} iterations each", ks.len(), iters);
    println!("{:<16} {:>10} {:>28}", "kernel", "native", "Sledge+aWsm");

    // Per kernel: guest / native.
    let mut slowdowns = Vec::new();
    for k in &ks {
        let native = time_native(k, iters);
        let ratio = time_guest(k, iters) / native;
        slowdowns.push(ratio);
        println!("{:<16} {:>9.1}µs {:>27.2}x", k.name, native * 1e6, ratio);
    }

    println!();
    println!("# Table 1: % slowdown vs native (AM / GM of per-kernel ratios, SD)");
    println!(
        "{:<30} {:>14} {:>14} {:>10}",
        "runtime", "Slowdown(AM)", "Slowdown(GM)", "SD"
    );
    let pct: Vec<f64> = slowdowns.iter().map(|r| (r - 1.0) * 100.0).collect();
    println!(
        "{:<30} {:>13.1}% {:>13.1}% {:>10.2}",
        "Sledge+aWsm",
        mean(&pct),
        (geomean(&slowdowns) - 1.0) * 100.0,
        stddev(&pct)
    );
    println!();
    println!("# Paper (x86_64): aWsm 13.4% AM / 9.9% GM; bounds-chk 62.7%/38.4%;");
    println!("#   mpx 75.1%/51.6%; Wasmer 149.8%/101.6%; WAVM 28.1%/20.5%.");

    // Cost-model addendum: the preemption-latency certificate each kernel
    // was registered with, against what a live preemption actually costs.
    println!();
    println!("# Cost model: certified gap, preempt latency");
    println!(
        "{:<16} {:>10} {:>8} {:>8} {:>14}",
        "kernel", "gap(units)", "checks", "splits", "max preempt"
    );
    for k in &ks {
        let prepared = PreparedKernel::new(k);
        let cost = &prepared.module().analysis.cost;
        let lats = preempt_latencies(&prepared, 5);
        let max = lats.iter().max().copied().unwrap_or_default();
        println!(
            "{:<16} {:>10} {:>8} {:>8} {:>12.2}µs",
            k.name,
            cost.max_gap,
            cost.checks,
            cost.splits,
            max.as_secs_f64() * 1e6,
        );
    }
}
