//! Figure 5 + Table 1: PolyBench/C execution time across Wasm runtime
//! configurations, normalized to native.
//!
//! Paper configs → this reproduction (see DESIGN.md §4):
//!   Sledge+aWsm            → Optimized tier + vm-guard bounds
//!   Sledge+aWsm-bounds-chk → Optimized tier + software bounds
//!   Sledge+aWsm-mpx        → Optimized tier + emulated-MPX bounds
//!   (static, no checks)    → Optimized tier + no-checks
//!   WAVM-class             → Optimized tier + software bounds (LLVM JIT class)
//!   Wasmer/Lucet-class     → Naive tier + vm-guard (Cranelift class)
//!   Node-class             → Naive tier + software bounds
//!
//! Usage: `fig5_polybench [--iters N] [--kernels a,b,c]`

use awsm::{BoundsStrategy, Tier};
use sledge_apps::polybench::{kernels, Kernel, PreparedKernel};
use sledge_bench::{geomean, mean, preempt_latencies, stddev};
use std::time::Instant;

const CONFIGS: &[(&str, Tier, BoundsStrategy)] = &[
    ("Sledge+aWsm", Tier::Optimized, BoundsStrategy::GuardRegion),
    ("aWsm-bounds-chk", Tier::Optimized, BoundsStrategy::Software),
    ("aWsm-mpx", Tier::Optimized, BoundsStrategy::MpxEmulated),
    ("aWsm-no-checks", Tier::Optimized, BoundsStrategy::None),
    (
        "naive-vm (Cranelift-class)",
        Tier::Naive,
        BoundsStrategy::GuardRegion,
    ),
    (
        "naive-chk (Node-class)",
        Tier::Naive,
        BoundsStrategy::Software,
    ),
];

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

fn time_guest(k: &Kernel, tier: Tier, bounds: BoundsStrategy, iters: u32) -> f64 {
    // Translate once (the paper's AoT step is off the measured path), then
    // time instantiation + execution per iteration.
    let prepared = PreparedKernel::new(k, tier, bounds);
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
    print!("{:<16} {:>10}", "kernel", "native");
    for (name, _, _) in CONFIGS {
        print!(" {:>28}", name);
    }
    println!();

    // slowdowns[config][kernel] = guest/native.
    let mut slowdowns: Vec<Vec<f64>> = vec![Vec::new(); CONFIGS.len()];
    for k in &ks {
        let native = time_native(k, iters);
        print!("{:<16} {:>9.1}µs", k.name, native * 1e6);
        for (ci, (_, tier, bounds)) in CONFIGS.iter().enumerate() {
            let guest = time_guest(k, *tier, *bounds, iters);
            let ratio = guest / native;
            slowdowns[ci].push(ratio);
            print!(" {:>27.2}x", ratio);
        }
        println!();
    }

    println!();
    println!("# Table 1: % slowdown vs native (AM / GM of per-kernel ratios, SD)");
    println!(
        "{:<30} {:>14} {:>14} {:>10}",
        "runtime", "Slowdown(AM)", "Slowdown(GM)", "SD"
    );
    for (ci, (name, _, _)) in CONFIGS.iter().enumerate() {
        let pct: Vec<f64> = slowdowns[ci].iter().map(|r| (r - 1.0) * 100.0).collect();
        let ratios = &slowdowns[ci];
        println!(
            "{:<30} {:>13.1}% {:>13.1}% {:>10.2}",
            name,
            mean(&pct),
            (geomean(ratios) - 1.0) * 100.0,
            stddev(&pct)
        );
    }
    println!();
    println!("# Paper (x86_64): aWsm 13.4% AM / 9.9% GM; bounds-chk 62.7%/38.4%;");
    println!("#   mpx 75.1%/51.6%; Wasmer 149.8%/101.6%; WAVM 28.1%/20.5%.");
    println!("# Expected shape: vm-guard < software < mpx; optimized << naive.");

    // Cost-model addendum: the preemption-latency certificate each kernel
    // was registered with, against what a live preemption actually costs.
    println!();
    println!("# Cost model: certified gap, preempt latency");
    println!(
        "{:<16} {:>10} {:>8} {:>8} {:>14}",
        "kernel", "gap(units)", "checks", "splits", "max preempt"
    );
    for k in &ks {
        let prepared = PreparedKernel::new(k, Tier::Optimized, BoundsStrategy::GuardRegion);
        let cost = prepared
            .module()
            .analysis
            .cost
            .as_ref()
            .expect("translation attaches a cost certificate");
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
