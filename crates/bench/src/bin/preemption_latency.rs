//! Preemption latency: observed preempt-flag-to-return delay vs the
//! certified bound from the static cost model.
//!
//! For each PolyBench kernel this measures, per preemption:
//!   - **certified bound** — the module's preemption-latency certificate
//!     (`analysis.cost.max_gap`, in cost units), converted to wall time
//!     through a per-kernel calibration of cost units per microsecond
//!     (total `fuel_used` / total execution time of an uninterrupted run);
//!   - **observed slice max** — deterministic, single-threaded: each
//!     `run()` call is granted exactly the certified gap of fuel, so one
//!     call executes at most one check-free segment; the longest call is
//!     the observed worst-case preemption latency, free of OS noise;
//!   - **observed flag latency** — wall time from a second thread setting
//!     the instance's preempt flag to `Instance::run` returning
//!     `Preempted`.
//!
//! The flag latency decomposes as *cross-thread signal delivery* (how
//! long until the store is visible and the engine thread is running —
//! pure OS/hardware, measured separately as the "signal floor" with no
//! guest involved) plus *guest work to the next check*, which is what the
//! certificate bounds and the slice measurement isolates. Consistency
//! with the certificate therefore means `slice max ≈ certified bound`
//! (plus per-call harness overhead); flag-latency tails above the floor
//! are scheduler noise, not certificate violations — which is exactly why
//! the runtime ends every quantum by fuel, `quantum_us` ×
//! `cost_units_per_us`, rather than by a wall-clock tick.
//!
//! Usage: `preemption_latency [--kernels a,b,c] [--preemptions N] [--calibrate]`
//! `--calibrate` prints only the cost-rate table (units/µs per kernel and
//! the suggested `cost_units_per_us` setting).

use awsm::Tier;
use sledge_apps::polybench::{kernels, Kernel, PreparedKernel};
use sledge_bench::{calibrate_kernel, preempt_latencies, LatencyStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic slice measurement, no second thread involved: grant each
/// `run()` call exactly `fuel_per_slice` units. Charges are prepaid at
/// budget checks, so one call executes at most `fuel_per_slice` units of
/// guest work before returning — each call's duration is one observed
/// check-free slice, with no OS scheduling in the measurement path.
///
/// The p99 over thousands of slices is the observed analogue of the
/// certificate: the handful of slices containing `memory.grow` or a host
/// call do O(pages)/O(host) wall-clock work regardless of their static
/// weight (the certificate reports such gaps separately as
/// `max_host_gap`), and land in the max, not the p99.
fn slice_times(prepared: &PreparedKernel, fuel_per_slice: u64) -> Vec<Duration> {
    let mut inst =
        awsm::Instance::new(Arc::clone(prepared.module()), prepared.config()).expect("inst");
    let mut host = sledge_apps::testutil::BufferHost::new(Vec::new());
    inst.invoke_export("main", &[]).expect("invoke");
    let mut slices = Vec::new();
    loop {
        let t0 = Instant::now();
        let r = inst.run(&mut host, fuel_per_slice);
        slices.push(t0.elapsed());
        match r {
            awsm::StepResult::Complete(_) => return slices,
            awsm::StepResult::Trapped(t) => panic!("kernel trapped: {t}"),
            _ => continue,
        }
    }
}

/// Cross-thread signal-delivery floor: the same set-flag/observe protocol
/// the kernel measurement uses, with no guest in between — one thread
/// stores a timestamped flag, the other yield-polls and acknowledges.
/// Everything a sample shows above this floor is attributable to guest
/// work between budget checks (the quantity the certificate bounds).
fn signal_floor(samples: usize) -> Vec<Duration> {
    let flag = Arc::new(AtomicBool::new(false));
    let set_at = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();
    let setter = {
        let (flag, set_at, done) = (Arc::clone(&flag), Arc::clone(&set_at), Arc::clone(&done));
        std::thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
                if done.load(Ordering::Acquire) {
                    return;
                }
                set_at.store(epoch.elapsed().as_nanos() as u64 | 1, Ordering::Release);
                flag.store(true, Ordering::Release);
                while flag.load(Ordering::Acquire) && !done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        })
    };
    let mut lats = Vec::with_capacity(samples);
    while lats.len() < samples {
        if flag.swap(false, Ordering::AcqRel) {
            let now = epoch.elapsed().as_nanos() as u64;
            let t_set = set_at.swap(0, Ordering::AcqRel);
            if t_set != 0 {
                lats.push(Duration::from_nanos(now.saturating_sub(t_set)));
            }
        } else {
            std::thread::yield_now();
        }
    }
    done.store(true, Ordering::Release);
    setter.join().expect("setter thread");
    lats
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut filter: Option<Vec<String>> = None;
    let mut preemptions: usize = 50;
    let mut calibrate_only = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--kernels" => {
                filter = Some(args[i + 1].split(',').map(str::to_string).collect());
                i += 2;
            }
            "--preemptions" => {
                preemptions = args[i + 1].parse().expect("--preemptions N");
                i += 2;
            }
            "--calibrate" => {
                calibrate_only = true;
                i += 1;
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
    assert!(
        !ks.is_empty(),
        "no kernels matched --kernels (names have no pb- prefix, e.g. gemm,mvt)"
    );

    println!("# Preemption latency vs certified bound (cost model)");
    if !calibrate_only {
        let f = LatencyStats::from_samples(signal_floor(50));
        println!(
            "# signal floor (no guest): p50 {:.2}µs, p99 {:.2}µs",
            f.p50.as_secs_f64() * 1e6,
            f.p99.as_secs_f64() * 1e6
        );
    }
    if calibrate_only {
        println!(
            "{:<16} {:>12} {:>14} {:>12}",
            "kernel", "exec", "units", "units/µs"
        );
    } else {
        println!(
            "{:<16} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "kernel",
            "gap(units)",
            "units/µs",
            "certified",
            "slice p99",
            "slice max",
            "flag p50",
            "flag p99",
            "flag max"
        );
    }

    let mut rates = Vec::new();
    let mut worst_ratio: f64 = 0.0;
    for k in &ks {
        let prepared = PreparedKernel::new(k, Tier::Optimized);
        let cost = &prepared.module().analysis.cost;
        let (exec, units) = calibrate_kernel(&prepared);
        let rate = units as f64 / (exec.as_nanos() as f64 / 1e3).max(1.0);
        rates.push(rate);
        if calibrate_only {
            println!(
                "{:<16} {:>10.1}ms {:>14} {:>12.1}",
                k.name,
                exec.as_secs_f64() * 1e3,
                units,
                rate
            );
            continue;
        }
        // Certified wall-clock bound: worst check-free gap at this kernel's
        // measured cost rate.
        let certified = Duration::from_nanos((cost.max_gap as f64 / rate * 1e3) as u64);
        let slices =
            LatencyStats::from_samples(slice_times(&prepared, u64::from(cost.max_gap.max(1))));
        let stats = LatencyStats::from_samples(preempt_latencies(&prepared, preemptions));
        worst_ratio =
            worst_ratio.max(slices.p99.as_secs_f64() / certified.as_secs_f64().max(1e-12));
        println!(
            "{:<16} {:>10} {:>10.1} {:>11.2}µs {:>9.2}µs {:>9.2}µs {:>9.2}µs {:>9.2}µs {:>9.2}µs",
            k.name,
            cost.max_gap,
            rate,
            certified.as_secs_f64() * 1e6,
            slices.p99.as_secs_f64() * 1e6,
            slices.max.as_secs_f64() * 1e6,
            stats.p50.as_secs_f64() * 1e6,
            stats.p99.as_secs_f64() * 1e6,
            stats.max.as_secs_f64() * 1e6,
        );
    }

    println!();
    let gm = sledge_bench::geomean(&rates);
    println!("# geomean cost rate: {gm:.1} units/µs");
    println!(
        "# suggested config: {{\"cost_units_per_us\": {}}}",
        gm.round().max(1.0) as u64
    );
    if !calibrate_only {
        println!(
            "# worst slice-p99/certified ratio: {worst_ratio:.2} (deterministic; ~1 means \
             observed check-free slices match the certificate, excess is per-call \
             harness overhead; slice max additionally catches memory.grow/host slices)"
        );
        println!(
            "# flag columns additionally include cross-thread signal delivery — \
             compare against the floor above, not the certificate."
        );
    }
}
