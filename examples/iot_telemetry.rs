//! IoT telemetry scenario (the paper's intro motivation): a fleet of
//! simulated GPS devices streams fixes to the edge node; each request runs
//! one GPS-EKF predict/update cycle in a sandbox and returns the filter
//! state, which the device carries to its next request.
//!
//! Run with: `cargo run --release --example iot_telemetry`

use sledge::apps::gps_ekf;
use sledge::runtime::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
use std::time::Instant;

const DEVICES: usize = 16;
const FIXES_PER_DEVICE: usize = 50;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rt = Runtime::new(RuntimeConfig::default());
    let ekf = rt.register_module(FunctionConfig::new("gps_ekf"), &gps_ekf::module())?;

    let t0 = Instant::now();
    let results: Vec<(usize, f64)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for dev in 0..DEVICES {
            let rt = &rt;
            handles.push(s.spawn(move || {
                // Each device starts from the same prior but observes its own
                // trajectory (a drifting target).
                let mut state = gps_ekf::sample_input();
                for step in 0..FIXES_PER_DEVICE {
                    // Device-specific measurement: 4 pseudo-positions.
                    let z: Vec<u8> = (0..4)
                        .flat_map(|k| {
                            let v = dev as f64 + 0.1 * step as f64 + k as f64;
                            v.to_le_bytes()
                        })
                        .collect();
                    // state = x | P (from previous reply); append z.
                    let request = [&state[..8 * (8 + 64)], &z[..]].concat();
                    let done = rt.invoke(ekf, request).wait().expect("runtime alive");
                    match done.outcome {
                        Outcome::Success(body) => state = body,
                        other => panic!("device {dev}: {other:?}"),
                    }
                }
                // Final estimated first position.
                let pos0 = f64::from_le_bytes(state[0..8].try_into().expect("8 bytes"));
                (dev, pos0)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("device"))
            .collect()
    });
    let elapsed = t0.elapsed();

    for (dev, pos0) in &results {
        // After 50 updates with measurement ≈ dev + 0.1·step, the filter
        // should track near the last measurement.
        println!("device {dev:>2}: estimated pos[0] = {pos0:8.3}");
        assert!(
            (pos0 - (*dev as f64 + 0.1 * (FIXES_PER_DEVICE - 1) as f64)).abs() < 2.0,
            "filter diverged for device {dev}"
        );
    }
    let total = DEVICES * FIXES_PER_DEVICE;
    println!(
        "\n{total} EKF invocations across {DEVICES} devices in {elapsed:?} \
         ({:.0} invocations/s)",
        total as f64 / elapsed.as_secs_f64()
    );
    let stats = rt.latency_report().stats;
    println!(
        "runtime stats: {} completed, {} preemptions, {} steals",
        stats.completed, stats.preemptions, stats.steals
    );
    rt.shutdown();
    Ok(())
}
