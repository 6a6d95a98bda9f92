//! The benchmark binaries start, run their workloads and exit cleanly.

/// `instantiation_latency` drives cold and warm streams through real
/// runtimes and asserts, among other things, that the effect certificate
/// elides the reset of its pure guest; any failed assertion or completion
/// exits non-zero.
#[test]
fn instantiation_latency_runs_to_completion() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_instantiation_latency"))
        .args(["--iters", "50"])
        .output()
        .expect("spawn instantiation_latency");
    assert!(
        out.status.success(),
        "instantiation_latency failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pure-compute"), "{stdout}");
}
