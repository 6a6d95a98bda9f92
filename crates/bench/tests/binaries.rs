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

/// `loadgen` drives pipelined keep-alive load at a node that also parks a
/// herd of idle connections: the listener alternates between its busy
/// poll and its idle blocking wait throughout. `loadgen` exits non-zero if
/// any request fails or comes back non-2xx.
#[test]
fn loadgen_drives_pipelined_keep_alive_load() {
    use sledge_core::{FunctionConfig, Runtime, RuntimeConfig};
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    rt.register_module(FunctionConfig::new("echo"), &sledge_apps::echo::module())
        .unwrap();
    let addr = rt.http_addr().unwrap().to_string();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", &addr, "--route", "/echo", "--conns", "8"])
        .args(["--pipeline", "4", "--secs", "2", "--idle-conns", "200"])
        .output()
        .expect("spawn loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadgen failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(rt.connection_stats().accepted > 0);
    let metrics = sledge_http::HttpClient::new(rt.http_addr().unwrap())
        .request("GET", "/metrics", &[], b"")
        .expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    let metrics = String::from_utf8_lossy(&metrics.body);
    for family in ["sledge_http_requests_total", "sledge_connections_active"] {
        assert!(metrics.contains(family), "no {family} in\n{metrics}");
    }
    rt.shutdown();
}
