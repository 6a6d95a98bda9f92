//! The benchmark binaries start, run their workloads and exit cleanly.

/// `instantiation_latency` drives cold and warm streams through real
/// runtimes and asserts, among other things, that the effect certificate
/// elides the reset of its pure guest; any failed assertion or completion
/// exits non-zero.
#[test]
fn instantiation_latency_runs_to_completion() {
    let args = ["--iters", "50"];
    let stdout = run_ok(env!("CARGO_BIN_EXE_instantiation_latency"), &args);
    assert!(stdout.contains("pure-compute"), "{stdout}");
}

/// `table3_churn` times fork + exec + wait against sandboxes, then reads a
/// cold and a warm-pool runtime's reports.
#[test]
fn table3_churn_runs_to_completion() {
    let stdout = run_ok(env!("CARGO_BIN_EXE_table3_churn"), &["--iters", "20"]);
    assert!(stdout.contains("# warm pool: "), "{stdout}");
}

/// `preemption_latency` prepares a PolyBench kernel, times its check-free
/// slices against the certified gap and preempts it from a second thread;
/// one preemption is enough for its table.
#[test]
fn preemption_latency_runs_to_completion() {
    let args = ["--kernels", "gemm", "--preemptions", "1"];
    let stdout = run_ok(env!("CARGO_BIN_EXE_preemption_latency"), &args);
    assert!(stdout.lines().any(|l| l.starts_with("gemm ")), "{stdout}");
}

/// `footprint` translates and instantiates every app and reports its sizes.
#[test]
fn footprint_runs_to_completion() {
    let stdout = run_ok(env!("CARGO_BIN_EXE_footprint"), &[]);
    assert!(
        stdout.lines().any(|l| l.starts_with("cifar10 ")),
        "{stdout}"
    );
}

/// `ring` drives echo load directly, through a router over one node and
/// over three, reads each node's report, and exits non-zero if the router
/// lost a request or the ring put every route on one node.
#[test]
fn ring_runs_to_completion() {
    let stdout = run_ok(env!("CARGO_BIN_EXE_ring"), &["--secs", "1"]);
    assert!(stdout.contains("per-node completions: "), "{stdout}");
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
    let args = [
        "--addr",
        &addr,
        "--route",
        "/echo",
        "--conns",
        "8",
        "--pipeline",
        "4",
        "--secs",
        "2",
        "--idle-conns",
        "200",
    ];
    run_ok(env!("CARGO_BIN_EXE_loadgen"), &args);
    assert!(rt.latency_report().connections.accepted > 0);
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

/// Run a benchmark binary with `args`; its standard output, after asserting
/// it exited 0.
fn run_ok(bin: &str, args: &[&str]) -> String {
    let out = std::process::Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{bin} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `fig8_apps` registers every real-world app through the node's module
/// store and drives each on a node and on the process baseline.
#[test]
fn fig8_apps_runs_to_completion() {
    let stdout = run_ok(env!("CARGO_BIN_EXE_fig8_apps"), &["--requests", "1"]);
    assert!(
        stdout.lines().any(|l| l.starts_with("cifar10  |")),
        "{stdout}"
    );
}

/// `fig7_payload` drives the echo guest at every payload size on a node and
/// on the process baseline.
#[test]
fn fig7_payload_runs_to_completion() {
    let stdout = run_ok(env!("CARGO_BIN_EXE_fig7_payload"), &["--requests", "1"]);
    assert!(
        stdout.lines().any(|l| l.starts_with("   1MB |")),
        "{stdout}"
    );
}

/// `table2_exec` times every real-world app natively and in a sandbox.
#[test]
fn table2_exec_runs_to_completion() {
    let stdout = run_ok(env!("CARGO_BIN_EXE_table2_exec"), &["--iters", "3"]);
    assert!(
        stdout.lines().any(|l| l.starts_with("cifar10  |")),
        "{stdout}"
    );
}

/// `fig5_polybench` times PolyBench kernels on the engine and natively,
/// then preempts them against their certified gaps.
#[test]
fn fig5_polybench_runs_to_completion() {
    let args = ["--iters", "1", "--kernels", "gemm,atax"];
    let stdout = run_ok(env!("CARGO_BIN_EXE_fig5_polybench"), &args);
    assert!(stdout.lines().any(|l| l.starts_with("gemm ")), "{stdout}");
}

/// The executor's dispatch block — load the opcode, range-check it, step
/// `ip`, load `a b c`, read the jump table, `jmp *reg` — runs once per
/// guest op. Where it straddles a 64-byte line every guest ran about 20 %
/// slower, and whether it did depended only on where the linker happened
/// to put `awsm::exec::run`; the workspace's `.cargo/config.toml` aligns
/// loop heads to 64 bytes so that it never does. This reads the release
/// `table2_exec` (built by `cargo build --release`, and refused if any
/// source it was built from is newer), has `dispatch_block` find `run`'s
/// block, and asserts that the binary holds exactly one instantiation of
/// `run` (`dispatch_block` exits 1 otherwise), whose block is the dispatch
/// loop's head and starts and ends in one line. A second instantiation
/// would be a second dispatch loop that nothing places. The disassembly is
/// x86-64 only.
#[cfg(target_arch = "x86_64")]
#[test]
fn dispatch_block_sits_in_one_cache_line() {
    // target/<profile>/deps/binaries-… → target/release/table2_exec
    let exe = std::env::current_exe().expect("test binary path");
    let target = exe.ancestors().nth(3).expect("a target directory");
    let bin = target.join("release").join("table2_exec");
    let rebuild = "run `cargo build --release` first (this test reads the optimized binary)";
    let built = match std::fs::metadata(&bin).and_then(|m| m.modified()) {
        Ok(t) => t,
        Err(_) => panic!("{} is missing: {rebuild}", bin.display()),
    };
    // Cargo's dep-info lists every source the binary was built from.
    let dep_info = std::fs::read_to_string(bin.with_extension("d"))
        .unwrap_or_else(|e| panic!("{}.d: {e}: {rebuild}", bin.display()));
    let (_, sources) = dep_info.split_once(": ").expect("a dep-info rule");
    let sources = sources.replace("\\ ", "\u{0}");
    for source in sources.split_whitespace() {
        let source = source.replace('\u{0}', " ");
        let Ok(changed) = std::fs::metadata(&source).and_then(|m| m.modified()) else {
            continue;
        };
        assert!(
            changed <= built,
            "{} is older than {source}: {rebuild}",
            bin.display()
        );
    }

    let path = bin.display().to_string();
    let stdout = run_ok(env!("CARGO_BIN_EXE_dispatch_block"), &[&path]);
    print!("{stdout}");
    let fields: Vec<&str> = stdout.split_whitespace().collect();
    let [run, block, end, fits] = fields[..] else {
        panic!("dispatch_block printed {stdout:?}, not one loop-head block");
    };
    assert_eq!(
        fits, "one-line",
        "the dispatch block {block}..{end} of run at {run} crosses a 64-byte line: \
         was {path} built without the workspace's rustflags (RUSTFLAGS set)?"
    );
}
