//! Full-stack integration tests: every layer together, from `.wasm` bytes
//! through the runtime to HTTP, plus cross-system agreement between Sledge,
//! the native baseline, and every engine configuration.

use sledge::apps;
use sledge::runtime::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
use std::time::Duration;

fn default_rt(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        workers,
        ..Default::default()
    })
}

#[test]
fn all_paper_apps_serve_through_the_runtime_from_wasm_bytes() {
    let rt = default_rt(4);
    for app in apps::all_apps() {
        // Round-trip through the serialized binary: the tenant-upload path.
        let wasm = sledge::wasm::encode::encode_module(&(app.module)());
        let id = rt
            .register_wasm(FunctionConfig::new(app.name), &wasm)
            .unwrap_or_else(|e| panic!("register {}: {e}", app.name));
        let input = (app.sample_input)();
        let done = rt.invoke(id, input.clone()).wait().expect("completion");
        match done.outcome {
            Outcome::Success(body) => {
                assert_eq!(body, (app.native)(&input), "{} output", app.name)
            }
            other => panic!("{}: {other:?}", app.name),
        }
    }
    let stats = rt.stats();
    assert_eq!(stats.completed, apps::all_apps().len() as u64);
    rt.shutdown();
}

#[test]
fn mixed_tenant_load_matches_native_under_concurrency() {
    let rt = default_rt(4);
    let registered: Vec<_> = apps::all_apps()
        .into_iter()
        .map(|app| {
            let id = rt
                .register_module(FunctionConfig::new(app.name), &(app.module)())
                .expect("register");
            (id, app)
        })
        .collect();

    // 10 interleaved rounds over all tenants in flight simultaneously.
    let mut handles = Vec::new();
    for round in 0..10 {
        for (id, app) in &registered {
            let input = (app.sample_input)();
            handles.push((*app, input.clone(), round, rt.invoke(*id, input)));
        }
    }
    for (app, input, round, h) in handles {
        let done = h.wait().expect("completion");
        match done.outcome {
            Outcome::Success(body) => {
                assert_eq!(body, (app.native)(&input), "{} round {round}", app.name)
            }
            other => panic!("{} round {round}: {other:?}", app.name),
        }
    }
    rt.shutdown();
}

#[test]
fn polybench_checksums_survive_the_full_runtime_path() {
    // Run a few kernels as serverless functions (not just bare engine).
    let rt = default_rt(2);
    for name in ["gemm", "durbin", "floyd-warshall"] {
        let k = apps::polybench::kernel(name).expect(name);
        let id = rt
            .register_module(FunctionConfig::new(name), &(k.build)())
            .expect("register");
        let done = rt.invoke(id, Vec::new()).wait().expect("completion");
        match done.outcome {
            Outcome::Success(body) => {
                let guest = f64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                assert_eq!(guest.to_bits(), (k.native)().to_bits(), "{name}");
            }
            other => panic!("{name}: {other:?}"),
        }
    }
    rt.shutdown();
}

#[test]
fn http_end_to_end_with_keepalive_and_pipelining() {
    use std::io::{Read, Write};
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            ..Default::default()
        },
        "127.0.0.1:0".parse().expect("addr"),
    )
    .expect("bind");
    rt.register_module(FunctionConfig::new("echo"), &apps::echo::module())
        .expect("register");
    let addr = rt.http_addr().expect("http");

    // Two sequential requests on one keep-alive connection.
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for i in 0..2 {
        let body = format!("keepalive-{i}");
        let req = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        s.write_all(req.as_bytes()).expect("write");
        // Read until the body arrives.
        let mut got = Vec::new();
        let mut buf = [0u8; 1024];
        while !got.ends_with(body.as_bytes()) {
            let n = s.read(&mut buf).expect("read");
            assert!(n > 0, "connection closed early");
            got.extend_from_slice(&buf[..n]);
        }
        assert!(got.starts_with(b"HTTP/1.1 200"));
    }
    rt.shutdown();
}

#[test]
fn runtime_config_json_drives_the_runtime() {
    let (config, functions) = RuntimeConfig::from_json(
        r#"{
            "workers": 2,
            "quantum_us": 2000,
            "modules": [{"name": "ping"}, {"name": "echo", "route": "/transfer"}]
        }"#,
    )
    .expect("parse config");
    assert_eq!(functions[1].http_route(), "/transfer");
    let rt = Runtime::new(config);
    let id = rt
        .register_module(functions[0].clone(), &apps::ping::module())
        .expect("register");
    let done = rt.invoke(id, Vec::new()).wait().expect("completion");
    assert!(matches!(done.outcome, Outcome::Success(_)));
    rt.shutdown();
}

#[test]
fn sledge_and_process_baseline_agree_on_outputs() {
    // The two systems being compared in Figures 6-8 must compute the same
    // thing; this pins the comparison's validity. (ThreadPool baseline is
    // used in-process; the ProcessPool spawn path is exercised in the bench
    // binaries where worker_child_main is wired up.)
    let pool = sledge::baseline::ThreadPool::new(4);
    let rt = default_rt(2);
    for app in apps::real_world_apps() {
        let id = rt
            .register_module(FunctionConfig::new(app.name), &(app.module)())
            .expect("register");
        let input = (app.sample_input)();
        let sledge_out = match rt.invoke(id, input.clone()).wait().expect("done").outcome {
            Outcome::Success(b) => b,
            other => panic!("{}: {other:?}", app.name),
        };
        let base_out = pool
            .invoke(app.native, input)
            .wait()
            .expect("baseline completion");
        assert!(base_out.ok);
        assert_eq!(sledge_out, base_out.body, "{}", app.name);
    }
    pool.shutdown();
    rt.shutdown();
}

#[test]
fn burst_of_mixed_sizes_is_lossless() {
    // High-churn burst: many small echo payloads of varied sizes at once.
    let rt = default_rt(4);
    let id = rt
        .register_module(FunctionConfig::new("echo"), &apps::echo::module())
        .expect("register");
    let payloads: Vec<Vec<u8>> = (0..300)
        .map(|i| apps::echo::payload((i * 97) % 4096))
        .collect();
    let handles: Vec<_> = payloads.iter().map(|p| rt.invoke(id, p.clone())).collect();
    for (p, h) in payloads.iter().zip(handles) {
        match h.wait().expect("completion").outcome {
            Outcome::Success(body) => assert_eq!(&body, p),
            other => panic!("{other:?}"),
        }
    }
    rt.shutdown();
}

#[test]
fn aggressive_preemption_does_not_corrupt_results() {
    // Tiny fuel quantum + 1 ms timer: every app is preempted many times
    // mid-flight; outputs must still be byte-identical to native.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: std::time::Duration::from_millis(1),
        quantum_fuel: Some(5_000), // a few thousand ops per dispatch
        ..Default::default()
    });
    for app in apps::real_world_apps() {
        let id = rt
            .register_module(FunctionConfig::new(app.name), &(app.module)())
            .expect("register");
        let input = (app.sample_input)();
        let done = rt.invoke(id, input.clone()).wait().expect("completion");
        match done.outcome {
            Outcome::Success(body) => {
                assert_eq!(body, (app.native)(&input), "{}", app.name);
            }
            other => panic!("{}: {other:?}", app.name),
        }
    }
    assert!(
        rt.stats().preemptions > 100,
        "expected heavy preemption, got {}",
        rt.stats().preemptions
    );
    rt.shutdown();
}

#[test]
fn deleted_names_stay_deleted() {
    // Each design that replaced another deleted the old one's names; none
    // may come back under any of them. The first two groups are checked in
    // Rust sources, the rest in every file under `crates/`.
    const RUST_ONLY: &[&str] = &[
        // One memory semantics: every out-of-bounds access traps.
        "GuardRegion",
        "MpxEmulated",
        "MaskBounds",
        "DynBounds",
        "vm-guard",
        "no-checks",
        // Certificates by construction: artifact decode is the one verifier.
        "NotExecutable",
        "BodyVerification",
        "register_artifact",
        "missing_effects",
    ];
    const EVERY_FILE: &[&str] = &[
        // One listener: the epoll reactor, with no backend switch.
        "PollServer",
        "ReactorServer",
        "HttpBackend",
        "Backend::",
        "SLEDGE_REACTOR",
        // One run queue, one config source: DWRR, configured by JSON alone.
        "LocalQueue",
        "env_usize",
        "SLEDGE_POOL_SIZE",
        "SLEDGE_PREWARM",
        "SLEDGE_RECYCLE",
        "SLEDGE_FAIRNESS",
        "SLEDGE_MAX_INFLIGHT",
        "SLEDGE_MAX_CONNS",
        "SLEDGE_ADMIN",
        // One node snapshot: `LatencyReport` is the only report type.
        "AdmissionReport",
        "AdmissionFnSnapshot",
        "CapabilityReport",
        // Shards on first sample: the worker count sizes a function's
        // shards when it first records, so no setter can disagree with it.
        "set_shards",
        // The router reads `/healthz` alone: no `/stats` pull, no warm-pool
        // steering, no downstream aggregate.
        "--no-locality",
        "sledge_ring_steered_total",
        "sledge_ring_node_hot_pool",
        "sledge_ring_downstream_completed_total",
        "downstream_completed",
        "is_hot",
        // One scheduler, and chaos from the tests' side: run-to-completion
        // is an unbounded quantum, and the product injects no faults.
        "SchedPolicy",
        "RunToCompletion",
        "FaultPlan",
        "fault_plan",
        "poison_pool",
        "pool_poison_pct",
        "FAULT INJECTION ACTIVE",
        // Only recycling fills a warm pool, and a registry's settings are
        // fixed when it is built.
        "prewarm_loop",
        "prewarmed",
        "sledge-prewarm",
        "set_pool_capacity",
        "set_calibration",
    ];
    let mut dirs = vec![std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")];
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    dirs.push(path);
                }
                continue;
            }
            let text = String::from_utf8_lossy(&std::fs::read(&path).unwrap()).into_owned();
            let rust = path.extension().is_some_and(|e| e == "rs");
            let names = EVERY_FILE.iter().chain(RUST_ONLY.iter().filter(|_| rust));
            for name in names.filter(|n| text.contains(**n)) {
                found.push(format!("{}: {name}", path.display()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "deleted names are back:\n{}",
        found.join("\n")
    );
}
