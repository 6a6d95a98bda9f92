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
    let stats = rt.latency_report().stats;
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
    // A tiny fuel quantum (1 ms at 5 units/µs, a few thousand ops per
    // dispatch): every app is preempted many times mid-flight; outputs
    // must still be byte-identical to native.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        quantum: std::time::Duration::from_millis(1),
        cost_units_per_us: 5,
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
    let preemptions = rt.latency_report().stats.preemptions;
    assert!(
        preemptions > 100,
        "expected heavy preemption, got {preemptions}"
    );
    rt.shutdown();
}

#[test]
fn deleted_names_stay_deleted() {
    // Each design that replaced another deleted the old one's names; none
    // may come back under any of them. The first two groups are checked in
    // Rust sources, the rest in every file under `crates/`; removed config
    // keys everywhere there but in the parser that rejects them, and removed
    // values everywhere but in the tests that check they are refused.
    const RUST_ONLY: &[&str] = &[
        // One memory semantics: every out-of-bounds access traps.
        "GuardRegion",
        "MpxEmulated",
        "MaskBounds",
        "DynBounds",
        "vm-guard",
        "no-checks",
        // Certificates by construction: artifact decode runs the analysis
        // translation runs, so no second verifier checks shipped claims.
        "NotExecutable",
        "BodyVerification",
        "register_artifact",
        "missing_effects",
        "verify_body",
        // One operand folder: the lowering. The translator emits one op per
        // Wasm instruction and keeps no peephole window.
        "Bin2L",
        "BinRL",
        "BinRC",
        "IncI32",
        "LoadL",
        "last_op_fusable",
        "set_barrier",
        // One executor, checked against the reference interpreter: no naive
        // tier, no per-op charge and no second tier to run suites on.
        "Tier::Naive",
        "ALL_TIERS",
        "run_guest_all_configs",
        "prepaid",
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
        // Syntactic footprints: no interval analysis, so no static-span
        // reset, no counter for one and no footprint cap.
        "StaticSpan",
        "reset_from_span",
        "resets_static",
        "reset_static",
        // One exposition format: `/metrics` is the only way to read a node
        // or a router, and `sledged` repeats no summary on a timer.
        "render_ring_stats",
        "json_phases",
        "escape_json",
        "stats-interval-s",
        "sledged-stats",
        // One read path: a node is read in process through
        // `Runtime::latency_report` alone, and a drain borrows the runtime,
        // so no handle outlives it.
        "MetricsHandle",
        "metrics_handle",
        "function_info",
        "registry_stats",
        "connection_stats",
        "function_stats(",
        "invoke_detached",
        "fn inflight(",
        // One preemption clock: fuel ends every quantum, the timer only
        // keeps deadlines, and a drain or shutdown preempts by itself.
        "TimerWake",
        "PreemptAll",
        "next_tick",
    ];
    // Removed config keys, which only the config parser may still name: it
    // rejects each with a pointer to what replaces it.
    const REJECTED_KEYS: &[&str] = &[
        "max_write_footprint_bytes",
        "metrics_routes",
        "quantum_fuel",
    ];
    // Removed config values and flags, which only the tests that check
    // they are refused may name.
    const REFUSED_VALUES: &[&str] = &["aot-naive"];
    let parser = std::path::Path::new("crates/core/src/config.rs");
    let refusers = [
        parser,
        std::path::Path::new("crates/awsm/tests/analysis.rs"),
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
            let keys = REJECTED_KEYS.iter().filter(|_| !path.ends_with(parser));
            let refuses = refusers.iter().any(|r| path.ends_with(r));
            let values = REFUSED_VALUES.iter().filter(|_| !refuses);
            let names = EVERY_FILE
                .iter()
                .chain(RUST_ONLY.iter().filter(|_| rust))
                .chain(keys)
                .chain(values);
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

#[test]
fn harness_surface_stays_public() {
    // Every product item `benchmark/src` uses: benchmark/README.md's "Public
    // items the harness calls", plus `Json::as_f64`. The ledger is a
    // workspace of its own, so without this a narrowed item would first
    // fail the benchmark's build. Naming each one is the test.
    use sledge::runtime::{
        parse_json, Completion, FunctionConfig, FunctionId, HistogramSnapshot, InvocationHandle,
        Json, Outcome, PhaseSnapshot, Runtime, RuntimeConfig,
    };
    use sledge::{apps, deque, engine, http, wasm};
    use sledge_cluster::{HashRing, PushResult, Router, RouterConfig};

    let invoke: fn(&Runtime, FunctionId, Vec<u8>) -> InvocationHandle = Runtime::invoke;
    let new_function: fn(&'static str) -> FunctionConfig = FunctionConfig::new;
    let _ = (
        Runtime::with_http,
        Runtime::register_wasm,
        invoke,
        Runtime::http_addr,
        Runtime::function_by_name,
        Runtime::latency_report,
        Runtime::shutdown,
        InvocationHandle::wait,
        |c: Completion| c.outcome,
        Outcome::Success,
        new_function,
        <PhaseSnapshot as Default>::default,
        PhaseSnapshot::merge,
        HistogramSnapshot::quantile,
        parse_json,
        Json::as_f64,
    );
    let config = RuntimeConfig::default();
    let _ = RuntimeConfig {
        workers: config.workers,
        admin_routes: config.admin_routes,
        bounds: config.bounds,
        tier: config.tier,
        max_request_size: config.max_request_size,
        ..Default::default()
    };
    let _ = (
        Router::start,
        Router::distribute,
        Router::addr,
        Router::stats,
        Router::shutdown,
        <RouterConfig as Default>::default,
        |c: RouterConfig| c.seed,
        HashRing::new,
        HashRing::add,
        HashRing::replicas,
    );
    let _ = (
        engine::translate_with,
        <engine::TranslateOptions as Default>::default,
        engine::encode_artifact,
        engine::decode_artifact,
        engine::CompiledModule::reset_policy,
        engine::Instance::new,
        engine::Instance::invoke_export,
        engine::Instance::run,
        engine::Instance::fuel_used,
        engine::Instance::reset_with,
    );
    let _ = (
        wasm::decode::decode_module,
        wasm::validate::validate_module,
        wasm::encode::encode_module,
        http::format_request,
        http::RequestParser::new,
        http::RequestParser::feed,
        http::Response::ok,
        http::Response::to_bytes,
        deque::deque::<u64>,
        deque::Worker::<u64>::push,
        deque::Worker::<u64>::pop,
        deque::Stealer::<u64>::steal,
    );
    let _ = (
        apps::all_apps,
        apps::polybench::kernels,
        apps::cifar10::IN,
        apps::gps_ekf::sample_input,
        apps::gocr::sample_input,
        apps::resize::sample_input,
        apps::lpd::sample_input,
    );
    type Types = (
        FunctionId,
        PushResult,
        engine::Tier,
        engine::EngineConfig,
        engine::StepResult,
        http::ParseStatus,
        apps::AppSpec,
        apps::polybench::Kernel,
        apps::testutil::BufferHost,
    );
    let _: Option<Types> = None;
}

/// Every `A::b(::c)*` path inside a backticked span of a Markdown document,
/// fenced code blocks excluded. A path that continues a file name
/// (`lib.rs::lock` names a test in that file) is not one.
fn backticked_paths(doc: &str) -> std::collections::BTreeSet<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let mut paths = std::collections::BTreeSet::new();
    for span in prose.split('`').skip(1).step_by(2) {
        for token in span.split(|c: char| !(c.is_ascii_alphanumeric() || "_:./-".contains(c))) {
            let path = token.trim_end_matches(':');
            if path.contains("::")
                && !path.contains(['.', '/', '-'])
                && path.split("::").all(|s| !s.is_empty())
            {
                paths.insert(path.to_string());
            }
        }
    }
    paths
}

#[test]
fn docs_name_live_code() {
    // The inverse of `deleted_names_stay_deleted`: every path README.md and
    // DESIGN.md name in backticks must still name something, each of its
    // segments an identifier in some Rust source of the repository.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut identifiers = std::collections::HashSet::new();
    let mut dirs: Vec<_> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                identifiers.extend(
                    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .filter(|w| !w.is_empty())
                        .map(str::to_string),
                );
            }
        }
    }
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for path in backticked_paths(&text) {
            if let Some(seg) = path.split("::").find(|s| !identifiers.contains(*s)) {
                stale.push(format!("{doc}: `{path}` (no `{seg}` in any Rust source)"));
            }
        }
        // DESIGN.md is not re-anchored like ROADMAP.md: a line number in it
        // goes stale with the next edit of that file.
        if doc == "DESIGN.md" {
            for (n, line) in text.lines().enumerate() {
                let b = line.as_bytes();
                let cited = line
                    .match_indices(".rs:")
                    .any(|(i, _)| b.get(i + 4).is_some_and(u8::is_ascii_digit));
                if cited {
                    stale.push(format!("{doc}:{}: cites a source line: {line}", n + 1));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "docs name dead code:\n{}",
        stale.join("\n")
    );
}
