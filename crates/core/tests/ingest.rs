//! Cluster-node endpoints: the dependency-free `/healthz` liveness probe
//! and the `POST /admin/modules` ingest route (gated by `admin_routes`,
//! default off), which takes a `.wasm` and builds it the way
//! `register_wasm` does, so the node derives every certificate itself.

use awsm::{
    decode_artifact, encode_artifact, translate_with, CompiledModule, ResetPolicy, StackBound,
    Tier, TranslateOptions,
};
use sledge_core::{ingest_frame, FunctionConfig, RegisterError, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_http::HttpClient;
use sledge_wasm::module::ExportKind;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::time::Duration;

/// Echo the request body.
fn echo_guest(name: &str) -> Module {
    let mut mb = ModuleBuilder::new(name);
    mb.memory(2, Some(64));
    let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
    let req_read = mb.import_func(
        "env",
        "request_read",
        &[ValType::I32, ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let resp_write = mb.import_func(
        "env",
        "response_write",
        &[ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let n = f.local(ValType::I32);
    f.extend([
        set(n, call(req_len, vec![])),
        exec(call(req_read, vec![i32c(0), local(n), i32c(0)])),
        exec(call(resp_write, vec![i32c(0), local(n)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

/// Store to a fixed scratch address, then read it back.
fn scratch_guest() -> Module {
    let mut mb = ModuleBuilder::new("scratch");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.extend([store_i32(i32c(64), i32c(7)), ret(Some(load_i32(i32c(64))))]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

fn translated(module: &Module) -> CompiledModule {
    translate_with(module, Tier::Optimized, TranslateOptions::default()).unwrap()
}

/// A guest's `.wasm`, as a router pushes it.
fn wasm_for(module: &Module) -> Vec<u8> {
    sledge_wasm::encode::encode_module(module)
}

fn boot(admin: bool) -> Runtime {
    boot_with(RuntimeConfig {
        admin_routes: admin,
        ..Default::default()
    })
}

fn boot_with(config: RuntimeConfig) -> Runtime {
    let config = RuntimeConfig {
        workers: 2,
        ..config
    };
    Runtime::with_http(config, "127.0.0.1:0".parse().unwrap()).unwrap()
}

/// Push `wasm` as function `name` under the function-config fields
/// `policy` (JSON members, possibly none); the status and the body.
fn push(client: &mut HttpClient, name: &str, policy: &str, wasm: &[u8]) -> (u16, String) {
    let frame = ingest_frame(&format!(r#"{{"name": "{name}"{policy}}}"#), wasm);
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    (
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    )
}

#[test]
fn healthz_reports_serving_then_draining() {
    let rt = boot(false);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"ok");

    // Once the drain starts the probe flips to 503 so a router steers away
    // before intake starts rejecting invocations.
    rt.begin_drain();
    std::thread::sleep(Duration::from_millis(50));
    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(
        resp.status,
        503,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    rt.shutdown();
}

#[test]
fn ingest_registers_and_serves_distributed_module() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());

    let frame = ingest_frame(r#"{"name": "echo"}"#, &wasm_for(&echo_guest("echo")));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 200, "{body}");
    assert!(body.contains("\"registered\":\"echo\""), "{body}");
    assert!(body.contains("\"route\":\"/echo\""), "{body}");

    // The ingested module serves like a locally registered one.
    let resp = client.request("POST", "/echo", &[], b"hello ring").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"hello ring");

    // Ingest translated and analysed the module and ran the certificate
    // gates.
    let reg = rt.latency_report().registry;
    assert_eq!(reg.modules_verified, 1);
    assert_eq!(reg.modules_rejected, 0);

    // A duplicate push is a clean 400, not a crash.
    let frame = ingest_frame(r#"{"name": "echo"}"#, &wasm_for(&echo_guest("echo")));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("already registered"));
    rt.shutdown();
}

#[test]
fn routes_the_node_answers_itself_are_reserved() {
    // `/healthz` and `/metrics` always, and `/admin/modules` while ingest
    // is on, are answered by the node ahead of any function, so no function
    // may take one: not by its name, not by a route override, not through
    // `register_wasm` and not through ingest.
    let wasm = sledge_wasm::encode::encode_module(&echo_guest("echo"));
    let routed = |name: &str, route: &str| FunctionConfig {
        route: Some(route.into()),
        ..FunctionConfig::new(name)
    };
    let rt = boot(true);
    for (config, route) in [
        (FunctionConfig::new("healthz"), "/healthz"),
        (FunctionConfig::new("metrics"), "/metrics"),
        (routed("m", "/metrics"), "/metrics"),
        (routed("a", "/admin/modules"), "/admin/modules"),
    ] {
        let err = rt.register_wasm(config, &wasm).unwrap_err();
        assert!(
            matches!(err, RegisterError::ReservedRoute(ref r) if r == route),
            "{route}: {err}"
        );
    }
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let (status, body) = push(&mut client, "metrics", "", &wasm_for(&echo_guest("m")));
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains(r#"route "/metrics" is served by the node itself"#),
        "{body}"
    );
    assert_eq!(rt.function_by_name("metrics"), None);
    let resp = client.request("GET", "/metrics", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(String::from_utf8_lossy(&resp.body).contains("# TYPE sledge_invocations_total"));
    rt.shutdown();

    // With ingest off, `/admin/modules` is a route like any other.
    let rt = boot(false);
    rt.register_wasm(routed("a", "/admin/modules"), &wasm)
        .unwrap();
    let resp = HttpClient::new(rt.http_addr().unwrap())
        .request("POST", "/admin/modules", &[], b"guest")
        .unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"guest"[..]));
    rt.shutdown();
}

#[test]
fn one_artifact_pushed_under_two_names_is_decoded_once() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let wasm = wasm_for(&echo_guest("echo"));
    for name in ["echo-a", "echo-b"] {
        let frame = ingest_frame(&format!(r#"{{"name": "{name}"}}"#), &wasm);
        let resp = client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let resp = client
            .request("POST", &format!("/{name}"), &[], name.as_bytes())
            .unwrap();
        assert_eq!(resp.body, name.as_bytes());
    }
    // One build: both names run the one module it made.
    let reg = rt.latency_report().registry;
    assert_eq!(reg.modules_compiled, 1);
    assert_eq!(reg.modules_verified, 2);
    // The module store has one key space: the same bytes registered in
    // process share that module too.
    rt.register_wasm(FunctionConfig::new("echo-c"), &wasm)
        .unwrap();
    assert_eq!(rt.latency_report().registry.modules_compiled, 1);
    rt.shutdown();
}

#[test]
fn corrupt_artifact_rejected_while_node_keeps_serving() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());

    let frame = ingest_frame(r#"{"name": "echo"}"#, &wasm_for(&echo_guest("echo")));
    assert_eq!(
        client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap()
            .status,
        200
    );

    // A flipped magic byte and a cut inside the last section: each push is
    // rejected with a 400 naming the module layer.
    let honest = wasm_for(&echo_guest("tampered"));
    let mut bad_magic = honest.clone();
    bad_magic[0] ^= 0xff;
    for (bad, why) in [
        (bad_magic, "magic"),
        (honest[..honest.len() - 1].to_vec(), "end"),
    ] {
        let (status, body) = push(&mut client, "tampered", "", &bad);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("module: "), "{body}");
        assert!(body.contains(why), "{body}");
    }
    assert_eq!(rt.latency_report().registry.modules_rejected, 2);

    // The node is unharmed: probe green, previously ingested module serves,
    // and the honest module still registers.
    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("POST", "/echo", &[], b"still up").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"still up");
    assert!(rt.function_by_name("tampered").is_none());
    let (status, body) = push(&mut client, "tampered", "", &honest);
    assert_eq!(status, 200, "{body}");
    rt.shutdown();
}

#[test]
fn a_forged_effect_certificate_does_not_pass_the_capability_gate() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    // Echo reads the request; the forged certificate says it only writes.
    let mut forged = translated(&echo_guest("echo"));
    let effects = &mut forged.analysis.effects;
    let write = effects
        .imports
        .iter()
        .position(|i| i.ends_with("response_write"));
    effects.funcs[0].hostcalls = vec![write.unwrap() as u32];
    // What travels is the module's `.wasm`, never its report.
    let grant = r#", "allowed_hostcalls": ["response_write"]"#;
    let (status, body) = push(&mut client, "echo", grant, &encode_artifact(&forged));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("capability policy rejected module"), "{body}");
    assert!(body.contains("request_read"), "{body}");
    assert!(rt.function_by_name("echo").is_none());
    rt.shutdown();
}

#[test]
fn a_forged_stack_bound_does_not_pass_the_stack_budget() {
    let mut forged = translated(&echo_guest("echo"));
    let StackBound::Bounded(real) = forged.analysis.stack_bound else {
        panic!("echo makes no recursive call");
    };
    forged.analysis.stack_bound = StackBound::Bounded(16);
    let rt = boot_with(RuntimeConfig {
        admin_routes: true,
        max_stack_bytes: Some(real - 1),
        ..Default::default()
    });
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let (status, body) = push(&mut client, "echo", "", &encode_artifact(&forged));
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains(&format!("stack demand {real} bytes")),
        "{body}"
    );
    assert!(rt.function_by_name("echo").is_none());
    rt.shutdown();
}

#[test]
fn a_forged_empty_footprint_does_not_elide_resets() {
    let honest = translated(&scratch_guest());
    let policy = honest.reset_policy("main");
    assert_eq!(policy, ResetPolicy::HighWater);
    let mut forged = translated(&scratch_guest());
    forged.analysis.effects.funcs[0].writes_memory = false;
    assert_eq!(forged.reset_policy("main"), ResetPolicy::Elide);
    let derived = decode_artifact(&encode_artifact(&forged)).unwrap();
    assert_eq!(derived.reset_policy("main"), policy);
}

#[test]
fn artifact_exporting_a_missing_function_is_refused_and_node_keeps_serving() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());

    // Every body honest, but the entry point names a function index the
    // module does not have.
    let mut module = echo_guest("echo");
    let main = module.exports.iter_mut().find(|e| e.name == "main");
    main.unwrap().kind = ExportKind::Func(9999);
    let frame = ingest_frame(r#"{"name": "evil"}"#, &wasm_for(&module));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 400, "{body}");
    assert!(body.contains("module: "), "{body}");
    assert!(
        body.contains(r#"export "main" references unknown entity"#),
        "{body}"
    );
    assert!(rt.function_by_name("evil").is_none());
    assert_eq!(rt.latency_report().registry.modules_rejected, 1);

    // Nothing is routed to it, and the node is still on the network.
    let resp = client.request("POST", "/evil", &[], b"boom").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"ok"[..]));
    rt.shutdown();
}

#[test]
fn honest_artifact_of_every_shipped_guest_registers_and_serves() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let apps = sledge_apps::all_apps();
    for app in &apps {
        let frame = ingest_frame(
            &format!(r#"{{"name": "{}"}}"#, app.name),
            &wasm_for(&(app.module)()),
        );
        let resp = client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", app.name);

        let input = (app.sample_input)();
        let resp = client
            .request("POST", &format!("/{}", app.name), &[], &input)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", app.name);
        assert_eq!(resp.body, (app.native)(&input), "{}", app.name);
    }
    let reg = rt.latency_report().registry;
    assert_eq!(reg.modules_verified, apps.len() as u64);
    assert_eq!(reg.modules_rejected, 0);
    rt.shutdown();
}

#[test]
fn malformed_frames_rejected_cleanly() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let wasm = wasm_for(&echo_guest("echo"));

    // Empty body: no length prefix.
    let resp = client.request("POST", "/admin/modules", &[], b"").unwrap();
    assert_eq!(resp.status, 400);
    // Config length overruns the body.
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(b"{}");
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 400);
    // Config JSON that fails the function schema.
    let resp = client
        .request("POST", "/admin/modules", &[], &ingest_frame("{}", &wasm))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("config"));
    // A valid frame whose module is garbage.
    let resp = client
        .request(
            "POST",
            "/admin/modules",
            &[],
            &ingest_frame(r#"{"name": "x"}"#, b"not an artifact"),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    // Nothing registered by any of the above.
    assert!(rt.function_by_name("echo").is_none());
    assert!(rt.function_by_name("x").is_none());
    rt.shutdown();
}

#[test]
fn ingest_route_requires_admin_knob() {
    let rt = boot(false);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let frame = ingest_frame(r#"{"name": "echo"}"#, &wasm_for(&echo_guest("echo")));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 404, "gated route must fall through to 404");
    assert!(rt.function_by_name("echo").is_none());
    rt.shutdown();
}
