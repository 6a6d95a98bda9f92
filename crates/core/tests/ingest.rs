//! Cluster-node endpoints: the dependency-free `/healthz` liveness probe
//! and the `POST /admin/modules` artifact ingest route (gated by
//! `admin_routes`, default off), whose node derives every certificate
//! itself.

use awsm::{
    decode_artifact, encode_artifact, translate_with, ArtifactError, CompiledModule, Op,
    ResetPolicy, StackBound, Tier, TranslateOptions, WriteFootprint,
};
use sledge_core::{ingest_frame, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_http::HttpClient;
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

/// Translate a guest and serialize it as a distributable artifact.
fn artifact_for(module: &Module) -> Vec<u8> {
    encode_artifact(&translated(module))
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

/// Push `artifact` as function `name` under the function-config fields
/// `policy` (JSON members, possibly none); the status and the body.
fn push(client: &mut HttpClient, name: &str, policy: &str, artifact: &[u8]) -> (u16, String) {
    let frame = ingest_frame(&format!(r#"{{"name": "{name}"{policy}}}"#), artifact);
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

    let frame = ingest_frame(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
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

    // Ingest decoded and analysed the artifact and ran the certificate
    // gates; nothing was re-translated.
    let reg = rt.registry_stats();
    assert_eq!(reg.modules_verified, 1);
    assert_eq!(reg.modules_rejected, 0);

    // A duplicate push is a clean 400, not a crash.
    let frame = ingest_frame(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("already registered"));
    rt.shutdown();
}

#[test]
fn one_artifact_pushed_under_two_names_is_decoded_once() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let artifact = artifact_for(&echo_guest("echo"));
    for name in ["echo-a", "echo-b"] {
        let frame = ingest_frame(&format!(r#"{{"name": "{name}"}}"#), &artifact);
        let resp = client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let resp = client
            .request("POST", &format!("/{name}"), &[], name.as_bytes())
            .unwrap();
        assert_eq!(resp.body, name.as_bytes());
    }
    let reg = rt.registry_stats();
    assert_eq!(reg.modules_compiled, 1);
    assert_eq!(reg.modules_verified, 2);
    let id = |name| rt.function_by_name(name).unwrap();
    let (a, b) = (
        rt.function_info(id("echo-a")).unwrap(),
        rt.function_info(id("echo-b")).unwrap(),
    );
    assert!(std::sync::Arc::ptr_eq(&a.module, &b.module));
    // The same module shipped as `.wasm` is another key space: a third
    // registration from those bytes is a second build.
    let wasm = sledge_wasm::encode::encode_module(&echo_guest("echo"));
    rt.register_wasm(sledge_core::FunctionConfig::new("echo-c"), &wasm)
        .unwrap();
    assert_eq!(rt.registry_stats().modules_compiled, 2);
    rt.shutdown();
}

#[test]
fn corrupt_artifact_rejected_while_node_keeps_serving() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());

    let frame = ingest_frame(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
    assert_eq!(
        client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap()
            .status,
        200
    );

    // Flip one payload byte: the checksum catches it and the push is
    // rejected with a 400 naming the artifact layer.
    let mut bad = artifact_for(&echo_guest("tampered"));
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    let frame = ingest_frame(r#"{"name": "tampered"}"#, &bad);
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        String::from_utf8_lossy(&resp.body).contains("artifact"),
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );

    // The node is unharmed: probe green, previously ingested module serves.
    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("POST", "/echo", &[], b"still up").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"still up");
    assert!(rt.function_by_name("tampered").is_none());
    rt.shutdown();
}

type Tamper = fn(&mut CompiledModule);

/// Decode an honest artifact, let `tamper` edit the module, and re-encode:
/// the result is structurally valid and carries a correct FNV checksum over
/// the tampered payload — what a peer that fixes up the checksum would send.
fn tampered_artifact(tamper: Tamper) -> Vec<u8> {
    let mut module = decode_artifact(&artifact_for(&echo_guest("echo"))).unwrap();
    tamper(&mut module);
    encode_artifact(&module)
}

/// The echo guest's body is straight-line (no branch targets to renumber),
/// so ops can be removed from or inserted into it freely.
fn main_code(m: &mut CompiledModule) -> &mut Vec<Op> {
    &mut m.funcs[0].code
}

#[test]
fn tampered_artifacts_are_refused_by_artifact_decode() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let honest = translated(&echo_guest("echo"));

    // (function name, the edit, what decode must say about it). `None`:
    // the edit touches what the artifact does not carry — fuel charges and
    // certificates — so the node derives the honest module.
    let tampers: [(&str, Tamper, Option<&str>); 4] = [
        // A dropped budget check: the node places every check itself.
        (
            "dropped-fuel",
            |m| assert!(matches!(main_code(m).remove(0), Op::Fuel(_))),
            None,
        ),
        // An extra `Drop` on entry pops an empty operand stack.
        (
            "extra-drop",
            |m| main_code(m).insert(1, Op::Drop),
            Some("operand underflow"),
        ),
        // A preemption-latency certificate claiming a tighter gap than the
        // body has (module-level figure lowered consistently with it).
        (
            "forged-gap",
            |m| {
                let cost = &mut m.analysis.cost;
                cost.funcs[0].max_gap -= 1;
                cost.max_gap = cost.funcs[0].max_gap;
            },
            None,
        ),
        // A stack-neutral pair that reads a local the frame does not have.
        (
            "wild-local",
            |m| {
                main_code(m).splice(1..1, [Op::LocalGet(1 << 20), Op::Drop]);
            },
            Some("local index out of range"),
        ),
    ];
    let mut refused = 0;
    for (name, tamper, why) in tampers {
        let artifact = tampered_artifact(tamper);
        let Some(why) = why else {
            let derived = decode_artifact(&artifact).expect(name);
            assert_eq!(derived.analysis.cost, honest.analysis.cost, "{name}");
            assert_eq!(derived.funcs[0].code, honest.funcs[0].code, "{name}");
            continue;
        };
        match decode_artifact(&artifact) {
            Err(ArtifactError::Unverified(e)) => assert!(e.contains(why), "{name}: {e}"),
            other => panic!("{name}: decoded or failed otherwise: {other:?}"),
        }
        let (status, body) = push(&mut client, name, "", &artifact);
        assert_eq!(status, 400, "{name}: {body}");
        assert!(body.contains("body verification failed"), "{name}: {body}");
        assert!(body.contains(why), "{name}: {body}");
        assert!(rt.function_by_name(name).is_none(), "{name} registered");
        refused += 1;
        assert_eq!(rt.registry_stats().modules_rejected, refused);
    }
    assert_eq!(rt.registry_stats().modules_verified, 0);

    // The node is unharmed and still takes the honest artifact.
    let frame = ingest_frame(r#"{"name": "echo"}"#, &tampered_artifact(|_| {}));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("POST", "/echo", &[], b"honest").unwrap();
    assert_eq!((resp.status, &resp.body[..]), (200, &b"honest"[..]));
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
    assert_eq!(policy, ResetPolicy::StaticSpan { lo: 64, hi: 68 });
    let mut forged = translated(&scratch_guest());
    forged.analysis.effects.funcs[0].footprint = WriteFootprint::Empty;
    assert_eq!(forged.reset_policy("main"), ResetPolicy::Elide);
    let derived = decode_artifact(&encode_artifact(&forged)).unwrap();
    assert_eq!(derived.reset_policy("main"), policy);
}

#[test]
fn artifact_exporting_a_missing_function_is_refused_and_node_keeps_serving() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());

    // Checksum-valid, every body honest, but the entry point names a
    // function index the module does not have.
    let artifact = tampered_artifact(|m| {
        m.exports.insert("main".into(), 9999);
    });
    let frame = ingest_frame(r#"{"name": "evil"}"#, &artifact);
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 400, "{body}");
    assert!(body.contains("artifact"), "{body}");
    assert!(body.contains("names no function"), "{body}");
    assert!(rt.function_by_name("evil").is_none());
    assert_eq!(rt.registry_stats().modules_rejected, 1);

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
            &artifact_for(&(app.module)()),
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
    let reg = rt.registry_stats();
    assert_eq!(reg.modules_verified, apps.len() as u64);
    assert_eq!(reg.modules_rejected, 0);
    rt.shutdown();
}

#[test]
fn malformed_frames_rejected_cleanly() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());
    let artifact = artifact_for(&echo_guest("echo"));

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
        .request(
            "POST",
            "/admin/modules",
            &[],
            &ingest_frame("{}", &artifact),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("config"));
    // A valid frame whose artifact is garbage.
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
    let frame = ingest_frame(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 404, "gated route must fall through to 404");
    assert!(rt.function_by_name("echo").is_none());
    rt.shutdown();
}
