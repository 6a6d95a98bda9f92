//! Cluster-node endpoints: the dependency-free `/healthz` liveness probe
//! and the `POST /admin/modules` certificate-carrying ingest route (gated
//! by `admin_routes`, default off).

use awsm::TranslateOptions;
use awsm::{decode_artifact, encode_artifact, translate_with, CompiledModule, Op, Tier};
use sledge_core::{Runtime, RuntimeConfig};
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

/// Translate a guest and serialize it as a distributable artifact.
fn artifact_for(module: &Module) -> Vec<u8> {
    let compiled = translate_with(module, Tier::Optimized, TranslateOptions::default()).unwrap();
    encode_artifact(&compiled)
}

/// Build the ingest frame: `u32 LE config length | config JSON | artifact`.
fn ingest_frame(config_json: &str, artifact: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + config_json.len() + artifact.len());
    frame.extend_from_slice(&(config_json.len() as u32).to_le_bytes());
    frame.extend_from_slice(config_json.as_bytes());
    frame.extend_from_slice(artifact);
    frame
}

fn boot(admin: bool) -> Runtime {
    Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            admin_routes: admin,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap()
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

    // Ingest re-verified the artifact and re-ran the certificate gates;
    // nothing was re-translated.
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
fn tampered_artifacts_are_rejected_by_body_verification() {
    let rt = boot(true);
    let mut client = HttpClient::new(rt.http_addr().unwrap());

    // (function name, the edit, what `verify_body` must say about it)
    let tampers: [(&str, Tamper, &str); 5] = [
        // A dropped budget check: the segment it headed would run unmetered.
        (
            "dropped-fuel",
            |m| assert!(matches!(main_code(m).remove(0), Op::Fuel(_))),
            "does not reconstruct",
        ),
        // An extra `Drop` on entry: costs nothing, so the fuel partition
        // still reconstructs, but it pops an empty operand stack.
        (
            "extra-drop",
            |m| main_code(m).insert(1, Op::Drop),
            "operand underflow",
        ),
        // A preemption-latency certificate claiming a tighter gap than the
        // body has (module-level figure lowered consistently with it).
        (
            "forged-gap",
            |m| {
                let cost = m.analysis.cost.as_mut().unwrap();
                cost.funcs[0].max_gap -= 1;
                cost.max_gap = cost.funcs[0].max_gap;
            },
            "cost certificate mismatch",
        ),
        // A stack- and cost-neutral pair that reads a local the frame does
        // not have.
        (
            "wild-local",
            |m| {
                main_code(m).splice(1..1, [Op::LocalGet(1 << 20), Op::Drop]);
            },
            "local index out of range",
        ),
        // No cost certificate at all: its option tag is one byte of the
        // artifact and must not switch the re-proof off.
        (
            "no-certificate",
            |m| m.analysis.cost = None,
            "no cost certificate",
        ),
    ];
    for (i, (name, tamper, why)) in tampers.into_iter().enumerate() {
        let artifact = tampered_artifact(tamper);
        assert!(decode_artifact(&artifact).is_ok(), "{name}: checksum holds");
        let frame = ingest_frame(&format!(r#"{{"name": "{name}"}}"#), &artifact);
        let resp = client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap();
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        assert_eq!(resp.status, 400, "{name}: {body}");
        assert!(body.contains("body verification failed"), "{name}: {body}");
        assert!(body.contains(why), "{name}: {body}");
        assert!(rt.function_by_name(name).is_none(), "{name} registered");
        assert_eq!(rt.registry_stats().modules_rejected, i as u64 + 1);
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
