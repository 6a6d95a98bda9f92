//! End-to-end cluster tests: a real `Router` over in-process `sledged`
//! runtimes — certificate-carrying distribution, ring routing, and the
//! chaos case: a node killed mid-stream with exactly-one-completion
//! preserved through failover.

use awsm::{encode_artifact, translate_with, Tier, TranslateOptions};
use sledge_cluster::{ingest_frame, Router, RouterConfig};
use sledge_core::{Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_http::{ClientConfig, HttpClient, ParseStatus, RequestParser, Response, StatusCode};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
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

fn artifact_for(module: &Module) -> Vec<u8> {
    let compiled = translate_with(module, Tier::Optimized, TranslateOptions::default()).unwrap();
    encode_artifact(&compiled)
}

fn boot_node() -> Runtime {
    Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            admin_routes: true,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap()
}

/// Fast-reacting router config for tests.
fn test_config() -> RouterConfig {
    RouterConfig {
        replicas: 2,
        probe_interval: Duration::from_millis(50),
        breaker: sledge_cluster::BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(200),
        },
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

fn boot_cluster(n: usize) -> (Vec<Runtime>, Router) {
    let nodes: Vec<Runtime> = (0..n).map(|_| boot_node()).collect();
    let members: Vec<(String, SocketAddr)> = nodes
        .iter()
        .enumerate()
        .map(|(i, rt)| (format!("node-{i}"), rt.http_addr().unwrap()))
        .collect();
    let router = Router::start(test_config(), members, "127.0.0.1:0".parse().unwrap()).unwrap();
    (nodes, router)
}

#[test]
fn distribution_pushes_certified_artifact_to_every_node() {
    let (nodes, router) = boot_cluster(3);
    let pushes = router.distribute(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
    assert_eq!(pushes.len(), 3);
    for p in &pushes {
        assert!(p.result.is_ok(), "{}: {:?}", p.node, p.result);
    }
    // Every node re-verified the artifact on ingest and accepted it.
    for rt in &nodes {
        let reg = rt.registry_stats();
        assert_eq!(reg.modules_verified, 1);
        assert_eq!(reg.modules_rejected, 0);
    }
    assert_eq!(router.stats().modules_pushed, 3);

    // The module serves through the ring.
    let mut client = HttpClient::new(router.addr());
    let resp = client
        .request("POST", "/echo", &[], b"over the ring")
        .unwrap();
    assert_eq!(
        resp.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    assert_eq!(resp.body, b"over the ring");
    assert!(router.stats().routed >= 1);

    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

#[test]
fn corrupt_artifact_rejected_by_nodes_while_ring_keeps_serving() {
    let (nodes, router) = boot_cluster(3);
    assert!(router
        .distribute(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")))
        .iter()
        .all(|p| p.result.is_ok()));

    // Tamper with the artifact: every node's ingest gate rejects it.
    let mut bad = artifact_for(&echo_guest("evil"));
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    let pushes = router.distribute(r#"{"name": "evil"}"#, &bad);
    assert!(pushes.iter().all(|p| p.result.is_err()), "{pushes:?}");
    assert_eq!(router.stats().module_rejects, 3);
    for rt in &nodes {
        assert!(rt.function_by_name("evil").is_none());
    }

    // Rejection is control-plane only: invocations still flow.
    let mut client = HttpClient::new(router.addr());
    let resp = client
        .request("POST", "/echo", &[], b"still serving")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"still serving");

    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

#[test]
fn admin_push_through_router_endpoint() {
    let (nodes, router) = boot_cluster(2);
    let frame = ingest_frame(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
    let mut client = HttpClient::new(router.addr());
    let resp = client
        .request("POST", "/admin/modules", &[], &frame)
        .unwrap();
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 200, "{body}");
    assert!(body.contains("\"accepted\":2"), "{body}");

    let resp = client
        .request("POST", "/echo", &[], b"pushed via router")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"pushed via router");

    // Garbage frame is rejected at the router without bothering the nodes.
    let resp = client
        .request("POST", "/admin/modules", &[], b"xy")
        .unwrap();
    assert_eq!(resp.status, 400);

    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

#[test]
fn router_metrics_and_stats_expose_ring_series() {
    let (nodes, router) = boot_cluster(3);
    assert!(router
        .distribute(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")))
        .iter()
        .all(|p| p.result.is_ok()));
    let mut client = HttpClient::new(router.addr());
    let resp = client.request("POST", "/echo", &[], b"x").unwrap();
    assert_eq!(resp.status, 200);

    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"ok");

    let resp = client.request("GET", "/metrics", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(text.contains("sledge_ring_nodes 3"), "{text}");
    for series in [
        "sledge_ring_node_healthy{node=\"node-0\"}",
        "sledge_ring_node_hot_pool{node=\"node-1\"}",
        "sledge_ring_node_failures_total{node=\"node-2\"}",
        "sledge_ring_routed_total",
        "sledge_ring_retried_total",
        "sledge_ring_failed_over_total",
        "sledge_ring_steered_total",
        "sledge_ring_failed_total",
        "sledge_ring_modules_pushed_total 3",
        "sledge_ring_downstream_completed_total",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }

    let resp = client.request("GET", "/stats", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let doc = sledge_core::parse_json(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("routed"))
            .and_then(|r| r.as_u64()),
        Some(1)
    );

    // The probers aggregate downstream completion counts into the ring
    // metrics once the nodes' own /stats report the finished invocation.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client.request("GET", "/metrics", &[], b"").unwrap();
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        let done = text
            .lines()
            .find_map(|l| l.strip_prefix("sledge_ring_downstream_completed_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        if done >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "downstream completion never aggregated:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

#[test]
fn unknown_route_is_passed_through_not_failed_over() {
    let (nodes, router) = boot_cluster(2);
    let mut client = HttpClient::new(router.addr());
    // A 404 from the owning node is the function's business — the router
    // must relay it, not burn it as a node failure and retry elsewhere.
    let resp = client.request("POST", "/no-such-fn", &[], b"x").unwrap();
    assert_eq!(resp.status, 404);
    let s = router.stats();
    assert_eq!(s.failed_over, 0);
    assert_eq!(s.failed, 0);
    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

/// The chaos case the ISSUE pins down: kill a node mid-stream and prove
/// every request completes exactly once — the killed node's keys fail over
/// to the next ring replica, nothing is lost, nothing is double-answered.
#[test]
fn chaos_node_kill_fails_over_with_exactly_one_completion() {
    let (mut nodes, router) = boot_cluster(3);
    assert!(router
        .distribute(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")))
        .iter()
        .all(|p| p.result.is_ok()));

    // Find which node owns /echo so the kill is guaranteed to hit the
    // serving replica, not a bystander.
    let owner = router.ring().lookup_name("/echo").unwrap().to_string();
    let owner_idx: usize = owner.strip_prefix("node-").unwrap().parse().unwrap();

    let mut client = HttpClient::new(router.addr());
    let total = 40usize;
    let mut completions = 0usize;
    for i in 0..total {
        if i == total / 2 {
            // SIGKILL-equivalent for an in-process node: tear the runtime
            // down mid-stream, listener socket and all.
            nodes.remove(owner_idx).shutdown();
        }
        let body = format!("req-{i}");
        let resp = client
            .request("POST", "/echo", &[], body.as_bytes())
            .unwrap_or_else(|e| panic!("request {i} died at the router: {e}"));
        // Exactly-one-completion: every request gets exactly one 200 and
        // it carries this request's unique body — no loss, no duplication,
        // no stale answer from the killed node.
        assert_eq!(
            resp.status,
            200,
            "request {i}: {:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(
            resp.body,
            body.as_bytes(),
            "request {i} answered with wrong body"
        );
        completions += 1;
    }
    assert_eq!(completions, total);

    let s = router.stats();
    assert_eq!(s.routed as usize, total);
    assert_eq!(s.failed, 0, "no request may be lost to the kill");
    // The dead owner's traffic went elsewhere either by failover or because
    // warm-pool steering had already moved it off the owner before the kill.
    assert!(
        s.failed_over + s.steered >= 1,
        "the killed owner's keys must have moved to a survivor: {s:?}"
    );

    // The prober notices the death and the ring metrics say so.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client.request("GET", "/metrics", &[], b"").unwrap();
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        if text.contains(&format!("sledge_ring_node_healthy{{node=\"{owner}\"}} 0")) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "prober never marked {owner} down:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // And the ring keeps serving without the dead node.
    let resp = client
        .request("POST", "/echo", &[], b"after the wake")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"after the wake");

    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

/// One connection of a stand-in node that knows only what the router needs:
/// `GET /healthz` is alive, any other `GET` is absent, and a `POST` is
/// answered with `body` once `before_reply` returns.
fn serve_conn(mut stream: TcpStream, body: &[u8], before_reply: impl Fn()) {
    let mut parser = RequestParser::new(1 << 16);
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        let mut status = parser.feed(&buf[..n]);
        while let Ok(ParseStatus::Complete(req)) = status {
            let resp = if req.method == "POST" {
                before_reply();
                Response::ok(body.to_vec())
            } else if req.path == "/healthz" {
                Response::ok(b"ok".to_vec())
            } else {
                Response::error(StatusCode::NotFound, "stand-in node")
            };
            if stream.write_all(&resp.to_bytes()).is_err() {
                return;
            }
            status = parser.advance();
        }
    }
}

#[test]
fn forwarders_forward_concurrently() {
    // Two forwarders share one job receiver. While one of them waits on a
    // node that sits on its reply, the other must still take and finish a
    // request for a healthy node — which it cannot if the receiver's lock
    // is held across `forward()`.
    let listen = || TcpListener::bind("127.0.0.1:0").unwrap();
    let (stalled, healthy) = (listen(), listen());
    let members = vec![
        ("stalled".to_string(), stalled.local_addr().unwrap()),
        ("healthy".to_string(), healthy.local_addr().unwrap()),
    ];
    let config = RouterConfig {
        workers: 2,
        replicas: 1,
        probe_interval: Duration::from_secs(60),
        ..test_config()
    };
    let router = Router::start(config, members.clone(), "127.0.0.1:0".parse().unwrap()).unwrap();
    let path_owned_by = |node: &str| {
        (0..)
            .map(|i| format!("/fn-{i}"))
            .find(|p| router.ring().lookup_name(p) == Some(node))
            .unwrap()
    };
    let (stalled_path, healthy_path) = (path_owned_by("stalled"), path_owned_by("healthy"));
    let router_addr = router.addr();
    let post = move |path: &str| {
        let config = ClientConfig {
            read_timeout: Some(Duration::from_secs(3)),
            ..Default::default()
        };
        HttpClient::with_config(router_addr, config).request("POST", path, &[], b"x")
    };

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let stopping = AtomicBool::new(false);

    // Every wait in the scope is bounded and nothing in it panics, so a
    // router that serializes its forwarders fails the assertions below
    // instead of hanging the scope's joins.
    let (held, through_healthy, through_stalled) = std::thread::scope(|s| {
        let (held_tx, release_rx, stopping) = (&held_tx, &release_rx, &stopping);
        let node = |listener: TcpListener, body: &'static [u8], stalls: bool| {
            s.spawn(move || {
                for stream in listener.incoming().map_while(Result::ok) {
                    if stopping.load(Ordering::Acquire) {
                        return;
                    }
                    s.spawn(move || {
                        serve_conn(stream, body, || {
                            if stalls {
                                held_tx.send(()).unwrap();
                                let _ = release_rx.lock().unwrap().recv();
                            }
                        })
                    });
                }
            });
        };
        node(stalled, b"late", true);
        node(healthy, b"prompt", false);

        let slow = s.spawn(|| post(&stalled_path));
        let held = held_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        let through_healthy = post(&healthy_path);
        drop(release_tx);
        let through_stalled = slow.join().unwrap();

        // Closing the router's connections ends the connection threads; a
        // last dial each gets the accept loops to see `stopping`.
        router.shutdown();
        stopping.store(true, Ordering::Release);
        for (_, addr) in &members {
            let _ = TcpStream::connect(addr);
        }
        (held, through_healthy, through_stalled)
    });

    assert!(held, "the stalled node never saw its request");
    let resp = through_healthy.expect("blocked behind the stalled forwarder");
    assert_eq!((resp.status, resp.body.as_slice()), (200, &b"prompt"[..]));
    let resp = through_stalled.expect("the released request must complete");
    assert_eq!((resp.status, resp.body.as_slice()), (200, &b"late"[..]));
}
