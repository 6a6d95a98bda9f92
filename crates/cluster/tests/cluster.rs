//! End-to-end cluster tests: a real `Router` over in-process `sledged`
//! runtimes — compiled-module distribution, ring routing, and the
//! chaos case: a node killed mid-stream with exactly-one-completion
//! preserved through failover — and the shipped `sledge-router` binary in
//! front of the same nodes.

use awsm::{encode_artifact, translate_with, Tier, TranslateOptions};
use sledge_cluster::{HashRing, Router, RouterConfig, DEFAULT_VNODES};
use sledge_core::{ingest_frame, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_http::{ClientConfig, HttpClient, ParseStatus, RequestParser, Response, StatusCode};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

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
    boot_node_with(RuntimeConfig::default())
}

/// A node with the ingest endpoint on, two workers and `config`'s other
/// settings.
fn boot_node_with(config: RuntimeConfig) -> Runtime {
    Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            admin_routes: true,
            ..config
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
    let router = Router::start(
        test_config(),
        members(&nodes),
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap();
    (nodes, router)
}

fn members(nodes: &[Runtime]) -> Vec<(String, SocketAddr)> {
    nodes
        .iter()
        .enumerate()
        .map(|(i, rt)| (format!("node-{i}"), rt.http_addr().unwrap()))
        .collect()
}

/// One `GET /healthz` answered by the router's own listener: once it
/// returns, the listener thread is running (and named).
fn router_answers(router: &Router) {
    let resp = HttpClient::new(router.addr())
        .request("GET", "/healthz", &[], b"")
        .unwrap();
    assert_eq!(resp.status, 200);
}

#[test]
fn distribution_pushes_certified_artifact_to_every_node() {
    let (nodes, router) = boot_cluster(3);
    let pushes = router.distribute(r#"{"name": "echo"}"#, &artifact_for(&echo_guest("echo")));
    assert_eq!(pushes.len(), 3);
    for p in &pushes {
        assert!(p.result.is_ok(), "{}: {:?}", p.node, p.result);
    }
    // Every node decoded and analysed the artifact on ingest and accepted it.
    for rt in &nodes {
        let reg = rt.registry_stats();
        assert_eq!(reg.modules_verified, 1);
        assert_eq!(reg.modules_rejected, 0);
    }
    assert_eq!(router.stats().modules_pushed, 3);

    // The push held its connection to each node: once the prober has
    // dialled too (its first round is over when a fourth probe starts), a
    // second push dials nothing.
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.stats().probes <= 3 {
        assert!(
            Instant::now() < deadline,
            "the prober never finished a round"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let accepted: Vec<u64> = nodes
        .iter()
        .map(|rt| rt.connection_stats().accepted)
        .collect();
    let pushes = router.distribute(r#"{"name": "echo2"}"#, &artifact_for(&echo_guest("echo2")));
    assert!(pushes.iter().all(|p| p.result.is_ok()), "{pushes:?}");
    for (rt, before) in nodes.iter().zip(accepted) {
        assert_eq!(rt.connection_stats().accepted, before);
    }

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
        "sledge_ring_node_failures_total{node=\"node-2\"}",
        "sledge_ring_routed_total",
        "sledge_ring_retried_total",
        "sledge_ring_failed_over_total",
        "sledge_ring_failed_total",
        "sledge_ring_probes_total",
        "sledge_ring_modules_pushed_total 3",
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

/// The chaos case: kill a node mid-stream and prove every request
/// completes exactly once — the killed node's keys fail over to the next
/// ring replica, nothing is lost, nothing is double-answered.
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
    // Every request after the kill is answered by a survivor, and an answer
    // from any node but the key's ring owner counts as failed over. So this
    // holds whether the first request after the kill found the owner dead
    // itself or the prober had already marked it down and sorted it last.
    assert!(
        s.failed_over >= 1,
        "the killed owner's keys must have moved to a survivor: {s:?}"
    );

    // The prober notices the death and the ring metrics say so.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client.request("GET", "/metrics", &[], b"").unwrap();
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        if text.contains(&format!("sledge_ring_node_healthy{{node=\"{owner}\"}} 0")) {
            // A node is marked down only after its failure is counted.
            let failures = format!("sledge_ring_node_failures_total{{node=\"{owner}\"}}");
            assert!(metric(&text, &failures) >= Some(1), "{text}");
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

/// A child process killed and reaped when dropped, so a failed assertion
/// does not leave it running.
struct Reaped(std::process::Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn metric(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
}

#[test]
fn sledge_router_binary_distributes_routes_and_fails_over() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("sledge-router-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (cfg, wasm) = (dir.join("cfg.json"), dir.join("echo.wasm"));
    std::fs::write(&cfg, r#"{"name": "echo"}"#).unwrap();
    let module = sledge_wasm::encode::encode_module(&echo_guest("echo"));
    std::fs::write(&wasm, module).unwrap();

    let mut nodes: Vec<Runtime> = (0..3).map(|_| boot_node()).collect();
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sledge-router"));
    cmd.args(["--listen", "127.0.0.1:0"]);
    for (i, rt) in nodes.iter().enumerate() {
        cmd.arg("--node")
            .arg(format!("node-{i}={}", rt.http_addr().unwrap()));
    }
    cmd.arg("--module")
        .arg(format!("{}={}", cfg.display(), wasm.display()))
        .args(["--probe-ms", "100", "--run-for-s", "60"])
        .stdout(std::process::Stdio::piped());
    let mut router = Reaped(cmd.spawn().expect("spawn sledge-router"));
    let mut lines = std::io::BufReader::new(router.0.stdout.take().unwrap()).lines();
    let mut next_line = || lines.next().expect("sledge-router exited").unwrap();
    let addr: SocketAddr = loop {
        let line = next_line();
        if let Some(rest) = line.strip_prefix("sledge-router listening on ") {
            break rest.parse().unwrap();
        }
    };
    // Serving starts once the push to every node is reported.
    let mut pushed = 0;
    while pushed < 3 {
        pushed += usize::from(next_line().ends_with(": ok"));
    }

    let mut client = HttpClient::new(addr);
    let resp = client
        .request("POST", "/echo", &[], b"over the ring")
        .unwrap();
    assert_eq!(
        (resp.status, resp.body.as_slice()),
        (200, &b"over the ring"[..])
    );
    let metrics = |client: &mut HttpClient| {
        let resp = client.request("GET", "/metrics", &[], b"").unwrap();
        String::from_utf8(resp.body).unwrap()
    };
    let text = metrics(&mut client);
    assert!(
        text.contains("sledge_ring_modules_pushed_total 3"),
        "{text}"
    );

    // The binary places keys with the default seed and vnodes.
    let mut ring = HashRing::new(RouterConfig::default().seed, DEFAULT_VNODES);
    for i in 0..3 {
        ring.add(&format!("node-{i}"));
    }
    let owner = ring.lookup_name("/echo").unwrap().to_string();
    let owner_idx: usize = owner.strip_prefix("node-").unwrap().parse().unwrap();
    nodes.remove(owner_idx).shutdown();
    for i in 0..10 {
        let body = format!("failover-{i}");
        let resp = client
            .request("POST", "/echo", &[], body.as_bytes())
            .unwrap();
        assert_eq!((resp.status, resp.body), (200, body.into_bytes()));
    }

    // Answered by a survivor, which counts as failed over whether or not
    // the prober marked the owner down first (see the chaos test).
    let down = format!("sledge_ring_node_healthy{{node=\"{owner}\"}} 0");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let text = loop {
        let text = metrics(&mut client);
        if text.contains(&down) || std::time::Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        text.contains(&down),
        "prober never marked {owner} down:\n{text}"
    );
    assert_eq!(
        metric(&text, "sledge_ring_routed_total"),
        Some(11),
        "{text}"
    );
    assert_eq!(metric(&text, "sledge_ring_failed_total"), Some(0), "{text}");
    let failed_over = metric(&text, "sledge_ring_failed_over_total");
    assert!(failed_over >= Some(1), "{text}");

    drop(router);
    for rt in nodes {
        rt.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The warm-pool steering switch is gone; the binary refuses it as an
    // unknown flag (spelled in halves so no whole copy of the deleted name
    // sits in the tree).
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sledge-router"))
        .args(["--node", "a=127.0.0.1:1", concat!("--no-", "locality")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

/// Shut an idle router down and time it. Its listener is blocked in
/// `epoll_wait` with nothing due, so only the shutdown wake can end it.
fn assert_prompt_shutdown(router: Router) {
    router_answers(&router);
    let start = Instant::now();
    router.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

#[test]
fn idle_router_shuts_down_promptly() {
    let (nodes, router) = boot_cluster(2);
    assert_prompt_shutdown(router);
    for rt in nodes {
        rt.shutdown();
    }
}

#[test]
fn router_whose_nodes_are_gone_shuts_down_promptly() {
    let (nodes, router) = boot_cluster(2);
    for rt in nodes {
        rt.shutdown();
    }
    assert_prompt_shutdown(router);
}

/// Tids of this process's threads named `name`.
fn threads_named(name: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            (comm.trim_end() == name).then_some(tid)
        })
        .collect()
}

fn voluntary_switches(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a voluntary_ctxt_switches line")
}

/// The router's listener blocks until there is work: counted, not timed.
/// A thread that naps between polls switches out once per nap (thousands
/// a second at 100 µs); one that blocks in `epoll_wait` switches out only
/// when its idle reaper is due (every 250 ms) or a socket stirs. The prober
/// waits out its interval in one blocking wait: at the default 500 ms it
/// probes each node twice a second, where 20 ms sleep slices added 50
/// wakeups a second on top.
#[test]
fn idle_router_listener_does_not_sleep_poll() {
    let config = RouterConfig {
        probe_interval: RouterConfig::default().probe_interval,
        ..test_config()
    };
    // Other tests start routers concurrently; retry until exactly one
    // listener and one prober were born across this router's start, which
    // are then ours.
    let (nodes, router, listener, prober) = loop {
        let before = [threads_named("ring-listener"), threads_named("ring-probe")];
        let nodes = vec![boot_node(), boot_node()];
        let router = Router::start(
            config.clone(),
            members(&nodes),
            "127.0.0.1:0".parse().unwrap(),
        )
        .unwrap();
        router_answers(&router);
        let [listeners, probers] = ["ring-listener", "ring-probe"].map(threads_named);
        let born = |now: Vec<String>, was: &[String]| -> Vec<String> {
            now.into_iter().filter(|t| !was.contains(t)).collect()
        };
        if let ([listener], [prober]) = (
            born(listeners, &before[0]).as_slice(),
            born(probers, &before[1]).as_slice(),
        ) {
            break (nodes, router, listener.clone(), prober.clone());
        }
        router.shutdown();
        for rt in nodes {
            rt.shutdown();
        }
    };
    let before = [&listener, &prober].map(|t| voluntary_switches(t));
    std::thread::sleep(Duration::from_secs(1));
    let [listener, prober] = [&listener, &prober].map(|t| voluntary_switches(t));
    let (listener, prober) = (listener - before[0], prober - before[1]);
    assert!(
        listener <= 50,
        "idle listener switched out {listener} times in 1 s"
    );
    assert!(
        prober <= 25,
        "idle prober switched out {prober} times in 1 s"
    );
    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}

/// `distribute` holds one connection per node. A held connection the node
/// has since reaped is redialled once; a node that is gone is reported
/// unreachable and the push still reaches the others.
#[test]
fn distribution_redials_reaped_connections_and_skips_a_gone_node() {
    let idle = RuntimeConfig {
        conn_idle: Duration::from_millis(50),
        ..Default::default()
    };
    let mut nodes = vec![boot_node_with(idle.clone()), boot_node_with(idle)];
    let config = RouterConfig {
        // One probe at start, so the nodes' connection counts below are
        // the distribution's alone after it.
        probe_interval: Duration::from_secs(60),
        ..test_config()
    };
    let router = Router::start(config, members(&nodes), "127.0.0.1:0".parse().unwrap()).unwrap();
    let push = |name: &str| {
        router.distribute(
            &format!(r#"{{"name": "{name}"}}"#),
            &artifact_for(&echo_guest(name)),
        )
    };
    for p in push("echo-a") {
        assert!(p.result.is_ok(), "{}: {:?}", p.node, p.result);
    }

    // Each node has seen the probe and the push, and has reaped every
    // connection it holds, the router's held one included.
    let deadline = Instant::now() + Duration::from_secs(5);
    while nodes.iter().any(|rt| {
        let conns = rt.connection_stats();
        conns.requests < 2 || conns.active() > 0
    }) {
        assert!(Instant::now() < deadline, "the nodes never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    let accepted: Vec<u64> = nodes
        .iter()
        .map(|rt| rt.connection_stats().accepted)
        .collect();
    for p in push("echo-b") {
        assert!(p.result.is_ok(), "{}: {:?}", p.node, p.result);
    }
    for (rt, before) in nodes.iter().zip(accepted) {
        assert_eq!(rt.connection_stats().accepted, before + 1, "one redial");
        assert!(rt.function_by_name("echo-b").is_some());
    }
    let resp = HttpClient::new(router.addr())
        .request("GET", "/metrics", &[], b"")
        .unwrap();
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(
        metric(&text, "sledge_ring_modules_pushed_total"),
        Some(4),
        "{text}"
    );

    nodes.remove(0).shutdown();
    let pushes = push("echo-c");
    assert_eq!(pushes[0].node, "node-0");
    let err = pushes[0].result.as_ref().unwrap_err();
    assert!(err.starts_with("unreachable"), "{err}");
    assert!(pushes[1].result.is_ok(), "{:?}", pushes[1].result);
    assert!(nodes[0].function_by_name("echo-c").is_some());
    assert_eq!(router.stats().modules_pushed, 5);

    router.shutdown();
    for rt in nodes {
        rt.shutdown();
    }
}
