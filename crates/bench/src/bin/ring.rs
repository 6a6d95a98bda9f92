//! Routing-tier overhead and scaling benchmark (`results/ring.txt`).
//!
//! Three measurements over the same wasm echo workload:
//!
//! 1. **Direct** — closed-loop keep-alive clients against one `sledged`
//!    node's listener.
//! 2. **Routed ×1** — the same load through a `sledge-router` fronting
//!    that single node: the pure per-request cost of the routing tier
//!    (ring lookup, breaker check, one extra proxy hop).
//! 3. **Routed ×3** — the load spread by the ring over three nodes,
//!    across several function routes so the consistent hash actually
//!    distributes; reports the 1→3-node throughput scaling and the
//!    per-node completion spread.
//!
//! ```text
//! cargo run --release -p sledge-bench --bin ring [-- --secs N]
//! ```

use sledge_bench::{fmt_dur, LatencyStats};
use sledge_cluster::{BreakerConfig, Router, RouterConfig};
use sledge_core::{Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_http::HttpClient;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

fn router_over(nodes: &[&Runtime]) -> Router {
    let members: Vec<(String, SocketAddr)> = nodes
        .iter()
        .enumerate()
        .map(|(i, rt)| (format!("node-{i}"), rt.http_addr().unwrap()))
        .collect();
    Router::start(
        RouterConfig {
            replicas: 2,
            probe_interval: Duration::from_millis(200),
            breaker: BreakerConfig {
                threshold: 3,
                cooldown: Duration::from_millis(500),
            },
            ..Default::default()
        },
        members,
        "127.0.0.1:0".parse().unwrap(),
    )
    .unwrap()
}

/// Closed-loop keep-alive load: `conns` client threads hammer `addr`,
/// each cycling through `routes`, until `secs` elapse.
fn drive(addr: SocketAddr, routes: &[String], conns: usize, secs: u64) -> (f64, LatencyStats) {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let lats: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..conns {
            let stop = Arc::clone(&stop);
            handles.push(s.spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut lats = Vec::new();
                let mut i = c; // offset so threads start on different routes
                while !stop.load(Ordering::Relaxed) {
                    let route = &routes[i % routes.len()];
                    i += 1;
                    let t0 = Instant::now();
                    match client.request("POST", route, &[], b"ping") {
                        Ok(resp) if resp.status == 200 => lats.push(t0.elapsed()),
                        Ok(resp) => panic!("{route}: status {}", resp.status),
                        Err(e) => panic!("{route}: {e}"),
                    }
                }
                lats
            }));
        }
        let deadline = start + Duration::from_secs(secs);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = start.elapsed();
    let all: Vec<Duration> = lats.into_iter().flatten().collect();
    let n = all.len();
    (
        n as f64 / wall.as_secs_f64(),
        LatencyStats::from_samples(all),
    )
}

fn main() {
    let mut secs = 2u64;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--secs") {
        secs = args[i + 1].parse().expect("--secs N");
    }
    let conns = 4usize;
    let fns = 8usize;
    let routes: Vec<String> = (0..fns).map(|i| format!("/echo-{i}")).collect();
    let modules: Vec<(String, Vec<u8>)> = (0..fns)
        .map(|i| {
            let name = format!("echo-{i}");
            (
                name.clone(),
                sledge_wasm::encode::encode_module(&echo_guest(&name)),
            )
        })
        .collect();
    let distribute = |router: &Router| {
        for (name, wasm) in &modules {
            for push in router.distribute(&format!("{{\"name\": \"{name}\"}}"), wasm) {
                push.result.as_ref().unwrap_or_else(|e| {
                    panic!("distribute {name} to {}: {e}", push.node);
                });
            }
        }
    };

    println!("routing-tier overhead and scaling — {conns} conns, {fns} routes, {secs}s per cell\n");
    println!(
        "{:<12} {:>6} {:>12} {:>10} {:>10}",
        "path", "nodes", "req/s", "p50", "p99"
    );

    // Direct: one node, modules pushed straight to its ingest endpoint.
    let node = boot_node();
    {
        let push_router = router_over(&[&node]); // reuse distribute plumbing
        distribute(&push_router);
        push_router.shutdown();
    }
    let (direct_rps, direct_lat) = drive(node.http_addr().unwrap(), &routes, conns, secs);
    println!(
        "{:<12} {:>6} {:>12.0} {:>10} {:>10}",
        "direct",
        1,
        direct_rps,
        fmt_dur(direct_lat.p50),
        fmt_dur(direct_lat.p99)
    );

    // Routed ×1: same node behind the routing tier.
    let router1 = router_over(&[&node]);
    let (routed1_rps, routed1_lat) = drive(router1.addr(), &routes, conns, secs);
    println!(
        "{:<12} {:>6} {:>12.0} {:>10} {:>10}",
        "routed",
        1,
        routed1_rps,
        fmt_dur(routed1_lat.p50),
        fmt_dur(routed1_lat.p99)
    );
    router1.shutdown();
    node.shutdown();

    // Routed ×3: the ring spreads the 8 routes over three nodes.
    let nodes: Vec<Runtime> = (0..3).map(|_| boot_node()).collect();
    let refs: Vec<&Runtime> = nodes.iter().collect();
    let router3 = router_over(&refs);
    distribute(&router3);
    let (routed3_rps, routed3_lat) = drive(router3.addr(), &routes, conns, secs);
    println!(
        "{:<12} {:>6} {:>12.0} {:>10} {:>10}",
        "routed",
        3,
        routed3_rps,
        fmt_dur(routed3_lat.p50),
        fmt_dur(routed3_lat.p99)
    );

    let spread: Vec<u64> = nodes
        .iter()
        .map(|rt| rt.latency_report().stats.completed)
        .collect();
    let stats = router3.stats();
    router3.shutdown();
    for rt in nodes {
        rt.shutdown();
    }

    println!();
    println!(
        "routed/direct throughput: {:.2}x   p50 overhead: {}",
        routed1_rps / direct_rps,
        fmt_dur(routed1_lat.p50.saturating_sub(direct_lat.p50)),
    );
    println!(
        "1->3 node scaling: {:.2}x   per-node completions: {:?}",
        routed3_rps / routed1_rps,
        spread
    );
    println!(
        "router counters: routed {} retried {} failed_over {} failed {}",
        stats.routed, stats.retried, stats.failed_over, stats.failed
    );
    assert_eq!(stats.failed, 0, "routed load must not lose requests");
    assert!(
        spread.iter().filter(|&&c| c > 0).count() >= 2,
        "ring placed every route on one node: {spread:?}"
    );
}
