//! The routing tier: an HTTP front end that places every request on the
//! consistent-hash ring, forwards it to the owning `sledged` node, and
//! fails over to the next ring replica on connect/5xx failure — with a
//! `/healthz` prober, per-node circuit breakers, and ring-level metrics.

use crate::ring::{HashRing, DEFAULT_VNODES};
use sledge_core::{escape_label, split_ingest_frame, Breaker, BreakerConfig};
use sledge_http::{
    format_request, ClientConfig, ClientResponse, ConnId, ConnectionEvent, HttpClient, HttpServer,
    Response, ServerConfig, StatusCode, Waker,
};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Ring replicas tried per key: the owner plus `replicas - 1` failover
    /// candidates in ring order.
    pub replicas: usize,
    /// Virtual nodes per physical node.
    pub vnodes: usize,
    /// Placement seed — part of the cluster contract: every router with
    /// the same seed and membership routes identically.
    pub seed: u64,
    /// Forwarder threads (each owns one keep-alive client per node).
    pub workers: usize,
    /// Health-probe period.
    pub probe_interval: Duration,
    /// Per-node circuit breaker (threshold/cooldown/half-open probe).
    pub breaker: BreakerConfig,
    /// Downstream connect timeout.
    pub connect_timeout: Duration,
    /// Downstream read timeout (covers function execution).
    pub read_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 2,
            vnodes: DEFAULT_VNODES,
            seed: 0x51ed_9e00,
            workers: 4,
            probe_interval: Duration::from_millis(500),
            breaker: BreakerConfig {
                threshold: 3,
                cooldown: Duration::from_millis(1000),
            },
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Ring-level counters (all monotonic).
#[derive(Debug, Default)]
pub(crate) struct RingStats {
    /// Requests dispatched onto the ring.
    pub routed: AtomicU64,
    /// Forward attempts beyond a request's first (any reason).
    pub retried: AtomicU64,
    /// Requests answered by a replica other than their key's ring owner:
    /// the owner failed the attempt, its breaker was open, or the prober
    /// had marked it down.
    pub failed_over: AtomicU64,
    /// Requests that exhausted every candidate.
    pub failed: AtomicU64,
    /// Health probes issued.
    pub probes: AtomicU64,
    /// Modules accepted by a node during distribution.
    pub modules_pushed: AtomicU64,
    /// Modules rejected by a node during distribution.
    pub module_rejects: AtomicU64,
}

/// Plain-value copy of `RingStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStatsSnapshot {
    pub routed: u64,
    pub retried: u64,
    pub failed_over: u64,
    pub failed: u64,
    pub probes: u64,
    pub modules_pushed: u64,
    pub module_rejects: u64,
}

impl RingStats {
    fn snapshot(&self) -> RingStatsSnapshot {
        RingStatsSnapshot {
            routed: self.routed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            failed_over: self.failed_over.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            modules_pushed: self.modules_pushed.load(Ordering::Relaxed),
            module_rejects: self.module_rejects.load(Ordering::Relaxed),
        }
    }
}

/// One node's health, shared between the forwarders and the prober.
#[derive(Debug)]
struct NodeHealth {
    /// Last `GET /healthz` verdict. Nodes start healthy so the ring serves
    /// before the first probe.
    healthy: AtomicBool,
    /// Lifetime failed requests and probes.
    failures: AtomicU64,
    /// Fed by live traffic and the prober alike.
    breaker: Breaker,
}

impl NodeHealth {
    fn record(&self, cfg: &BreakerConfig, success: bool, now_ns: u64) {
        if !success {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.breaker.record(Some(cfg), success, now_ns);
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }
}

/// One downstream node.
#[derive(Debug)]
struct Node {
    name: String,
    addr: SocketAddr,
    health: NodeHealth,
}

struct RouterShared {
    config: RouterConfig,
    /// Membership is fixed at startup; node indices align with the ring's.
    ring: HashRing,
    nodes: Vec<Node>,
    /// One held keep-alive connection per node (index-aligned with
    /// `nodes`) for module distribution; the lock makes distributions take
    /// turns, so each connection carries one exchange at a time.
    admin: Mutex<Vec<HttpClient>>,
    stats: RingStats,
    shutdown: AtomicBool,
    /// Ends the listener's blocking poll: forwarders wake it after each
    /// reply, shutdown after setting the flag.
    waker: Arc<Waker>,
    epoch: Instant,
}

impl RouterShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Downstream connection knobs, for forwarding and distribution alike.
fn client_config(config: &RouterConfig) -> ClientConfig {
    ClientConfig {
        connect_timeout: config.connect_timeout,
        read_timeout: Some(config.read_timeout),
        ..Default::default()
    }
}

/// One request handed from the listener to a forwarder.
struct Job {
    conn: ConnId,
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Per-node outcome of a module distribution push.
#[derive(Debug)]
pub struct PushResult {
    /// Node name.
    pub node: String,
    /// `Ok(route)` when the node registered the module; `Err(reason)` when
    /// it rejected or was unreachable (the ring keeps serving either way).
    pub result: Result<String, String>,
}

/// The routing tier. Bind with [`Router::start`], push modules with
/// [`Router::distribute`], stop with [`Router::shutdown`].
pub struct Router {
    shared: Arc<RouterShared>,
    threads: Vec<JoinHandle<()>>,
    addr: SocketAddr,
    /// Dropping it ends the prober's wait between rounds.
    stop_probe: Option<Sender<()>>,
}

impl Router {
    /// Start a router over `nodes` (name, address), serving on `listen`
    /// (port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn start(
        config: RouterConfig,
        nodes: Vec<(String, SocketAddr)>,
        listen: SocketAddr,
    ) -> io::Result<Router> {
        let mut ring = HashRing::new(config.seed, config.vnodes);
        let nodes: Vec<Node> = nodes
            .into_iter()
            .map(|(name, addr)| {
                ring.add(&name);
                Node {
                    name,
                    addr,
                    health: NodeHealth {
                        healthy: AtomicBool::new(true),
                        failures: AtomicU64::new(0),
                        breaker: Breaker::default(),
                    },
                }
            })
            .collect();
        // Ring indices must match `nodes` indices: the ring sorts nothing
        // across adds, so insertion order is index order.
        debug_assert!(ring
            .node_names()
            .iter()
            .zip(nodes.iter())
            .all(|(rn, n)| *rn == n.name));

        let server = HttpServer::bind(listen, ServerConfig::default())?;
        let addr = server.local_addr()?;
        let admin_config = client_config(&config);
        let admin = nodes
            .iter()
            .map(|n| HttpClient::with_config(n.addr, admin_config))
            .collect();
        let shared = Arc::new(RouterShared {
            config,
            ring,
            nodes,
            admin: Mutex::new(admin),
            stats: RingStats::default(),
            shutdown: AtomicBool::new(false),
            waker: server.waker(),
            epoch: Instant::now(),
        });

        let (job_tx, job_rx) = channel::<Job>();
        // The forwarders are the one multi-consumer hand-off: they take
        // turns at the receiver behind a mutex.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (reply_tx, reply_rx) = channel::<(ConnId, Vec<u8>)>();
        let mut threads = Vec::new();
        for i in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let (job_rx, reply_tx) = (Arc::clone(&job_rx), reply_tx.clone());
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ring-forward-{i}"))
                    .spawn(move || forwarder_loop(shared, job_rx, reply_tx))
                    .expect("spawn forwarder"),
            );
        }
        let (stop_probe, probe_stopped) = channel();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ring-probe".into())
                    .spawn(move || prober_loop(shared, probe_stopped))
                    .expect("spawn prober"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ring-listener".into())
                    .spawn(move || listener_loop(shared, server, job_tx, reply_rx))
                    .expect("spawn listener"),
            );
        }
        Ok(Router {
            shared,
            threads,
            addr,
            stop_probe: Some(stop_probe),
        })
    }

    /// The router's own listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The placement ring (read-only; membership is fixed at startup).
    pub fn ring(&self) -> &HashRing {
        &self.shared.ring
    }

    /// Ring counter snapshot.
    pub fn stats(&self) -> RingStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Push one `.wasm` to **every** node (modules are
    /// replicated cluster-wide; the ring only spreads invocations).
    /// A node that rejects the module or is unreachable is reported
    /// and skipped — the ring keeps serving with the nodes that accepted.
    pub fn distribute(&self, config_json: &str, wasm: &[u8]) -> Vec<PushResult> {
        distribute(&self.shared, config_json, wasm)
    }

    /// Stop every thread and close the listen socket.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // The listener checks the flag after it arms, so the wake reaches
        // it whether it is blocked in `poll` or about to be; the forwarders
        // follow when it drops the job sender.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        // Closing the channel ends the prober's wait at once.
        self.stop_probe.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

fn distribute(shared: &RouterShared, config_json: &str, wasm: &[u8]) -> Vec<PushResult> {
    let frame = sledge_core::ingest_frame(config_json, wasm);
    let request = format_request("POST", "/admin/modules", &[], &frame);
    let mut clients = shared.admin.lock().unwrap_or_else(|poisoned| {
        // A panic mid-exchange can leave a reply unread on a held
        // connection: start over on fresh dials.
        shared.admin.clear_poison();
        let mut clients = poisoned.into_inner();
        clients.iter_mut().for_each(HttpClient::disconnect);
        clients
    });
    // Every node gets the frame before any reply is read, so the nodes
    // build it side by side rather than one after another.
    let sent: Vec<_> = clients.iter_mut().map(|c| c.begin(&request)).collect();
    let mut results = Vec::with_capacity(shared.nodes.len());
    for ((node, client), sent) in shared.nodes.iter().zip(clients.iter_mut()).zip(sent) {
        let result = match client.finish(&request, sent) {
            Ok(resp) if resp.status == 200 => {
                shared.stats.modules_pushed.fetch_add(1, Ordering::Relaxed);
                Ok(String::from_utf8_lossy(&resp.body).into_owned())
            }
            Ok(resp) => {
                shared.stats.module_rejects.fetch_add(1, Ordering::Relaxed);
                Err(format!(
                    "{}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                ))
            }
            Err(e) => {
                shared.stats.module_rejects.fetch_add(1, Ordering::Relaxed);
                Err(format!("unreachable: {e}"))
            }
        };
        results.push(PushResult {
            node: node.name.clone(),
            result,
        });
    }
    results
}

/// Serialize a downstream response back onto the router's client,
/// preserving the status and the headers that matter (content type and
/// back-off hints); everything else is the router's own framing.
fn passthrough(resp: &ClientResponse) -> Vec<u8> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    };
    let mut out = Vec::with_capacity(resp.body.len() + 128);
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", resp.status, reason).as_bytes());
    for name in ["content-type", "retry-after"] {
        if let Some(v) = resp.header(name) {
            out.extend_from_slice(format!("{name}: {v}\r\n").as_bytes());
        }
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", resp.body.len()).as_bytes());
    out.extend_from_slice(&resp.body);
    out
}

/// Forward one request with failover. Returns the response bytes to send
/// back to the router's client.
fn forward(shared: &RouterShared, clients: &mut [Option<HttpClient>], job: &Job) -> Vec<u8> {
    // Candidates are the key's ring replicas, healthy nodes first; the
    // unhealthy stay as last resorts, since the prober can lag reality.
    let mut order = shared.ring.replicas(&job.path, shared.config.replicas);
    let owner = order.first().copied();
    order.sort_by_key(|&i| !shared.nodes[i].health.is_healthy());
    shared.stats.routed.fetch_add(1, Ordering::Relaxed);
    if order.is_empty() {
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        return Response::error(StatusCode::ServiceUnavailable, "ring has no nodes").to_bytes();
    }
    let mut attempts = 0u64;
    let mut last_5xx: Option<Vec<u8>> = None;
    for &idx in &order {
        let health = &shared.nodes[idx].health;
        // Breaker gate: a tripped node is skipped outright; after its
        // cooldown this request doubles as the half-open probe.
        if health
            .breaker
            .admit(&shared.config.breaker, shared.now_ns())
            .is_err()
        {
            continue;
        }
        attempts += 1;
        if attempts > 1 {
            shared.stats.retried.fetch_add(1, Ordering::Relaxed);
        }
        let client = clients[idx].get_or_insert_with(|| {
            HttpClient::with_config(shared.nodes[idx].addr, client_config(&shared.config))
        });
        match client.request(&job.method, &job.path, &[], &job.body) {
            // Any parseable sub-5xx response is the node answering: 4xx is
            // the function's business (admission rejects, unknown routes),
            // not a node failure — pass it through.
            Ok(resp) if resp.status < 500 => {
                health.record(&shared.config.breaker, true, shared.now_ns());
                if Some(idx) != owner {
                    shared.stats.failed_over.fetch_add(1, Ordering::Relaxed);
                }
                return passthrough(&resp);
            }
            Ok(resp) => {
                health.record(&shared.config.breaker, false, shared.now_ns());
                last_5xx = Some(passthrough(&resp));
            }
            Err(_) => {
                health.record(&shared.config.breaker, false, shared.now_ns());
            }
        }
    }
    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    // Every candidate failed: relay the most informative downstream error,
    // or the router's own 503 when nothing even connected.
    last_5xx.unwrap_or_else(|| {
        Response::error(StatusCode::ServiceUnavailable, "no healthy replica")
            .retry_after(shared.config.breaker.cooldown)
            .to_bytes()
    })
}

/// Runs until the listener drops the job sender.
fn forwarder_loop(
    shared: Arc<RouterShared>,
    jobs: Arc<Mutex<Receiver<Job>>>,
    replies: Sender<(ConnId, Vec<u8>)>,
) {
    // One keep-alive client per node, owned by this thread.
    let mut clients: Vec<Option<HttpClient>> = shared.nodes.iter().map(|_| None).collect();
    loop {
        // The guard is a temporary of this statement alone (not of a
        // `while let` scrutinee, which would hold it through the body): it
        // must be gone before `forward`, or one slow node would stall every
        // forwarder. A poisoned lock is recovered; a receiver has no state
        // to corrupt.
        let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = next else { return };
        let bytes = forward(&shared, &mut clients, &job);
        if replies.send((job.conn, bytes)).is_ok() {
            shared.waker.wake();
        }
    }
}

/// Probes every node's `/healthz` once per `probe_interval`, waiting out the
/// interval on `stop`, which [`Router::shutdown`] closes.
fn prober_loop(shared: Arc<RouterShared>, stop: Receiver<()>) {
    let probe_config = ClientConfig {
        connect_timeout: shared.config.connect_timeout,
        read_timeout: Some(
            shared
                .config
                .connect_timeout
                .max(Duration::from_millis(250)),
        ),
        ..Default::default()
    };
    let mut clients: Vec<HttpClient> = shared
        .nodes
        .iter()
        .map(|n| HttpClient::with_config(n.addr, probe_config))
        .collect();
    loop {
        for (node, client) in shared.nodes.iter().zip(clients.iter_mut()) {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            shared.stats.probes.fetch_add(1, Ordering::Relaxed);
            let alive = matches!(
                client.request("GET", "/healthz", &[], b""),
                Ok(resp) if resp.status == 200
            );
            node.health
                .record(&shared.config.breaker, alive, shared.now_ns());
            node.health.healthy.store(alive, Ordering::Relaxed);
        }
        if stop.recv_timeout(shared.config.probe_interval) != Err(RecvTimeoutError::Timeout) {
            return;
        }
    }
}

/// Ring-level Prometheus exposition: membership, per-node health, and the
/// routed/retried/failed-over counters.
fn render_ring_metrics(shared: &RouterShared) -> String {
    let s = shared.stats.snapshot();
    let mut out = String::with_capacity(1024);
    out.push_str("# HELP sledge_ring_nodes Nodes in the routing ring.\n");
    out.push_str("# TYPE sledge_ring_nodes gauge\n");
    out.push_str(&format!("sledge_ring_nodes {}\n", shared.nodes.len()));
    let nodes: Vec<(String, &NodeHealth)> = shared
        .nodes
        .iter()
        .map(|n| (escape_label(&n.name), &n.health))
        .collect();
    let mut per_node = |name: &str, kind: &str, help: &str, value: fn(&NodeHealth) -> u64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (node, health) in &nodes {
            out.push_str(&format!("{name}{{node=\"{node}\"}} {}\n", value(health)));
        }
    };
    per_node(
        "sledge_ring_node_healthy",
        "gauge",
        "Last probe verdict per node.",
        |h| u64::from(h.is_healthy()),
    );
    per_node(
        "sledge_ring_node_consecutive_failures",
        "gauge",
        "Failed requests/probes per node since its last success.",
        |h| u64::from(h.breaker.consecutive_failures()),
    );
    per_node(
        "sledge_ring_node_failures_total",
        "counter",
        "Failed requests/probes per node.",
        |h| h.failures.load(Ordering::Relaxed),
    );
    for (name, v, help) in [
        ("routed", s.routed, "Requests sent onto the ring."),
        ("retried", s.retried, "Retried forward attempts."),
        (
            "failed_over",
            s.failed_over,
            "Requests failed over to a replica.",
        ),
        ("failed", s.failed, "Requests no replica answered."),
        ("probes", s.probes, "Health probes issued."),
        (
            "modules_pushed",
            s.modules_pushed,
            "Modules a node accepted.",
        ),
        (
            "module_rejects",
            s.module_rejects,
            "Modules a node rejected.",
        ),
    ] {
        let name = format!("sledge_ring_{name}_total");
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    }
    out
}

/// Blocks in `poll` until a socket is ready, a forwarder has queued a
/// reply, or shutdown: the latter two arrive through the server's waker.
fn listener_loop(
    shared: Arc<RouterShared>,
    mut server: HttpServer,
    jobs: Sender<Job>,
    replies: Receiver<(ConnId, Vec<u8>)>,
) {
    loop {
        server.arm();
        for (conn, bytes) in replies.try_iter() {
            server.send(conn, &bytes);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for ev in server.poll(Duration::MAX) {
            let ConnectionEvent::Request(conn, req) = ev else {
                continue;
            };
            if req.method == "GET" && req.path == "/healthz" {
                server.send(conn, &Response::ok(b"ok".to_vec()).to_bytes());
                continue;
            }
            if req.method == "GET" && req.path == "/metrics" {
                let body = render_ring_metrics(&shared);
                server.send(
                    conn,
                    &Response::ok(body.into_bytes())
                        .header("Content-Type", "text/plain; version=0.0.4")
                        .to_bytes(),
                );
                continue;
            }
            if req.method == "POST" && req.path == "/admin/modules" {
                // Distribution through the router: relay the frame to every
                // node and report per-node outcomes. Served inline — admin
                // pushes are rare and the forwarders keep routing meanwhile.
                let resp = match split_ingest_frame(&req.body) {
                    Ok((config_json, wasm)) => {
                        let results = distribute(&shared, config_json, wasm);
                        let ok = results.iter().filter(|r| r.result.is_ok()).count();
                        let mut body = String::from("{\"nodes\":{");
                        for (i, r) in results.iter().enumerate() {
                            if i > 0 {
                                body.push(',');
                            }
                            match &r.result {
                                Ok(_) => body.push_str(&format!("{:?}:\"ok\"", r.node)),
                                Err(e) => body.push_str(&format!("{:?}:{e:?}", r.node)),
                            }
                        }
                        body.push_str(&format!("}},\"accepted\":{ok}}}"));
                        if ok > 0 {
                            Response::ok(body.into_bytes())
                                .header("Content-Type", "application/json")
                        } else {
                            Response::error(StatusCode::BadRequest, &body)
                        }
                    }
                    Err(why) => Response::error(StatusCode::BadRequest, &why),
                };
                server.send(conn, &resp.to_bytes());
                continue;
            }
            // Everything else rides the ring.
            let _ = jobs.send(Job {
                conn,
                method: req.method,
                path: req.path,
                body: req.body,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_preserves_status_and_interesting_headers() {
        let resp = ClientResponse {
            status: 429,
            headers: vec![
                ("content-type".into(), "text/plain".into()),
                ("retry-after".into(), "2".into()),
                ("x-internal".into(), "dropped".into()),
            ],
            body: b"slow down".to_vec(),
        };
        let bytes = passthrough(&resp);
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("content-type: text/plain\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(!text.contains("x-internal"));
        assert!(text.ends_with("\r\n\r\nslow down"));
    }
}
