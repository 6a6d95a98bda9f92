//! The routing tier: an HTTP front end that places every request on the
//! consistent-hash ring, forwards it to the owning `sledged` node, and
//! fails over to the next ring replica on connect/5xx failure — with
//! health probes, per-node circuit breakers, warm-pool locality steering,
//! and ring-level metrics aggregation.

use crate::health::{BreakerConfig, NodeHealth};
use crate::ring::{HashRing, DEFAULT_VNODES};
use sledge_http::{
    ClientConfig, ClientResponse, ConnId, ConnectionEvent, HttpClient, HttpServer, Response,
    ServerConfig, StatusCode,
};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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
    /// Prefer a replica whose last `/stats` probe reported parked warm
    /// sandboxes when the key's owner reports a cold pool.
    pub locality: bool,
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
            locality: true,
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Ring-level counters (all monotonic).
#[derive(Debug, Default)]
pub struct RingStats {
    /// Requests dispatched onto the ring.
    pub routed: AtomicU64,
    /// Forward attempts beyond a request's first (any reason).
    pub retried: AtomicU64,
    /// Requests answered by a non-first candidate after the one before it
    /// failed.
    pub failed_over: AtomicU64,
    /// Requests whose candidate order was reordered toward a warm pool.
    pub steered: AtomicU64,
    /// Requests that exhausted every candidate.
    pub failed: AtomicU64,
    /// Health probes issued.
    pub probes: AtomicU64,
    /// Module artifacts accepted by a node during distribution.
    pub modules_pushed: AtomicU64,
    /// Module artifacts rejected by a node during distribution.
    pub module_rejects: AtomicU64,
}

/// Plain-value copy of [`RingStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStatsSnapshot {
    pub routed: u64,
    pub retried: u64,
    pub failed_over: u64,
    pub steered: u64,
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
            steered: self.steered.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            modules_pushed: self.modules_pushed.load(Ordering::Relaxed),
            module_rejects: self.module_rejects.load(Ordering::Relaxed),
        }
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
    stats: RingStats,
    shutdown: AtomicBool,
    epoch: Instant,
}

impl RouterShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn client_config(&self) -> ClientConfig {
        ClientConfig {
            connect_timeout: self.config.connect_timeout,
            read_timeout: Some(self.config.read_timeout),
            ..Default::default()
        }
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
                    health: NodeHealth::default(),
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
        let shared = Arc::new(RouterShared {
            config,
            ring,
            nodes,
            stats: RingStats::default(),
            shutdown: AtomicBool::new(false),
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
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ring-probe".into())
                    .spawn(move || prober_loop(shared))
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

    /// Per-node `(name, healthy, hot_pool)` as last probed.
    pub fn node_health(&self) -> Vec<(String, bool, bool)> {
        self.shared
            .nodes
            .iter()
            .map(|n| (n.name.clone(), n.health.is_healthy(), n.health.is_hot()))
            .collect()
    }

    /// Push one certificate-carrying artifact to **every** node (modules
    /// are replicated cluster-wide; the ring only spreads invocations).
    /// A node that rejects the certificate or is unreachable is reported
    /// and skipped — the ring keeps serving with the nodes that accepted.
    pub fn distribute(&self, config_json: &str, artifact: &[u8]) -> Vec<PushResult> {
        distribute(&self.shared, config_json, artifact)
    }

    /// Stop every thread and close the listen socket.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shared.shutdown.store(true, Ordering::Release);
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
    }
}

/// Build the `POST /admin/modules` frame a node's ingest endpoint expects:
/// `u32 LE config length | function-config JSON | artifact bytes`.
pub fn ingest_frame(config_json: &str, artifact: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + config_json.len() + artifact.len());
    frame.extend_from_slice(&(config_json.len() as u32).to_le_bytes());
    frame.extend_from_slice(config_json.as_bytes());
    frame.extend_from_slice(artifact);
    frame
}

fn distribute(shared: &RouterShared, config_json: &str, artifact: &[u8]) -> Vec<PushResult> {
    let frame = ingest_frame(config_json, artifact);
    let mut results = Vec::with_capacity(shared.nodes.len());
    for node in &shared.nodes {
        let mut client = HttpClient::with_config(node.addr, shared.client_config());
        let result = match client.request("POST", "/admin/modules", &[], &frame) {
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

/// Candidate order for one key: ring replicas, healthy nodes ahead of
/// unhealthy ones (kept as last resorts — the prober can lag reality),
/// optionally steered so a warm-pool node leads a cold owner.
fn candidate_order(shared: &RouterShared, key: &str) -> (Vec<usize>, bool) {
    let mut order = shared.ring.replicas(key, shared.config.replicas);
    order.sort_by_key(|&i| !shared.nodes[i].health.is_healthy());
    let mut steered = false;
    if shared.config.locality && order.len() > 1 {
        let hot = |i: usize| shared.nodes[i].health.is_healthy() && shared.nodes[i].health.is_hot();
        if let Some(pos) = order.iter().position(|&i| hot(i)) {
            if pos > 0 && !hot(order[0]) {
                let n = order.remove(pos);
                order.insert(0, n);
                steered = true;
            }
        }
    }
    (order, steered)
}

/// Forward one request with failover. Returns the response bytes to send
/// back to the router's client.
fn forward(shared: &RouterShared, clients: &mut [Option<HttpClient>], job: &Job) -> Vec<u8> {
    let (order, steered) = candidate_order(shared, &job.path);
    shared.stats.routed.fetch_add(1, Ordering::Relaxed);
    if steered {
        shared.stats.steered.fetch_add(1, Ordering::Relaxed);
    }
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
        if health.admit(shared.now_ns()).is_err() {
            continue;
        }
        attempts += 1;
        if attempts > 1 {
            shared.stats.retried.fetch_add(1, Ordering::Relaxed);
        }
        let client = clients[idx].get_or_insert_with(|| {
            HttpClient::with_config(shared.nodes[idx].addr, shared.client_config())
        });
        match client.request(&job.method, &job.path, &[], &job.body) {
            // Any parseable sub-5xx response is the node answering: 4xx is
            // the function's business (admission rejects, unknown routes),
            // not a node failure — pass it through.
            Ok(resp) if resp.status < 500 => {
                health.record_success();
                if attempts > 1 {
                    shared.stats.failed_over.fetch_add(1, Ordering::Relaxed);
                }
                return passthrough(&resp);
            }
            Ok(resp) => {
                health.record_failure(&shared.config.breaker, shared.now_ns());
                last_5xx = Some(passthrough(&resp));
            }
            Err(_) => {
                health.record_failure(&shared.config.breaker, shared.now_ns());
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

fn forwarder_loop(
    shared: Arc<RouterShared>,
    jobs: Arc<Mutex<Receiver<Job>>>,
    replies: Sender<(ConnId, Vec<u8>)>,
) {
    // One keep-alive client per node, owned by this thread.
    let mut clients: Vec<Option<HttpClient>> = shared.nodes.iter().map(|_| None).collect();
    loop {
        // The guard is a temporary of this statement alone: it must be gone
        // before `forward`, or one slow node would stall every forwarder.
        // A poisoned lock is recovered; a receiver has no state to corrupt.
        let next = jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv_timeout(Duration::from_millis(5));
        match next {
            Ok(job) => {
                let bytes = forward(&shared, &mut clients, &job);
                let _ = replies.send((job.conn, bytes));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn prober_loop(shared: Arc<RouterShared>) {
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
            node.health.probes.fetch_add(1, Ordering::Relaxed);
            let alive = matches!(
                client.request("GET", "/healthz", &[], b""),
                Ok(resp) if resp.status == 200
            );
            let mut hot = false;
            if alive {
                node.health.record_success();
                // Warm-pool and downstream-counter observation; `/stats`
                // may be disabled on the node (metrics_routes off) — that
                // only disables steering and aggregation, not routing.
                if let Ok(resp) = client.request("GET", "/stats", &[], b"") {
                    if resp.status == 200 {
                        if let Ok(doc) =
                            sledge_core::parse_json(&String::from_utf8_lossy(&resp.body))
                        {
                            hot = doc
                                .get("pool")
                                .and_then(|p| p.get("size"))
                                .and_then(|s| s.as_u64())
                                .is_some_and(|s| s > 0);
                            if let Some(completed) = doc
                                .get("counters")
                                .and_then(|c| c.get("completed"))
                                .and_then(|c| c.as_u64())
                            {
                                node.health
                                    .downstream_completed
                                    .store(completed, Ordering::Relaxed);
                            }
                        }
                    }
                }
            } else {
                node.health
                    .record_failure(&shared.config.breaker, shared.now_ns());
            }
            node.health.set_probed(alive, hot);
        }
        // Sleep in small slices so shutdown stays prompt.
        let mut left = shared.config.probe_interval;
        while !left.is_zero() {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let step = left.min(Duration::from_millis(20));
            std::thread::sleep(step);
            left -= step;
        }
    }
}

/// Ring-level Prometheus exposition: membership, per-node health, and the
/// routed/retried/failed-over counters, plus the aggregated downstream
/// completion count from the per-node `/stats` probes.
fn render_ring_metrics(shared: &RouterShared) -> String {
    let s = shared.stats.snapshot();
    let mut out = String::with_capacity(1024);
    out.push_str("# HELP sledge_ring_nodes Nodes in the routing ring.\n");
    out.push_str("# TYPE sledge_ring_nodes gauge\n");
    out.push_str(&format!("sledge_ring_nodes {}\n", shared.nodes.len()));
    out.push_str("# HELP sledge_ring_node_healthy Last probe verdict per node.\n");
    out.push_str("# TYPE sledge_ring_node_healthy gauge\n");
    for n in &shared.nodes {
        out.push_str(&format!(
            "sledge_ring_node_healthy{{node=\"{}\"}} {}\n",
            n.name,
            u8::from(n.health.is_healthy())
        ));
    }
    out.push_str("# HELP sledge_ring_node_hot_pool Node reported parked warm sandboxes.\n");
    out.push_str("# TYPE sledge_ring_node_hot_pool gauge\n");
    for n in &shared.nodes {
        out.push_str(&format!(
            "sledge_ring_node_hot_pool{{node=\"{}\"}} {}\n",
            n.name,
            u8::from(n.health.is_hot())
        ));
    }
    out.push_str("# HELP sledge_ring_node_failures_total Failed requests/probes per node.\n");
    out.push_str("# TYPE sledge_ring_node_failures_total counter\n");
    for n in &shared.nodes {
        out.push_str(&format!(
            "sledge_ring_node_failures_total{{node=\"{}\"}} {}\n",
            n.name,
            n.health.failures.load(Ordering::Relaxed)
        ));
    }
    for (name, v) in [
        ("sledge_ring_routed_total", s.routed),
        ("sledge_ring_retried_total", s.retried),
        ("sledge_ring_failed_over_total", s.failed_over),
        ("sledge_ring_steered_total", s.steered),
        ("sledge_ring_failed_total", s.failed),
        ("sledge_ring_probes_total", s.probes),
        ("sledge_ring_modules_pushed_total", s.modules_pushed),
        ("sledge_ring_module_rejects_total", s.module_rejects),
    ] {
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    let downstream: u64 = shared
        .nodes
        .iter()
        .map(|n| n.health.downstream_completed.load(Ordering::Relaxed))
        .sum();
    out.push_str("# HELP sledge_ring_downstream_completed_total Completed invocations summed over node /stats.\n");
    out.push_str("# TYPE sledge_ring_downstream_completed_total counter\n");
    out.push_str(&format!(
        "sledge_ring_downstream_completed_total {downstream}\n"
    ));
    out
}

/// Ring-level JSON stats (same data as the Prometheus text).
fn render_ring_stats(shared: &RouterShared) -> String {
    let s = shared.stats.snapshot();
    let mut out = String::with_capacity(1024);
    out.push_str("{\"nodes\":[");
    for (i, n) in shared.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{:?},\"addr\":\"{}\",\"healthy\":{},\"hot_pool\":{},\"failures\":{},\"consecutive_failures\":{},\"downstream_completed\":{}}}",
            n.name,
            n.addr,
            n.health.is_healthy(),
            n.health.is_hot(),
            n.health.failures.load(Ordering::Relaxed),
            n.health.consecutive_failures(),
            n.health.downstream_completed.load(Ordering::Relaxed),
        ));
    }
    out.push_str(&format!(
        "],\"counters\":{{\"routed\":{},\"retried\":{},\"failed_over\":{},\"steered\":{},\"failed\":{},\"probes\":{},\"modules_pushed\":{},\"module_rejects\":{}}}}}",
        s.routed, s.retried, s.failed_over, s.steered, s.failed, s.probes,
        s.modules_pushed, s.module_rejects,
    ));
    out
}

fn listener_loop(
    shared: Arc<RouterShared>,
    mut server: HttpServer,
    jobs: Sender<Job>,
    replies: Receiver<(ConnId, Vec<u8>)>,
) {
    loop {
        let mut worked = false;
        while let Ok((conn, bytes)) = replies.try_recv() {
            worked = true;
            server.send(conn, &bytes);
        }
        for ev in server.poll(Duration::ZERO) {
            worked = true;
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
            if req.method == "GET" && req.path == "/stats" {
                let body = render_ring_stats(&shared);
                server.send(
                    conn,
                    &Response::ok(body.into_bytes())
                        .header("Content-Type", "application/json")
                        .to_bytes(),
                );
                continue;
            }
            if req.method == "POST" && req.path == "/admin/modules" {
                // Distribution through the router: relay the frame to every
                // node and report per-node outcomes. Served inline — admin
                // pushes are rare and the forwarders keep routing meanwhile.
                let resp = match parse_push_frame(&req.body) {
                    Ok((config_json, artifact)) => {
                        let results = distribute(&shared, config_json, artifact);
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
                    Err(why) => Response::error(StatusCode::BadRequest, why),
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
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if !worked {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Sanity-check a relayed push frame without decoding the artifact (the
/// nodes re-validate everything; the router only rejects obvious garbage).
fn parse_push_frame(body: &[u8]) -> Result<(&str, &[u8]), &'static str> {
    let Some(len_bytes) = body.get(..4) else {
        return Err("truncated frame: missing config length");
    };
    let cfg_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let rest = &body[4..];
    if rest.len() < cfg_len {
        return Err("truncated frame: config length exceeds body");
    }
    let config_json = std::str::from_utf8(&rest[..cfg_len]).map_err(|_| "config is not UTF-8")?;
    Ok((config_json, &rest[cfg_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_frame_layout() {
        let frame = ingest_frame("{\"name\":\"f\"}", b"ART");
        assert_eq!(&frame[..4], &(12u32).to_le_bytes());
        assert_eq!(&frame[4..16], b"{\"name\":\"f\"}");
        assert_eq!(&frame[16..], b"ART");
        let (cfg, art) = parse_push_frame(&frame).unwrap();
        assert_eq!(cfg, "{\"name\":\"f\"}");
        assert_eq!(art, b"ART");
        assert!(parse_push_frame(b"ab").is_err());
        let mut bad = (100u32).to_le_bytes().to_vec();
        bad.extend_from_slice(b"short");
        assert!(parse_push_frame(&bad).is_err());
    }

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
