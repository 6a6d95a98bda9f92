//! The listener core: request intake, sandbox instantiation, admission
//! control, and load-balancer injection (it is the single owner of the
//! global work-stealing deque, exactly as in the paper's Figure 4).

use crate::registry::FunctionId;
use crate::sandbox::{Completion, Outcome, Sandbox, Timings};
use crate::Shared;
use awsm::EngineConfig;
use sledge_deque::Worker as DequeWorker;
use sledge_http::{ConnectionEvent, HttpServer, Response, StatusCode};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connection id re-export from the HTTP layer.
pub type ConnId = u64;

/// Where a completion is delivered.
pub enum AnyResponder {
    /// In-process invoker.
    Channel(SyncSender<Completion>),
    /// HTTP client; the worker serializes the response and hands the bytes
    /// back to the listener thread, which owns the socket.
    Http {
        /// Connection to respond on.
        conn: ConnId,
        /// Channel back to the listener.
        reply: Sender<(ConnId, Vec<u8>)>,
    },
    /// Fire-and-forget (load generation).
    Discard,
}

impl AnyResponder {
    /// Deliver a completion.
    pub fn deliver(self, completion: Completion) {
        match self {
            AnyResponder::Channel(tx) => {
                let _ = tx.send(completion);
            }
            AnyResponder::Http { conn, reply } => {
                let resp = match &completion.outcome {
                    Outcome::Success(body) => Response::ok(body.clone()),
                    Outcome::Trapped(t) => Response::error(
                        StatusCode::InternalServerError,
                        &format!("function trapped: {t}"),
                    ),
                    Outcome::Rejected(why) => Response::error(StatusCode::ServiceUnavailable, why),
                    Outcome::TimedOut => {
                        Response::error(StatusCode::GatewayTimeout, "function deadline exceeded")
                    }
                    Outcome::CircuitOpen { retry_after } => {
                        Response::error(StatusCode::ServiceUnavailable, "circuit breaker open")
                            .retry_after(*retry_after)
                    }
                    Outcome::Throttled { retry_after, why } => {
                        Response::error(StatusCode::TooManyRequests, why).retry_after(*retry_after)
                    }
                };
                let _ = reply.send((conn, resp.to_bytes()));
            }
            AnyResponder::Discard => {}
        }
    }
}

/// One intake message to the listener.
pub(crate) enum Intake {
    /// In-process invocation.
    Invoke {
        function: FunctionId,
        body: Vec<u8>,
        responder: AnyResponder,
    },
    /// Ask the listener to exit promptly.
    Wake,
}

fn deliver_now(function: FunctionId, responder: AnyResponder, outcome: Outcome) {
    responder.deliver(Completion {
        function,
        outcome,
        timings: Timings {
            arrival: Instant::now(),
            instantiation: Duration::ZERO,
            queue_delay: Duration::ZERO,
            execution: Duration::ZERO,
            preempted: Duration::ZERO,
            blocked: Duration::ZERO,
            total: Duration::ZERO,
            preemptions: 0,
        },
    });
}

fn reject(shared: &Shared, function: FunctionId, responder: AnyResponder, why: &'static str) {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    deliver_now(function, responder, Outcome::Rejected(why));
}

/// Instantiate and inject one request. Runs on the listener thread.
fn admit(
    shared: &Shared,
    deque: &DequeWorker<Box<Sandbox>>,
    function: FunctionId,
    body: Vec<u8>,
    responder: AnyResponder,
) {
    if shared.draining.load(Ordering::Acquire) {
        reject(shared, function, responder, "draining");
        return;
    }
    if shared.pending.load(Ordering::Relaxed) >= shared.config.max_pending {
        reject(shared, function, responder, "admission queue full");
        return;
    }
    let Some(rf) = shared.registry().get(function).cloned() else {
        reject(shared, function, responder, "unknown function");
        return;
    };
    // Overload shedding by priority class: class p is shed once in-flight
    // load reaches (p+1)/4 of the cap, so ping-class (priority 3) tenants
    // keep flowing until the full cap while priority-0 antagonists are
    // shed from quarter load.
    if shared.config.max_inflight > 0 {
        let class = rf.config.priority.min(crate::config::MAX_PRIORITY) as usize;
        let slots = crate::config::MAX_PRIORITY as usize + 1;
        let threshold = (shared.config.max_inflight * (class + 1) / slots).max(1);
        if shared.inflight.load(Ordering::Acquire) >= threshold {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            rf.stats.shed.fetch_add(1, Ordering::Relaxed);
            deliver_now(
                function,
                responder,
                Outcome::Throttled {
                    retry_after: Duration::from_secs(1),
                    why: "overloaded: shed by in-flight cap",
                },
            );
            return;
        }
    }
    // Circuit breaker gate: fast-reject tripped functions; a single
    // half-open probe is admitted per cooldown.
    let mut is_probe = false;
    if let Some(cb) = &shared.config.circuit_breaker {
        match rf.stats.breaker_admit(cb, shared.now_ns()) {
            Ok(probe) => is_probe = probe,
            Err(retry_after) => {
                shared
                    .stats
                    .breaker_rejected
                    .fetch_add(1, Ordering::Relaxed);
                deliver_now(function, responder, Outcome::CircuitOpen { retry_after });
                return;
            }
        }
    }
    // Any reject path past this point must tell the breaker the probe died
    // unexecuted, or it would stay half-open forever.
    let probe_rejected = |rf: &crate::registry::RegisteredFunction| {
        if is_probe {
            rf.stats.breaker_probe_rejected(shared.now_ns());
        }
    };
    // Queue-SLO gate: when the function's observed queue-phase p99 is
    // already past its SLO, queueing more work behind the blown target
    // helps nobody — reject early and let the client back off for about
    // one SLO span.
    if let Some(slo) = rf.config.queue_slo {
        if rf.queue_p99_ns(shared.now_ns()) > slo.as_nanos() as u64 {
            shared.stats.slo_rejected.fetch_add(1, Ordering::Relaxed);
            rf.stats.slo_rejected.fetch_add(1, Ordering::Relaxed);
            probe_rejected(&rf);
            deliver_now(
                function,
                responder,
                Outcome::Throttled {
                    retry_after: slo,
                    why: "queue latency SLO exceeded",
                },
            );
            return;
        }
    }
    // Work-budget gate: charge the entry's certified cost against the
    // function's token bucket. The worker trues the charge up against the
    // fuel actually burned at completion.
    let mut budget_charge = None;
    if let Some(bucket) = &rf.budget {
        match bucket.try_charge(rf.admission_cost, shared.now_ns()) {
            Ok(()) => budget_charge = Some(rf.admission_cost),
            Err(wait) => {
                shared.stats.budget_rejected.fetch_add(1, Ordering::Relaxed);
                rf.stats.budget_rejected.fetch_add(1, Ordering::Relaxed);
                probe_rejected(&rf);
                deliver_now(
                    function,
                    responder,
                    Outcome::Throttled {
                        retry_after: wait,
                        why: "work budget exhausted",
                    },
                );
                return;
            }
        }
    }
    // A later reject path must also hand the admission charge back — the
    // invocation never ran, so it burned nothing.
    let refund = |rf: &crate::registry::RegisteredFunction| {
        if let (Some(charge), Some(bucket)) = (budget_charge, rf.budget.as_ref()) {
            bucket.true_up(charge, 0, shared.now_ns());
        }
    };
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    if let Some(plan) = &shared.config.fault_plan {
        if plan.fail_instantiation(seq) {
            probe_rejected(&rf);
            refund(&rf);
            reject(shared, function, responder, "instantiation failed");
            return;
        }
    }
    let engine = EngineConfig {
        bounds: shared.config.bounds,
        tier: shared.config.tier,
        ..Default::default()
    };
    // The µs-level function startup path: allocate + start.
    let mut sandbox = match Sandbox::new(Arc::clone(&rf), engine, body, responder, shared.epoch) {
        Ok(s) => s,
        Err((_, responder)) => {
            // Instantiation failures are configuration bugs (e.g. data
            // segments out of bounds) — but the client still gets an
            // answer instead of a hung connection.
            probe_rejected(&rf);
            refund(&rf);
            reject(shared, function, responder, "instantiation failed");
            return;
        }
    };
    if sandbox.start().is_err() {
        probe_rejected(&sandbox.function);
        refund(&sandbox.function);
        reject(
            shared,
            function,
            sandbox.responder_take(),
            "bad entry point",
        );
        return;
    }
    sandbox.breaker_probe = is_probe;
    sandbox.budget_charge = budget_charge;
    sandbox.deadline = sandbox
        .function
        .effective_deadline(shared.config.deadline)
        .map(|d| sandbox.arrival + d);
    if let Some(plan) = &shared.config.fault_plan {
        // A burst invocation is turned into a sustained hog: every logical
        // host call stalls for the burst latency, modelling an antagonist
        // stampede for the fairness chaos tests.
        let mut plan = *plan;
        if plan.burst_invocation(seq) {
            plan.host_latency_pct = 100.0;
            plan.host_latency = plan.host_latency.max(plan.burst_latency);
        }
        sandbox.set_fault(plan, seq);
    }
    rf.stats.admitted.fetch_add(1, Ordering::Relaxed);
    shared.stats.record_instantiation(sandbox.instantiation);
    shared.pending.fetch_add(1, Ordering::Relaxed);
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    deque.push(sandbox);
}

/// Handle one `POST /admin/modules` ingest: parse the framed body, decode
/// the artifact (checksum-verified), and register it through the strict
/// path that re-validates every certificate instead of re-translating.
///
/// Frame layout: `u32 LE config length | function-config JSON | artifact`.
fn ingest_module(shared: &Shared, body: &[u8]) -> Response {
    match try_ingest(shared, body) {
        Ok((name, route)) => {
            Response::ok(format!("{{\"registered\":{name:?},\"route\":{route:?}}}").into_bytes())
                .header("Content-Type", "application/json")
        }
        Err(why) => Response::error(StatusCode::BadRequest, &why),
    }
}

fn try_ingest(shared: &Shared, body: &[u8]) -> Result<(String, String), String> {
    if shared.draining.load(Ordering::Acquire) {
        return Err("draining".into());
    }
    let Some(len_bytes) = body.get(..4) else {
        return Err("truncated frame: missing config length".into());
    };
    let cfg_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let rest = &body[4..];
    if rest.len() < cfg_len {
        return Err(format!(
            "truncated frame: config length {cfg_len} exceeds remaining {} bytes",
            rest.len()
        ));
    }
    let cfg_text =
        std::str::from_utf8(&rest[..cfg_len]).map_err(|_| "config is not UTF-8".to_string())?;
    let doc = crate::json::parse(cfg_text).map_err(|e| format!("config: {e}"))?;
    let config = crate::config::parse_function(&doc).map_err(|e| format!("config: {e}"))?;
    let artifact = &rest[cfg_len..];
    let compiled = awsm::decode_artifact(artifact).map_err(|e| format!("artifact: {e}"))?;
    let name = config.name.clone();
    let route = config.http_route();
    shared
        .registry_mut()
        .register_artifact(config, compiled, artifact.len())
        .map_err(|e| format!("register: {e}"))?;
    Ok((name, route))
}

/// The listener loop. Owns the deque, the intake channel, and (optionally)
/// the HTTP front end.
pub(crate) fn listener_loop(
    shared: Arc<Shared>,
    deque: DequeWorker<Box<Sandbox>>,
    intake: Receiver<Intake>,
    mut http: Option<HttpServer>,
    http_reply: Receiver<(ConnId, Vec<u8>)>,
    http_reply_tx: Sender<(ConnId, Vec<u8>)>,
) {
    let mut drain_started = false;
    loop {
        let mut worked = false;

        // Propagate a drain to the socket tier the moment it starts: new
        // peers get the socket-tier 503 while existing connections finish
        // their in-flight responses.
        if !drain_started && shared.draining.load(Ordering::Acquire) {
            drain_started = true;
            if let Some(server) = http.as_mut() {
                server.begin_drain();
            }
        }

        // Drain in-process invocations.
        while let Ok(msg) = intake.try_recv() {
            worked = true;
            match msg {
                Intake::Invoke {
                    function,
                    body,
                    responder,
                } => admit(&shared, &deque, function, body, responder),
                Intake::Wake => {}
            }
        }

        // Service the HTTP front end.
        if let Some(server) = http.as_mut() {
            // Flush completed responses owned by this thread.
            while let Ok((conn, bytes)) = http_reply.try_recv() {
                worked = true;
                server.send(conn, &bytes);
            }
            for ev in server.poll(Duration::ZERO) {
                worked = true;
                match ev {
                    ConnectionEvent::Request(conn, req) => {
                        // Dependency-free liveness probe, always on and
                        // reserved ahead of function routes: 200 while
                        // serving, 503 once the drain has started (load
                        // balancers steer away before intake rejects).
                        if req.method == "GET" && req.path == "/healthz" {
                            let resp = if shared.draining.load(Ordering::Acquire) {
                                Response::error(StatusCode::ServiceUnavailable, "draining")
                            } else {
                                Response::ok(b"ok".to_vec())
                            };
                            server.send(conn, &resp.to_bytes());
                            continue;
                        }
                        // Cluster-mode module ingest, gated by `admin_routes`
                        // (default off: the route falls through to the 404
                        // below and the node is byte-identical to earlier
                        // releases).
                        if shared.config.admin_routes
                            && req.method == "POST"
                            && req.path == "/admin/modules"
                        {
                            server.send(conn, &ingest_module(&shared, &req.body).to_bytes());
                            continue;
                        }
                        // Observability endpoints are served inline on the
                        // listener thread (merging shards is read-only and
                        // cheap) and take precedence over function routes.
                        if shared.config.metrics_routes
                            && req.method == "GET"
                            && (req.path == "/metrics" || req.path == "/stats")
                        {
                            let report = shared.latency_report();
                            let stats = shared.stats.snapshot();
                            let (body, ctype) = if req.path == "/metrics" {
                                (
                                    crate::metrics::render_prometheus(&report, &stats),
                                    "text/plain; version=0.0.4",
                                )
                            } else {
                                (
                                    crate::metrics::render_json(&report, &stats),
                                    "application/json",
                                )
                            };
                            server.send(
                                conn,
                                &Response::ok(body.into_bytes())
                                    .header("Content-Type", ctype)
                                    .to_bytes(),
                            );
                            continue;
                        }
                        let function = shared.registry().by_route(&req.path).map(|rf| rf.id);
                        match function {
                            Some(id) => admit(
                                &shared,
                                &deque,
                                id,
                                req.body,
                                AnyResponder::Http {
                                    conn,
                                    reply: http_reply_tx.clone(),
                                },
                            ),
                            None => {
                                server.send(
                                    conn,
                                    &Response::error(StatusCode::NotFound, "no such function")
                                        .to_bytes(),
                                );
                            }
                        }
                    }
                    ConnectionEvent::Closed(_) => {}
                }
            }
        }

        if shared.shutdown.load(Ordering::Acquire) {
            // Workers decrement `inflight` only after delivering the
            // completion, so by the time a drain observes inflight == 0
            // every HTTP reply is already in the channel — flush them (and
            // any queued connection bytes) before the socket owner exits,
            // bounded so a stuck peer cannot wedge shutdown.
            if let Some(server) = http.as_mut() {
                let deadline = Instant::now() + Duration::from_millis(250);
                loop {
                    // A pass that found replies is followed by another, so
                    // the loop ends on a pass that saw the channel empty.
                    let mut quiet = true;
                    while let Ok((conn, bytes)) = http_reply.try_recv() {
                        quiet = false;
                        server.send(conn, &bytes);
                    }
                    server.poll(Duration::ZERO);
                    let flushed = server.unflushed() == 0;
                    if (quiet && flushed) || Instant::now() >= deadline {
                        break;
                    }
                    if !flushed {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            return;
        }
        if !worked {
            if http.is_some() {
                // Keep polling the sockets at a modest rate.
                std::thread::sleep(Duration::from_micros(100));
            } else {
                // Block on the intake channel (with a timeout so shutdown is
                // observed).
                match intake.recv_timeout(Duration::from_millis(5)) {
                    Ok(Intake::Invoke {
                        function,
                        body,
                        responder,
                    }) => admit(&shared, &deque, function, body, responder),
                    Ok(Intake::Wake) | Err(_) => {}
                }
            }
        }
    }
}

impl Sandbox {
    /// Take the responder out (replacing it with a discard), used on error
    /// paths where the sandbox is being abandoned.
    pub(crate) fn responder_take(&mut self) -> AnyResponder {
        std::mem::replace(&mut self.responder, AnyResponder::Discard)
    }
}
