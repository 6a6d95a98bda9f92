//! The listener core: request intake, sandbox instantiation, admission
//! control, and load-balancer injection (it is the single owner of the
//! global work-stealing deque, exactly as in the paper's Figure 4).

use crate::registry::{FunctionId, RegisterError};
use crate::sandbox::{Completion, Outcome, Sandbox, Timings};
use crate::Shared;
use awsm::EngineConfig;
use sledge_deque::Worker as DequeWorker;
use sledge_http::{ConnectionEvent, HttpServer, Response, StatusCode};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether the node answers `route` itself, ahead of any function: the
/// liveness probe, the exposition, and module ingest while `admin_routes`
/// is on. Registration refuses these routes.
pub(crate) fn is_reserved(route: &str, admin_routes: bool) -> bool {
    matches!(route, "/healthz" | "/metrics") || (admin_routes && route == "/admin/modules")
}

/// Connection id re-export from the HTTP layer.
pub(crate) type ConnId = u64;

/// Where a completion is delivered.
pub(crate) enum AnyResponder {
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
    /// No one to answer: what [`Sandbox::responder_take`] leaves behind.
    Discard,
}

impl AnyResponder {
    /// Deliver a completion.
    pub(crate) fn deliver(self, completion: Completion) {
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
    /// Make the listener re-read its drain and shutdown flags now.
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
        match rf.stats.breaker.admit(cb, shared.now_ns()) {
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
            rf.stats.breaker.probe_rejected(shared.now_ns());
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
    let engine = EngineConfig::default();
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
    rf.stats.admitted.fetch_add(1, Ordering::Relaxed);
    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
    shared.pending.fetch_add(1, Ordering::Relaxed);
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    deque.push(sandbox);
}

/// Handle one `POST /admin/modules` ingest: parse the framed body and
/// register its `.wasm` through the one registration path
/// [`Runtime::register_wasm`](crate::Runtime::register_wasm) takes. Unless
/// the same bytes are already in the module store, the node decodes,
/// validates and translates them under its own check-gap budget.
///
/// The body is an [`ingest_frame`].
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
    let (cfg_text, wasm) = split_ingest_frame(body)?;
    let doc = crate::json::parse(cfg_text).map_err(|e| format!("config: {e}"))?;
    let config = crate::config::parse_function(&doc).map_err(|e| format!("config: {e}"))?;
    let name = config.name.clone();
    let route = config.http_route();
    shared.register(config, wasm).map_err(|e| match e {
        RegisterError::Decode(_) | RegisterError::Translate(_) => {
            let stats = &shared.registry().stats;
            stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
            format!("module: {e}")
        }
        e => format!("register: {e}"),
    })?;
    Ok((name, route))
}

/// Build a `POST /admin/modules` frame:
/// `u32 LE config length | function-config JSON | .wasm`.
pub fn ingest_frame(config_json: &str, wasm: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + config_json.len() + wasm.len());
    frame.extend_from_slice(&(config_json.len() as u32).to_le_bytes());
    frame.extend_from_slice(config_json.as_bytes());
    frame.extend_from_slice(wasm);
    frame
}

/// Split an [`ingest_frame`] into its function-config text and its
/// `.wasm`, without looking inside either.
///
/// # Errors
///
/// Names the defect: no room for the length, a length past the end of
/// the frame, or a config that is not UTF-8.
pub fn split_ingest_frame(frame: &[u8]) -> Result<(&str, &[u8]), String> {
    let Some((len, rest)) = frame.split_first_chunk::<4>() else {
        return Err("truncated frame: missing config length".into());
    };
    let cfg_len = u32::from_le_bytes(*len) as usize;
    let Some((config, wasm)) = rest.split_at_checked(cfg_len) else {
        return Err(format!(
            "truncated frame: config length {cfg_len} exceeds remaining {} bytes",
            rest.len()
        ));
    };
    let config = std::str::from_utf8(config).map_err(|_| "config is not UTF-8".to_string())?;
    Ok((config, wasm))
}

/// How long the listener keeps its non-blocking poll after it last saw work
/// in flight, before it blocks (DESIGN §12). Requests that keep coming at
/// more than 20 a second are found by the nap; after a quiet spell this
/// long the node is idle.
const LINGER: Duration = Duration::from_millis(50);

/// The listener loop. Owns the deque, the intake channel, and (optionally)
/// the HTTP front end.
///
/// With a front end, an idle listener blocks in [`HttpServer::poll`] until
/// a socket stirs or a producer wakes it (DESIGN §12). Each pass arms the
/// server's waker, reads `inflight`, then drains the intake and the reply
/// channel. The wait is unbounded only when that read was 0, no read in the
/// last [`LINGER`] was above 0, and the drains found nothing. That is safe
/// because this thread alone admits work (`admit` is the only increment of
/// `inflight`) and a worker decrements `inflight` only after it has
/// delivered the reply. So a 0 read after the arm means every reply is
/// already in the channel, and none can follow before this thread's next
/// admission. Intake senders (`invoke`, drain, shutdown) wake the server
/// after they send. While anything is in flight, and for [`LINGER`] after,
/// the listener polls without blocking and naps 100 µs when a pass finds
/// nothing: replies arrive without a wake, and a request that follows soon
/// is picked up by the nap instead of by a wake-up whose cost varies from
/// run to run.
///
/// Without a front end, every completion goes straight to its invoker, so
/// the listener only ever waits for the intake, in a plain blocking `recv`.
pub(crate) fn listener_loop(
    shared: Arc<Shared>,
    deque: DequeWorker<Box<Sandbox>>,
    intake: Receiver<Intake>,
    mut http: Option<HttpServer>,
    http_reply: Receiver<(ConnId, Vec<u8>)>,
    http_reply_tx: Sender<(ConnId, Vec<u8>)>,
) {
    let mut drain_started = false;
    // When a pass last read `inflight` above 0.
    let mut busy_at: Option<Instant> = None;
    loop {
        // Arm before every check below: a producer that enqueues after this
        // point finds the waker armed and ends the poll.
        if let Some(server) = http.as_ref() {
            server.arm();
        }
        let idle = shared.inflight.load(Ordering::Acquire) == 0;
        if !idle {
            busy_at = Some(Instant::now());
        }
        let lingering = busy_at.is_some_and(|at| at.elapsed() < LINGER);
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
        let mut blocked = false;
        if let Some(server) = http.as_mut() {
            // Flush completed responses owned by this thread.
            while let Ok((conn, bytes)) = http_reply.try_recv() {
                worked = true;
                server.send(conn, &bytes);
            }
            // Nothing in flight for a while and nothing handled: wait for a
            // socket or a wake. The idle reaper still caps the wait.
            blocked = idle && !lingering && !worked && !shared.shutdown.load(Ordering::Acquire);
            let timeout = if blocked {
                Duration::MAX
            } else {
                Duration::ZERO
            };
            for ev in server.poll(timeout) {
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
                        // (default off: the path is routed like any other,
                        // so it is a 404 unless a function owns it).
                        if shared.config.admin_routes
                            && req.method == "POST"
                            && req.path == "/admin/modules"
                        {
                            server.send(conn, &ingest_module(&shared, &req.body).to_bytes());
                            continue;
                        }
                        // The Prometheus exposition, reserved ahead of
                        // function routes and rendered inline on the
                        // listener thread, which is not cheap at scale: with
                        // 592 functions on 2 workers (2-vCPU VM) the
                        // snapshot takes 4-6 ms and rendering ~6 ms (1.5 MB),
                        // while no request is admitted.
                        if req.method == "GET" && req.path == "/metrics" {
                            let body = crate::metrics::render_prometheus(&shared.latency_report());
                            server.send(
                                conn,
                                &Response::ok(body.into_bytes())
                                    .header("Content-Type", "text/plain; version=0.0.4")
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
        if worked || blocked {
            continue;
        }
        if http.is_some() {
            // Busy, or lately busy, but quiet: replies arrive without a
            // wake (ROADMAP 1(a)), so keep polling at a modest rate.
            std::thread::sleep(Duration::from_micros(100));
        } else {
            // Shutdown and drain send `Intake::Wake`; a disconnected intake
            // means the runtime is gone.
            match intake.recv() {
                Ok(Intake::Invoke {
                    function,
                    body,
                    responder,
                }) => admit(&shared, &deque, function, body, responder),
                Ok(Intake::Wake) => {}
                Err(_) => return,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_frame_layout() {
        let frame = ingest_frame("{\"name\":\"f\"}", b"ART");
        assert_eq!(&frame[..4], &12u32.to_le_bytes());
        assert_eq!(&frame[4..16], b"{\"name\":\"f\"}");
        assert_eq!(&frame[16..], b"ART");
        let prefixed = |len: u32, tail: &[u8]| [&len.to_le_bytes()[..], tail].concat();
        let cases = [
            ("empty body", vec![], Err("missing config length")),
            ("3-byte body", b"abc".to_vec(), Err("missing config length")),
            (
                "length past the end",
                prefixed(6, b"short"),
                Err("config length 6 exceeds remaining 5 bytes"),
            ),
            (
                "u32::MAX length",
                prefixed(u32::MAX, b"{}"),
                Err("exceeds remaining 2 bytes"),
            ),
            (
                "config not UTF-8",
                prefixed(2, b"\xff\xfeART"),
                Err("not UTF-8"),
            ),
            (
                "round trip",
                frame.clone(),
                Ok(("{\"name\":\"f\"}", &b"ART"[..])),
            ),
        ];
        for (what, frame, want) in cases {
            match (split_ingest_frame(&frame), want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{what}"),
                (Err(got), Err(want)) => assert!(got.contains(want), "{what}: {got}"),
                (got, want) => panic!("{what}: got {got:?}, want {want:?}"),
            }
        }
    }
}
