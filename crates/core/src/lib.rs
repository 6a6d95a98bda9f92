//! The Sledge serverless-first runtime: a single-process, multi-tenant
//! function runtime with work-stealing load balancing and preemptive
//! user-level round-robin scheduling, reproducing the system described in
//! *"Sledge: a Serverless-first, Light-weight Wasm Runtime for the Edge"*
//! (Middleware '20).
//!
//! Architecture (the paper's Figure 4):
//!
//! * A **listener thread** accepts requests (from in-process [`Runtime::invoke`]
//!   calls and/or an HTTP front end), instantiates a sandbox per request
//!   (the µs-level startup path — the module was linked/loaded once at
//!   registration), applies admission control, and pushes sandboxes onto the
//!   **global work-stealing deque**.
//! * **N worker threads** steal sandboxes, keep core-local run queues, and
//!   schedule them with **preemptive round-robin** (default 5 ms quantum,
//!   enforced by a timer thread through per-sandbox preempt flags).
//! * Sandboxes that block on (emulated) asynchronous I/O park on the
//!   worker's core-local event set and are woken by the worker's idle loop —
//!   the libuv-analogue.
//!
//! # Examples
//!
//! ```
//! use sledge_core::{Runtime, RuntimeConfig, FunctionConfig, Outcome};
//! use sledge_guestc::{dsl::*, FuncBuilder, ModuleBuilder};
//! use sledge_wasm::types::ValType;
//!
//! // A guest that echoes its request body.
//! let mut mb = ModuleBuilder::new("echo");
//! mb.memory(2, Some(16));
//! let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
//! let req_read = mb.import_func("env", "request_read",
//!     &[ValType::I32, ValType::I32, ValType::I32], Some(ValType::I32));
//! let resp_write = mb.import_func("env", "response_write",
//!     &[ValType::I32, ValType::I32], Some(ValType::I32));
//! let mut f = FuncBuilder::new(&[], Some(ValType::I32));
//! let n = f.local(ValType::I32);
//! f.extend([
//!     set(n, call(req_len, vec![])),
//!     exec(call(req_read, vec![i32c(0), local(n), i32c(0)])),
//!     exec(call(resp_write, vec![i32c(0), local(n)])),
//!     ret(Some(i32c(0))),
//! ]);
//! let main = mb.add_func("main", f);
//! mb.export_func(main, "main");
//! let module = mb.build()?;
//!
//! let rt = Runtime::new(RuntimeConfig { workers: 2, ..Default::default() });
//! let id = rt.register_module(FunctionConfig::new("echo"), &module)?;
//! let done = rt.invoke(id, &b"hello edge"[..]).wait().unwrap();
//! assert!(matches!(done.outcome, Outcome::Success(ref b) if b == b"hello edge"));
//! rt.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod budget;
mod config;
mod fault;
mod histogram;
mod json;
mod listener;
mod metrics;
mod pool;
mod registry;
mod sandbox;
mod sched;
mod stats;
mod worker;

pub use budget::TokenBucket;
pub use config::{
    num_cpus, BreakerConfig, ConfigError, FunctionConfig, RuntimeConfig, SchedPolicy, MAX_PRIORITY,
};
pub use fault::FaultPlan;
pub use histogram::{bucket_bounds, bucket_of, Histogram, HistogramSnapshot, BUCKETS};
pub use json::{parse as parse_json, Json, JsonError};
pub use listener::AnyResponder;
pub use metrics::{
    render_json, render_prometheus, summary_line, AdmissionFnSnapshot, AdmissionReport,
    CapabilityReport, LatencyReport, MetricsHandle, PhaseHistograms, PhaseSnapshot, PHASES,
};
pub use pool::{PoolStats, PoolStatsSnapshot, SandboxPool};
pub use registry::{FunctionId, RegisterError, RegisteredFunction, Registry};
pub use sandbox::{Completion, Outcome, Sandbox, SandboxHost, Timings};
pub use sched::Dwrr;
pub use sledge_http::{Backend as HttpBackend, ConnSnapshot};
pub use stats::{
    BreakerState, FunctionStats, FunctionStatsSnapshot, RegistryStats, RegistryStatsSnapshot,
    RuntimeStats, StatsSnapshot,
};

use listener::Intake;
use sledge_http::{ConnCounters, HttpServer, ServerConfig};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State shared between the listener, workers, and timer.
pub(crate) struct Shared {
    pub config: RuntimeConfig,
    registry: RwLock<Registry>,
    pub stats: RuntimeStats,
    pub epoch: Instant,
    pub shutdown: AtomicBool,
    /// Intake stopped: the listener rejects new work but in-flight
    /// invocations keep running (graceful drain).
    pub draining: AtomicBool,
    /// Drain timeout expired: workers kill their entire backlog with
    /// `TimedOut` completions.
    pub force_kill: AtomicBool,
    /// Sandboxes injected but not yet picked up by a worker.
    pub pending: AtomicUsize,
    /// Accepted invocations whose completion has not yet been delivered
    /// (counts queued, parked, and running sandboxes).
    pub inflight: AtomicUsize,
    /// Invocation sequence numbers (assigned at admission; fault-injection
    /// decisions key off them).
    pub seq: AtomicU64,
    /// Per-worker latency shards for the global (all-functions) view;
    /// worker `i` writes only `phase_shards[i]`.
    pub phase_shards: Box<[metrics::PhaseHistograms]>,
    /// Connection-lifecycle counters shared with the HTTP front end;
    /// `None` when the runtime has no HTTP listener (in-process intake
    /// only) — metrics then render no connection section at all.
    pub http_conns: Option<Arc<ConnCounters>>,
}

/// The crate's one lock-poisoning policy: there is none. A thread that
/// panicked while holding a lock must cost its own sandbox, not every thread
/// that takes the lock after it, so the guard is recovered. That is sound
/// because every critical section leaves its data valid at each step: a
/// `Vec` push/pop, an `Option` store, bucket arithmetic, and a registration
/// that builds its entry first and inserts it with its last three statements.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Read access to the function registry (see [`lock`] on poisoning).
    pub fn registry(&self) -> RwLockReadGuard<'_, Registry> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the function registry.
    pub fn registry_mut(&self) -> RwLockWriteGuard<'_, Registry> {
        self.registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Epoch-relative monotonic nanoseconds (the breaker's clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle to a single in-flight invocation.
#[derive(Debug)]
pub struct InvocationHandle {
    rx: Receiver<Completion>,
}

impl InvocationHandle {
    /// Block until the function completes. Returns `None` if the runtime
    /// shut down before the request finished.
    pub fn wait(self) -> Option<Completion> {
        self.rx.recv().ok()
    }

    /// Block with a timeout.
    pub fn wait_timeout(&self, dur: std::time::Duration) -> Option<Completion> {
        self.rx.recv_timeout(dur).ok()
    }
}

/// The Sledge runtime. See the crate docs for the architecture.
pub struct Runtime {
    shared: Arc<Shared>,
    intake: Sender<Intake>,
    threads: Vec<JoinHandle<()>>,
    http_addr: Option<SocketAddr>,
}

impl Runtime {
    /// Start a runtime with in-process intake only.
    pub fn new(config: RuntimeConfig) -> Runtime {
        Self::build(config, None).expect("no I/O is involved without HTTP")
    }

    /// Start a runtime that additionally serves HTTP on `addr` (use port 0
    /// for an ephemeral port, then read [`Runtime::http_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn with_http(config: RuntimeConfig, addr: SocketAddr) -> io::Result<Runtime> {
        Self::build(config, Some(addr))
    }

    fn build(config: RuntimeConfig, http: Option<SocketAddr>) -> io::Result<Runtime> {
        let server = match http {
            Some(addr) => Some(HttpServer::bind(
                addr,
                ServerConfig {
                    max_request_size: config.max_request_size,
                    idle_timeout: config.conn_idle,
                    max_connections: config.max_connections,
                    backend: if config.reactor {
                        HttpBackend::Reactor
                    } else {
                        HttpBackend::Poll
                    },
                },
            )?),
            None => None,
        };
        let http_addr = match &server {
            Some(s) => Some(s.local_addr()?),
            None => None,
        };
        let http_conns = server.as_ref().map(HttpServer::counters);

        let workers = config.workers.max(1);
        let mut registry = Registry::new();
        registry.set_stack_budget(config.max_stack_bytes);
        registry.set_check_gap(config.max_check_gap);
        registry.set_shards(workers);
        registry.set_pool_capacity(config.pool_size);
        registry.set_calibration(config.cost_units_per_us);
        let shared = Arc::new(Shared {
            config,
            registry: RwLock::new(registry),
            stats: RuntimeStats::default(),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            force_kill: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            phase_shards: (0..workers)
                .map(|_| metrics::PhaseHistograms::default())
                .collect(),
            http_conns,
        });

        let (deque, stealer) = sledge_deque::deque::<Box<Sandbox>>();
        let (intake_tx, intake_rx) = channel::<Intake>();
        let (reply_tx, reply_rx) = channel();

        let mut threads = Vec::new();
        let mut worker_shareds = Vec::new();
        for i in 0..workers {
            let ws = Arc::new(worker::WorkerShared {
                index: i,
                ..Default::default()
            });
            worker_shareds.push(Arc::clone(&ws));
            let shared = Arc::clone(&shared);
            let stealer = stealer.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sledge-worker-{i}"))
                    .spawn(move || worker::worker_loop(shared, ws, stealer))
                    .expect("spawn worker"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sledge-timer".into())
                    .spawn(move || worker::timer_loop(shared, worker_shareds))
                    .expect("spawn timer"),
            );
        }
        if shared.config.pool_size > 0 && shared.config.prewarm > 0 {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sledge-prewarm".into())
                    .spawn(move || pool::prewarm_loop(shared))
                    .expect("spawn prewarmer"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sledge-listener".into())
                    .spawn(move || {
                        listener::listener_loop(
                            shared, deque, intake_rx, server, reply_rx, reply_tx,
                        )
                    })
                    .expect("spawn listener"),
            );
        }

        Ok(Runtime {
            shared,
            intake: intake_tx,
            threads,
            http_addr,
        })
    }

    /// The HTTP listen address, if serving HTTP.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Register a function from `.wasm` bytes. The heavyweight processing
    /// (decode, validate, translate) happens here, once per function.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_wasm(
        &self,
        config: FunctionConfig,
        wasm: &[u8],
    ) -> Result<FunctionId, RegisterError> {
        self.shared
            .registry_mut()
            .register_wasm(config, wasm, self.shared.config.tier)
    }

    /// Register a function from an in-memory module.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_module(
        &self,
        config: FunctionConfig,
        module: &sledge_wasm::module::Module,
    ) -> Result<FunctionId, RegisterError> {
        let size = sledge_wasm::encode::encode_module(module).len();
        self.shared
            .registry_mut()
            .register_module(config, module, self.shared.config.tier, size)
    }

    /// Invoke function `id` with the given request body; returns a handle to
    /// wait on.
    pub fn invoke(&self, id: FunctionId, body: impl Into<Vec<u8>>) -> InvocationHandle {
        let (tx, rx) = sync_channel(1);
        let _ = self.intake.send(Intake::Invoke {
            function: id,
            body: body.into(),
            responder: AnyResponder::Channel(tx),
        });
        InvocationHandle { rx }
    }

    /// Fire-and-forget invocation (used by load generators; only the global
    /// counters observe the result).
    pub fn invoke_detached(&self, id: FunctionId, body: impl Into<Vec<u8>>) {
        let _ = self.intake.send(Intake::Invoke {
            function: id,
            body: body.into(),
            responder: AnyResponder::Discard,
        });
    }

    /// Look up a function id by name.
    pub fn function_by_name(&self, name: &str) -> Option<FunctionId> {
        self.shared.registry().by_name(name).map(|rf| rf.id)
    }

    /// Per-function registration info (module sizes etc.).
    pub fn function_info(&self, id: FunctionId) -> Option<Arc<RegisteredFunction>> {
        self.shared.registry().get(id).cloned()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Merged per-phase latency report: every worker's private shards
    /// folded into a global view plus per-function breakdowns. This is the
    /// same data `GET /metrics` and `GET /stats` serve.
    pub fn latency_report(&self) -> LatencyReport {
        self.shared.latency_report()
    }

    /// A cheap clonable handle for reading metrics from another thread
    /// (e.g. a periodic reporter) without holding the `Runtime`.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Load-time static-analysis counter snapshot (modules verified /
    /// rejected, lint warnings) plus aggregated warm-pool counters.
    pub fn registry_stats(&self) -> stats::RegistryStatsSnapshot {
        self.shared.registry().stats_snapshot()
    }

    /// Aggregated warm sandbox-pool counters (all-zero when pooling is
    /// disabled via `pool_size = 0`).
    pub fn pool_stats(&self) -> pool::PoolStatsSnapshot {
        let mut snap = pool::PoolStatsSnapshot::default();
        for rf in self.shared.registry().iter() {
            snap.merge(&rf.pool.snapshot());
        }
        snap
    }

    /// Per-function counter snapshot.
    pub fn function_stats(&self, id: FunctionId) -> Option<FunctionStatsSnapshot> {
        self.shared.registry().get(id).map(|rf| rf.stats.snapshot())
    }

    /// Connection-lifecycle counter snapshot from the HTTP front end
    /// (all-zero when the runtime has no HTTP listener).
    pub fn connection_stats(&self) -> ConnSnapshot {
        self.shared
            .http_conns
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// Number of requests injected but not yet started.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Relaxed)
    }

    /// Number of accepted invocations whose completion has not yet been
    /// delivered (queued, parked on I/O, or running).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Stop accepting new work without stopping execution. Subsequent
    /// requests are rejected with 503 while in-flight invocations continue;
    /// pair with [`Runtime::shutdown_drain`] to finish the shutdown.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        // Pools are emptied as part of the drain: workers stop recycling
        // and the pre-warmer pauses the moment `draining` is set, so the
        // pools stay empty for the remainder of the shutdown.
        for rf in self.shared.registry().iter() {
            rf.pool.drain();
        }
        let _ = self.intake.send(Intake::Wake);
    }

    /// Graceful shutdown: stop intake, wait up to `timeout` for every
    /// in-flight invocation to complete, then stop all threads.
    ///
    /// Returns `true` if the backlog drained within the timeout. On `false`
    /// the remaining backlog is force-killed first — every straggler still
    /// receives a `TimedOut` completion (bounded by a few quanta of grace)
    /// before the threads are joined, so no accepted invocation is left
    /// without an answer.
    pub fn shutdown_drain(mut self, timeout: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + timeout;
        let drained = loop {
            if self.shared.inflight.load(Ordering::Acquire) == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        if !drained {
            self.shared.force_kill.store(true, Ordering::Release);
            // Grace for workers to sweep their queues and for the timer to
            // preempt whatever is currently running.
            let grace = self.shared.config.quantum * 4 + Duration::from_millis(50);
            let kill_by = Instant::now() + grace;
            while self.shared.inflight.load(Ordering::Acquire) > 0 && Instant::now() < kill_by {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        self.shutdown_inner();
        drained
    }

    /// Stop all threads and drop in-flight work. Waiting invokers receive
    /// `None` from [`InvocationHandle::wait`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.intake.send(Intake::Wake);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Every thread is parked; empty the warm pools so all instance
        // memory is released before the runtime object goes away.
        for rf in self.shared.registry().iter() {
            rf.pool.drain();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}
