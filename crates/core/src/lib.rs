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
//!   (the µs-level startup path — the module was linked/loaded once, at the
//!   first registration of its bytes), applies admission control, and pushes
//!   sandboxes onto the **global work-stealing deque**. With nothing in
//!   flight it blocks: in the front end's epoll wait, which intake senders
//!   wake, or without HTTP in the intake channel.
//! * **N worker threads** steal sandboxes, keep core-local run queues, and
//!   schedule them with **preemptive round-robin** (default 5 ms quantum,
//!   enforced by a fuel budget per dispatch and by a timer thread that sets
//!   the running sandboxes' preempt flags each quantum). The timer blocks on
//!   a channel between ticks, so a force-killed drain and shutdown preempt
//!   at once, and it also wakes at the earliest deadline of a running
//!   sandbox; `quantum: Duration::MAX` is run-to-completion, preempted only
//!   by those three.
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

#![warn(unreachable_pub)]

mod budget;
mod config;
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
pub use config::{num_cpus, BreakerConfig, ConfigError, FunctionConfig, RuntimeConfig};
pub use histogram::{bucket_bounds, bucket_of, Histogram, HistogramSnapshot, BUCKETS};
pub use json::{parse as parse_json, Json, JsonError};
pub use listener::{ingest_frame, split_ingest_frame};
pub use metrics::{
    summary_line, FunctionReport, LatencyReport, MetricsHandle, PhaseHistograms, PhaseSnapshot,
};
pub use pool::{PoolStats, PoolStatsSnapshot, SandboxPool};
pub use registry::{FunctionId, RegisterError, RegisteredFunction};
pub use sandbox::{Completion, Outcome, Timings};
pub use sledge_http::ConnSnapshot;
pub use stats::{
    Breaker, FunctionStats, FunctionStatsSnapshot, RegistryStatsSnapshot, StatsSnapshot,
};

use listener::{AnyResponder, Intake};
use registry::{Binary, Registry};
use sandbox::Sandbox;
use sledge_http::{ConnCounters, HttpServer, ServerConfig, Waker};
use stats::RuntimeStats;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use worker::TimerWake;

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
    /// Per-worker latency shards for the global (all-functions) view;
    /// worker `i` writes only `phase_shards[i]`. Its length is the worker
    /// count, which also sizes each function's shards at its first sample.
    pub phase_shards: Box<[metrics::PhaseHistograms]>,
    /// Connection-lifecycle counters shared with the HTTP front end (they
    /// stay zero when the runtime has no HTTP listener).
    pub http_conns: Arc<ConnCounters>,
}

/// The crate's one lock-poisoning policy: there is none. A thread that
/// panicked while holding a lock must cost its own sandbox, not every thread
/// that takes the lock after it, so the guard is recovered. That is sound
/// because every critical section leaves its data valid at each step: a
/// `Vec` push/pop, an `Option` store, bucket arithmetic, and a registration
/// that builds its entry first and inserts it with its last statements.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Read access to the function registry (see [`lock`] on poisoning).
    pub(crate) fn registry(&self) -> RwLockReadGuard<'_, Registry> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the function registry.
    pub(crate) fn registry_mut(&self) -> RwLockWriteGuard<'_, Registry> {
        self.registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The one registration path. The name and route are checked and the
    /// module store consulted under the read lock; a miss is built with no
    /// lock held, so route lookups, admissions and workers never wait on a
    /// translation; the write lock is taken only to re-check and insert.
    pub(crate) fn register(
        &self,
        config: FunctionConfig,
        binary: Binary<'_>,
    ) -> Result<FunctionId, RegisterError> {
        let (key, cached) = self.registry().lookup(&config, binary)?;
        let module = match cached {
            Some(module) => module,
            None => Arc::new(key.build()?),
        };
        self.registry_mut().register_compiled(config, key, module)
    }

    /// Epoch-relative monotonic nanoseconds (the breaker's clock).
    pub(crate) fn now_ns(&self) -> u64 {
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
    /// Ends the listener's blocking poll after an intake send (`None`
    /// without HTTP: the listener then blocks in the intake's `recv`).
    waker: Option<Arc<Waker>>,
    /// The timer thread's wake-up: [`TimerWake::PreemptAll`] preempts every
    /// running sandbox now (force-kill), [`TimerWake::Stop`] stops the timer
    /// (shutdown).
    timer: Option<Sender<TimerWake>>,
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
                },
            )?),
            None => None,
        };
        let http_addr = match &server {
            Some(s) => Some(s.local_addr()?),
            None => None,
        };
        let http_conns = server
            .as_ref()
            .map(HttpServer::counters)
            .unwrap_or_default();
        let waker = server.as_ref().map(HttpServer::waker);

        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            registry: RwLock::new(Registry::new(&config)),
            config,
            stats: RuntimeStats::default(),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            force_kill: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            phase_shards: (0..workers)
                .map(|_| metrics::PhaseHistograms::default())
                .collect(),
            http_conns,
        });

        let (deque, stealer) = sledge_deque::deque::<Box<Sandbox>>();
        let (intake_tx, intake_rx) = channel::<Intake>();
        let (reply_tx, reply_rx) = channel();
        let (timer_tx, timer_rx) = channel();

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
            let timer = timer_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sledge-worker-{i}"))
                    .spawn(move || worker::worker_loop(shared, ws, stealer, timer))
                    .expect("spawn worker"),
            );
        }
        {
            let quantum = shared.config.quantum;
            threads.push(
                std::thread::Builder::new()
                    .name("sledge-timer".into())
                    .spawn(move || worker::timer_loop(quantum, timer_rx, worker_shareds))
                    .expect("spawn timer"),
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
            waker,
            timer: Some(timer_tx),
            threads,
            http_addr,
        })
    }

    /// The HTTP listen address, if serving HTTP.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Register a function from `.wasm` bytes. The heavyweight processing
    /// (decode, validate, translate) happens here, once per distinct binary:
    /// bytes already registered share the module built from them.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_wasm(
        &self,
        config: FunctionConfig,
        wasm: &[u8],
    ) -> Result<FunctionId, RegisterError> {
        self.shared.register(config, Binary::Wasm(wasm))
    }

    /// Register a function from an in-memory module: exactly
    /// [`Runtime::register_wasm`] of its encoding.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_module(
        &self,
        config: FunctionConfig,
        module: &sledge_wasm::module::Module,
    ) -> Result<FunctionId, RegisterError> {
        self.register_wasm(config, &sledge_wasm::encode::encode_module(module))
    }

    /// Hand the listener one intake message and wake it, since it may be
    /// blocked in its poll.
    fn send_intake(&self, msg: Intake) {
        let _ = self.intake.send(msg);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    /// Invoke function `id` with the given request body; returns a handle to
    /// wait on.
    pub fn invoke(&self, id: FunctionId, body: impl Into<Vec<u8>>) -> InvocationHandle {
        let (tx, rx) = sync_channel(1);
        self.send_intake(Intake::Invoke {
            function: id,
            body: body.into(),
            responder: AnyResponder::Channel(tx),
        });
        InvocationHandle { rx }
    }

    /// Fire-and-forget invocation (used by load generators; only the global
    /// counters observe the result).
    pub fn invoke_detached(&self, id: FunctionId, body: impl Into<Vec<u8>>) {
        self.send_intake(Intake::Invoke {
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

    /// The node snapshot: counters, registry and pool totals, connection
    /// counters, and every worker's private latency shards merged into a
    /// global view plus one entry per function. It is all that
    /// `GET /metrics`, `GET /stats` and the summary line render.
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
    /// rejected, lint warnings, capability verdicts).
    pub fn registry_stats(&self) -> RegistryStatsSnapshot {
        self.shared.registry().stats.snapshot()
    }

    /// Aggregated warm sandbox-pool counters (all-zero when pooling is
    /// disabled via `pool_size = 0`).
    pub fn pool_stats(&self) -> PoolStatsSnapshot {
        self.shared.registry().pool_stats()
    }

    /// Per-function counter snapshot.
    pub fn function_stats(&self, id: FunctionId) -> Option<FunctionStatsSnapshot> {
        self.shared.registry().get(id).map(|rf| rf.stats.snapshot())
    }

    /// Connection-lifecycle counter snapshot from the HTTP front end
    /// (all-zero when the runtime has no HTTP listener).
    pub fn connection_stats(&self) -> ConnSnapshot {
        self.shared.http_conns.snapshot()
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
        // Pools are emptied and closed as part of the drain: a worker that
        // releases a sandbox after the sweep finds its pool closed, so the
        // pools stay empty for the remainder of the shutdown.
        for rf in self.shared.registry().iter() {
            rf.pool.drain();
        }
        self.send_intake(Intake::Wake);
    }

    /// Graceful shutdown: stop intake, wait up to `timeout` for every
    /// in-flight invocation to complete, then stop all threads.
    ///
    /// Returns `true` if the backlog drained within the timeout. On `false`
    /// the remaining backlog is force-killed first — the timer preempts
    /// every running sandbox at once and every straggler still receives a
    /// `TimedOut` completion (within a short grace) before the threads are
    /// joined, so no accepted invocation is left without an answer.
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
            if let Some(timer) = &self.timer {
                let _ = timer.send(TimerWake::PreemptAll);
            }
            // Grace for workers to sweep their queues and retire what the
            // timer just preempted.
            let kill_by = Instant::now() + Duration::from_millis(100);
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
        // Workers hold senders too, so the timer is stopped by message,
        // not by disconnection.
        if let Some(timer) = self.timer.take() {
            let _ = timer.send(TimerWake::Stop);
        }
        self.send_intake(Intake::Wake);
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
