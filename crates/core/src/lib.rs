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
//!   enforced by a fuel budget per dispatch: fuel alone ends a quantum). A
//!   timer thread keeps deadlines only: it blocks until the earliest
//!   deadline of a running sandbox and preempts that sandbox then. A
//!   force-killed drain and shutdown preempt the running sandboxes
//!   themselves; `quantum: Duration::MAX` is run-to-completion, preempted
//!   only by those three.
//! * Sandboxes that block on (emulated) asynchronous I/O park on the
//!   worker's core-local event set and are woken by the worker's idle loop —
//!   the libuv-analogue.
//!
//! A node is read through [`Runtime::latency_report`] in process, or
//! `GET /metrics` over HTTP, which renders the same report: its counters,
//! registry and pool totals, connection counters, merged latency phases
//! and one entry per function. Nothing else reads a node.
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
    escape_label, summary_line, FunctionReport, LatencyReport, PhaseHistograms, PhaseSnapshot,
};
pub use pool::PoolStatsSnapshot;
pub use registry::{FunctionId, RegisterError};
pub use sandbox::{Completion, Outcome, Timings};
pub use sledge_http::ConnSnapshot;
pub use stats::{Breaker, FunctionStatsSnapshot, RegistryStatsSnapshot, StatsSnapshot};

use listener::{AnyResponder, Intake};
use registry::Registry;
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
    /// The dispatch worker `i` is running, if any, in slot `i`: what the
    /// timer and a force-kill or shutdown broadcast preempt.
    pub running: Box<[Mutex<Option<worker::Dispatch>>]>,
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
        wasm: &[u8],
    ) -> Result<FunctionId, RegisterError> {
        let (key, cached) = self.registry().lookup(&config, wasm)?;
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
            running: (0..workers).map(|_| Mutex::default()).collect(),
        });

        let (deque, stealer) = sledge_deque::deque::<Box<Sandbox>>();
        let (intake_tx, intake_rx) = channel::<Intake>();
        let (reply_tx, reply_rx) = channel();
        let (timer_tx, timer_rx) = channel();

        let mut threads = Vec::new();
        // Only workers hold the timer's senders, so it stops once they exit.
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let stealer = stealer.clone();
            let timer = timer_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sledge-worker-{i}"))
                    .spawn(move || worker::worker_loop(shared, i, stealer, timer))
                    .expect("spawn worker"),
            );
        }
        drop(timer_tx);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sledge-timer".into())
                    .spawn(move || worker::timer_loop(timer_rx, &shared.running))
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
        self.shared.register(config, wasm)
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

    /// Look up a function id by name.
    pub fn function_by_name(&self, name: &str) -> Option<FunctionId> {
        self.shared.registry().by_name(name).map(|rf| rf.id)
    }

    /// The node snapshot: counters, registry and pool totals, connection
    /// counters, and every worker's private latency shards merged into a
    /// global view plus one entry per function. It is the one way to read a
    /// node in process, and all that `GET /metrics` and the summary line
    /// render.
    pub fn latency_report(&self) -> LatencyReport {
        self.shared.latency_report()
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
    /// the remaining backlog is force-killed first — every running sandbox
    /// is preempted at once and every straggler still receives a
    /// `TimedOut` completion (within a short grace) before the threads are
    /// joined, so no accepted invocation is left without an answer.
    ///
    /// The runtime stays readable: [`Runtime::latency_report`] then reports
    /// the drained node, and dropping it joins nothing.
    pub fn shutdown_drain(&mut self, timeout: Duration) -> bool {
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
            worker::preempt(&self.shared.running, None);
            // Grace for workers to sweep their queues and retire what was
            // just preempted.
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
        worker::preempt(&self.shared.running, None);
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

#[cfg(test)]
mod tests {
    //! What a node's report cannot show: which module a function runs, its
    //! own pool and latency shards, and its breaker and budget driven to
    //! states a test cannot wait for.

    use super::*;
    use registry::RegisteredFunction;
    use sledge_guestc::dsl::*;
    use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
    use sledge_wasm::module::Module;
    use sledge_wasm::types::ValType;
    use std::sync::Barrier;

    /// The registered function behind `id`.
    fn function(rt: &Runtime, id: FunctionId) -> Arc<RegisteredFunction> {
        Arc::clone(rt.shared.registry().get(id).expect("registered"))
    }

    /// `n` straight-line stores: a translation that is long next to a
    /// request.
    fn slow_to_translate(n: i32) -> Module {
        let mut mb = ModuleBuilder::new("slow");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        for i in 0..n {
            f.push(store(
                Scalar::I32,
                i32c((i % 8000) * 4),
                0,
                mul(i32c(i), i32c(3)),
            ));
        }
        f.push(ret(Some(i32c(0))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// Block in `io_delay` for the µs given by the body's first 4 bytes
    /// (LE), then respond "w".
    fn io_sleeper() -> Module {
        let mut mb = ModuleBuilder::new("sleeper");
        mb.memory(1, Some(1));
        let req_read = mb.import_func(
            "env",
            "request_read",
            &[ValType::I32, ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let io_delay = mb.import_func("env", "io_delay", &[ValType::I32], Some(ValType::I32));
        let resp_write = mb.import_func(
            "env",
            "response_write",
            &[ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.extend([
            exec(call(req_read, vec![i32c(0), i32c(4), i32c(0)])),
            exec(call(io_delay, vec![load(Scalar::I32, i32c(0), 0)])),
            store(Scalar::U8, i32c(16), 0, i32c('w' as i32)),
            exec(call(resp_write, vec![i32c(16), i32c(1)])),
            ret(Some(i32c(0))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    #[test]
    fn racing_registrations_of_one_binary_share_one_module() {
        let wasm = sledge_wasm::encode::encode_module(&slow_to_translate(2000));
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let barrier = Barrier::new(2);
        let ids: Vec<FunctionId> = std::thread::scope(|s| {
            let racers: Vec<_> = ["r0", "r1"]
                .into_iter()
                .map(|name| {
                    let (rt, wasm, barrier) = (&rt, &wasm, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        rt.register_wasm(FunctionConfig::new(name), wasm).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let (a, b) = (function(&rt, ids[0]), function(&rt, ids[1]));
        // Both may have missed and translated; the loser's module was dropped.
        assert!(Arc::ptr_eq(&a.module, &b.module));
        assert!((1..=2).contains(&rt.latency_report().registry.modules_compiled));
        rt.shutdown();
    }

    /// A `.wasm` registered in process and the same bytes pushed over
    /// `POST /admin/modules` are one key of the module store: one build,
    /// one shared module. The node translates what it is pushed under its
    /// own check-gap budget.
    #[test]
    fn registered_and_pushed_wasm_share_one_module() {
        let wasm = sledge_wasm::encode::encode_module(&slow_to_translate(200));
        let default_gap = awsm::translate(&slow_to_translate(200), awsm::Tier::Optimized)
            .unwrap()
            .analysis
            .cost
            .max_gap;
        let budget = default_gap / 4;
        let rt = Runtime::with_http(
            RuntimeConfig {
                workers: 1,
                admin_routes: true,
                max_check_gap: Some(budget),
                ..Default::default()
            },
            "127.0.0.1:0".parse().unwrap(),
        )
        .unwrap();
        let a = rt.register_wasm(FunctionConfig::new("a"), &wasm).unwrap();
        let mut client = sledge_http::HttpClient::new(rt.http_addr().unwrap());
        let frame = ingest_frame(r#"{"name": "b"}"#, &wasm);
        let resp = client
            .request("POST", "/admin/modules", &[], &frame)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let b = rt.shared.registry().by_name("b").map(|f| f.id).unwrap();
        let (a, b) = (function(&rt, a), function(&rt, b));
        assert!(Arc::ptr_eq(&a.module, &b.module));
        assert_eq!(rt.latency_report().registry.modules_compiled, 1);
        let cost = &b.module.analysis.cost;
        assert_eq!(cost.max_check_gap, budget);
        assert!(cost.splits > 0 && cost.max_gap <= budget, "{cost:?}");
        rt.shutdown();
    }

    #[test]
    fn tenants_sharing_a_module_keep_their_own_pools() {
        let wasm = sledge_wasm::encode::encode_module(&sledge_apps::echo::module());
        let plain = RuntimeConfig {
            workers: 2,
            pool_size: 4,
            ..Default::default()
        };
        let armed = RuntimeConfig {
            fairness: true,
            max_inflight: 1024,
            ..plain.clone()
        };
        for (label, cfg) in [("plain", plain), ("armed", armed)] {
            let rt = Runtime::new(cfg);
            let a = rt
                .register_wasm(FunctionConfig::new("tenant-a"), &wasm)
                .unwrap();
            let b = rt
                .register_wasm(FunctionConfig::new("tenant-b"), &wasm)
                .unwrap();
            let (fa, fb) = (function(&rt, a), function(&rt, b));
            assert!(Arc::ptr_eq(&fa.module, &fb.module), "{label}");
            for i in 0..12u8 {
                for id in [a, b] {
                    let done = rt.invoke(id, vec![i; 8]).wait().unwrap();
                    assert!(matches!(done.outcome, Outcome::Success(_)), "{label}");
                }
            }
            let (pa, pb) = (fa.pool.snapshot(), fb.pool.snapshot());
            let total = rt.latency_report().pool;
            rt.shutdown();
            for (tag, p) in [('A', pa), ('B', pb)] {
                assert_eq!(p.hits + p.misses, 12, "{label} {tag}: {p:?}");
                assert_eq!(p.recycled, 12, "{label} {tag}: {p:?}");
                assert!(p.hits >= 1, "{label} {tag}: never recycled: {p:?}");
            }
            assert_eq!(total.hits, pa.hits + pb.hits, "{label}");
            assert_eq!(total.misses, pa.misses + pb.misses, "{label}");
        }
    }

    #[test]
    fn a_request_rejected_before_execution_allocates_no_shards() {
        let breaker = BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_secs(60),
        };
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            max_inflight: 4,
            circuit_breaker: Some(breaker),
            ..Default::default()
        });
        let sleeper = rt
            .register_module(FunctionConfig::new("sleeper"), &io_sleeper())
            .unwrap();
        // Priority class 0 is shed once anything is in flight.
        let mut low = FunctionConfig::new("low");
        low.priority = 0;
        let low = rt
            .register_module(low, &sledge_apps::echo::module())
            .unwrap();
        let tripped = rt
            .register_module(FunctionConfig::new("tripped"), &sledge_apps::echo::module())
            .unwrap();
        // The queue-SLO gate reads this function's (absent) queue samples,
        // then its empty budget rejects it.
        let mut broke = FunctionConfig::new("broke");
        broke.budget_us_per_s = Some(1);
        broke.queue_slo = Some(Duration::from_nanos(1));
        let broke = rt
            .register_module(broke, &sledge_apps::echo::module())
            .unwrap();

        // In-flight shed: the sleeper holds the only slot class 0 gets.
        let parked = rt.invoke(sleeper, 200_000u32.to_le_bytes().to_vec());
        let shed = rt.invoke(low, &b"x"[..]).wait().unwrap();
        assert!(
            matches!(shed.outcome, Outcome::Throttled { why, .. } if why.contains("in-flight")),
            "{:?}",
            shed.outcome
        );
        assert!(matches!(
            parked.wait().unwrap().outcome,
            Outcome::Success(_)
        ));

        // Open breaker and empty budget, each stamped far in the future so
        // no cooldown or refill arrives while the test runs.
        let future_ns = u64::MAX / 2;
        let rf = function(&rt, tripped);
        rf.stats.breaker.record(Some(&breaker), false, future_ns);
        let open = rt.invoke(tripped, &b"x"[..]).wait().unwrap();
        assert!(
            matches!(open.outcome, Outcome::CircuitOpen { .. }),
            "{:?}",
            open.outcome
        );
        let rf = function(&rt, broke);
        rf.budget.as_ref().unwrap().true_up(0, u64::MAX, future_ns);
        let empty = rt.invoke(broke, &b"x"[..]).wait().unwrap();
        assert!(
            matches!(empty.outcome, Outcome::Throttled { why, .. } if why.contains("budget")),
            "{:?}",
            empty.outcome
        );

        for id in [low, tripped, broke] {
            let rf = function(&rt, id);
            assert!(rf.shards().is_empty(), "{} has shards", rf.config.name);
        }
        assert_eq!(function(&rt, sleeper).shards().len(), 2);
        let stats = rt.latency_report().stats;
        assert_eq!(
            (stats.shed, stats.breaker_rejected, stats.budget_rejected),
            (1, 1, 1)
        );
        assert_eq!(stats.slo_rejected, 0);
        let report = rt.latency_report();
        let executed = stats.completed + stats.trapped + stats.timed_out;
        assert_eq!(executed, 1);
        assert_eq!(report.global.count(), executed);
        let counts: Vec<u64> = report
            .per_function
            .iter()
            .map(|f| f.phases().count())
            .collect();
        assert_eq!(counts, [1, 0, 0, 0]);
        rt.shutdown();
    }
}
