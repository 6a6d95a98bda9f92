//! Sandboxes: one per request, created by the listener, executed by workers.
//!
//! A sandbox couples an `awsm::Instance` with the request body, the response
//! buffer, and the host-call surface the guest sees (the paper's
//! stdin/stdout-over-HTTP plus asynchronous I/O).

use crate::fault::FaultPlan;
use crate::registry::{FunctionId, RegisteredFunction};
use awsm::{
    EngineConfig, Host, HostImport, HostOutcome, Instance, InstanceError, LinearMemory, StepResult,
    Trap,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a request finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Guest returned; body is the guest's stdout.
    Success(Vec<u8>),
    /// Guest trapped.
    Trapped(Trap),
    /// Request rejected before execution (admission control or routing).
    Rejected(&'static str),
    /// Guest killed at its execution deadline.
    TimedOut,
    /// Request fast-rejected because the function's circuit breaker is
    /// open; `retry_after` hints when the next probe will be admitted.
    CircuitOpen {
        /// Suggested client back-off.
        retry_after: Duration,
    },
    /// Request rejected by admission control (429): work budget exhausted,
    /// queue-phase SLO exceeded, or shed by the in-flight cap.
    Throttled {
        /// Suggested client back-off (budget refill time, or the SLO span).
        retry_after: Duration,
        /// Which admission gate rejected, for the response body and logs.
        why: &'static str,
    },
}

/// Timing record for one request, used by the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timings {
    /// When the request was accepted by the listener.
    pub arrival: Instant,
    /// Sandbox allocation (instantiation) time.
    pub instantiation: Duration,
    /// Time spent waiting for the first dispatch on a worker (enqueue →
    /// first run, excluding instantiation).
    pub queue_delay: Duration,
    /// Accumulated guest execution time.
    pub execution: Duration,
    /// Accumulated time parked on a runqueue after being preempted.
    pub preempted: Duration,
    /// Accumulated time parked on blocked (emulated) I/O, including the
    /// wake → redispatch latency.
    pub blocked: Duration,
    /// Arrival → response completion.
    pub total: Duration,
    /// Number of times the sandbox was preempted.
    pub preemptions: u32,
}

/// The completed response delivered to the invoker.
#[derive(Debug)]
pub struct Completion {
    /// Which function ran.
    pub function: FunctionId,
    /// Result.
    pub outcome: Outcome,
    /// Timings.
    pub timings: Timings,
}

/// The host-call surface one sandbox sees.
#[derive(Debug)]
pub struct SandboxHost {
    /// Request body ("stdin").
    pub request: Vec<u8>,
    /// Response buffer ("stdout").
    pub response: Vec<u8>,
    /// Monotonic epoch for `clock_ns`.
    pub epoch: Instant,
    /// Deadline for an in-flight emulated async I/O (`io_delay`).
    pub io_deadline: Option<Instant>,
    /// Total host calls serviced (for tests/metrics).
    pub calls: u64,
    /// Fault-injection plan, if chaos testing is enabled.
    fault: Option<FaultPlan>,
    /// Listener-assigned invocation sequence number (fault decisions key
    /// off it).
    seq: u64,
    /// Logical host-call index: advances only on fresh calls, not on
    /// re-issues of a blocked call, so fault decisions are independent of
    /// scheduling timing.
    logical_calls: u64,
    /// Deadline of an injected-latency stall (mirrors into `io_deadline`
    /// so workers park the sandbox like real blocked I/O).
    fault_delay: Option<Instant>,
}

impl SandboxHost {
    fn new(request: Vec<u8>, epoch: Instant) -> Self {
        SandboxHost {
            request,
            response: Vec::new(),
            epoch,
            io_deadline: None,
            calls: 0,
            fault: None,
            seq: 0,
            logical_calls: 0,
            fault_delay: None,
        }
    }
}

impl Host for SandboxHost {
    fn call(
        &mut self,
        _idx: u32,
        import: &HostImport,
        args: &[u64],
        memory: &mut LinearMemory,
    ) -> HostOutcome {
        self.calls += 1;
        // Fault injection runs before dispatch. An armed injected stall is
        // serviced like blocked I/O (re-issues stay Pending until its
        // deadline); a fresh call consumes one logical index and may trap
        // or stall per the plan. Re-issues of a genuinely blocked call
        // (io_deadline armed) bypass injection entirely so decisions stay
        // deterministic under any scheduling interleaving.
        if let Some(d) = self.fault_delay {
            if Instant::now() < d {
                return HostOutcome::Pending;
            }
            self.fault_delay = None;
            self.io_deadline = None;
        } else if self.io_deadline.is_none() {
            let idx = self.logical_calls;
            self.logical_calls += 1;
            if let Some(plan) = self.fault {
                if plan.trap_host_call(self.seq, idx) {
                    return HostOutcome::Trap(Trap::Unreachable);
                }
                if let Some(delay) = plan.delay_host_call(self.seq, idx) {
                    let deadline = Instant::now() + delay;
                    self.fault_delay = Some(deadline);
                    self.io_deadline = Some(deadline);
                    return HostOutcome::Pending;
                }
            }
        }
        if import.module != "env" {
            return HostOutcome::Trap(Trap::Unreachable);
        }
        match import.name.as_str() {
            // i32 request_len()
            "request_len" => HostOutcome::Value(self.request.len() as u32 as u64),
            // i32 request_read(dst: i32, len: i32, src_off: i32)
            "request_read" => {
                let dst = args[0] as u32;
                let len = args[1] as u32 as usize;
                let off = args[2] as u32 as usize;
                if off >= self.request.len() {
                    return HostOutcome::Value(0);
                }
                let n = len.min(self.request.len() - off);
                match memory.write_bytes(dst, &self.request[off..off + n]) {
                    Ok(()) => HostOutcome::Value(n as u64),
                    Err(t) => HostOutcome::Trap(t),
                }
            }
            // i32 response_write(src: i32, len: i32)
            "response_write" => {
                let src = args[0] as u32;
                let len = args[1] as u32;
                match memory.read_bytes(src, len) {
                    Ok(bytes) => {
                        self.response.extend_from_slice(bytes);
                        HostOutcome::Value(len as u64)
                    }
                    Err(t) => HostOutcome::Trap(t),
                }
            }
            // i64 clock_ns()
            "clock_ns" => HostOutcome::Value(self.epoch.elapsed().as_nanos() as u64),
            // i32 io_delay(micros: i32) — emulated asynchronous I/O: the
            // first call arms a deadline and blocks; re-issues complete once
            // the deadline passes.
            "io_delay" => match self.io_deadline {
                None => {
                    let micros = args[0] as u32 as u64;
                    self.io_deadline = Some(Instant::now() + Duration::from_micros(micros));
                    HostOutcome::Pending
                }
                Some(d) => {
                    if Instant::now() >= d {
                        self.io_deadline = None;
                        HostOutcome::Value(0)
                    } else {
                        HostOutcome::Pending
                    }
                }
            },
            _ => HostOutcome::Trap(Trap::Unreachable),
        }
    }
}

/// What a sandbox is currently waiting for while off-CPU; decides which
/// phase accumulator its wait is charged to at the next dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitKind {
    /// Enqueued, never run (listener → first dispatch).
    Queue,
    /// Preempted back onto a runqueue.
    Preempted,
    /// Parked on blocked (emulated) I/O.
    Blocked,
}

/// A request in execution: instance + host + bookkeeping.
pub struct Sandbox {
    /// The function being run.
    pub function: Arc<RegisteredFunction>,
    /// The engine instance.
    pub instance: Instance,
    /// Host surface.
    pub host: SandboxHost,
    /// Where the completion goes.
    pub responder: crate::listener::AnyResponder,
    /// Timing bookkeeping.
    pub arrival: Instant,
    /// Instantiation cost (measured by the listener).
    pub instantiation: Duration,
    /// First time a worker started running this sandbox.
    pub first_run: Option<Instant>,
    /// Accumulated execution time.
    pub exec_time: Duration,
    /// When the current off-CPU wait began (instantiation end, preemption,
    /// or I/O park).
    pub(crate) wait_since: Instant,
    /// Which phase the current wait is charged to.
    pub(crate) wait_kind: WaitKind,
    /// Accumulated enqueue → first-dispatch wait.
    pub queue_wait: Duration,
    /// Accumulated preemption → redispatch wait.
    pub preempted_wait: Duration,
    /// Accumulated I/O park → redispatch wait.
    pub blocked_wait: Duration,
    /// Preemption count.
    pub preemptions: u32,
    /// Wall-clock execution deadline; workers kill the sandbox with
    /// [`Outcome::TimedOut`] when it is (re)scheduled past this instant.
    pub deadline: Option<Instant>,
    /// Whether this invocation is a circuit breaker's half-open probe (its
    /// outcome decides whether the breaker closes or re-opens).
    pub breaker_probe: bool,
    /// Whether the instance came warm from the function's sandbox pool
    /// (rather than cold instantiation).
    pub pool_hit: bool,
    /// Tokens charged against the function's work budget at admission;
    /// the worker trues this up against `Instance::fuel_used` at
    /// completion. `None` when the function carries no budget.
    pub budget_charge: Option<u64>,
}

impl Sandbox {
    /// Allocate a sandbox for `function` with the given request body — the
    /// paper's µs-level function startup path.
    ///
    /// # Errors
    ///
    /// On [`InstanceError`] (e.g. data segments out of bounds) the
    /// responder is handed back so the caller can still deliver a
    /// completion — a failed instantiation must not strand the client.
    pub fn new(
        function: Arc<RegisteredFunction>,
        engine: EngineConfig,
        body: Vec<u8>,
        responder: crate::listener::AnyResponder,
        epoch: Instant,
    ) -> Result<Box<Sandbox>, (InstanceError, crate::listener::AnyResponder)> {
        let arrival = Instant::now();
        // Warm path: pop a reset-and-ready instance from the function's
        // pool. The acquire happens *inside* the measured window, so a pool
        // hit records its (near-zero) cost in the `instantiation` phase
        // histogram — not smeared into `queue` — and the phase invariant
        // `sum of phases <= total` is preserved by construction.
        let (instance, pool_hit) = match function.pool.acquire(&engine) {
            Some(i) => (i, true),
            None => match Instance::new(Arc::clone(&function.module), engine) {
                Ok(i) => (i, false),
                Err(e) => return Err((e, responder)),
            },
        };
        let instantiation = arrival.elapsed();
        Ok(Box::new(Sandbox {
            function,
            instance,
            host: SandboxHost::new(body, epoch),
            responder,
            arrival,
            instantiation,
            first_run: None,
            exec_time: Duration::ZERO,
            wait_since: Instant::now(),
            wait_kind: WaitKind::Queue,
            queue_wait: Duration::ZERO,
            preempted_wait: Duration::ZERO,
            blocked_wait: Duration::ZERO,
            preemptions: 0,
            deadline: None,
            breaker_probe: false,
            pool_hit,
            budget_charge: None,
        }))
    }

    /// Attach a fault-injection plan and this invocation's sequence number
    /// (decisions key off both).
    pub fn set_fault(&mut self, plan: FaultPlan, seq: u64) {
        self.host.fault = Some(plan);
        self.host.seq = seq;
    }

    /// The fault plan and sequence number attached by the listener, if any
    /// (workers consult them for the pool-poisoning decision at retirement).
    pub(crate) fn fault(&self) -> Option<(FaultPlan, u64)> {
        self.host.fault.map(|p| (p, self.host.seq))
    }

    /// Start the entry function. Must be called once before `run_quantum`.
    ///
    /// # Errors
    ///
    /// Propagates [`InstanceError`] (unknown entry, arity mismatch).
    pub fn start(&mut self) -> Result<(), InstanceError> {
        let entry = self.function.config.entry.clone();
        let args = self.function.config.args.clone();
        self.instance.invoke_export(&entry, &args)
    }

    /// Close out the current off-CPU wait: charge `now − wait_since` to the
    /// phase accumulator named by `wait_kind`. Workers call this at every
    /// (re)dispatch — including the dispatch that kills a sandbox at its
    /// deadline, so killed invocations account their waits too.
    pub(crate) fn note_dispatch(&mut self, now: Instant) {
        let waited = now.saturating_duration_since(self.wait_since);
        match self.wait_kind {
            WaitKind::Queue => self.queue_wait += waited,
            WaitKind::Preempted => self.preempted_wait += waited,
            WaitKind::Blocked => self.blocked_wait += waited,
        }
        self.wait_since = now;
    }

    /// Begin a new off-CPU wait of the given kind (preemption requeue or
    /// I/O park).
    pub(crate) fn begin_wait(&mut self, kind: WaitKind, now: Instant) {
        self.wait_since = now;
        self.wait_kind = kind;
    }

    /// Run one scheduling quantum; updates accounting.
    pub fn run_quantum(&mut self, fuel: u64) -> StepResult {
        let started = Instant::now();
        if self.first_run.is_none() {
            self.first_run = Some(started);
        }
        let r = self.instance.run(&mut self.host, fuel);
        self.exec_time += started.elapsed();
        if matches!(r, StepResult::Preempted) {
            self.preemptions += 1;
        }
        r
    }

    /// Build the final timing record from the phase accumulators.
    pub fn timings(&self, now: Instant) -> Timings {
        Timings {
            arrival: self.arrival,
            instantiation: self.instantiation,
            queue_delay: self.queue_wait,
            execution: self.exec_time,
            preempted: self.preempted_wait,
            blocked: self.blocked_wait,
            total: now.duration_since(self.arrival),
            preemptions: self.preemptions,
        }
    }
}
