//! Worker cores: steal sandboxes from the global deque, schedule them with
//! preemptive round-robin on a core-local run queue, and service the
//! core-local pending-I/O set (the libuv-event-loop analogue).

use crate::lock;
use crate::registry::FunctionId;
use crate::sandbox::{Completion, Outcome, Sandbox, WaitKind};
use crate::sched::Dwrr;
use crate::Shared;
use awsm::StepResult;
use sledge_deque::Stealer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The core-local run queue: plain FIFO rotation by default, or weighted
/// deficit-round-robin lanes per function when fairness is armed. The
/// FIFO variant preserves pre-fairness scheduling order exactly.
enum LocalQueue {
    Fifo(VecDeque<Box<Sandbox>>),
    Dwrr(Dwrr<Box<Sandbox>>),
}

impl LocalQueue {
    fn push(&mut self, sb: Box<Sandbox>) {
        match self {
            LocalQueue::Fifo(q) => q.push_back(sb),
            LocalQueue::Dwrr(q) => {
                let key = sb.function.id.0;
                let weight = sb.function.config.weight;
                q.push(key, weight, sb);
            }
        }
    }

    fn pop(&mut self) -> Option<Box<Sandbox>> {
        match self {
            LocalQueue::Fifo(q) => q.pop_front(),
            LocalQueue::Dwrr(q) => q.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            LocalQueue::Fifo(q) => q.len(),
            LocalQueue::Dwrr(q) => q.len(),
        }
    }

    /// Charge a dispatch's actual fuel burn against its function's DWRR
    /// lane (no-op under FIFO).
    fn charge(&mut self, key: u32, used: u64) {
        if let LocalQueue::Dwrr(q) = self {
            q.charge(key, used);
        }
    }

    /// Remove every queued sandbox (force-kill sweeps). Sandboxes stay
    /// boxed end-to-end so a drain moves pointers, not multi-KB structs.
    #[allow(clippy::vec_box)]
    fn drain(&mut self) -> Vec<Box<Sandbox>> {
        match self {
            LocalQueue::Fifo(q) => q.drain(..).collect(),
            LocalQueue::Dwrr(q) => q.drain(),
        }
    }

    /// Per-function pass-over counts accumulated since the last call
    /// (always empty under FIFO).
    fn take_deferrals(&mut self) -> Vec<(u32, u64)> {
        match self {
            LocalQueue::Fifo(_) => Vec::new(),
            LocalQueue::Dwrr(q) => q.take_deferrals(),
        }
    }
}

/// Per-worker state visible to the timer thread.
#[derive(Debug, Default)]
pub(crate) struct WorkerShared {
    /// This worker's index: selects its private metrics shard in
    /// `Shared::phase_shards` and in each function's shard set.
    pub index: usize,
    /// Preempt flag of the sandbox currently running on this worker, if any.
    pub current: Mutex<Option<Arc<AtomicBool>>>,
}

/// The timer thread: fires every quantum and requests preemption of every
/// currently-running sandbox — the SIGALRM-propagation analogue. Under
/// run-to-completion it only fires once, at shutdown, so runaway guests
/// cannot wedge `Runtime::shutdown`.
pub(crate) fn timer_loop(shared: Arc<Shared>, workers: Vec<Arc<WorkerShared>>) {
    let preemptive = shared.config.policy == crate::config::SchedPolicy::PreemptiveRr;
    loop {
        std::thread::sleep(shared.config.quantum);
        let down = shared.shutdown.load(Ordering::Acquire);
        // A force-killed drain must preempt even under run-to-completion so
        // runaway guests come back to their worker to be killed.
        let force = shared.force_kill.load(Ordering::Acquire);
        if preemptive || down || force {
            for w in &workers {
                if let Some(flag) = lock(&w.current).as_ref() {
                    flag.store(true, Ordering::Relaxed);
                }
            }
        }
        if down {
            return;
        }
    }
}

fn finish(shared: &Shared, shard: usize, mut sandbox: Box<Sandbox>, outcome: Outcome) {
    // True up the admission-time budget charge against the fuel actually
    // burned — on every retirement path, including deadline kills, so the
    // bucket's long-run accounting tracks real consumption.
    if let Some(charged) = sandbox.budget_charge.take() {
        if let Some(bucket) = &sandbox.function.budget {
            bucket.true_up(charged, sandbox.instance.fuel_used(), shared.now_ns());
        }
    }
    let fn_stats = &sandbox.function.stats;
    let breaker = shared.config.circuit_breaker.as_ref();
    match &outcome {
        Outcome::Success(_) => {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            fn_stats.completed.fetch_add(1, Ordering::Relaxed);
            fn_stats.breaker_record(breaker, true, shared.now_ns());
        }
        Outcome::Trapped(_) => {
            shared.stats.trapped.fetch_add(1, Ordering::Relaxed);
            fn_stats.trapped.fetch_add(1, Ordering::Relaxed);
            fn_stats.breaker_record(breaker, false, shared.now_ns());
        }
        Outcome::TimedOut => {
            shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
            fn_stats.timed_out.fetch_add(1, Ordering::Relaxed);
            fn_stats.breaker_record(breaker, false, shared.now_ns());
        }
        Outcome::Rejected(_) => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::CircuitOpen { .. } => {
            shared
                .stats
                .breaker_rejected
                .fetch_add(1, Ordering::Relaxed);
        }
        // Admission throttling is counted (shed / budget / SLO) by the
        // listener at rejection time; a throttled request never reaches a
        // worker, so there is nothing to count here.
        Outcome::Throttled { .. } => {}
    }
    let exec_ns = sandbox.exec_time.as_nanos() as u64;
    fn_stats.execution_ns.fetch_add(exec_ns, Ordering::Relaxed);
    shared
        .stats
        .execution_ns
        .fetch_add(exec_ns, Ordering::Relaxed);
    let timings = sandbox.timings(Instant::now());
    // Every executed invocation (success, trap, or deadline kill) records
    // exactly one sample per phase into this worker's private shards; the
    // listener's pre-execution rejections never reach here, so merged
    // histogram counts equal completed + trapped + timed_out.
    if matches!(
        outcome,
        Outcome::Success(_) | Outcome::Trapped(_) | Outcome::TimedOut
    ) {
        shared.phase_shards[shard].record(&timings);
        let fn_shards = &sandbox.function.metrics;
        fn_shards[shard % fn_shards.len()].record(&timings);
    }
    let function = sandbox.function.id;
    let responder = sandbox.responder_take();
    // Teardown — or recycling. Only *clean* completions are eligible for
    // the warm pool: traps, deadline kills, and poisoned invocations (the
    // chaos fault that models "this sandbox can no longer be trusted") are
    // discarded, as is everything once a drain begins (drained pools must
    // stay empty). The in-place template reset happens here, on the worker,
    // so the next acquire is a plain pop.
    if sandbox.function.pool.enabled() {
        let clean = matches!(outcome, Outcome::Success(_));
        let poisoned = clean && sandbox.fault().is_some_and(|(p, seq)| p.poison_pool(seq));
        let recyclable = clean
            && !poisoned
            && shared.config.recycle
            && !shared.draining.load(Ordering::Acquire)
            && !shared.shutdown.load(Ordering::Acquire);
        let retired = *sandbox;
        let Sandbox {
            function: rf,
            instance,
            ..
        } = retired;
        if recyclable {
            // `release` itself counts the outcome (recycled, evicted on a
            // full pool, or discarded on a failed reset).
            rf.pool.release(instance);
        } else {
            drop(instance);
            rf.pool.discard(poisoned);
        }
    } else {
        // Dropping the sandbox releases linear memory and stacks.
        drop(sandbox);
    }
    responder.deliver(Completion {
        function,
        outcome,
        timings,
    });
    // Decrement only after delivery: `inflight == 0` during a drain means
    // every accepted invocation's completion has been handed off.
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
}

/// The worker loop.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    me: Arc<WorkerShared>,
    stealer: Stealer<Box<Sandbox>>,
) {
    let mut runqueue = if shared.config.fairness {
        // DWRR refills are denominated in scheduler quanta of fuel — the
        // calibrated per-dispatch budget — regardless of how much fuel a
        // single dispatch may burn under run-to-completion.
        LocalQueue::Dwrr(Dwrr::new(shared.config.effective_quantum_fuel()))
    } else {
        LocalQueue::Fifo(VecDeque::new())
    };
    // Sandboxes blocked on emulated async I/O, with their wake deadlines.
    let mut io_wait: Vec<(Instant, Box<Sandbox>)> = Vec::new();
    let preemptive = shared.config.policy == crate::config::SchedPolicy::PreemptiveRr;
    let fuel = if preemptive {
        shared.config.effective_quantum_fuel()
    } else {
        u64::MAX
    };

    loop {
        // 0. Shutdown is observed even while long-running sandboxes keep the
        //    run queue non-empty (they are preempted back to us every
        //    quantum, so this check is reached promptly).
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }

        // 0b. Force-killed drain: the drain timeout expired, so the entire
        //     local backlog (parked, queued, and still-unstolen) is killed
        //     with TimedOut — every accepted invocation still gets exactly
        //     one completion. The listener stopped admitting when the drain
        //     began, so nothing new arrives behind this sweep.
        if shared.force_kill.load(Ordering::Acquire) {
            let now = Instant::now();
            for (_, mut sb) in io_wait.drain(..) {
                sb.note_dispatch(now);
                finish(&shared, me.index, sb, Outcome::TimedOut);
            }
            for mut sb in runqueue.drain() {
                sb.note_dispatch(now);
                finish(&shared, me.index, sb, Outcome::TimedOut);
            }
            while let Some(mut sb) = stealer.steal() {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                sb.note_dispatch(now);
                finish(&shared, me.index, sb, Outcome::TimedOut);
            }
        }

        // 1. Event loop: wake sandboxes whose I/O completed.
        if !io_wait.is_empty() {
            let now = Instant::now();
            let mut i = 0;
            while i < io_wait.len() {
                if io_wait[i].0 <= now {
                    let (_, sb) = io_wait.swap_remove(i);
                    runqueue.push(sb);
                } else {
                    i += 1;
                }
            }
        }

        // 2. Work conservation and fairness: admit new requests from the
        //    global deque into the local round-robin rotation, so a
        //    long-running sandbox cannot starve fresh arrivals on this core.
        const ADMIT_LIMIT: usize = 128;
        if runqueue.len() < ADMIT_LIMIT {
            if let Some(sb) = stealer.steal() {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                shared.stats.steals.fetch_add(1, Ordering::Relaxed);
                runqueue.push(sb);
            }
        }
        let next = runqueue.pop();

        let mut sandbox = match next {
            Some(mut s) => {
                // Charge the off-CPU wait that just ended to its phase
                // (queue / preempted / blocked) before running or killing.
                s.note_dispatch(Instant::now());
                // Deadline enforcement happens at (re)scheduling points: a
                // sandbox past its deadline is killed instead of dispatched.
                if s.deadline.is_some_and(|d| Instant::now() >= d) {
                    finish(&shared, me.index, s, Outcome::TimedOut);
                    continue;
                }
                s
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Idle: wait for the earliest I/O deadline or a short poll
                // interval before checking the deque again.
                let nap = io_wait
                    .iter()
                    .map(|(d, _)| d.saturating_duration_since(Instant::now()))
                    .min()
                    .unwrap_or(Duration::from_micros(50))
                    .min(Duration::from_micros(200));
                if nap > Duration::ZERO {
                    std::thread::sleep(nap);
                }
                continue;
            }
        };

        // 3. Dispatch one quantum. The sandbox's preempt flag is published
        //    for the timer thread (which fires per quantum under preemptive
        //    RR, and once at shutdown under run-to-completion).
        *lock(&me.current) = Some(sandbox.instance.preempt_flag());
        let fn_key = sandbox.function.id.0;
        let fuel_before = sandbox.instance.fuel_used();
        let result = sandbox.run_quantum(fuel);
        *lock(&me.current) = None;
        // Charge the dispatch's actual burn against the function's DWRR
        // lane, and surface any pass-overs the scheduler recorded while
        // this lane's deficit was spent.
        let burned = sandbox.instance.fuel_used().saturating_sub(fuel_before);
        runqueue.charge(fn_key, burned);
        let deferred = runqueue.take_deferrals();
        if !deferred.is_empty() {
            let registry = shared.registry();
            for (key, n) in deferred {
                if let Some(rf) = registry.get(FunctionId(key)) {
                    rf.stats.dwrr_deferrals.fetch_add(n, Ordering::Relaxed);
                }
            }
        }

        match result {
            StepResult::Complete(_) => {
                let body = std::mem::take(&mut sandbox.host.response);
                finish(&shared, me.index, sandbox, Outcome::Success(body));
            }
            StepResult::Trapped(t) => {
                finish(&shared, me.index, sandbox, Outcome::Trapped(t));
            }
            StepResult::Preempted | StepResult::OutOfFuel => {
                shared.stats.preemptions.fetch_add(1, Ordering::Relaxed);
                if shared.force_kill.load(Ordering::Acquire)
                    || sandbox.deadline.is_some_and(|d| Instant::now() >= d)
                {
                    finish(&shared, me.index, sandbox, Outcome::TimedOut);
                } else {
                    // Round-robin: back of the local queue (or its DWRR
                    // lane, where the deficit decides its next turn).
                    sandbox.begin_wait(WaitKind::Preempted, Instant::now());
                    runqueue.push(sandbox);
                }
            }
            StepResult::Blocked => {
                if shared.force_kill.load(Ordering::Acquire) {
                    finish(&shared, me.index, sandbox, Outcome::TimedOut);
                    continue;
                }
                shared.stats.blocked.fetch_add(1, Ordering::Relaxed);
                // Park until the I/O completes — or, if the sandbox's
                // execution deadline lands first, wake then so it can be
                // killed instead of oversleeping its deadline.
                let mut wake = sandbox.host.io_deadline.unwrap_or_else(Instant::now);
                if let Some(d) = sandbox.deadline {
                    wake = wake.min(d);
                }
                sandbox.begin_wait(WaitKind::Blocked, Instant::now());
                io_wait.push((wake, sandbox));
            }
        }
    }
}
