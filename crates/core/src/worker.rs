//! Worker cores: steal sandboxes from the global deque, schedule them with
//! preemptive round-robin on a core-local run queue, and service the
//! core-local pending-I/O set (the libuv-event-loop analogue).

use crate::config::RuntimeConfig;
use crate::lock;
use crate::registry::FunctionId;
use crate::sandbox::{Completion, Outcome, Sandbox, WaitKind};
use crate::sched::Dwrr;
use crate::Shared;
use awsm::StepResult;
use sledge_deque::Stealer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Queue a sandbox at the back of its lane of the core-local run queue.
/// Sandboxes stay boxed end-to-end so queueing moves pointers, not
/// multi-KB structs.
fn enqueue(runqueue: &mut Dwrr<Box<Sandbox>>, config: &RuntimeConfig, sb: Box<Sandbox>) {
    runqueue.push(config.lane(sb.function.id), sb.function.config.weight, sb);
}

/// A running dispatch as the timer and a broadcast see it. Each worker
/// publishes its own in `Shared::running`.
#[derive(Debug)]
pub(crate) struct Dispatch {
    /// The sandbox's preempt flag.
    pub preempt: Arc<AtomicBool>,
    /// The sandbox's execution deadline, until the timer has fired it.
    pub deadline: Option<Instant>,
}

/// The timer thread keeps deadlines and nothing else: fuel ends every
/// quantum. It blocks in `recv` while no running dispatch has a deadline,
/// and otherwise in `recv_timeout` until the earliest one, at which it
/// preempts that sandbox; its worker then kills it. A worker that
/// publishes a dispatch with a deadline sends `()`, so the timer re-reads
/// the deadlines. It stops when every worker has exited, which drops the
/// last sender. Under an unbounded quantum (run-to-completion) the deadline
/// is the only preemption besides a force-killed drain and shutdown, which
/// preempt directly, so a runaway guest cannot outlive its deadline or
/// wedge a drain or `Runtime::shutdown`.
pub(crate) fn timer_loop(wake: Receiver<()>, running: &[Mutex<Option<Dispatch>>]) {
    loop {
        let due = running
            .iter()
            .filter_map(|slot| lock(slot).as_ref()?.deadline)
            .min();
        let woken = match due {
            Some(at) => wake.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => wake.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match woken {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => preempt(running, Some(Instant::now())),
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Set the preempt flag of every running dispatch or, given `expired_at`,
/// of those whose deadline is not after it. A preempted dispatch's deadline
/// is withdrawn: its worker decides its fate, and the timer does not wait
/// for it again.
pub(crate) fn preempt(running: &[Mutex<Option<Dispatch>>], expired_at: Option<Instant>) {
    for slot in running {
        if let Some(dispatch) = lock(slot).as_mut() {
            let fire = match expired_at {
                None => true,
                Some(now) => dispatch.deadline.is_some_and(|d| d <= now),
            };
            if fire {
                dispatch.preempt.store(true, Ordering::Relaxed);
                dispatch.deadline = None;
            }
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
            fn_stats.breaker.record(breaker, true, shared.now_ns());
        }
        Outcome::Trapped(_) => {
            shared.stats.trapped.fetch_add(1, Ordering::Relaxed);
            fn_stats.trapped.fetch_add(1, Ordering::Relaxed);
            fn_stats.breaker.record(breaker, false, shared.now_ns());
        }
        Outcome::TimedOut => {
            shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
            fn_stats.timed_out.fetch_add(1, Ordering::Relaxed);
            fn_stats.breaker.record(breaker, false, shared.now_ns());
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
        sandbox
            .function
            .record(shard, shared.phase_shards.len(), &timings);
    }
    let function = sandbox.function.id;
    let responder = sandbox.responder_take();
    // Teardown — or recycling. Only *clean* completions are eligible for
    // the warm pool: traps and deadline kills are discarded. The in-place
    // template reset happens here, on the worker, so the next acquire is a
    // plain pop.
    if sandbox.function.pool.enabled() {
        let retired = *sandbox;
        let Sandbox {
            function: rf,
            instance,
            ..
        } = retired;
        if matches!(outcome, Outcome::Success(_)) {
            // `release` itself counts the outcome (recycled, evicted on a
            // full pool, or discarded on a failed reset or a drained pool).
            rf.pool.release(instance);
        } else {
            drop(instance);
            rf.pool.discard();
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
    index: usize,
    stealer: Stealer<Box<Sandbox>>,
    timer: Sender<()>,
) {
    // One dispatch may burn one quantum of fuel, and DWRR refills are
    // denominated in the same unit (an unbounded quantum saturates both).
    let fuel = shared.config.dispatch_fuel();
    let mut runqueue: Dwrr<Box<Sandbox>> = Dwrr::new(fuel);
    // Sandboxes blocked on emulated async I/O, with their wake deadlines.
    let mut io_wait: Vec<(Instant, Box<Sandbox>)> = Vec::new();

    loop {
        // 0. Shutdown is observed even while long-running sandboxes keep the
        //    run queue non-empty (fuel ends each dispatch, and shutdown
        //    preempts the running ones, so this check is reached promptly).
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
                finish(&shared, index, sb, Outcome::TimedOut);
            }
            for mut sb in runqueue.drain() {
                sb.note_dispatch(now);
                finish(&shared, index, sb, Outcome::TimedOut);
            }
            while let Some(mut sb) = stealer.steal() {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                sb.note_dispatch(now);
                finish(&shared, index, sb, Outcome::TimedOut);
            }
        }

        // 1. Event loop: wake sandboxes whose I/O completed.
        if !io_wait.is_empty() {
            let now = Instant::now();
            let mut i = 0;
            while i < io_wait.len() {
                if io_wait[i].0 <= now {
                    let (_, sb) = io_wait.swap_remove(i);
                    enqueue(&mut runqueue, &shared.config, sb);
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
                enqueue(&mut runqueue, &shared.config, sb);
            }
        }
        let next = runqueue.pop();

        let mut sandbox = match next {
            Some(mut s) => {
                // Charge the off-CPU wait that just ended to its phase
                // (queue / preempted / blocked) before running or killing.
                s.note_dispatch(Instant::now());
                // A sandbox past its deadline is killed instead of
                // dispatched; one that reaches it while running is
                // preempted by the timer and killed below.
                if s.deadline.is_some_and(|d| Instant::now() >= d) {
                    finish(&shared, index, s, Outcome::TimedOut);
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

        // 3. Dispatch one quantum. The sandbox's preempt flag and deadline
        //    are published for the timer and for a shutdown or force-kill
        //    broadcast. A broadcast that ran before the publish is caught
        //    here instead: the check runs under the same lock the
        //    broadcast takes. Only a dispatch with a deadline wakes the
        //    timer, to wait for that deadline.
        {
            let mut current = lock(&shared.running[index]);
            let dispatch = current.insert(Dispatch {
                preempt: sandbox.instance.preempt_flag(),
                deadline: sandbox.deadline,
            });
            if shared.shutdown.load(Ordering::Acquire) || shared.force_kill.load(Ordering::Acquire)
            {
                dispatch.preempt.store(true, Ordering::Relaxed);
            }
        }
        if sandbox.deadline.is_some() {
            let _ = timer.send(());
        }
        let fuel_before = sandbox.instance.fuel_used();
        let result = sandbox.run_quantum(fuel);
        *lock(&shared.running[index]) = None;
        // Charge the dispatch's actual burn against its lane, and surface
        // any pass-overs the scheduler recorded while a lane's deficit was
        // spent (there are none with one shared lane).
        let burned = sandbox.instance.fuel_used().saturating_sub(fuel_before);
        runqueue.charge(shared.config.lane(sandbox.function.id), burned);
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
                finish(&shared, index, sandbox, Outcome::Success(body));
            }
            StepResult::Trapped(t) => {
                finish(&shared, index, sandbox, Outcome::Trapped(t));
            }
            StepResult::Preempted | StepResult::OutOfFuel => {
                shared.stats.preemptions.fetch_add(1, Ordering::Relaxed);
                if shared.force_kill.load(Ordering::Acquire)
                    || sandbox.deadline.is_some_and(|d| Instant::now() >= d)
                {
                    finish(&shared, index, sandbox, Outcome::TimedOut);
                } else {
                    // Round-robin: back of its lane, where the deficit
                    // decides its next turn.
                    sandbox.begin_wait(WaitKind::Preempted, Instant::now());
                    enqueue(&mut runqueue, &shared.config, sandbox);
                }
            }
            StepResult::Blocked => {
                if shared.force_kill.load(Ordering::Acquire) {
                    finish(&shared, index, sandbox, Outcome::TimedOut);
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
