//! Global runtime counters, exported for tests, examples, and benchmarks,
//! plus the circuit breaker state machine.

use crate::config::BreakerConfig;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Monotonic counters updated by the listener and workers.
#[derive(Debug, Default)]
pub(crate) struct RuntimeStats {
    /// Requests accepted by the listener.
    pub admitted: AtomicU64,
    /// Requests rejected by admission control.
    pub rejected: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests that trapped.
    pub trapped: AtomicU64,
    /// Requests killed at their execution deadline.
    pub timed_out: AtomicU64,
    /// Requests fast-rejected by a tripped circuit breaker (counted
    /// separately from admission-control `rejected`).
    pub breaker_rejected: AtomicU64,
    /// Requests shed (429) by the global in-flight cap, ordered by
    /// priority class.
    pub shed: AtomicU64,
    /// Requests rejected (429) because the function's work budget was
    /// exhausted.
    pub budget_rejected: AtomicU64,
    /// Requests rejected (429) because the function's queue-phase p99
    /// exceeded its SLO.
    pub slo_rejected: AtomicU64,
    /// Sandboxes stolen from the global deque by workers.
    pub steals: AtomicU64,
    /// Preemptions performed.
    pub preemptions: AtomicU64,
    /// Sandboxes that blocked on (emulated) I/O at least once.
    pub blocked: AtomicU64,
    /// Total instantiation time in nanoseconds (with `admitted` as count).
    pub instantiation_ns: AtomicU64,
    /// Total guest execution time in nanoseconds.
    pub execution_ns: AtomicU64,
}

impl RuntimeStats {
    /// Record an instantiation.
    pub(crate) fn record_instantiation(&self, d: Duration) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.instantiation_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A snapshot suitable for printing.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            trapped: self.trapped.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            budget_rejected: self.budget_rejected.load(Ordering::Relaxed),
            slo_rejected: self.slo_rejected.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
            instantiation_ns: self.instantiation_ns.load(Ordering::Relaxed),
            execution_ns: self.execution_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of `RuntimeStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub trapped: u64,
    pub timed_out: u64,
    pub breaker_rejected: u64,
    pub shed: u64,
    pub budget_rejected: u64,
    pub slo_rejected: u64,
    pub steals: u64,
    pub preemptions: u64,
    pub blocked: u64,
    pub instantiation_ns: u64,
    pub execution_ns: u64,
}

impl StatsSnapshot {
    /// Mean instantiation time, if any requests were admitted.
    pub fn mean_instantiation(&self) -> Option<Duration> {
        self.instantiation_ns
            .checked_div(self.admitted)
            .map(Duration::from_nanos)
    }
}

/// Load-time static-analysis counters, updated by the registry as modules
/// are verified (or rejected) at registration.
#[derive(Debug, Default)]
pub(crate) struct RegistryStats {
    /// Modules that passed verification and were registered.
    pub modules_verified: AtomicU64,
    /// Modules rejected at registration: by the analyzer (error-severity
    /// lints or a stack bound over budget), by a certificate or capability
    /// gate, or — on the ingest path — by artifact decode.
    pub modules_rejected: AtomicU64,
    /// Warning-severity lints surfaced across all registered modules.
    pub lint_warnings: AtomicU64,
    /// Modules registered with a preemption-latency certificate within the
    /// configured check-gap budget.
    pub cost_certified: AtomicU64,
    /// Modules rejected because the certificate was missing or its
    /// check-free gap exceeded the budget (also counted in
    /// `modules_rejected`).
    pub certificate_rejected: AtomicU64,
    /// Modules whose effect certificate passed a configured capability
    /// policy (`allowed_hostcalls` / `max_write_footprint_bytes`). Stays
    /// zero when no module sets a policy.
    pub capability_certified: AtomicU64,
    /// Modules rejected by a capability policy (also counted in
    /// `modules_rejected`).
    pub capability_rejected: AtomicU64,
    /// Module-store misses: the `.wasm` translations and artifact decodes
    /// actually performed. Registrations of bytes already in the store share
    /// that module and do not count here.
    pub modules_compiled: AtomicU64,
}

impl RegistryStats {
    /// A point-in-time copy suitable for printing.
    pub(crate) fn snapshot(&self) -> RegistryStatsSnapshot {
        RegistryStatsSnapshot {
            modules_verified: self.modules_verified.load(Ordering::Relaxed),
            modules_rejected: self.modules_rejected.load(Ordering::Relaxed),
            lint_warnings: self.lint_warnings.load(Ordering::Relaxed),
            cost_certified: self.cost_certified.load(Ordering::Relaxed),
            certificate_rejected: self.certificate_rejected.load(Ordering::Relaxed),
            capability_certified: self.capability_certified.load(Ordering::Relaxed),
            capability_rejected: self.capability_rejected.load(Ordering::Relaxed),
            modules_compiled: self.modules_compiled.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of `RegistryStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStatsSnapshot {
    pub modules_verified: u64,
    pub modules_rejected: u64,
    pub lint_warnings: u64,
    pub cost_certified: u64,
    pub certificate_rejected: u64,
    /// Modules that passed a configured capability policy.
    pub capability_certified: u64,
    /// Modules rejected by a capability policy.
    pub capability_rejected: u64,
    /// Module-store misses (translations plus artifact decodes).
    pub modules_compiled: u64,
}

/// Requests flow through.
const BREAKER_CLOSED: u8 = 0;
/// Tripped: requests are fast-rejected until the cooldown elapses.
const BREAKER_OPEN: u8 = 1;
/// Cooldown elapsed: one probe is in flight, everything else is rejected.
const BREAKER_HALF_OPEN: u8 = 2;

/// A lock-free circuit breaker: `threshold` consecutive failures open it,
/// and once `cooldown` has passed exactly one half-open probe decides
/// between closing it and another open round. Each registered function
/// carries one, and so does each node behind the cluster router.
#[derive(Debug, Default)]
pub struct Breaker {
    /// Consecutive failures since the last success.
    consecutive_failures: AtomicU32,
    /// `BREAKER_CLOSED`, `BREAKER_OPEN` or `BREAKER_HALF_OPEN`.
    state: AtomicU8,
    /// Epoch-relative nanoseconds of the last state transition (the value
    /// that cooldowns are measured from).
    since_ns: AtomicU64,
    /// Times the breaker has tripped Closed/HalfOpen → Open.
    pub trips: AtomicU64,
}

impl Breaker {
    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    /// Admission decision for one request at `now_ns` (epoch-relative).
    ///
    /// Returns `Ok(is_probe)` when the request may proceed — `is_probe` is
    /// true iff this request won the transition to half-open and its outcome
    /// decides the breaker's fate — or `Err(retry_after)` when the breaker
    /// rejects it.
    pub fn admit(&self, cfg: &BreakerConfig, now_ns: u64) -> Result<bool, Duration> {
        loop {
            match self.state.load(Ordering::Acquire) {
                BREAKER_CLOSED => return Ok(false),
                BREAKER_HALF_OPEN => return Err(cfg.cooldown),
                BREAKER_OPEN => {
                    let since = self.since_ns.load(Ordering::Acquire);
                    let elapsed = now_ns.saturating_sub(since);
                    let cooldown_ns = cfg.cooldown.as_nanos() as u64;
                    if elapsed < cooldown_ns {
                        return Err(Duration::from_nanos(cooldown_ns - elapsed));
                    }
                    // Cooldown elapsed: race to become the half-open probe.
                    if self
                        .state
                        .compare_exchange(
                            BREAKER_OPEN,
                            BREAKER_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.since_ns.store(now_ns, Ordering::Release);
                        return Ok(true);
                    }
                    // Lost the race; re-read the state.
                }
                _ => return Ok(false),
            }
        }
    }

    /// Record an outcome. No-op when breakers are disabled (`cfg` is
    /// `None`). A failure while already open changes nothing but the
    /// streak: the cooldown runs from the trip.
    pub fn record(&self, cfg: Option<&BreakerConfig>, success: bool, now_ns: u64) {
        let Some(cfg) = cfg else { return };
        if success {
            self.consecutive_failures.store(0, Ordering::Release);
            // A success closes the breaker regardless of prior state (the
            // half-open probe succeeded, or a straggler admitted before the
            // trip completed fine).
            self.state.store(BREAKER_CLOSED, Ordering::Release);
            return;
        }
        let fails = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        let state = self.state.load(Ordering::Acquire);
        if state == BREAKER_HALF_OPEN || (state == BREAKER_CLOSED && fails >= cfg.threshold) {
            self.trip(now_ns);
        }
    }

    /// A probe that was admitted half-open but then rejected before running
    /// (e.g. instantiation failed, drain started) must re-open the breaker,
    /// or it would stay half-open forever with no outcome to decide it.
    pub(crate) fn probe_rejected(&self, now_ns: u64) {
        if self
            .state
            .compare_exchange(
                BREAKER_HALF_OPEN,
                BREAKER_OPEN,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.since_ns.store(now_ns, Ordering::Release);
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn trip(&self, now_ns: u64) {
        let prev = self.state.swap(BREAKER_OPEN, Ordering::AcqRel);
        self.since_ns.store(now_ns, Ordering::Release);
        if prev != BREAKER_OPEN {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-function counters, attached to each registered function.
#[derive(Debug, Default)]
pub struct FunctionStats {
    /// Requests admitted past every admission gate (dispatched to a worker).
    pub admitted: AtomicU64,
    /// Requests shed (429) by the global in-flight cap.
    pub shed: AtomicU64,
    /// Requests rejected (429) on an empty work budget.
    pub budget_rejected: AtomicU64,
    /// Requests rejected (429) on a blown queue-phase p99 SLO.
    pub slo_rejected: AtomicU64,
    /// Times a DWRR lane holding this function's work was passed over
    /// because its deficit was spent (a measure of fairness pressure).
    pub dwrr_deferrals: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests that trapped.
    pub trapped: AtomicU64,
    /// Requests killed at their execution deadline.
    pub timed_out: AtomicU64,
    /// Total guest execution time in nanoseconds.
    pub execution_ns: AtomicU64,
    /// The function's circuit breaker: traps and timeouts are its failures.
    pub breaker: Breaker,
}

impl FunctionStats {
    /// A point-in-time copy.
    pub(crate) fn snapshot(&self) -> FunctionStatsSnapshot {
        FunctionStatsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            budget_rejected: self.budget_rejected.load(Ordering::Relaxed),
            slo_rejected: self.slo_rejected.load(Ordering::Relaxed),
            dwrr_deferrals: self.dwrr_deferrals.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            trapped: self.trapped.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            execution_ns: self.execution_ns.load(Ordering::Relaxed),
            breaker_trips: self.breaker.trips.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`FunctionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionStatsSnapshot {
    pub admitted: u64,
    pub shed: u64,
    pub budget_rejected: u64,
    pub slo_rejected: u64,
    pub dwrr_deferrals: u64,
    pub completed: u64,
    pub trapped: u64,
    pub timed_out: u64,
    pub execution_ns: u64,
    pub breaker_trips: u64,
}

impl FunctionStatsSnapshot {
    /// Mean guest execution time per completed request.
    pub fn mean_execution(&self) -> Option<Duration> {
        let n = self.completed + self.trapped + self.timed_out;
        self.execution_ns.checked_div(n).map(Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(100),
        }
    }

    #[test]
    fn breaker_trips_at_threshold_and_recovers() {
        let s = Breaker::default();
        let cb = cfg();
        // Two failures: still closed.
        s.record(Some(&cb), false, 0);
        s.record(Some(&cb), false, MS);
        assert_eq!(s.admit(&cb, 2 * MS), Ok(false));
        // Third failure trips it.
        s.record(Some(&cb), false, 2 * MS);
        let retry = s.admit(&cb, 10 * MS).unwrap_err();
        assert_eq!(retry, Duration::from_millis(92));
        // A failure while open does not push the cooldown back.
        s.record(Some(&cb), false, 50 * MS);
        // Cooldown elapsed: exactly one caller becomes the probe.
        assert_eq!(s.admit(&cb, 103 * MS), Ok(true));
        // Half-open: everyone else waits out a full cooldown.
        assert_eq!(s.admit(&cb, 104 * MS), Err(cb.cooldown));
        // Probe succeeds → closed again, failure streak reset.
        s.record(Some(&cb), true, 105 * MS);
        assert_eq!(s.admit(&cb, 106 * MS), Ok(false));
        assert_eq!(s.trips.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let s = Breaker::default();
        let cb = cfg();
        for i in 0..3 {
            s.record(Some(&cb), false, i * MS);
        }
        assert_eq!(s.admit(&cb, 200 * MS), Ok(true));
        // Probe fails → open again for a fresh cooldown from the failure.
        s.record(Some(&cb), false, 201 * MS);
        assert_eq!(s.admit(&cb, 250 * MS), Err(Duration::from_millis(51)));
        assert_eq!(s.admit(&cb, 302 * MS), Ok(true));
        assert_eq!(s.trips.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn rejected_probe_reopens() {
        let s = Breaker::default();
        let cb = cfg();
        for i in 0..3 {
            s.record(Some(&cb), false, i * MS);
        }
        assert_eq!(s.admit(&cb, 150 * MS), Ok(true));
        s.probe_rejected(150 * MS);
        // Open again, with a cooldown that runs from the rejection.
        assert_eq!(s.admit(&cb, 160 * MS), Err(Duration::from_millis(90)));
        // And only from HalfOpen: a no-op if the state already moved on.
        s.record(Some(&cb), true, 300 * MS);
        s.probe_rejected(300 * MS);
        assert_eq!(s.admit(&cb, 300 * MS), Ok(false));
    }

    #[test]
    fn success_resets_failure_streak() {
        let s = Breaker::default();
        let cb = cfg();
        s.record(Some(&cb), false, 0);
        s.record(Some(&cb), false, MS);
        s.record(Some(&cb), true, 2 * MS);
        s.record(Some(&cb), false, 3 * MS);
        s.record(Some(&cb), false, 4 * MS);
        assert_eq!(s.admit(&cb, 4 * MS), Ok(false));
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let s = Breaker::default();
        for i in 0..100 {
            s.record(None, false, i * MS);
        }
        assert_eq!(s.admit(&cfg(), 100 * MS), Ok(false));
    }
}
