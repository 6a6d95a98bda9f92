//! Global runtime counters, exported for tests, examples, and benchmarks,
//! plus the per-function circuit breaker state machine.

use crate::config::BreakerConfig;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Monotonic counters updated by the listener and workers.
#[derive(Debug, Default)]
pub struct RuntimeStats {
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
    pub fn record_instantiation(&self, d: Duration) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.instantiation_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A snapshot suitable for printing.
    pub fn snapshot(&self) -> StatsSnapshot {
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

/// A point-in-time copy of [`RuntimeStats`].
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
pub struct RegistryStats {
    /// Modules that passed verification and were registered.
    pub modules_verified: AtomicU64,
    /// Modules rejected at registration: by the analyzer (error-severity
    /// lints or a stack bound over budget), by a certificate or capability
    /// gate, or — on the ingest path — by body verification.
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
}

impl RegistryStats {
    /// A point-in-time copy suitable for printing.
    pub fn snapshot(&self) -> RegistryStatsSnapshot {
        RegistryStatsSnapshot {
            modules_verified: self.modules_verified.load(Ordering::Relaxed),
            modules_rejected: self.modules_rejected.load(Ordering::Relaxed),
            lint_warnings: self.lint_warnings.load(Ordering::Relaxed),
            cost_certified: self.cost_certified.load(Ordering::Relaxed),
            certificate_rejected: self.certificate_rejected.load(Ordering::Relaxed),
            capability_certified: self.capability_certified.load(Ordering::Relaxed),
            capability_rejected: self.capability_rejected.load(Ordering::Relaxed),
            // Pool counters live on each function; `Registry::stats_snapshot`
            // folds them in on top of this raw counter copy.
            pool: crate::pool::PoolStatsSnapshot::default(),
        }
    }
}

/// A point-in-time copy of [`RegistryStats`], plus the warm-pool counters
/// aggregated across every registered function (all-zero when pooling is
/// disabled).
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
    /// Warm sandbox-pool counters, summed over all functions.
    pub pool: crate::pool::PoolStatsSnapshot,
}

/// Circuit breaker state for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; requests flow through.
    Closed,
    /// Tripped; requests are fast-rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; exactly one probe is in flight, everything else is
    /// still rejected.
    HalfOpen,
}

const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

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
    /// Consecutive traps/timeouts since the last success.
    consecutive_failures: AtomicU32,
    /// Encoded [`BreakerState`].
    breaker_state: AtomicU8,
    /// Epoch-relative nanoseconds of the last state transition (the value
    /// that cooldowns are measured from).
    breaker_since_ns: AtomicU64,
    /// Times the breaker has tripped Closed/HalfOpen → Open.
    pub breaker_trips: AtomicU64,
}

impl FunctionStats {
    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        match self.breaker_state.load(Ordering::Acquire) {
            BREAKER_OPEN => BreakerState::Open,
            BREAKER_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Admission decision for one request at `now_ns` (epoch-relative).
    ///
    /// Returns `Ok(is_probe)` when the request may proceed — `is_probe` is
    /// true iff this request won the transition to half-open and its outcome
    /// decides the breaker's fate — or `Err(retry_after)` when the breaker
    /// rejects it.
    pub fn breaker_admit(&self, cfg: &BreakerConfig, now_ns: u64) -> Result<bool, Duration> {
        loop {
            match self.breaker_state.load(Ordering::Acquire) {
                BREAKER_CLOSED => return Ok(false),
                BREAKER_HALF_OPEN => return Err(cfg.cooldown),
                BREAKER_OPEN => {
                    let since = self.breaker_since_ns.load(Ordering::Acquire);
                    let elapsed = now_ns.saturating_sub(since);
                    let cooldown_ns = cfg.cooldown.as_nanos() as u64;
                    if elapsed < cooldown_ns {
                        return Err(Duration::from_nanos(cooldown_ns - elapsed));
                    }
                    // Cooldown elapsed: race to become the half-open probe.
                    if self
                        .breaker_state
                        .compare_exchange(
                            BREAKER_OPEN,
                            BREAKER_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.breaker_since_ns.store(now_ns, Ordering::Release);
                        return Ok(true);
                    }
                    // Lost the race; re-read the state.
                }
                _ => return Ok(false),
            }
        }
    }

    /// Record an execution outcome for breaker purposes. `success` covers
    /// normal completion; traps and timeouts are failures. No-op when
    /// breakers are disabled (`cfg` is `None`).
    pub fn breaker_record(&self, cfg: Option<&BreakerConfig>, success: bool, now_ns: u64) {
        let Some(cfg) = cfg else { return };
        if success {
            self.consecutive_failures.store(0, Ordering::Release);
            // A success closes the breaker regardless of prior state (the
            // half-open probe succeeded, or a straggler admitted before the
            // trip completed fine).
            self.breaker_state.store(BREAKER_CLOSED, Ordering::Release);
            return;
        }
        let fails = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        let state = self.breaker_state.load(Ordering::Acquire);
        if state == BREAKER_HALF_OPEN || (state == BREAKER_CLOSED && fails >= cfg.threshold) {
            self.trip(now_ns);
        }
    }

    /// A probe that was admitted half-open but then rejected before running
    /// (e.g. instantiation failed, drain started) must re-open the breaker,
    /// or it would stay half-open forever with no outcome to decide it.
    pub fn breaker_probe_rejected(&self, now_ns: u64) {
        if self
            .breaker_state
            .compare_exchange(
                BREAKER_HALF_OPEN,
                BREAKER_OPEN,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.breaker_since_ns.store(now_ns, Ordering::Release);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn trip(&self, now_ns: u64) {
        let prev = self.breaker_state.swap(BREAKER_OPEN, Ordering::AcqRel);
        self.breaker_since_ns.store(now_ns, Ordering::Release);
        if prev != BREAKER_OPEN {
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> FunctionStatsSnapshot {
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
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
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
        let s = FunctionStats::default();
        let cb = cfg();
        // Two failures: still closed.
        s.breaker_record(Some(&cb), false, 0);
        s.breaker_record(Some(&cb), false, MS);
        assert_eq!(s.breaker_state(), BreakerState::Closed);
        assert_eq!(s.breaker_admit(&cb, 2 * MS), Ok(false));
        // Third failure trips it.
        s.breaker_record(Some(&cb), false, 2 * MS);
        assert_eq!(s.breaker_state(), BreakerState::Open);
        let retry = s.breaker_admit(&cb, 10 * MS).unwrap_err();
        assert_eq!(retry, Duration::from_millis(92));
        // Cooldown elapsed: exactly one caller becomes the probe.
        assert_eq!(s.breaker_admit(&cb, 103 * MS), Ok(true));
        assert_eq!(s.breaker_state(), BreakerState::HalfOpen);
        assert!(s.breaker_admit(&cb, 104 * MS).is_err());
        // Probe succeeds → closed again, failure streak reset.
        s.breaker_record(Some(&cb), true, 105 * MS);
        assert_eq!(s.breaker_state(), BreakerState::Closed);
        assert_eq!(s.breaker_admit(&cb, 106 * MS), Ok(false));
        assert_eq!(s.breaker_trips.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let s = FunctionStats::default();
        let cb = cfg();
        for i in 0..3 {
            s.breaker_record(Some(&cb), false, i * MS);
        }
        assert_eq!(s.breaker_admit(&cb, 200 * MS), Ok(true));
        // Probe fails → open again for a fresh cooldown from the failure.
        s.breaker_record(Some(&cb), false, 201 * MS);
        assert_eq!(s.breaker_state(), BreakerState::Open);
        assert!(s.breaker_admit(&cb, 250 * MS).is_err());
        assert_eq!(s.breaker_admit(&cb, 302 * MS), Ok(true));
        assert_eq!(s.breaker_trips.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn rejected_probe_reopens() {
        let s = FunctionStats::default();
        let cb = cfg();
        for i in 0..3 {
            s.breaker_record(Some(&cb), false, i * MS);
        }
        assert_eq!(s.breaker_admit(&cb, 150 * MS), Ok(true));
        s.breaker_probe_rejected(150 * MS);
        assert_eq!(s.breaker_state(), BreakerState::Open);
        // And only from HalfOpen: a no-op if the state already moved on.
        s.breaker_record(Some(&cb), true, 300 * MS);
        s.breaker_probe_rejected(300 * MS);
        assert_eq!(s.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_failure_streak() {
        let s = FunctionStats::default();
        let cb = cfg();
        s.breaker_record(Some(&cb), false, 0);
        s.breaker_record(Some(&cb), false, MS);
        s.breaker_record(Some(&cb), true, 2 * MS);
        s.breaker_record(Some(&cb), false, 3 * MS);
        s.breaker_record(Some(&cb), false, 4 * MS);
        assert_eq!(s.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let s = FunctionStats::default();
        for i in 0..100 {
            s.breaker_record(None, false, i * MS);
        }
        assert_eq!(s.breaker_state(), BreakerState::Closed);
    }
}
