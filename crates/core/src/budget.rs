//! Per-function work budgets: fuel-per-second token buckets.
//!
//! A [`TokenBucket`] meters a tenant's share of *certified work*: tokens
//! are cost units (the calibrated fuel of `awsm::op_cost`), the refill
//! rate is `budget_us_per_s × cost_units_per_us` — i.e. "this function may
//! burn N µs of worker CPU per wall second". The listener charges each
//! invocation's statically certified entry cost (`FuncCost::total_cost`)
//! at admission; the worker trues the charge up against the fuel actually
//! burned (`Instance::fuel_used`) at completion, so long-run accounting
//! tracks real consumption, not the static estimate.
//!
//! Internally balances are kept in *nano-tokens* (token × 10⁹) so refill
//! arithmetic is exact: `elapsed_ns × rate` nano-tokens accrue per refill
//! with no fractional loss, making refill monotone and drift-free.

use crate::lock;
use std::sync::Mutex;
use std::time::Duration;

/// Nano-tokens per token.
const NANO: u128 = 1_000_000_000;

#[derive(Debug)]
struct Inner {
    /// Current balance in nano-tokens; by construction never negative and
    /// never above `capacity × NANO`.
    balance: u128,
    /// Clock of the last refill (epoch-relative nanoseconds).
    last_ns: u64,
}

/// A token bucket over cost units. Thread-safe; the clock is supplied by
/// callers (epoch-relative monotonic nanoseconds, `Shared::now_ns`) so the
/// bucket itself stays deterministic and testable.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate in tokens (cost units) per second.
    rate: u64,
    /// Burst capacity in tokens.
    capacity: u64,
    inner: Mutex<Inner>,
}

impl TokenBucket {
    /// A bucket refilling `rate` tokens/second with burst capacity
    /// `capacity`, starting full. Both are clamped to ≥ 1 — a bucket that
    /// can never admit anything is a configuration error, not a policy.
    pub fn new(rate: u64, capacity: u64) -> Self {
        let capacity = capacity.max(1);
        TokenBucket {
            rate: rate.max(1),
            capacity,
            inner: Mutex::new(Inner {
                balance: capacity as u128 * NANO,
                last_ns: 0,
            }),
        }
    }

    /// Refill rate in tokens per second.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Burst capacity in tokens.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn refill(&self, inner: &mut Inner, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(inner.last_ns);
        if elapsed == 0 {
            return;
        }
        // rate tokens/s = rate nano-tokens/ns, so the accrual is exact.
        let accrued = elapsed as u128 * self.rate as u128;
        inner.balance = (inner.balance + accrued).min(self.capacity as u128 * NANO);
        inner.last_ns = now_ns;
    }

    /// Try to deduct `cost` tokens at time `now_ns`.
    ///
    /// # Errors
    ///
    /// When the balance is short, returns how long until the deficit would
    /// refill — the `Retry-After` hint.
    pub fn try_charge(&self, cost: u64, now_ns: u64) -> Result<(), Duration> {
        let mut inner = lock(&self.inner);
        self.refill(&mut inner, now_ns);
        let need = cost as u128 * NANO;
        if inner.balance >= need {
            inner.balance -= need;
            Ok(())
        } else {
            let deficit = need - inner.balance;
            // deficit nano-tokens / (rate nano-tokens per ns), rounded up.
            let wait_ns = deficit.div_ceil(self.rate as u128);
            Err(Duration::from_nanos(wait_ns.min(u64::MAX as u128) as u64))
        }
    }

    /// Replace an admission-time charge with the fuel actually burned:
    /// credit back `charged − used` (capped at capacity) when the static
    /// certificate over-estimated, or deduct the extra (saturating at zero
    /// — the tenant's future refills absorb the overshoot) when it ran hot.
    pub fn true_up(&self, charged: u64, used: u64, now_ns: u64) {
        let mut inner = lock(&self.inner);
        self.refill(&mut inner, now_ns);
        if used <= charged {
            let credit = (charged - used) as u128 * NANO;
            inner.balance = (inner.balance + credit).min(self.capacity as u128 * NANO);
        } else {
            let debit = (used - charged) as u128 * NANO;
            inner.balance = inner.balance.saturating_sub(debit);
        }
    }

    /// Current balance in whole tokens at time `now_ns`.
    pub fn balance(&self, now_ns: u64) -> u64 {
        let mut inner = lock(&self.inner);
        self.refill(&mut inner, now_ns);
        (inner.balance / NANO) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn starts_full_and_charges() {
        let b = TokenBucket::new(100, 500);
        assert_eq!(b.balance(0), 500);
        assert!(b.try_charge(500, 0).is_ok());
        assert_eq!(b.balance(0), 0);
        let wait = b.try_charge(1, 0).unwrap_err();
        // 1 token at 100/s = 10 ms.
        assert_eq!(wait, Duration::from_millis(10));
    }

    #[test]
    fn refills_at_rate_and_caps_at_capacity() {
        let b = TokenBucket::new(100, 500);
        assert!(b.try_charge(500, 0).is_ok());
        // 1 s at 100/s.
        assert_eq!(b.balance(S), 100);
        // 60 s would be 6000 tokens: capped.
        assert_eq!(b.balance(61 * S), 500);
    }

    #[test]
    fn true_up_credits_overestimate_and_debits_overrun() {
        let b = TokenBucket::new(1, 1000);
        assert!(b.try_charge(800, 0).is_ok());
        // Actually used only 300: net deduction becomes 300.
        b.true_up(800, 300, 0);
        assert_eq!(b.balance(0), 700);
        // A hot run: charged 100, burned 400 → extra 300 comes out.
        assert!(b.try_charge(100, 0).is_ok());
        b.true_up(100, 400, 0);
        assert_eq!(b.balance(0), 300);
        // Overrun past zero saturates rather than going negative.
        b.true_up(0, 10_000, 0);
        assert_eq!(b.balance(0), 0);
    }

    #[test]
    fn retry_hint_tracks_deficit() {
        let b = TokenBucket::new(1000, 1000);
        assert!(b.try_charge(1000, 0).is_ok());
        // Need 500 more tokens at 1000/s = 500 ms.
        let wait = b.try_charge(500, 0).unwrap_err();
        assert_eq!(wait, Duration::from_millis(500));
        // Halfway through the wait the hint halves.
        let wait = b.try_charge(500, 250_000_000).unwrap_err();
        assert_eq!(wait, Duration::from_millis(250));
    }
}
