//! Seeded property tests for the work-budget token bucket: refill
//! monotonicity, balance bounds under arbitrary charge/true-up
//! interleavings, and charge/true-up conservation.

use sledge_core::TokenBucket;
use sledge_testkit::cases;

/// With no charges, the balance is non-decreasing in time and never
/// exceeds the configured capacity, regardless of how the observation
/// instants are spaced.
#[test]
fn refill_is_monotone_and_capped() {
    cases(256, 0x2EF1_1100, |rng| {
        let b = TokenBucket::new(rng.range(1, 1_000_000), rng.range(1, 1_000_000));
        // Start from an arbitrary partial balance.
        let _ = b.try_charge(rng.range(0, 1_000_000).min(b.capacity()), 0);
        let mut now = 0u64;
        let mut prev = b.balance(now);
        for _ in 0..rng.range(1, 40) {
            now = now.saturating_add(rng.range(0, 10_000_000_000));
            let cur = b.balance(now);
            assert!(cur >= prev, "balance fell {prev} -> {cur} with no charge");
            assert!(cur <= b.capacity(), "balance {cur} above capacity");
            prev = cur;
        }
    });
}

/// Under any interleaving of charges and true-ups at non-decreasing
/// times, the balance stays within [0, capacity] — the nano-token
/// arithmetic never goes negative and never overshoots the burst cap.
#[test]
fn balance_stays_in_bounds() {
    cases(256, 0xBA1A_7CE0, |rng| {
        let b = TokenBucket::new(rng.range(1, 100_000), rng.range(1, 100_000));
        let mut now = 0u64;
        for _ in 0..rng.range(1, 60) {
            // Advance the clock, then charge or true a prior charge up.
            now = now.saturating_add(rng.range(0, 2_000_000_000));
            if rng.flip() {
                let cost = rng.range(0, 5_000);
                let before = b.balance(now);
                match b.try_charge(cost, now) {
                    Ok(()) => assert!(before >= cost || cost == 0),
                    Err(wait) => {
                        // The hint is honest: after waiting it out, the
                        // same charge must succeed (nothing else drains
                        // the bucket in between). A cost above the burst
                        // capacity can never be admitted, so only the
                        // feasible case is retried.
                        assert!(wait.as_nanos() > 0);
                        if cost <= b.capacity() {
                            now = now.saturating_add(wait.as_nanos() as u64);
                            assert!(
                                b.try_charge(cost, now).is_ok(),
                                "charge of {cost} still failing after hinted wait"
                            );
                        }
                    }
                }
            } else {
                b.true_up(rng.range(0, 5_000), rng.range(0, 5_000), now);
            }
            let bal = b.balance(now);
            assert!(bal <= b.capacity(), "balance {bal} above capacity");
        }
    });
}

/// Conservation: admission-charging the certificate and then truing up
/// against actual fuel burned is equivalent to charging the actual fuel
/// directly — provided the credit doesn't hit the capacity cap and no
/// time passes (so refill is out of the picture).
#[test]
fn charge_then_true_up_nets_to_actual_use() {
    cases(256, 0xC0_5E2E, |rng| {
        let rate = rng.range(1, 100_000);
        let charged = rng.range(0, 40_000);
        let used = charged * rng.range(0, 101) / 100; // used <= charged
        let capacity = 100_000u64; // roomy: the credit can't hit the cap
        let a = TokenBucket::new(rate, capacity);
        let b = TokenBucket::new(rate, capacity);
        assert!(a.try_charge(charged, 0).is_ok());
        a.true_up(charged, used, 0);
        assert!(b.try_charge(used, 0).is_ok());
        assert_eq!(a.balance(0), b.balance(0));
        assert_eq!(a.balance(0), capacity - used);
    });
}

/// Over-run true-ups (used > charged) debit exactly the difference,
/// saturating at an empty bucket rather than going negative.
#[test]
fn overrun_debits_difference() {
    cases(256, 0x07E2_2017, |rng| {
        let (charged, overrun) = (rng.range(0, 10_000), rng.range(1, 200_000));
        let capacity = 50_000u64;
        let b = TokenBucket::new(1, capacity);
        assert!(b.try_charge(charged, 0).is_ok());
        b.true_up(charged, charged + overrun, 0);
        let expect = (capacity - charged).saturating_sub(overrun);
        assert_eq!(b.balance(0), expect);
    });
}
