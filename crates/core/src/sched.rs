//! Weighted deficit-round-robin (DWRR) over lanes: every worker's run queue.
//!
//! With fairness armed each function gets its own lane; without it every
//! sandbox shares one lane, which pops in arrival order (a preempted
//! sandbox re-queues at the back), so the worker runs plain round-robin.
//! A lane may dispatch only while it holds a positive *deficit* of fuel.
//! Every time the rotation reaches a lane whose deficit is spent, the lane
//! is topped up by `weight × quantum` (capped there, so an idle tenant
//! cannot hoard credit) and the rotation moves on. Workers charge each
//! dispatch's *actual* fuel burn back against the lane — classic DWRR uses
//! the packet length; here the calibrated fuel meter plays that role — so a
//! tenant whose requests run long simply gets scheduled proportionally less
//! often, degrading its share smoothly instead of starving anyone.
//!
//! Because a dispatch is admitted whenever the deficit is positive, a lane
//! can overdraw by at most one quantum's real burn; the overdraft carries
//! as negative deficit and is paid off by skipped turns, bounding any
//! tenant's excess share to one quantum per rotation. A lane alone in the
//! rotation has nobody to yield to, so it pays its whole overdraft at once.

use std::collections::{HashMap, VecDeque};

#[derive(Debug)]
struct Lane<T> {
    items: VecDeque<T>,
    /// Fuel credit; dispatch requires `> 0`. May go negative (overdraft)
    /// when a dispatch burns past its remaining credit.
    deficit: i64,
    weight: u32,
    /// Whether the lane currently sits in the active rotation.
    active: bool,
}

/// A weighted deficit-round-robin queue keyed by lane (a function id, or
/// one key every item shares).
#[derive(Debug)]
pub struct Dwrr<T> {
    /// Fuel units one unweighted refill grants (the scheduler quantum), in
    /// `1..=i64::MAX` so a refill is always a positive deficit.
    quantum: i64,
    lanes: HashMap<u32, Lane<T>>,
    /// Rotation of lanes with queued items, front = next to consider.
    active: VecDeque<u32>,
    len: usize,
    /// Times each lane was passed over while non-empty (its deficit was
    /// spent and another tenant took the core). Drained by
    /// [`Dwrr::take_deferrals`] into per-function counters.
    deferrals: HashMap<u32, u64>,
}

impl<T> Dwrr<T> {
    /// An empty queue with the given refill quantum (fuel units; clamped to
    /// `1..=i64::MAX` so refills always make progress).
    pub fn new(quantum: u64) -> Self {
        Dwrr {
            quantum: quantum.clamp(1, i64::MAX as u64) as i64,
            lanes: HashMap::new(),
            active: VecDeque::new(),
            len: 0,
            deferrals: HashMap::new(),
        }
    }

    /// Enqueue an item on `key`'s lane with the given weight (≥ 1; a
    /// lane's weight follows its most recent push).
    pub fn push(&mut self, key: u32, weight: u32, item: T) {
        let lane = self.lanes.entry(key).or_insert_with(|| Lane {
            items: VecDeque::new(),
            deficit: 0,
            weight: 1,
            active: false,
        });
        lane.weight = weight.max(1);
        lane.items.push_back(item);
        self.len += 1;
        if !lane.active {
            lane.active = true;
            self.active.push_back(key);
        }
    }

    /// Dequeue the next item under the DWRR discipline.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            let key = *self.active.front()?;
            let lane = self.lanes.get_mut(&key).expect("active lane exists");
            if lane.items.is_empty() {
                // Lane drained since it was queued: retire it from the
                // rotation. Unspent credit is forfeited (no hoarding), but
                // an overdraft is still owed.
                lane.active = false;
                lane.deficit = lane.deficit.min(0);
                self.active.pop_front();
                continue;
            }
            if lane.deficit <= 0 {
                let refill = (lane.weight as i64).saturating_mul(self.quantum);
                if self.active.len() == 1 {
                    // Sole lane: nobody to yield to, so pay the whole
                    // overdraft now and run.
                    lane.deficit = top_up(lane.deficit, refill);
                } else {
                    lane.deficit = lane.deficit.saturating_add(refill).min(refill);
                    // Someone else gets the core first; count the pass-over.
                    *self.deferrals.entry(key).or_insert(0) += 1;
                    self.active.rotate_left(1);
                    continue;
                }
            }
            self.len -= 1;
            return lane.items.pop_front();
        }
    }

    /// Charge `used` fuel units against `key`'s lane (the actual burn of
    /// the dispatch that [`Dwrr::pop`] granted).
    pub fn charge(&mut self, key: u32, used: u64) {
        if let Some(lane) = self.lanes.get_mut(&key) {
            lane.deficit = lane
                .deficit
                .saturating_sub(used.min(i64::MAX as u64) as i64);
        }
    }

    /// Queued items across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove and return every queued item (force-kill sweeps). Lane order
    /// is unspecified; item order within a lane is preserved.
    pub fn drain(&mut self) -> Vec<T> {
        self.active.clear();
        self.len = 0;
        let mut out = Vec::new();
        for lane in self.lanes.values_mut() {
            lane.active = false;
            lane.deficit = lane.deficit.min(0);
            out.extend(lane.items.drain(..));
        }
        out
    }

    /// Drain the per-lane pass-over counters accumulated since the last
    /// call (empty when nothing was deferred — the common case — so
    /// callers can skip their flush cheaply).
    pub fn take_deferrals(&mut self) -> Vec<(u32, u64)> {
        if self.deferrals.is_empty() {
            return Vec::new();
        }
        self.deferrals.drain().collect()
    }
}

/// The deficit a spent lane (`deficit <= 0`) reaches by adding `refill > 0`
/// until it turns positive, in one step: always in `1..=refill`.
fn top_up(deficit: i64, refill: i64) -> i64 {
    refill - (deficit.unsigned_abs() % refill as u64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the queue like a worker: pop, "run" (charge a per-tenant
    /// cost), refill lanes so they never empty, for `rounds` dispatches.
    /// Returns dispatch counts per key.
    fn simulate(costs: &[(u32, u32, u64)], quantum: u64, rounds: usize) -> HashMap<u32, usize> {
        let mut q: Dwrr<u32> = Dwrr::new(quantum);
        for &(key, weight, _) in costs {
            q.push(key, weight, key);
        }
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for _ in 0..rounds {
            let key = q.pop().expect("lanes kept non-empty");
            let &(_, weight, cost) = costs.iter().find(|(k, _, _)| *k == key).unwrap();
            q.charge(key, cost);
            *counts.entry(key).or_insert(0) += 1;
            q.push(key, weight, key); // keep the lane backlogged
        }
        counts
    }

    #[test]
    fn equal_weight_tenants_split_work_within_ten_percent() {
        // Tenant 0's requests burn 3× tenant 1's per dispatch; equal
        // weights must still equalize *fuel* share: over 1000 dispatches
        // each tenant's total burn lands within 10% of half.
        let costs = [(0u32, 1u32, 3000u64), (1, 1, 1000)];
        let counts = simulate(&costs, 1000, 1000);
        let burn0 = counts[&0] as u64 * 3000;
        let burn1 = counts[&1] as u64 * 1000;
        let total = burn0 + burn1;
        for (key, burn) in [(0, burn0), (1, burn1)] {
            let share = burn as f64 / total as f64;
            assert!(
                (share - 0.5).abs() < 0.05,
                "tenant {key}: fuel share {share:.3} (counts {counts:?})"
            );
        }
        // Sanity: equal fuel share means unequal dispatch counts (≈ 1:3).
        assert!(counts[&1] > counts[&0] * 2, "{counts:?}");
    }

    #[test]
    fn weights_skew_shares_proportionally() {
        // Weight 3 vs 1, identical per-dispatch cost → ≈ 75% / 25%.
        let costs = [(0u32, 3u32, 1000u64), (1, 1, 1000)];
        let counts = simulate(&costs, 1000, 1000);
        let share0 = counts[&0] as f64 / 1000.0;
        assert!((share0 - 0.75).abs() < 0.05, "{counts:?}");
    }

    #[test]
    fn no_tenant_starves_under_a_hog() {
        // A hog burning 50 quanta per dispatch cannot starve the mouse:
        // the mouse keeps dispatching while the hog pays off overdraft.
        let costs = [(0u32, 1u32, 50_000u64), (1, 1, 100)];
        let counts = simulate(&costs, 1000, 500);
        assert!(counts[&0] >= 1, "{counts:?}");
        assert!(counts[&1] >= 400, "mouse starved: {counts:?}");
    }

    #[test]
    fn single_lane_fifo_order() {
        let mut q: Dwrr<u32> = Dwrr::new(10);
        for i in 0..5 {
            q.push(7, 1, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Driven like a worker with fairness off — mixed weights on the one
        // shared lane, every dispatch charged (often past the quantum),
        // every third one preempted onto the back — the lane is exactly a
        // FIFO rotation and never counts a deferral.
        let mut fifo: VecDeque<u32> = (0..8).collect();
        for &i in &fifo {
            q.push(7, i % 3 + 1, i);
        }
        let mut step = 0u64;
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), fifo.pop_front(), "step {step}");
            q.charge(7, step * 37 % 100);
            if step.is_multiple_of(3) {
                q.push(7, got % 3 + 1, got);
                fifo.push_back(got);
            }
            step += 1;
        }
        assert!(fifo.is_empty());
        assert!(q.take_deferrals().is_empty());
    }

    #[test]
    fn huge_quantum_still_pops() {
        // A quantum past i64::MAX used to wrap the refill negative, so no
        // lane's deficit could turn positive and `pop` spun forever. Each
        // case pops on its own thread so a hang fails instead of wedging.
        let cases: Vec<_> = [u64::MAX, 1 << 63]
            .into_iter()
            .flat_map(|quantum| [(quantum, 1u32), (quantum, 2)])
            .map(|(quantum, lanes)| {
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let mut q: Dwrr<u32> = Dwrr::new(quantum);
                    for key in 0..lanes {
                        q.push(key, 1, key);
                    }
                    let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
                    let _ = tx.send(popped);
                });
                (quantum, lanes, rx)
            })
            .collect();
        let mut hung = Vec::new();
        for (quantum, lanes, rx) in cases {
            match rx.recv_timeout(std::time::Duration::from_secs(2)) {
                Ok(popped) => assert_eq!(popped, (0..lanes).collect::<Vec<_>>()),
                Err(_) => hung.push((quantum, lanes)),
            }
        }
        assert!(hung.is_empty(), "pop hung for (quantum, lanes) {hung:?}");
    }

    #[test]
    fn sole_lane_top_up_matches_refilling_one_quantum_at_a_time() {
        let by_loop = |mut deficit: i64, refill: i64| {
            while deficit <= 0 {
                deficit = deficit.saturating_add(refill).min(refill);
            }
            deficit
        };
        for refill in [1i64, 7, 10, 1000] {
            for deficit in (-5 * refill - 3)..=0 {
                assert_eq!(
                    top_up(deficit, refill),
                    by_loop(deficit, refill),
                    "deficit {deficit}, refill {refill}"
                );
            }
        }
        // Past what a loop could walk: the result stays in 1..=refill.
        assert_eq!(top_up(i64::MIN, 10), 2);
        assert_eq!(top_up(i64::MIN, i64::MAX), i64::MAX - 1);
        // Through the queue: a sole lane overdrawn by 35 with quantum 10
        // dispatches at once, holding what four refills would have left.
        let mut q: Dwrr<u32> = Dwrr::new(10);
        q.push(7, 1, 0);
        assert_eq!(q.pop(), Some(0));
        q.charge(7, 45);
        q.push(7, 1, 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.lanes[&7].deficit, by_loop(-35, 10));
        assert!(q.take_deferrals().is_empty());
    }

    #[test]
    fn deferrals_counted_when_passed_over() {
        let mut q: Dwrr<u32> = Dwrr::new(10);
        q.push(0, 1, 0);
        q.push(1, 1, 1);
        // Burn lane 0 deep into overdraft; next rotation must pass it over
        // (counting deferrals) while lane 1 dispatches.
        assert_eq!(q.pop(), Some(0));
        q.charge(0, 100);
        q.push(0, 1, 0);
        assert_eq!(q.pop(), Some(1));
        let defs: HashMap<u32, u64> = q.take_deferrals().into_iter().collect();
        assert!(defs.get(&0).copied().unwrap_or(0) >= 1, "{defs:?}");
        // Counters reset after draining.
        assert!(q.take_deferrals().is_empty());
    }

    #[test]
    fn drain_returns_everything() {
        let mut q: Dwrr<u32> = Dwrr::new(10);
        for i in 0..4 {
            q.push(i % 2, 1, i);
        }
        let mut all = q.drain();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
        // Reusable after a drain.
        q.push(9, 1, 42);
        assert_eq!(q.pop(), Some(42));
    }
}
