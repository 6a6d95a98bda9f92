//! Per-function warm sandbox pool, filled by recycling.
//!
//! The paper's headline decoupling — load a module once, instantiate a
//! sandbox per request — makes startup cheap; this subsystem drives the
//! remaining per-request instantiation cost toward zero by *recycling*
//! sandboxes. A bounded, per-function, LIFO pool holds instances whose
//! linear memory has been reset in place from the module's
//! [`MemoryTemplate`](awsm::MemoryTemplate) (memcpy the initialized image,
//! zero only the dirtied span beyond it), so a warm acquire is a pop plus
//! nothing — no allocation, no zero-fill, no global/table rebuild.
//!
//! Recycling is the only thing that fills a pool, so a pool holds memory
//! only for functions that run. Eligibility is strict: only *clean*
//! completions ([`Outcome::Success`]) are recycled. Trapped and timed-out
//! sandboxes are discarded, and a drained pool is closed: it parks nothing
//! again. The pool is disabled by default (`capacity == 0`), in which case
//! every operation is a no-op and the runtime behaves — and meters —
//! exactly as if the subsystem did not exist.
//!
//! [`Outcome::Success`]: crate::Outcome::Success

use crate::lock;
use awsm::{Instance, ResetApplied, ResetPolicy};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic pool counters, updated lock-free by the listener and workers.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Acquires served from the pool (warm path).
    pub hits: AtomicU64,
    /// Acquires that found the pool empty (cold path).
    pub misses: AtomicU64,
    /// Sandboxes reset and returned to the pool after a clean completion.
    pub recycled: AtomicU64,
    /// Sandboxes rejected from recycling (unclean outcome, reset failure,
    /// or a drained pool).
    pub discarded: AtomicU64,
    /// Clean sandboxes dropped because the pool was already full.
    pub evicted: AtomicU64,
    /// Subset of `recycled` whose reset used the certified static write
    /// footprint (zeroing only the certified span instead of up to the
    /// high-water mark).
    pub resets_static: AtomicU64,
    /// Subset of `recycled` whose reset was elided entirely (entry point
    /// certified `Pure`, memory proven already pristine).
    pub resets_elided: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`], plus the pool's capacity and
/// current occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Configured capacity (0 = pool disabled).
    pub capacity: u64,
    /// Instances currently parked in the pool.
    pub size: u64,
    /// Acquires served warm.
    pub hits: u64,
    /// Acquires that fell back to cold instantiation.
    pub misses: u64,
    /// Clean completions recycled into the pool.
    pub recycled: u64,
    /// Sandboxes discarded instead of recycled.
    pub discarded: u64,
    /// Clean sandboxes dropped because the pool was full.
    pub evicted: u64,
    /// Recycles that used a footprint-bounded static reset.
    pub resets_static: u64,
    /// Recycles whose reset was elided entirely.
    pub resets_elided: u64,
}

impl PoolStatsSnapshot {
    /// Accumulate another snapshot (used to aggregate across functions).
    pub(crate) fn merge(&mut self, other: &PoolStatsSnapshot) {
        self.capacity += other.capacity;
        self.size += other.size;
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.discarded += other.discarded;
        self.evicted += other.evicted;
        self.resets_static += other.resets_static;
        self.resets_elided += other.resets_elided;
    }

    /// Warm-acquire fraction, if any acquires happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// A bounded, LIFO pool of reset-and-ready instances for one registered
/// function. LIFO keeps the hottest (most recently touched, cache-warm)
/// instance on top.
pub struct SandboxPool {
    capacity: usize,
    /// Parked instances; `None` once [`drain`](Self::drain) has closed the
    /// pool.
    slots: Mutex<Option<Vec<Instance>>>,
    /// How [`release`](Self::release) resets linear memory, derived from the
    /// module's effect certificate for the configured entry point (see
    /// [`awsm::CompiledModule::reset_policy`]). Purely an optimization hint:
    /// the instance-level runtime guards fall back to the full reset
    /// whenever the certificate's preconditions do not hold.
    reset_policy: ResetPolicy,
    /// Counters; see [`PoolStats`].
    pub stats: PoolStats,
}

impl fmt::Debug for SandboxPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SandboxPool")
            .field("capacity", &self.capacity)
            .field("size", &self.size())
            .finish()
    }
}

impl SandboxPool {
    /// A pool holding at most `capacity` instances (0 disables it), whose
    /// recycling resets follow `policy` (derived from the module's effect
    /// certificate; see [`awsm::CompiledModule::reset_policy`]).
    pub(crate) fn with_policy(capacity: usize, policy: ResetPolicy) -> Self {
        SandboxPool {
            capacity,
            slots: Mutex::new(Some(Vec::new())),
            reset_policy: policy,
            stats: PoolStats::default(),
        }
    }

    /// Whether the pool is enabled (`capacity > 0`).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Instances currently parked.
    pub(crate) fn size(&self) -> usize {
        lock(&self.slots).as_ref().map_or(0, Vec::len)
    }

    /// Pop a warm instance, if one is available. Disabled pools return
    /// `None` without touching any counter, so every pool counter of a
    /// disabled pool stays zero.
    pub(crate) fn acquire(&self) -> Option<Instance> {
        if !self.enabled() {
            return None;
        }
        let popped = lock(&self.slots).as_mut().and_then(Vec::pop);
        let counter = match popped {
            Some(_) => &self.stats.hits,
            None => &self.stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        popped
    }

    /// Reset a retired instance in place and park it for reuse.
    ///
    /// Returns `true` if the instance was recycled. The caller must only
    /// offer instances from *clean* completions; unclean retirements go to
    /// [`discard`](Self::discard). A failed reset or a drained pool
    /// discards the instance, and a full pool evicts it.
    pub(crate) fn release(&self, mut inst: Instance) -> bool {
        if !self.enabled() {
            return false;
        }
        let Ok(applied) = inst.reset_with(self.reset_policy) else {
            self.stats.discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let mut slots = lock(&self.slots);
        let Some(parked) = slots.as_mut() else {
            drop(slots);
            self.stats.discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if parked.len() >= self.capacity {
            drop(slots);
            self.stats.evicted.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        parked.push(inst);
        drop(slots);
        self.stats.recycled.fetch_add(1, Ordering::Relaxed);
        match applied {
            ResetApplied::Static => {
                self.stats.resets_static.fetch_add(1, Ordering::Relaxed);
            }
            ResetApplied::Elided => {
                self.stats.resets_elided.fetch_add(1, Ordering::Relaxed);
            }
            ResetApplied::Full => {}
        }
        true
    }

    /// Count a retired instance that was not offered for recycling
    /// (an unclean outcome).
    pub(crate) fn discard(&self) {
        if !self.enabled() {
            return;
        }
        self.stats.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every parked instance and close the pool (graceful drain /
    /// shutdown): a [`release`](Self::release) after this, even one whose
    /// worker decided to recycle before the drain began, is discarded.
    /// Returns how many instances were released back to the allocator.
    pub(crate) fn drain(&self) -> usize {
        let drained = lock(&self.slots).take();
        drained.map_or(0, |parked| parked.len())
    }

    /// Counters plus capacity and current occupancy.
    pub fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            capacity: self.capacity as u64,
            size: self.size() as u64,
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            recycled: self.stats.recycled.load(Ordering::Relaxed),
            discarded: self.stats.discarded.load(Ordering::Relaxed),
            evicted: self.stats.evicted.load(Ordering::Relaxed),
            resets_static: self.stats.resets_static.load(Ordering::Relaxed),
            resets_elided: self.stats.resets_elided.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awsm::{translate, CompiledModule, EngineConfig, Tier};
    use sledge_guestc::dsl::*;
    use sledge_guestc::{FuncBuilder, ModuleBuilder};
    use sledge_wasm::types::ValType;
    use std::sync::Arc;

    fn module() -> Arc<CompiledModule> {
        let mut mb = ModuleBuilder::new("pool");
        mb.memory(1, Some(2));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(store_i32(i32c(0), i32c(7)));
        f.push(ret(Some(load_i32(i32c(0)))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        Arc::new(translate(&mb.build().unwrap(), Tier::Optimized).unwrap())
    }

    fn engine() -> EngineConfig {
        EngineConfig::default()
    }

    /// A pool that resets through the always-sound high-water-mark path.
    fn pool(capacity: usize) -> SandboxPool {
        SandboxPool::with_policy(capacity, ResetPolicy::HighWater)
    }

    #[test]
    fn disabled_pool_is_inert() {
        let pool = pool(0);
        assert!(!pool.enabled());
        assert!(pool.acquire().is_none());
        let inst = Instance::new(module(), engine()).unwrap();
        assert!(!pool.release(inst));
        pool.discard();
        assert_eq!(pool.drain(), 0);
        // Crucially: the disabled pool counts *nothing*.
        assert_eq!(pool.snapshot(), PoolStatsSnapshot::default());
    }

    #[test]
    fn release_then_acquire_is_a_hit() {
        let pool = pool(2);
        let m = module();
        assert!(pool.acquire().is_none(), "cold pool misses");
        let inst = Instance::new(Arc::clone(&m), engine()).unwrap();
        assert!(pool.release(inst));
        assert_eq!(pool.size(), 1);
        assert!(pool.acquire().is_some());
        let s = pool.snapshot();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
        assert_eq!(s.size, 0);
        assert_eq!(s.hit_rate(), Some(0.5));
    }

    #[test]
    fn full_pool_evicts() {
        let pool = pool(1);
        let m = module();
        assert!(pool.release(Instance::new(Arc::clone(&m), engine()).unwrap()));
        assert!(!pool.release(Instance::new(Arc::clone(&m), engine()).unwrap()));
        let s = pool.snapshot();
        assert_eq!((s.recycled, s.evicted, s.size), (1, 1, 1));
    }

    #[test]
    fn drain_closes_the_pool() {
        // A worker that decided to recycle before the drain began releases
        // after the sweep: the closed pool discards that instance.
        let pool = pool(4);
        let m = module();
        assert!(pool.release(Instance::new(Arc::clone(&m), engine()).unwrap()));
        assert_eq!(pool.drain(), 1);
        assert!(!pool.release(Instance::new(Arc::clone(&m), engine()).unwrap()));
        assert!(pool.acquire().is_none());
        let s = pool.snapshot();
        assert_eq!(s.size, 0, "{s:?}");
        assert_eq!((s.recycled, s.discarded, s.misses), (1, 1, 1), "{s:?}");
        assert_eq!(pool.drain(), 0);
    }

    fn run_main(inst: &mut Instance) {
        inst.invoke_export("main", &[]).unwrap();
        let mut host = awsm::NullHost;
        loop {
            match inst.run(&mut host, u64::MAX) {
                awsm::StepResult::Complete(_) => break,
                awsm::StepResult::Trapped(t) => panic!("trap: {t:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn pure_entry_gets_elided_resets() {
        // No stores, no growth: the effect certificate proves `main` Pure.
        let mut mb = ModuleBuilder::new("pure");
        mb.memory(1, Some(2));
        mb.data(0, &b"seed"[..]);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(i32c(42))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = Arc::new(translate(&mb.build().unwrap(), Tier::Optimized).unwrap());

        let policy = m.reset_policy("main");
        assert_eq!(policy, awsm::ResetPolicy::Elide);
        let pool = SandboxPool::with_policy(2, policy);
        let mut inst = Instance::new(Arc::clone(&m), engine()).unwrap();
        run_main(&mut inst);
        assert!(pool.release(inst));
        let s = pool.snapshot();
        assert_eq!((s.recycled, s.resets_elided, s.resets_static), (1, 1, 0));
        // The recycled sandbox really is pristine.
        let warm = pool.acquire().unwrap();
        assert_eq!(warm.memory().read_bytes(0, 4).unwrap(), b"seed");
    }

    #[test]
    fn certified_footprint_gets_static_resets() {
        // Stores confined to [0x8000, 0x8004), template span [0, 4): the
        // certificate licenses zeroing only the store span on reset.
        let mut mb = ModuleBuilder::new("span");
        mb.memory(1, Some(2));
        mb.data(0, &b"seed"[..]);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(store_i32(i32c(0x8000), i32c(7)));
        f.push(ret(Some(load_i32(i32c(0x8000)))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = Arc::new(translate(&mb.build().unwrap(), Tier::Optimized).unwrap());

        let policy = m.reset_policy("main");
        assert_eq!(
            policy,
            awsm::ResetPolicy::StaticSpan {
                lo: 0x8000,
                hi: 0x8004
            }
        );
        let pool = SandboxPool::with_policy(2, policy);
        let mut inst = Instance::new(Arc::clone(&m), engine()).unwrap();
        run_main(&mut inst);
        assert!(pool.release(inst));
        let s = pool.snapshot();
        assert_eq!((s.recycled, s.resets_static, s.resets_elided), (1, 1, 0));
        let warm = pool.acquire().unwrap();
        assert_eq!(warm.memory().read_bytes(0, 4).unwrap(), b"seed");
        assert_eq!(warm.memory().read_bytes(0x8000, 4).unwrap(), &[0; 4]);
    }

    #[test]
    fn host_write_defeats_partial_reset_but_recycles_full() {
        // A host payload written below the certified span must force the
        // always-sound full reset — and still recycle.
        let mut mb = ModuleBuilder::new("span2");
        mb.memory(1, Some(2));
        mb.data(0, &b"seed"[..]);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(store_i32(i32c(0x8000), i32c(7)));
        f.push(ret(Some(i32c(0))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = Arc::new(translate(&mb.build().unwrap(), Tier::Optimized).unwrap());
        let policy = m.reset_policy("main");
        assert!(matches!(policy, awsm::ResetPolicy::StaticSpan { .. }));
        let pool = SandboxPool::with_policy(2, policy);
        let mut inst = Instance::new(Arc::clone(&m), engine()).unwrap();
        run_main(&mut inst);
        inst.memory_mut().write_bytes(0x100, b"payload").unwrap();
        assert!(pool.release(inst));
        let s = pool.snapshot();
        assert_eq!((s.recycled, s.resets_static, s.resets_elided), (1, 0, 0));
        let warm = pool.acquire().unwrap();
        assert_eq!(warm.memory().read_bytes(0x100, 7).unwrap(), &[0; 7]);
        assert_eq!(warm.memory().read_bytes(0x8000, 4).unwrap(), &[0; 4]);
    }

    #[test]
    fn recycled_instance_is_reset() {
        let pool = pool(1);
        let m = module();
        let mut inst = Instance::new(Arc::clone(&m), engine()).unwrap();
        inst.invoke_export("main", &[]).unwrap();
        let mut host = awsm::NullHost;
        loop {
            match inst.run(&mut host, u64::MAX) {
                awsm::StepResult::Complete(_) => break,
                awsm::StepResult::Trapped(t) => panic!("trap: {t:?}"),
                _ => {}
            }
        }
        assert!(inst.fuel_used() > 0);
        assert!(pool.release(inst));
        let warm = pool.acquire().unwrap();
        assert_eq!(warm.fuel_used(), 0, "recycled instance starts fresh");
    }
}
