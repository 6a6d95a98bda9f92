//! The module registry: where the "heavyweight linking and loading" happens,
//! once per function, decoupled from per-request instantiation.

use crate::budget::TokenBucket;
use crate::config::{FunctionConfig, DEFAULT_COST_UNITS_PER_US};
use crate::histogram::HistogramSnapshot;
use crate::metrics::PhaseHistograms;
use crate::pool::SandboxPool;
use crate::stats::{FunctionStats, RegistryStats, RegistryStatsSnapshot};
use awsm::{
    translate_with, AnalysisReport, CompiledModule, Diagnostic, Severity, Tier, TranslateError,
    TranslateOptions,
};
use sledge_wasm::module::Module;
use sledge_wasm::DecodeError;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub(crate) u32);

/// A registered, fully translated function.
#[derive(Debug)]
pub struct RegisteredFunction {
    /// Registry id.
    pub id: FunctionId,
    /// Configuration (name, route, entry).
    pub config: FunctionConfig,
    /// The shared, immutable translated module.
    pub module: Arc<CompiledModule>,
    /// Size of the uploaded `.wasm` binary in bytes.
    pub wasm_size: usize,
    /// Per-function counters, updated by the workers.
    pub stats: FunctionStats,
    /// Per-worker latency shards for this function (one entry per worker;
    /// worker `i` writes only `metrics[i]`). Readers merge on demand.
    pub metrics: Box<[PhaseHistograms]>,
    /// Warm sandbox pool (capacity 0 = disabled; see
    /// [`crate::RuntimeConfig::pool_size`]).
    pub pool: SandboxPool,
    /// Tokens charged against the work budget at admission: the entry
    /// point's statically certified cost (`FuncCost::total_cost`), or 1
    /// when the certificate has no entry for it (imported entry).
    pub admission_cost: u64,
    /// Work-budget token bucket, armed by the `budget` config knob
    /// (rate = `budget_us_per_s` × the calibrated `cost_units_per_us`).
    pub budget: Option<TokenBucket>,
    /// Cached queue-phase p99 for SLO admission (merging every worker
    /// shard per request would be too hot for the admission path).
    queue_p99: QueueP99Cache,
}

/// How long a cached queue-phase p99 stays fresh before the next admission
/// re-merges the worker shards.
const QUEUE_P99_REFRESH_NS: u64 = 5_000_000;

#[derive(Debug, Default)]
struct QueueP99Cache {
    value_ns: AtomicU64,
    stamp_ns: AtomicU64,
}

impl RegisteredFunction {
    /// The execution deadline in force for this function: its own override
    /// if set, else the runtime-wide default.
    pub fn effective_deadline(&self, default: Option<Duration>) -> Option<Duration> {
        self.config.deadline.or(default)
    }

    /// The static-analysis report computed when this module was translated.
    /// Cached with the module, so analysis runs once per module, not per
    /// sandbox.
    pub fn analysis(&self) -> &AnalysisReport {
        &self.module.analysis
    }

    /// This function's observed queue-phase p99 in nanoseconds, refreshed
    /// from the merged worker shards at most every few milliseconds (stale
    /// reads are fine: the SLO gate is a coarse overload signal, not an
    /// exact measurement).
    pub fn queue_p99_ns(&self, now_ns: u64) -> u64 {
        let stamp = self.queue_p99.stamp_ns.load(Ordering::Relaxed);
        if stamp != 0 && now_ns.saturating_sub(stamp) < QUEUE_P99_REFRESH_NS {
            return self.queue_p99.value_ns.load(Ordering::Relaxed);
        }
        let mut merged = HistogramSnapshot::default();
        for shard in self.metrics.iter() {
            merged.merge(&shard.queue.snapshot());
        }
        let v = merged.quantile(0.99);
        self.queue_p99.value_ns.store(v, Ordering::Relaxed);
        self.queue_p99
            .stamp_ns
            .store(now_ns.max(1), Ordering::Relaxed);
        v
    }
}

/// Registration failure.
#[derive(Debug)]
pub enum RegisterError {
    /// The `.wasm` binary failed to decode.
    Decode(DecodeError),
    /// The module failed validation/translation.
    Translate(TranslateError),
    /// The configured entry point is not an exported function.
    NoEntry(String),
    /// A function with this name already exists.
    DuplicateName(String),
    /// Static analysis rejected the module: error-severity lints and/or a
    /// worst-case stack bound over the configured budget.
    Analysis(Vec<Diagnostic>),
    /// The module's preemption-latency certificate is missing or its
    /// certified check-free gap exceeds the configured budget.
    Certificate(Diagnostic),
    /// The module's effect certificate violates the function's capability
    /// policy (`allowed_hostcalls` / `max_write_footprint_bytes`): the entry
    /// point can reach a host call outside the allowed set, or its certified
    /// write footprint exceeds the configured bound.
    Capability(Vec<Diagnostic>),
    /// Ingest registration only: [`awsm::verify_body`] could not re-derive
    /// the artifact's stack-effect consistency or its cost certificate from
    /// the bodies it ships. A peer whose certificates do not re-prove is not
    /// trusted to have translated the module honestly.
    BodyVerification(String),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::Decode(e) => write!(f, "{e}"),
            RegisterError::Translate(e) => write!(f, "{e}"),
            RegisterError::NoEntry(e) => write!(f, "entry point {e:?} not exported"),
            RegisterError::DuplicateName(n) => write!(f, "function {n:?} already registered"),
            RegisterError::Analysis(diags) => {
                write!(f, "static analysis rejected module")?;
                for d in diags {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            RegisterError::Certificate(d) => {
                write!(f, "preemption-latency certificate rejected: {d}")
            }
            RegisterError::Capability(diags) => {
                write!(f, "capability policy rejected module")?;
                for d in diags {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            RegisterError::BodyVerification(e) => {
                write!(f, "artifact body verification failed: {e}")
            }
        }
    }
}

impl Error for RegisterError {}

/// Registry of loaded functions, indexed by id, name, and HTTP route.
#[derive(Debug, Default)]
pub struct Registry {
    functions: Vec<Arc<RegisteredFunction>>,
    by_name: HashMap<String, FunctionId>,
    by_route: HashMap<String, FunctionId>,
    /// Worst-case guest stack budget enforced at registration; `None`
    /// disables the check.
    stack_budget: Option<u64>,
    /// Preemption-latency budget (max check-free gap, in cost units)
    /// enforced at registration. Also steers the translator: the cost pass
    /// splits blocks so the certificate meets this budget by construction.
    /// `None` uses [`awsm::DEFAULT_MAX_CHECK_GAP`] and accepts any
    /// certified gap — but a certificate must still be present.
    check_gap: Option<u32>,
    /// Latency-shard count for newly registered functions (the runtime's
    /// worker count; 0 means "not set" and falls back to a single shard).
    shards: usize,
    /// Warm-pool capacity for newly registered functions (0 = pooling
    /// disabled).
    pool_capacity: usize,
    /// Cost units per µs used to convert `budget` (µs/s) into a token-
    /// bucket rate (0 = "not set", falls back to the default calibration).
    calibration: u64,
    /// Load-time analysis counters.
    pub stats: RegistryStats,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Set the stack budget enforced on subsequently registered modules
    /// (see [`crate::RuntimeConfig::max_stack_bytes`]).
    pub fn set_stack_budget(&mut self, budget: Option<u64>) {
        self.stack_budget = budget;
    }

    /// Set the preemption-latency budget (max check-free gap, in cost
    /// units) enforced on subsequently registered modules (see
    /// [`crate::RuntimeConfig::max_check_gap`]).
    pub fn set_check_gap(&mut self, budget: Option<u32>) {
        self.check_gap = budget;
    }

    /// Set how many latency shards each subsequently registered function
    /// carries (the runtime passes its worker count, so every worker gets a
    /// private shard).
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
    }

    /// Set the warm-pool capacity for subsequently registered functions
    /// (see [`crate::RuntimeConfig::pool_size`]; 0 disables pooling).
    pub fn set_pool_capacity(&mut self, capacity: usize) {
        self.pool_capacity = capacity;
    }

    /// Set the fuel calibration (cost units per µs) used to size the work-
    /// budget buckets of subsequently registered functions (see
    /// [`crate::RuntimeConfig::cost_units_per_us`]).
    pub fn set_calibration(&mut self, cost_units_per_us: u64) {
        self.calibration = cost_units_per_us;
    }

    /// Register a function from raw `.wasm` bytes: decode, validate,
    /// translate (once), and index it.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_wasm(
        &mut self,
        config: FunctionConfig,
        wasm: &[u8],
        tier: Tier,
    ) -> Result<FunctionId, RegisterError> {
        let module = sledge_wasm::decode::decode_module(wasm).map_err(RegisterError::Decode)?;
        self.register_module(config, &module, tier, wasm.len())
    }

    /// Register a function from an already-decoded module (used by tests and
    /// in-process guests that skip the serialization roundtrip).
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_module(
        &mut self,
        config: FunctionConfig,
        module: &Module,
        tier: Tier,
        wasm_size: usize,
    ) -> Result<FunctionId, RegisterError> {
        let opts = TranslateOptions {
            max_check_gap: self.check_gap.unwrap_or(awsm::DEFAULT_MAX_CHECK_GAP),
        };
        let compiled = translate_with(module, tier, opts).map_err(RegisterError::Translate)?;
        self.register_compiled(config, compiled, wasm_size)
    }

    /// Register an already-translated module received as a distributed
    /// artifact (cluster-mode ingest). The artifact crossed a trust boundary,
    /// so before any gate reads its certificates [`awsm::verify_body`]
    /// re-derives them from the bodies — unconditionally: nothing in the
    /// artifact can switch the check off.
    ///
    /// # Errors
    ///
    /// [`RegisterError::BodyVerification`] when the re-derivation fails;
    /// otherwise everything [`Registry::register_compiled`] returns.
    pub fn register_artifact(
        &mut self,
        config: FunctionConfig,
        compiled: CompiledModule,
        wasm_size: usize,
    ) -> Result<FunctionId, RegisterError> {
        use std::sync::atomic::Ordering;
        if let Err(e) = awsm::verify_body(&compiled) {
            self.stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(RegisterError::BodyVerification(e));
        }
        self.register_compiled(config, compiled, wasm_size)
    }

    /// Register a module this process translated itself.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub fn register_compiled(
        &mut self,
        config: FunctionConfig,
        compiled: CompiledModule,
        wasm_size: usize,
    ) -> Result<FunctionId, RegisterError> {
        if self.by_name.contains_key(&config.name) {
            return Err(RegisterError::DuplicateName(config.name.clone()));
        }
        if compiled.export(&config.entry).is_none() {
            return Err(RegisterError::NoEntry(config.entry.clone()));
        }
        self.gate_analysis(&config, &compiled)?;
        let id = FunctionId(self.functions.len() as u32);
        let route = config.http_route();
        let name = config.name.clone();
        // The entry's statically certified cost is what admission charges
        // against the work budget before the invocation has burned any
        // fuel; the worker trues it up with the real burn at completion.
        let admission_cost = compiled
            .export(&config.entry)
            .and_then(|idx| {
                let local = (idx as usize).checked_sub(compiled.num_imports() as usize)?;
                compiled.analysis.cost.as_ref()?.funcs.get(local)
            })
            .map(|fc| fc.total_cost)
            .unwrap_or(1)
            .max(1);
        let calibration = match self.calibration {
            0 => DEFAULT_COST_UNITS_PER_US,
            c => c,
        };
        let budget = config.budget_us_per_s.map(|us| {
            let rate = us.saturating_mul(calibration).max(1);
            // Burst capacity: one second's worth of work, and always at
            // least one invocation's charge so the bucket can ever admit.
            TokenBucket::new(rate, rate.max(admission_cost))
        });
        // Pool recycling adopts the cheapest reset the entry's effect
        // certificate licenses; runtime guards fall back to the full reset
        // whenever the certificate's preconditions do not hold dynamically.
        let reset_policy = compiled.reset_policy(&config.entry);
        let rf = Arc::new(RegisteredFunction {
            id,
            config,
            module: Arc::new(compiled),
            wasm_size,
            stats: FunctionStats::default(),
            metrics: (0..self.shards.max(1))
                .map(|_| PhaseHistograms::default())
                .collect(),
            pool: SandboxPool::with_policy(self.pool_capacity, reset_policy),
            admission_cost,
            budget,
            queue_p99: QueueP99Cache::default(),
        });
        self.functions.push(rf);
        self.by_name.insert(name, id);
        self.by_route.insert(route, id);
        Ok(id)
    }

    /// Apply the load-time analysis verdict: reject on error-severity lints,
    /// a stack bound over budget, a missing/over-budget preemption
    /// certificate, or a capability-policy violation; log warnings and
    /// update counters.
    fn gate_analysis(
        &self,
        config: &FunctionConfig,
        compiled: &CompiledModule,
    ) -> Result<(), RegisterError> {
        use std::sync::atomic::Ordering;
        let name = &config.name;
        let report = &compiled.analysis;
        let mut errors: Vec<Diagnostic> = report.with_severity(Severity::Error).cloned().collect();
        if let Some(budget) = self.stack_budget {
            if let Some(d) = report.check_stack(budget) {
                errors.push(d);
            }
        }
        if !errors.is_empty() {
            self.stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(RegisterError::Analysis(errors));
        }
        // Certificate gate: every module must carry a preemption-latency
        // certificate; under a configured budget its gap must also fit.
        // (Splitting makes over-budget gaps rare — only a single opcode
        // heavier than the budget can produce one.)
        if let Some(d) = report.check_gap(self.check_gap.unwrap_or(u32::MAX)) {
            self.stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
            self.stats
                .certificate_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(RegisterError::Certificate(d));
        }
        self.stats.cost_certified.fetch_add(1, Ordering::Relaxed);
        // Capability gate: deny-by-default host-call set and write-footprint
        // bound, both proven against the effect certificate. Modules without
        // a policy skip this entirely (and touch no capability counter).
        let mut capability_warn = None;
        if config.has_capability_policy() {
            let entry_idx = compiled
                .export(&config.entry)
                .expect("entry existence checked before gating");
            let mut violations: Vec<Diagnostic> = Vec::new();
            if let Some(allowed) = &config.allowed_hostcalls {
                violations.extend(report.check_hostcalls(entry_idx, allowed));
            }
            if let Some(max) = config.max_write_footprint_bytes {
                violations.extend(report.check_write_footprint(entry_idx, max));
            }
            if !violations.is_empty() {
                self.stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .capability_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(RegisterError::Capability(violations));
            }
            self.stats
                .capability_certified
                .fetch_add(1, Ordering::Relaxed);
            if let Some(allowed) = &config.allowed_hostcalls {
                capability_warn = report.unused_grants(entry_idx, allowed);
            }
        }
        let mut warns = 0u64;
        for d in report
            .with_severity(Severity::Warn)
            .cloned()
            .chain(capability_warn)
        {
            eprintln!("[sledge] module {name:?}: {d}");
            warns += 1;
        }
        self.stats.modules_verified.fetch_add(1, Ordering::Relaxed);
        self.stats.lint_warnings.fetch_add(warns, Ordering::Relaxed);
        Ok(())
    }

    /// Look up by id.
    pub fn get(&self, id: FunctionId) -> Option<&Arc<RegisteredFunction>> {
        self.functions.get(id.0 as usize)
    }

    /// Look up by function name.
    pub fn by_name(&self, name: &str) -> Option<&Arc<RegisteredFunction>> {
        self.by_name.get(name).and_then(|id| self.get(*id))
    }

    /// Look up by HTTP route.
    pub fn by_route(&self, route: &str) -> Option<&Arc<RegisteredFunction>> {
        self.by_route.get(route).and_then(|id| self.get(*id))
    }

    /// All registered functions.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<RegisteredFunction>> {
        self.functions.iter()
    }

    /// Registry counter snapshot with every function's warm-pool counters
    /// folded in (what `/stats` and `registry_stats()` report).
    pub fn stats_snapshot(&self) -> RegistryStatsSnapshot {
        let mut snap = self.stats.snapshot();
        for rf in &self.functions {
            snap.pool.merge(&rf.pool.snapshot());
        }
        snap
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sledge_guestc::dsl::*;
    use sledge_guestc::{FuncBuilder, ModuleBuilder};
    use sledge_wasm::types::ValType;

    fn tiny_module(name: &str) -> Module {
        let mut mb = ModuleBuilder::new(name);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(i32c(7))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut r = Registry::new();
        let m = tiny_module("seven");
        let wasm = sledge_wasm::encode::encode_module(&m);
        let id = r
            .register_wasm(FunctionConfig::new("seven"), &wasm, Tier::Optimized)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(id).unwrap().config.name, "seven");
        assert!(r.by_name("seven").is_some());
        assert!(r.by_route("/seven").is_some());
        assert!(r.by_name("eight").is_none());
        assert_eq!(r.get(id).unwrap().wasm_size, wasm.len());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = Registry::new();
        let m = tiny_module("dup");
        r.register_module(FunctionConfig::new("dup"), &m, Tier::Optimized, 0)
            .unwrap();
        assert!(matches!(
            r.register_module(FunctionConfig::new("dup"), &m, Tier::Optimized, 0),
            Err(RegisterError::DuplicateName(_))
        ));
    }

    #[test]
    fn missing_entry_rejected() {
        let mut r = Registry::new();
        let m = tiny_module("f");
        let mut cfg = FunctionConfig::new("f");
        cfg.entry = "not_main".into();
        assert!(matches!(
            r.register_module(cfg, &m, Tier::Optimized, 0),
            Err(RegisterError::NoEntry(_))
        ));
    }

    #[test]
    fn bad_wasm_rejected() {
        let mut r = Registry::new();
        assert!(matches!(
            r.register_wasm(FunctionConfig::new("x"), b"garbage", Tier::Optimized),
            Err(RegisterError::Decode(_))
        ));
    }

    #[test]
    fn stack_budget_rejects_oversized_module() {
        let mut r = Registry::new();
        // One byte cannot hold any frame; every module is over budget.
        r.set_stack_budget(Some(1));
        let m = tiny_module("tiny");
        let err = r
            .register_module(FunctionConfig::new("tiny"), &m, Tier::Optimized, 0)
            .unwrap_err();
        let RegisterError::Analysis(diags) = err else {
            panic!("expected analysis rejection, got {err}");
        };
        assert!(diags.iter().any(|d| d.message.contains("exceeds budget")));
        assert!(r.is_empty(), "rejected module must not be registered");
        assert_eq!(r.stats.snapshot().modules_rejected, 1);
        // The same module passes under a sane budget.
        r.set_stack_budget(Some(1 << 20));
        r.register_module(FunctionConfig::new("tiny"), &m, Tier::Optimized, 0)
            .unwrap();
        assert_eq!(r.stats.snapshot().modules_verified, 1);
    }

    #[test]
    fn recursive_module_rejected_under_budget() {
        let mut mb = ModuleBuilder::new("rec");
        let fr = mb.declare("main", &[ValType::I32], Some(ValType::I32));
        let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
        let n = f.arg(0);
        f.push(if_(le_s(local(n), i32c(0)), vec![ret(Some(i32c(0)))]));
        f.push(ret(Some(call(fr, vec![sub(local(n), i32c(1))]))));
        mb.define(fr, f);
        mb.export_func(fr, "main");
        let m = mb.build().unwrap();
        let mut r = Registry::new();
        // Without a budget recursion is allowed (warn-level at most)...
        r.register_module(FunctionConfig::new("rec"), &m, Tier::Optimized, 0)
            .unwrap();
        // ...but any finite budget makes it unverifiable.
        let mut r2 = Registry::new();
        r2.set_stack_budget(Some(u64::MAX));
        let err = r2
            .register_module(FunctionConfig::new("rec"), &m, Tier::Optimized, 0)
            .unwrap_err();
        assert!(matches!(err, RegisterError::Analysis(_)), "{err}");
    }

    #[test]
    fn entry_unreachable_rejected_without_budget() {
        let mut mb = ModuleBuilder::new("boom");
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(sledge_guestc::Stmt::Unreachable);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = mb.build().unwrap();
        let mut r = Registry::new();
        let err = r
            .register_module(FunctionConfig::new("boom"), &m, Tier::Optimized, 0)
            .unwrap_err();
        let RegisterError::Analysis(diags) = err else {
            panic!("expected analysis rejection, got {err}");
        };
        assert!(diags
            .iter()
            .any(|d| d.message.contains("traps unconditionally")));
        assert_eq!(r.stats.snapshot().modules_rejected, 1);
    }

    #[test]
    fn certificate_cached_and_counted() {
        let mut r = Registry::new();
        let m = tiny_module("cert");
        let id = r
            .register_module(FunctionConfig::new("cert"), &m, Tier::Optimized, 0)
            .unwrap();
        let rf = r.get(id).unwrap();
        let cost = rf
            .analysis()
            .cost
            .as_ref()
            .expect("translation always attaches a cost certificate");
        assert!(cost.within(awsm::DEFAULT_MAX_CHECK_GAP));
        assert_eq!(r.stats.snapshot().cost_certified, 1);
        assert_eq!(r.stats.snapshot().certificate_rejected, 0);
    }

    #[test]
    fn over_budget_certificate_rejected() {
        // A store op costs more than one unit, and no amount of check
        // splitting can slice a single opcode — so a 1-unit budget is
        // unsatisfiable for any module that touches memory.
        let mut mb = ModuleBuilder::new("heavy");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(store_i32(i32c(0), i32c(42)));
        f.push(ret(Some(load_i32(i32c(0)))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = mb.build().unwrap();

        let mut r = Registry::new();
        r.set_check_gap(Some(1));
        let err = r
            .register_module(FunctionConfig::new("heavy"), &m, Tier::Optimized, 0)
            .unwrap_err();
        assert!(matches!(err, RegisterError::Certificate(_)), "{err}");
        assert!(err.to_string().contains("certificate"));
        assert!(r.is_empty());
        let snap = r.stats.snapshot();
        assert_eq!(snap.certificate_rejected, 1);
        assert_eq!(snap.modules_rejected, 1);

        // The translator splits to meet any budget a single op can fit in.
        let mut r2 = Registry::new();
        r2.set_check_gap(Some(awsm::DEFAULT_MAX_CHECK_GAP));
        let id = r2
            .register_module(FunctionConfig::new("heavy"), &m, Tier::Optimized, 0)
            .unwrap();
        let rf = r2.get(id).unwrap();
        let cost = rf.analysis().cost.as_ref().unwrap();
        assert!(cost.max_gap <= awsm::DEFAULT_MAX_CHECK_GAP);
        assert_eq!(r2.stats.snapshot().cost_certified, 1);
    }

    #[test]
    fn tight_budget_forces_splits() {
        // A long straight-line body under a small budget must come back
        // with split-inserted checks, and the certificate must honor it.
        let mut mb = ModuleBuilder::new("straight");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        for i in 0..32 {
            f.push(store_i32(i32c(i * 4), mul(i32c(i), i32c(3))));
        }
        f.push(ret(Some(load_i32(i32c(0)))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = mb.build().unwrap();

        let mut r = Registry::new();
        r.set_check_gap(Some(8));
        let id = r
            .register_module(FunctionConfig::new("straight"), &m, Tier::Optimized, 0)
            .unwrap();
        let cost = r.get(id).unwrap().analysis().cost.clone().unwrap();
        assert!(cost.max_gap <= 8, "certified gap {} > budget", cost.max_gap);
        assert!(cost.splits > 0, "tight budget must force splits");
    }

    #[test]
    fn admission_cost_and_budget_from_certificate() {
        let mut r = Registry::new();
        r.set_calibration(100);
        let m = tiny_module("plain");
        let id = r
            .register_module(FunctionConfig::new("plain"), &m, Tier::Optimized, 0)
            .unwrap();
        let rf = r.get(id).unwrap();
        // The entry's certified total cost is the admission charge...
        let cert = rf.analysis().cost.as_ref().unwrap();
        let expect = cert.funcs[0].total_cost.max(1);
        assert_eq!(rf.admission_cost, expect);
        // ...and with no budget knob there is no bucket.
        assert!(rf.budget.is_none());

        let mut cfg = FunctionConfig::new("metered");
        cfg.budget_us_per_s = Some(2000);
        let id = r.register_module(cfg, &m, Tier::Optimized, 0).unwrap();
        let rf = r.get(id).unwrap();
        let b = rf.budget.as_ref().expect("budget knob arms a bucket");
        // 2000 µs/s × 100 units/µs.
        assert_eq!(b.rate(), 200_000);
        assert!(b.capacity() >= rf.admission_cost);
        // A fresh function has no queue samples: p99 reads zero.
        assert_eq!(rf.queue_p99_ns(1), 0);
    }

    fn hostcall_module(name: &str) -> Module {
        let mut mb = ModuleBuilder::new(name);
        mb.memory(1, Some(1));
        let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(call(req_len, vec![]))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    #[test]
    fn capability_policy_denies_unlisted_hostcall() {
        let m = hostcall_module("gated");
        let mut r = Registry::new();
        let mut cfg = FunctionConfig::new("gated");
        // The module calls env::request_len; the policy only grants
        // response_write — deny-by-default must reject it.
        cfg.allowed_hostcalls = Some(vec!["env::response_write".into()]);
        let err = r.register_module(cfg, &m, Tier::Optimized, 0).unwrap_err();
        let RegisterError::Capability(diags) = &err else {
            panic!("expected capability rejection, got {err}");
        };
        assert!(diags[0].message.contains("request_len"), "{diags:?}");
        assert!(err.to_string().contains("capability policy rejected"));
        assert!(r.is_empty(), "rejected module must not be registered");
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_rejected, 1);
        assert_eq!(snap.modules_rejected, 1);
        assert_eq!(snap.modules_verified, 0);
        assert_eq!(snap.capability_certified, 0);
    }

    #[test]
    fn capability_policy_grants_reachable_hostcalls() {
        let m = hostcall_module("granted");
        let mut r = Registry::new();
        let mut cfg = FunctionConfig::new("granted");
        // Bare names match any import module.
        cfg.allowed_hostcalls = Some(vec!["request_len".into()]);
        r.register_module(cfg, &m, Tier::Optimized, 0).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_certified, 1);
        assert_eq!(snap.capability_rejected, 0);
        assert_eq!(snap.modules_verified, 1);
    }

    #[test]
    fn capability_grant_wider_than_needed_warns() {
        let m = hostcall_module("wide");
        let mut r = Registry::new();
        let mut cfg = FunctionConfig::new("wide");
        cfg.allowed_hostcalls = Some(vec![
            "env::request_len".into(),
            "env::launch_missiles".into(),
        ]);
        r.register_module(cfg, &m, Tier::Optimized, 0).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_certified, 1);
        assert!(
            snap.lint_warnings >= 1,
            "unused grant must surface as a warning"
        );
    }

    #[test]
    fn write_footprint_policy_enforced() {
        // Stores land at [0x8000, 0x8004): a 0x8000-byte cap must reject,
        // a 0x9000-byte cap must pass.
        let mut mb = ModuleBuilder::new("writer");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(store_i32(i32c(0x8000), i32c(1)));
        f.push(ret(Some(i32c(0))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = mb.build().unwrap();

        let mut r = Registry::new();
        let mut cfg = FunctionConfig::new("writer");
        cfg.max_write_footprint_bytes = Some(0x8000);
        let err = r.register_module(cfg, &m, Tier::Optimized, 0).unwrap_err();
        assert!(matches!(err, RegisterError::Capability(_)), "{err}");
        assert_eq!(r.stats.snapshot().capability_rejected, 1);

        let mut cfg = FunctionConfig::new("writer");
        cfg.max_write_footprint_bytes = Some(0x9000);
        r.register_module(cfg, &m, Tier::Optimized, 0).unwrap();
        assert_eq!(r.stats.snapshot().capability_certified, 1);
    }

    #[test]
    fn no_policy_touches_no_capability_counter() {
        let m = hostcall_module("open");
        let mut r = Registry::new();
        r.register_module(FunctionConfig::new("open"), &m, Tier::Optimized, 0)
            .unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_certified, 0);
        assert_eq!(snap.capability_rejected, 0);
    }

    #[test]
    fn warn_lints_counted_and_report_cached() {
        // A dead helper function: registered fine, but the warning is
        // counted and the cached report is reachable via the accessor.
        let mut mb = ModuleBuilder::new("warned");
        let mut h = FuncBuilder::new(&[], Some(ValType::I32));
        h.push(ret(Some(i32c(1))));
        mb.add_func("helper", h);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(i32c(2))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = mb.build().unwrap();
        let mut r = Registry::new();
        let id = r
            .register_module(FunctionConfig::new("warned"), &m, Tier::Optimized, 0)
            .unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.modules_verified, 1);
        assert!(snap.lint_warnings >= 1);
        let rf = r.get(id).unwrap();
        assert_eq!(rf.analysis().funcs.len(), 2);
        assert!(!rf.analysis().has_errors());
    }
}
