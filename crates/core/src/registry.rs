//! The module registry: where the "heavyweight linking and loading" happens,
//! once per distinct binary, decoupled from per-request instantiation.
//!
//! A content-addressed module store maps the exact input bytes of every
//! accepted registration to the module built from them. A registration whose
//! bytes are already there shares that module and skips the decode,
//! validation, translation and lowering; every per-function gate still runs.

use crate::budget::TokenBucket;
use crate::config::{FunctionConfig, RuntimeConfig};
use crate::histogram::HistogramSnapshot;
use crate::metrics::PhaseHistograms;
use crate::pool::{PoolStatsSnapshot, SandboxPool};
use crate::sandbox::Timings;
use crate::stats::{FunctionStats, RegistryStats};
use awsm::{
    translate_with, CompiledModule, Diagnostic, Severity, Tier, TranslateError, TranslateOptions,
};
use sledge_wasm::DecodeError;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Identifier of a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub(crate) u32);

/// A registered, fully translated function.
#[derive(Debug)]
pub(crate) struct RegisteredFunction {
    /// Registry id.
    pub(crate) id: FunctionId,
    /// Configuration (name, route, entry).
    pub(crate) config: FunctionConfig,
    /// The shared, immutable translated module.
    pub(crate) module: Arc<CompiledModule>,
    /// Per-function counters, updated by the workers.
    pub(crate) stats: FunctionStats,
    /// Per-worker latency shards for this function, allocated by its first
    /// recorded sample (then one entry per worker; worker `i` writes only
    /// entry `i`). Readers merge on demand and never allocate: a function
    /// that has not run has no shards. See [`RegisteredFunction::shards`].
    shards: OnceLock<Box<[PhaseHistograms]>>,
    /// Warm sandbox pool (capacity 0 = disabled; see
    /// [`crate::RuntimeConfig::pool_size`]).
    pub(crate) pool: SandboxPool,
    /// Tokens charged against the work budget at admission: the entry
    /// point's statically certified cost (`FuncCost::total_cost`, at least
    /// 1).
    pub(crate) admission_cost: u64,
    /// Work-budget token bucket, armed by the `budget` config knob
    /// (rate = `budget_us_per_s` × the calibrated `cost_units_per_us`).
    pub(crate) budget: Option<TokenBucket>,
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
    pub(crate) fn effective_deadline(&self, default: Option<Duration>) -> Option<Duration> {
        self.config.deadline.or(default)
    }

    /// This function's latency shards: one per worker once it has recorded a
    /// sample, none before.
    pub(crate) fn shards(&self) -> &[PhaseHistograms] {
        self.shards.get().map_or(&[], |shards| shards)
    }

    /// Record one executed invocation into worker `worker`'s shard. The
    /// function's first sample allocates one shard for each of the node's
    /// `workers`; every later one finds them with one acquire load.
    pub(crate) fn record(&self, worker: usize, workers: usize, t: &Timings) {
        let shards = self
            .shards
            .get_or_init(|| (0..workers).map(|_| PhaseHistograms::default()).collect());
        shards[worker].record(t);
    }

    /// This function's observed queue-phase p99 in nanoseconds, refreshed
    /// from the merged worker shards at most every few milliseconds (stale
    /// reads are fine: the SLO gate is a coarse overload signal, not an
    /// exact measurement).
    pub(crate) fn queue_p99_ns(&self, now_ns: u64) -> u64 {
        let stamp = self.queue_p99.stamp_ns.load(Ordering::Relaxed);
        if stamp != 0 && now_ns.saturating_sub(stamp) < QUEUE_P99_REFRESH_NS {
            return self.queue_p99.value_ns.load(Ordering::Relaxed);
        }
        let mut merged = HistogramSnapshot::default();
        for shard in self.shards() {
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
    /// The configured entry point is not an exported local function (a
    /// re-exported import cannot be invoked).
    NoEntry(String),
    /// A function with this name already exists.
    DuplicateName(String),
    /// Another function already serves this HTTP route.
    DuplicateRoute(String),
    /// The node answers this HTTP route itself, ahead of any function:
    /// `/healthz`, `/metrics`, and `/admin/modules` while `admin_routes` is
    /// on.
    ReservedRoute(String),
    /// Static analysis rejected the module: error-severity lints and/or a
    /// worst-case stack bound over the configured budget.
    Analysis(Vec<Diagnostic>),
    /// The module's certified check-free gap exceeds the configured
    /// budget.
    Certificate(Diagnostic),
    /// The module's effect certificate violates the function's capability
    /// policy (`allowed_hostcalls`): the entry point can reach a host call
    /// outside the allowed set.
    Capability(Diagnostic),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::Decode(e) => write!(f, "{e}"),
            RegisterError::Translate(e) => write!(f, "{e}"),
            RegisterError::NoEntry(e) => {
                write!(f, "entry point {e:?} is not an exported local function")
            }
            RegisterError::DuplicateName(n) => write!(f, "function {n:?} already registered"),
            RegisterError::DuplicateRoute(r) => write!(f, "route {r:?} already registered"),
            RegisterError::ReservedRoute(r) => {
                write!(f, "route {r:?} is served by the node itself")
            }
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
            RegisterError::Capability(d) => write!(f, "capability policy rejected module; {d}"),
        }
    }
}

impl Error for RegisterError {}

/// A module-store key: the exact `.wasm` bytes (compared in full), with
/// what building them needs, so a miss builds with no lock held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModuleKey<'a> {
    wasm: &'a [u8],
    /// The registry's translate options, fixed for its life.
    options: TranslateOptions,
}

impl ModuleKey<'_> {
    /// Build the module: decode, validate, translate and lower the `.wasm`
    /// under the registry's check-gap budget. Touches no registry state, so
    /// it runs with no lock held.
    ///
    /// # Errors
    ///
    /// [`RegisterError::Decode`] or [`RegisterError::Translate`].
    pub(crate) fn build(&self) -> Result<CompiledModule, RegisterError> {
        let module =
            sledge_wasm::decode::decode_module(self.wasm).map_err(RegisterError::Decode)?;
        translate_with(&module, Tier::Optimized, self.options).map_err(RegisterError::Translate)
    }
}

/// Registry of loaded functions, indexed by id, name, and HTTP route. Its
/// settings are fixed when it is built (see [`Registry::new`]).
#[derive(Debug)]
pub(crate) struct Registry {
    functions: Vec<Arc<RegisteredFunction>>,
    by_name: HashMap<String, FunctionId>,
    by_route: HashMap<String, FunctionId>,
    /// The module store: every module some function registered with, by
    /// its exact `.wasm` bytes.
    modules: HashMap<Box<[u8]>, Arc<CompiledModule>>,
    /// Worst-case guest stack budget enforced at registration; `None`
    /// disables the check.
    stack_budget: Option<u64>,
    /// Preemption-latency budget (max check-free gap, in cost units)
    /// enforced at registration. Also steers the translator: the cost pass
    /// splits blocks so the certificate meets this budget by construction.
    /// `None` uses [`awsm::DEFAULT_MAX_CHECK_GAP`] and accepts any
    /// certified gap.
    check_gap: Option<u32>,
    /// Warm-pool capacity of every registered function (0 = pooling
    /// disabled).
    pool_capacity: usize,
    /// Cost units per µs used to convert `budget` (µs/s) into a token-
    /// bucket rate.
    calibration: u64,
    /// Whether the node serves `POST /admin/modules`, which then reserves
    /// that route.
    admin_routes: bool,
    /// Load-time analysis counters.
    pub(crate) stats: RegistryStats,
}

impl Registry {
    /// An empty registry that enforces `config.max_stack_bytes` and
    /// `config.max_check_gap` (translating for the latter), gives every
    /// function a pool of `config.pool_size`, sizes work budgets with
    /// `config.cost_units_per_us` and reserves the routes the node answers
    /// under `config.admin_routes`, for its whole life.
    pub(crate) fn new(config: &RuntimeConfig) -> Self {
        Registry {
            functions: Vec::new(),
            by_name: HashMap::new(),
            by_route: HashMap::new(),
            modules: HashMap::new(),
            stack_budget: config.max_stack_bytes,
            check_gap: config.max_check_gap,
            pool_capacity: config.pool_size,
            calibration: config.cost_units_per_us,
            admin_routes: config.admin_routes,
            stats: RegistryStats::default(),
        }
    }

    /// The first half of a registration, which needs only read access:
    /// refuse a taken name or a taken or reserved route before any work is
    /// done, then look the
    /// `.wasm` up in the module store. `None` is a miss, counted in
    /// `modules_compiled`: the caller builds the key (with no lock held) and
    /// hands the module to [`Registry::register_compiled`].
    ///
    /// # Errors
    ///
    /// [`RegisterError::DuplicateName`], [`RegisterError::DuplicateRoute`]
    /// or [`RegisterError::ReservedRoute`].
    pub(crate) fn lookup<'a>(
        &self,
        config: &FunctionConfig,
        wasm: &'a [u8],
    ) -> Result<(ModuleKey<'a>, Option<Arc<CompiledModule>>), RegisterError> {
        self.check_free(config)?;
        let key = ModuleKey {
            wasm,
            options: TranslateOptions {
                max_check_gap: self.check_gap.unwrap_or(awsm::DEFAULT_MAX_CHECK_GAP),
            },
        };
        let cached = self.cached(&key);
        if cached.is_none() {
            self.stats.modules_compiled.fetch_add(1, Ordering::Relaxed);
        }
        Ok((key, cached))
    }

    fn check_free(&self, config: &FunctionConfig) -> Result<(), RegisterError> {
        if self.by_name.contains_key(&config.name) {
            return Err(RegisterError::DuplicateName(config.name.clone()));
        }
        let route = config.http_route();
        if crate::listener::is_reserved(&route, self.admin_routes) {
            return Err(RegisterError::ReservedRoute(route));
        }
        if self.by_route.contains_key(&route) {
            return Err(RegisterError::DuplicateRoute(route));
        }
        Ok(())
    }

    fn cached(&self, key: &ModuleKey<'_>) -> Option<Arc<CompiledModule>> {
        self.modules.get(key.wasm).map(Arc::clone)
    }

    /// The second half of a registration: re-check the name and route, run
    /// every per-function gate against `module`, index the function, and
    /// keep the module in the store. If a registration of the same key won
    /// a race to the store, its module is shared and `module` is dropped.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`].
    pub(crate) fn register_compiled(
        &mut self,
        config: FunctionConfig,
        key: ModuleKey<'_>,
        module: Arc<CompiledModule>,
    ) -> Result<FunctionId, RegisterError> {
        self.check_free(&config)?;
        let (module, stored) = match self.cached(&key) {
            Some(shared) => (shared, true),
            None => (module, false),
        };
        let compiled = &*module;
        // The entry's statically certified cost is what admission charges
        // against the work budget before the invocation has burned any
        // fuel; the worker trues it up with the real burn at completion.
        let entry_cost = compiled
            .export(&config.entry)
            .and_then(|idx| idx.checked_sub(compiled.num_imports()))
            .and_then(|local| compiled.analysis.cost.funcs.get(local as usize));
        let Some(entry_cost) = entry_cost else {
            return Err(RegisterError::NoEntry(config.entry.clone()));
        };
        let admission_cost = entry_cost.total_cost.max(1);
        self.gate_analysis(&config, compiled)?;
        let id = FunctionId(self.functions.len() as u32);
        let route = config.http_route();
        let name = config.name.clone();
        let budget = config.budget_us_per_s.map(|us| {
            let rate = us.saturating_mul(self.calibration).max(1);
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
            module: Arc::clone(&module),
            stats: FunctionStats::default(),
            shards: OnceLock::new(),
            pool: SandboxPool::with_policy(self.pool_capacity, reset_policy),
            admission_cost,
            budget,
            queue_p99: QueueP99Cache::default(),
        });
        self.functions.push(rf);
        self.by_name.insert(name, id);
        self.by_route.insert(route, id);
        // A module is kept only once a function has accepted it.
        if !stored {
            self.modules.insert(key.wasm.into(), module);
        }
        Ok(id)
    }

    /// Apply the load-time analysis verdict: reject on error-severity lints,
    /// a stack bound over budget, an over-budget preemption certificate, or
    /// a capability-policy violation; log warnings and update counters.
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
        // Certificate gate: under a configured budget the certified gap must
        // fit. (Splitting makes over-budget gaps rare — only a single opcode
        // heavier than the budget can produce one.)
        if let Some(d) = report.check_gap(self.check_gap.unwrap_or(u32::MAX)) {
            self.stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
            self.stats
                .certificate_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(RegisterError::Certificate(d));
        }
        self.stats.cost_certified.fetch_add(1, Ordering::Relaxed);
        // Capability gate: a deny-by-default host-call set, proven against
        // the effect certificate. Modules without a policy skip this entirely
        // (and touch no capability counter).
        let mut capability_warn = None;
        if let Some(allowed) = &config.allowed_hostcalls {
            let entry_idx = compiled
                .export(&config.entry)
                .expect("entry existence checked before gating");
            if let Some(violation) = report.effects.check_hostcalls(entry_idx, allowed) {
                self.stats.modules_rejected.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .capability_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(RegisterError::Capability(violation));
            }
            self.stats
                .capability_certified
                .fetch_add(1, Ordering::Relaxed);
            capability_warn = report.effects.unused_grants(entry_idx, allowed);
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
    pub(crate) fn get(&self, id: FunctionId) -> Option<&Arc<RegisteredFunction>> {
        self.functions.get(id.0 as usize)
    }

    /// Look up by function name.
    pub(crate) fn by_name(&self, name: &str) -> Option<&Arc<RegisteredFunction>> {
        self.by_name.get(name).and_then(|id| self.get(*id))
    }

    /// Look up by HTTP route.
    pub(crate) fn by_route(&self, route: &str) -> Option<&Arc<RegisteredFunction>> {
        self.by_route.get(route).and_then(|id| self.get(*id))
    }

    /// All registered functions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<RegisteredFunction>> {
        self.functions.iter()
    }

    /// Every function's warm-pool counters, summed (all-zero when pooling
    /// is disabled).
    pub(crate) fn pool_stats(&self) -> PoolStatsSnapshot {
        let mut snap = PoolStatsSnapshot::default();
        for rf in &self.functions {
            snap.merge(&rf.pool.snapshot());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sledge_guestc::dsl::*;
    use sledge_guestc::{FuncBuilder, ModuleBuilder};
    use sledge_wasm::module::Module;
    use sledge_wasm::types::ValType;

    /// `Shared::register` without the lock: look up, build on a miss,
    /// insert.
    fn register_wasm(
        r: &mut Registry,
        config: FunctionConfig,
        wasm: &[u8],
    ) -> Result<FunctionId, RegisterError> {
        let (key, cached) = r.lookup(&config, wasm)?;
        let module = match cached {
            Some(module) => module,
            None => Arc::new(key.build()?),
        };
        r.register_compiled(config, key, module)
    }

    fn register(
        r: &mut Registry,
        config: FunctionConfig,
        m: &Module,
    ) -> Result<FunctionId, RegisterError> {
        register_wasm(r, config, &sledge_wasm::encode::encode_module(m))
    }

    /// A registry under the shipped defaults.
    fn registry() -> Registry {
        Registry::new(&RuntimeConfig::default())
    }

    /// A registry whose check-gap budget is `gap`.
    fn gap_registry(gap: u32) -> Registry {
        Registry::new(&RuntimeConfig {
            max_check_gap: Some(gap),
            ..Default::default()
        })
    }

    /// A registry whose stack budget is `bytes`.
    fn stack_registry(bytes: u64) -> Registry {
        Registry::new(&RuntimeConfig {
            max_stack_bytes: Some(bytes),
            ..Default::default()
        })
    }

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
        let mut r = registry();
        let m = tiny_module("seven");
        let wasm = sledge_wasm::encode::encode_module(&m);
        let id = register_wasm(&mut r, FunctionConfig::new("seven"), &wasm).unwrap();
        assert_eq!(r.functions.len(), 1);
        assert_eq!(r.get(id).unwrap().config.name, "seven");
        assert!(r.by_name("seven").is_some());
        assert!(r.by_route("/seven").is_some());
        assert!(r.by_name("eight").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = registry();
        let m = tiny_module("dup");
        register(&mut r, FunctionConfig::new("dup"), &m).unwrap();
        assert!(matches!(
            register(&mut r, FunctionConfig::new("dup"), &m),
            Err(RegisterError::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_route_rejected_before_any_build() {
        let mut r = registry();
        let m = tiny_module("a");
        let mut a = FunctionConfig::new("a");
        a.route = Some("/x".into());
        register(&mut r, a, &m).unwrap();
        // Another name on the same route would shadow `a`; garbage bytes
        // show the refusal comes before any decode.
        let mut b = FunctionConfig::new("b");
        b.route = Some("/x".into());
        let err = register_wasm(&mut r, b, b"garbage").unwrap_err();
        assert!(matches!(err, RegisterError::DuplicateRoute(ref route) if route == "/x"));
        assert!(err.to_string().contains("\"/x\""), "{err}");
        let err = register_wasm(&mut r, FunctionConfig::new("a"), b"garbage").unwrap_err();
        assert!(matches!(err, RegisterError::DuplicateName(_)), "{err}");
        assert_eq!(r.functions.len(), 1);
        assert_eq!(r.by_route("/x").unwrap().config.name, "a");
        assert_eq!(r.stats.snapshot().modules_compiled, 1);
    }

    /// A pushed `.wasm` is translated under the budget of the node it is
    /// pushed to, and the node admits it by the certificate it derived: so
    /// no check-free run may outweigh that budget. Built under the default
    /// budget, a loop whose latch and head together outweigh the certified
    /// gap keeps its head; on a node whose budget is exactly that gap, and
    /// on one whose budget is one unit less (which splits the module to
    /// fit), every run from one preemption point to the next charges
    /// within the budget.
    #[test]
    fn artifact_runs_within_the_node_budget_it_was_admitted_under() {
        let mut mb = ModuleBuilder::new("loop");
        let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
        let n = f.arg(0);
        let (i, acc) = (f.local(ValType::I32), f.local(ValType::I32));
        f.extend([
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), local(n)),
                1,
                vec![set(acc, add(local(acc), mul(local(i), local(i))))],
            ),
            ret(Some(local(acc))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let compiled = awsm::translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
        let cost = &compiled.analysis.cost;
        assert_eq!(cost.max_check_gap, awsm::DEFAULT_MAX_CHECK_GAP);
        let gap = cost.max_gap;
        let wasm = awsm::encode_artifact(&compiled);

        for budget in [gap - 1, gap] {
            let mut r = gap_registry(budget);
            let id = register_wasm(&mut r, FunctionConfig::new("l"), &wasm).unwrap();
            let module = Arc::clone(&r.get(id).unwrap().module);
            assert!(module.analysis.cost.max_gap <= budget);
            let mut inst = awsm::Instance::new(module, awsm::EngineConfig::default()).unwrap();
            inst.invoke_export("main", &[awsm::Value::I32(5)]).unwrap();
            let flag = inst.preempt_flag();
            let mut used = 0;
            loop {
                flag.store(true, Ordering::Relaxed);
                let step = inst.run(&mut awsm::NullHost, u64::MAX);
                let charged = inst.fuel_used() - used;
                used = inst.fuel_used();
                assert!(
                    charged <= budget as u64,
                    "a check-free run of {charged} units on a node whose budget is {budget}"
                );
                match step {
                    awsm::StepResult::Complete(v) => break assert_eq!(v, Some(30)),
                    awsm::StepResult::Preempted => {}
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejected_module_is_not_retained() {
        let mut r = registry();
        let wasm = sledge_wasm::encode::encode_module(&hostcall_module("gated"));
        let mut denied = FunctionConfig::new("denied");
        denied.allowed_hostcalls = Some(vec!["response_write".into()]);
        register_wasm(&mut r, denied, &wasm).unwrap_err();
        // No function accepted the first build, so this is a second miss;
        // from then on the module is shared.
        register_wasm(&mut r, FunctionConfig::new("open"), &wasm).unwrap();
        register_wasm(&mut r, FunctionConfig::new("open2"), &wasm).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.modules_compiled, 2);
        assert_eq!(snap.capability_rejected, 1);
        assert_eq!(snap.modules_verified, 2);
    }

    #[test]
    fn missing_entry_rejected() {
        let mut r = registry();
        let m = tiny_module("f");
        let mut cfg = FunctionConfig::new("f");
        cfg.entry = "not_main".into();
        assert!(matches!(
            register(&mut r, cfg, &m),
            Err(RegisterError::NoEntry(_))
        ));
        // A re-exported import is exported, but has no body to invoke.
        let mut mb = ModuleBuilder::new("reexport");
        let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
        mb.export_func(req_len, "main");
        let m = mb.build().unwrap();
        assert!(matches!(
            register(&mut r, FunctionConfig::new("reexport"), &m),
            Err(RegisterError::NoEntry(_))
        ));
        assert!(r.functions.is_empty());
    }

    #[test]
    fn bad_wasm_rejected() {
        let mut r = registry();
        assert!(matches!(
            register_wasm(&mut r, FunctionConfig::new("x"), b"garbage"),
            Err(RegisterError::Decode(_))
        ));
    }

    #[test]
    fn stack_budget_rejects_oversized_module() {
        // One byte cannot hold any frame; every module is over budget.
        let mut r = stack_registry(1);
        let m = tiny_module("tiny");
        let err = register(&mut r, FunctionConfig::new("tiny"), &m).unwrap_err();
        let RegisterError::Analysis(diags) = err else {
            panic!("expected analysis rejection, got {err}");
        };
        assert!(diags.iter().any(|d| d.message.contains("exceeds budget")));
        assert!(
            r.functions.is_empty(),
            "rejected module must not be registered"
        );
        assert_eq!(r.stats.snapshot().modules_rejected, 1);
        // The same module passes under a sane budget.
        let mut r = stack_registry(1 << 20);
        register(&mut r, FunctionConfig::new("tiny"), &m).unwrap();
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
        let mut r = registry();
        // Without a budget recursion is allowed (warn-level at most)...
        register(&mut r, FunctionConfig::new("rec"), &m).unwrap();
        // ...but any finite budget makes it unverifiable.
        let mut r2 = stack_registry(u64::MAX);
        let err = register(&mut r2, FunctionConfig::new("rec"), &m).unwrap_err();
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
        let mut r = registry();
        let err = register(&mut r, FunctionConfig::new("boom"), &m).unwrap_err();
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
        let mut r = registry();
        let m = tiny_module("cert");
        let id = register(&mut r, FunctionConfig::new("cert"), &m).unwrap();
        let rf = r.get(id).unwrap();
        assert!(rf.module.analysis.cost.within(awsm::DEFAULT_MAX_CHECK_GAP));
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

        let mut r = gap_registry(1);
        let err = register(&mut r, FunctionConfig::new("heavy"), &m).unwrap_err();
        assert!(matches!(err, RegisterError::Certificate(_)), "{err}");
        assert!(err.to_string().contains("certificate"));
        assert!(r.functions.is_empty());
        let snap = r.stats.snapshot();
        assert_eq!(snap.certificate_rejected, 1);
        assert_eq!(snap.modules_rejected, 1);

        // The translator splits to meet any budget a single op can fit in.
        let mut r2 = gap_registry(awsm::DEFAULT_MAX_CHECK_GAP);
        let id = register(&mut r2, FunctionConfig::new("heavy"), &m).unwrap();
        let rf = r2.get(id).unwrap();
        assert!(rf.module.analysis.cost.max_gap <= awsm::DEFAULT_MAX_CHECK_GAP);
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

        let mut r = gap_registry(8);
        let id = register(&mut r, FunctionConfig::new("straight"), &m).unwrap();
        let cost = &r.get(id).unwrap().module.analysis.cost;
        assert!(cost.max_gap <= 8, "certified gap {} > budget", cost.max_gap);
        assert!(cost.splits > 0, "tight budget must force splits");
    }

    #[test]
    fn admission_cost_and_budget_from_certificate() {
        let mut r = Registry::new(&RuntimeConfig {
            cost_units_per_us: 100,
            ..Default::default()
        });
        let m = tiny_module("plain");
        let id = register(&mut r, FunctionConfig::new("plain"), &m).unwrap();
        let rf = r.get(id).unwrap();
        // The entry's certified total cost is the admission charge...
        let expect = rf.module.analysis.cost.funcs[0].total_cost.max(1);
        assert_eq!(rf.admission_cost, expect);
        // ...and with no budget knob there is no bucket.
        assert!(rf.budget.is_none());

        let mut cfg = FunctionConfig::new("metered");
        cfg.budget_us_per_s = Some(2000);
        let id = register(&mut r, cfg, &m).unwrap();
        let rf = r.get(id).unwrap();
        let b = rf.budget.as_ref().expect("budget knob arms a bucket");
        assert!(b.capacity() >= rf.admission_cost);
        // 2000 µs/s × 100 units/µs: once drained, 200 000 units take 1 s.
        assert!(b.try_charge(b.capacity(), 0).is_ok());
        assert_eq!(b.try_charge(200_000, 0), Err(Duration::from_secs(1)));
        // A fresh function has no queue samples: p99 reads zero.
        assert_eq!(rf.queue_p99_ns(1), 0);
    }

    #[test]
    fn shards_are_allocated_by_the_first_record() {
        let mut r = registry();
        let id = register(&mut r, FunctionConfig::new("lazy"), &tiny_module("lazy")).unwrap();
        let rf = r.get(id).unwrap();
        // Registration allocates no shard, and neither does a reader.
        assert!(rf.shards().is_empty());
        assert_eq!(rf.queue_p99_ns(1), 0);
        assert!(rf.shards().is_empty(), "the SLO read allocated shards");
        let t = Timings {
            arrival: std::time::Instant::now(),
            instantiation: Duration::from_micros(1),
            queue_delay: Duration::from_micros(2),
            execution: Duration::from_micros(3),
            preempted: Duration::ZERO,
            blocked: Duration::ZERO,
            total: Duration::from_micros(6),
            preemptions: 0,
        };
        // Worker 1 of 3 records first: all three shards appear at once.
        rf.record(1, 3, &t);
        let first = rf.shards().as_ptr();
        assert_eq!(rf.shards().len(), 3);
        rf.record(0, 3, &t);
        assert_eq!(rf.shards().as_ptr(), first, "a later record reallocated");
        let counts: Vec<u64> = rf
            .shards()
            .iter()
            .map(|s| s.total.snapshot().count())
            .collect();
        assert_eq!(counts, [1, 1, 0]);
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
        let mut r = registry();
        let mut cfg = FunctionConfig::new("gated");
        // The module calls env::request_len; the policy only grants
        // response_write — deny-by-default must reject it.
        cfg.allowed_hostcalls = Some(vec!["env::response_write".into()]);
        let err = register(&mut r, cfg, &m).unwrap_err();
        let RegisterError::Capability(d) = &err else {
            panic!("expected capability rejection, got {err}");
        };
        assert!(d.message.contains("request_len"), "{d:?}");
        assert!(err.to_string().contains("capability policy rejected"));
        assert!(
            r.functions.is_empty(),
            "rejected module must not be registered"
        );
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_rejected, 1);
        assert_eq!(snap.modules_rejected, 1);
        assert_eq!(snap.modules_verified, 0);
        assert_eq!(snap.capability_certified, 0);
    }

    #[test]
    fn capability_policy_grants_reachable_hostcalls() {
        let m = hostcall_module("granted");
        let mut r = registry();
        let mut cfg = FunctionConfig::new("granted");
        // Bare names match any import module.
        cfg.allowed_hostcalls = Some(vec!["request_len".into()]);
        register(&mut r, cfg, &m).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_certified, 1);
        assert_eq!(snap.capability_rejected, 0);
        assert_eq!(snap.modules_verified, 1);
    }

    #[test]
    fn capability_grant_wider_than_needed_warns() {
        let m = hostcall_module("wide");
        let mut r = registry();
        let mut cfg = FunctionConfig::new("wide");
        cfg.allowed_hostcalls = Some(vec![
            "env::request_len".into(),
            "env::launch_missiles".into(),
        ]);
        register(&mut r, cfg, &m).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.capability_certified, 1);
        assert!(
            snap.lint_warnings >= 1,
            "unused grant must surface as a warning"
        );
    }

    #[test]
    fn no_policy_touches_no_capability_counter() {
        let m = hostcall_module("open");
        let mut r = registry();
        register(&mut r, FunctionConfig::new("open"), &m).unwrap();
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
        let mut r = registry();
        let id = register(&mut r, FunctionConfig::new("warned"), &m).unwrap();
        let snap = r.stats.snapshot();
        assert_eq!(snap.modules_verified, 1);
        assert!(snap.lint_warnings >= 1);
        let rf = r.get(id).unwrap();
        assert_eq!(rf.module.analysis.funcs.len(), 2);
        assert!(!rf.module.analysis.has_errors());
    }
}
