//! Runtime and per-function configuration, loadable from the JSON format
//! the paper's runtime uses.

use crate::fault::FaultPlan;
use crate::json::{Json, JsonError};
use awsm::{BoundsStrategy, Tier};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Whole-runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker cores (threads). The listener runs on its own
    /// thread, matching the paper's dedicated listener core.
    pub workers: usize,
    /// Preemption time slice (the paper uses 5 ms).
    pub quantum: Duration,
    /// Explicit fuel budget per dispatch, in cost units. `None` (the
    /// default) derives the budget from `quantum` × [`cost_units_per_us`]
    /// via [`RuntimeConfig::effective_quantum_fuel`]; set it only to pin
    /// an exact budget (tests, reproducing a measurement).
    ///
    /// [`cost_units_per_us`]: RuntimeConfig::cost_units_per_us
    pub quantum_fuel: Option<u64>,
    /// Calibration constant: how many cost units (see `awsm::op_cost`) a
    /// worker core retires per microsecond. The default is a measured
    /// figure for the PolyBench kernels on a modern x86 core; recalibrate
    /// with `preemption_latency --calibrate` when deploying elsewhere.
    pub cost_units_per_us: u64,
    /// Preemption-latency budget enforced at registration: modules must
    /// carry a certificate that every check-free path costs at most this
    /// many units. `None` accepts any certificate (but still requires one).
    pub max_check_gap: Option<u32>,
    /// Admission limit: pending (not yet executing) requests beyond this
    /// are rejected with 503.
    pub max_pending: usize,
    /// Largest accepted HTTP request (head + body).
    pub max_request_size: usize,
    /// Default bounds strategy for new sandboxes.
    pub bounds: BoundsStrategy,
    /// Engine tier.
    pub tier: Tier,
    /// Worker scheduling policy (preemptive RR is the paper's design; run-
    /// to-completion exists as the ablation point §3.4 argues against).
    pub policy: SchedPolicy,
    /// Default per-invocation execution deadline. A sandbox whose wall-clock
    /// age exceeds this when it would be (re)scheduled is killed with
    /// [`crate::Outcome::TimedOut`]. `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Per-function circuit breaker configuration. `None` disables
    /// breakers entirely.
    pub circuit_breaker: Option<BreakerConfig>,
    /// Idle-connection timeout for the HTTP front end (slow-loris defense).
    /// `Duration::ZERO` disables reaping.
    pub conn_idle: Duration,
    /// Deterministic fault-injection plan, for chaos testing. `None` (the
    /// production setting) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Worst-case guest stack budget enforced at registration. Modules whose
    /// statically-verified stack bound exceeds this (or is unbounded due to
    /// recursion) are rejected before any sandbox is created. `None`
    /// disables the check.
    pub max_stack_bytes: Option<u64>,
    /// Serve `GET /metrics` (Prometheus text) and `GET /stats` (JSON) on
    /// the HTTP front end. On by default; disable to reserve those routes
    /// for functions.
    pub metrics_routes: bool,
    /// Capacity of each function's warm sandbox pool. 0 (the default)
    /// disables the pool entirely — behavior and metrics are identical to a
    /// runtime without the subsystem.
    pub pool_size: usize,
    /// Instances the background pre-warmer keeps hot per function (clamped
    /// to `pool_size`). 0 disables the pre-warmer; warmth then comes only
    /// from recycling.
    pub prewarm: usize,
    /// Whether workers recycle cleanly-completed sandboxes back into the
    /// pool. With `recycle = false` and `prewarm > 0` every warm acquire
    /// was pre-warmed (useful for isolating the two mechanisms).
    pub recycle: bool,
    /// Arm weighted deficit-round-robin scheduling on the per-worker run
    /// queues. Off (the default) keeps the plain FIFO rotation; behavior,
    /// metrics, and `sledged` output are then byte-identical to a runtime
    /// without the fairness subsystem.
    pub fairness: bool,
    /// Global in-flight admission cap with priority-class load shedding:
    /// a request whose function has priority class `p` (0..=3) is shed
    /// with 429 once in-flight reaches `max_inflight × (p+1) / 4`, so
    /// low-priority tenants are shed first and the highest class only at
    /// the full cap. 0 (the default) disables the cap.
    pub max_inflight: usize,
    /// Connection budget for the HTTP front end: accepts beyond this many
    /// live connections are answered with a socket-tier 503 +
    /// `Connection: close` before any parse cost is paid (the first gate,
    /// ahead of every admission gate). 0 (the default) is unlimited.
    pub max_connections: usize,
    /// Serve HTTP with the epoll readiness reactor (the default). `false`
    /// falls back to the legacy non-blocking scan loop — the compat and
    /// ablation configuration.
    pub reactor: bool,
    /// Serve `POST /admin/modules` on the HTTP front end: certificate-
    /// carrying module ingest for cluster-mode distribution (the router
    /// pushes compiled artifacts; the node re-validates every certificate
    /// before registering). Off by default — a node without the knob is
    /// byte-identical to earlier releases.
    pub admin_routes: bool,
}

/// Default calibration for [`RuntimeConfig::cost_units_per_us`]: cost
/// units the interpreter retires per microsecond, measured by dividing
/// `Instance::fuel_used` by wall time across the PolyBench kernels
/// (see `preemption_latency --calibrate`). Conservative: real cores run
/// hotter, which only makes quanta shorter than requested, never longer.
pub const DEFAULT_COST_UNITS_PER_US: u64 = 150;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: num_cpus(),
            quantum: Duration::from_millis(5),
            quantum_fuel: None,
            cost_units_per_us: DEFAULT_COST_UNITS_PER_US,
            max_check_gap: None,
            max_pending: 8192,
            max_request_size: 4 << 20,
            bounds: BoundsStrategy::GuardRegion,
            tier: Tier::Optimized,
            policy: SchedPolicy::PreemptiveRr,
            deadline: None,
            circuit_breaker: None,
            conn_idle: Duration::from_secs(10),
            fault_plan: None,
            max_stack_bytes: None,
            metrics_routes: true,
            // Env overrides let CI run the whole suite a second time with
            // the pool armed without touching any test's explicit config.
            pool_size: env_usize("SLEDGE_POOL_SIZE").unwrap_or(0),
            prewarm: env_usize("SLEDGE_PREWARM").unwrap_or(0),
            recycle: env_usize("SLEDGE_RECYCLE").map(|v| v != 0).unwrap_or(true),
            fairness: env_usize("SLEDGE_FAIRNESS")
                .map(|v| v != 0)
                .unwrap_or(false),
            max_inflight: env_usize("SLEDGE_MAX_INFLIGHT").unwrap_or(0),
            max_connections: env_usize("SLEDGE_MAX_CONNS").unwrap_or(0),
            reactor: env_usize("SLEDGE_REACTOR").map(|v| v != 0).unwrap_or(true),
            admin_routes: env_usize("SLEDGE_ADMIN").map(|v| v != 0).unwrap_or(false),
        }
    }
}

/// Read a non-negative integer knob from the environment; unset, empty, or
/// unparsable values fall through to the built-in default.
fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Per-function circuit breaker parameters.
///
/// A function whose consecutive trap/timeout count reaches `threshold`
/// trips its breaker: subsequent requests are fast-rejected with 503 and a
/// `Retry-After` hint until `cooldown` elapses, at which point a single
/// half-open probe is admitted. The probe's success closes the breaker;
/// its failure re-opens it for another cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (traps or timeouts) that trip the breaker.
    pub threshold: u32,
    /// How long the breaker stays open before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            cooldown: Duration::from_millis(1000),
        }
    }
}

/// How workers schedule sandboxes on their core-local run queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Preemptive round-robin with the configured quantum — the paper's
    /// serverless-first design, providing temporal isolation.
    #[default]
    PreemptiveRr,
    /// Run each sandbox to completion (cooperative only at blocking I/O) —
    /// the model the paper's §3.4 argues is unsafe for untrusted,
    /// potentially unbounded computations. Kept as an ablation.
    RunToCompletion,
}

/// Best-effort CPU count without external crates.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Highest (and default) priority class; classes run 0 (shed first)
/// through this value (shed last, only at the full in-flight cap).
pub const MAX_PRIORITY: u8 = 3;

/// Per-function (module) configuration.
#[derive(Debug, Clone)]
pub struct FunctionConfig {
    /// Function name, also the default HTTP route (`/name`).
    pub name: String,
    /// HTTP route override.
    pub route: Option<String>,
    /// Exported entry point (default `"main"`).
    pub entry: String,
    /// Expected argument values for the entry point (most functions take
    /// none and communicate via the request body).
    pub args: Vec<awsm::Value>,
    /// Per-function execution deadline, overriding the runtime default.
    pub deadline: Option<Duration>,
    /// Work budget in worker-µs per wall second: converted through the
    /// `cost_units_per_us` calibration into a fuel-per-second token bucket
    /// charged at admission and trued-up at completion. `None` (the
    /// default) exempts the function from budget admission entirely.
    pub budget_us_per_s: Option<u64>,
    /// Priority class for overload shedding, 0..=[`MAX_PRIORITY`]; lower
    /// classes are shed earlier as in-flight load approaches
    /// [`RuntimeConfig::max_inflight`]. Defaults to the highest class.
    pub priority: u8,
    /// DWRR weight (≥ 1): this function's proportional share of worker
    /// execution when the run queues are contended and fairness is on.
    pub weight: u32,
    /// Queue-phase p99 SLO: when the function's observed queue-wait p99
    /// exceeds this, new requests are rejected early with 429 rather than
    /// queued behind an already-blown latency target. `None` disables.
    pub queue_slo: Option<Duration>,
    /// Deny-by-default host-call capability policy: when set, registration
    /// fails unless the module's effect certificate proves the entry point
    /// can only ever reach host imports in this list. Names match either
    /// fully qualified (`"env::response_write"`) or bare
    /// (`"response_write"`). `None` (the default) grants everything.
    pub allowed_hostcalls: Option<Vec<String>>,
    /// Upper bound in bytes on the entry point's certified static write
    /// footprint: registration fails if the certificate cannot prove every
    /// guest store lands below this address. `None` disables the gate.
    pub max_write_footprint_bytes: Option<u64>,
}

impl FunctionConfig {
    /// Configuration with defaults for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FunctionConfig {
            name: name.into(),
            route: None,
            entry: "main".into(),
            args: Vec::new(),
            deadline: None,
            budget_us_per_s: None,
            priority: MAX_PRIORITY,
            weight: 1,
            queue_slo: None,
            allowed_hostcalls: None,
            max_write_footprint_bytes: None,
        }
    }

    /// Whether any capability policy is configured for this function.
    pub fn has_capability_policy(&self) -> bool {
        self.allowed_hostcalls.is_some() || self.max_write_footprint_bytes.is_some()
    }

    /// The HTTP route this function serves.
    pub fn http_route(&self) -> String {
        self.route
            .clone()
            .unwrap_or_else(|| format!("/{}", self.name))
    }
}

/// Error loading configuration.
#[derive(Debug)]
pub enum ConfigError {
    /// JSON syntax error.
    Json(JsonError),
    /// Structurally valid JSON with missing/mistyped fields.
    Schema(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Json(e) => write!(f, "{e}"),
            ConfigError::Schema(s) => write!(f, "config schema error: {s}"),
        }
    }
}

impl Error for ConfigError {}

impl From<JsonError> for ConfigError {
    fn from(e: JsonError) -> Self {
        ConfigError::Json(e)
    }
}

impl RuntimeConfig {
    /// Fuel budget per dispatch, in cost units: the explicit
    /// [`quantum_fuel`](RuntimeConfig::quantum_fuel) override if set,
    /// otherwise `quantum` converted through the
    /// [`cost_units_per_us`](RuntimeConfig::cost_units_per_us)
    /// calibration. Never zero — a zero budget could not make progress.
    pub fn effective_quantum_fuel(&self) -> u64 {
        self.quantum_fuel
            .unwrap_or_else(|| self.quantum.as_micros() as u64 * self.cost_units_per_us)
            .max(1)
    }

    /// Parse a runtime configuration from the JSON format:
    ///
    /// ```json
    /// {
    ///   "workers": 15,
    ///   "quantum_us": 5000,
    ///   "max_pending": 8192,
    ///   "bounds": "vm-guard",
    ///   "tier": "aot-opt",
    ///   "modules": [ {"name": "echo", "route": "/echo", "entry": "main"} ]
    /// }
    /// ```
    ///
    /// Returns the runtime config plus the declared function configs (the
    /// module binaries themselves are registered programmatically).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for syntax or schema problems.
    pub fn from_json(text: &str) -> Result<(RuntimeConfig, Vec<FunctionConfig>), ConfigError> {
        let v = crate::json::parse(text)?;
        let mut cfg = RuntimeConfig::default();
        if let Some(w) = v.get("workers") {
            cfg.workers = w
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("workers must be a non-negative int".into()))?
                as usize;
        }
        if let Some(q) = v.get("quantum_us") {
            cfg.quantum = Duration::from_micros(
                q.as_u64()
                    .ok_or_else(|| ConfigError::Schema("quantum_us must be an int".into()))?,
            );
        }
        if let Some(q) = v.get("quantum_fuel") {
            let q = q
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("quantum_fuel must be an int".into()))?;
            if q == 0 {
                return Err(ConfigError::Schema(
                    "quantum_fuel must be >= 1 (a zero budget cannot make progress)".into(),
                ));
            }
            cfg.quantum_fuel = Some(q);
        }
        if let Some(c) = v.get("cost_units_per_us") {
            let c = c
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("cost_units_per_us must be an int".into()))?;
            if c == 0 {
                return Err(ConfigError::Schema("cost_units_per_us must be >= 1".into()));
            }
            cfg.cost_units_per_us = c;
        }
        if let Some(g) = v.get("max_check_gap") {
            cfg.max_check_gap = Some(
                g.as_u64()
                    .filter(|g| *g <= u32::MAX as u64)
                    .ok_or_else(|| ConfigError::Schema("max_check_gap must be a u32".into()))?
                    as u32,
            );
        }
        if let Some(p) = v.get("max_pending") {
            cfg.max_pending = p
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("max_pending must be an int".into()))?
                as usize;
        }
        if let Some(s) = v.get("max_request_size") {
            cfg.max_request_size = s
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("max_request_size must be an int".into()))?
                as usize;
        }
        if let Some(b) = v.get("bounds") {
            cfg.bounds = match b.as_str() {
                Some("no-checks") => BoundsStrategy::None,
                Some("bounds-chk") => BoundsStrategy::Software,
                Some("mpx") => BoundsStrategy::MpxEmulated,
                Some("vm-guard") => BoundsStrategy::GuardRegion,
                other => {
                    return Err(ConfigError::Schema(format!(
                        "unknown bounds strategy {other:?}"
                    )))
                }
            };
        }
        if let Some(t) = v.get("tier") {
            cfg.tier = match t.as_str() {
                Some("aot-opt") => Tier::Optimized,
                Some("aot-naive") => Tier::Naive,
                other => return Err(ConfigError::Schema(format!("unknown tier {other:?}"))),
            };
        }
        if let Some(pl) = v.get("policy") {
            cfg.policy = match pl.as_str() {
                Some("preemptive-rr") => SchedPolicy::PreemptiveRr,
                Some("run-to-completion") => SchedPolicy::RunToCompletion,
                other => return Err(ConfigError::Schema(format!("unknown policy {other:?}"))),
            };
        }
        if let Some(d) = v.get("deadline_ms") {
            cfg.deadline = Some(Duration::from_millis(d.as_u64().ok_or_else(|| {
                ConfigError::Schema("deadline_ms must be a non-negative int".into())
            })?));
        }
        if let Some(cb) = v.get("circuit_breaker") {
            cfg.circuit_breaker = Some(parse_breaker(cb)?);
        }
        if let Some(ci) = v.get("conn_idle_ms") {
            cfg.conn_idle = Duration::from_millis(ci.as_u64().ok_or_else(|| {
                ConfigError::Schema("conn_idle_ms must be a non-negative int".into())
            })?);
        }
        if let Some(fp) = v.get("fault_plan") {
            cfg.fault_plan = Some(parse_fault_plan(fp)?);
        }
        if let Some(msb) = v.get("max_stack_bytes") {
            cfg.max_stack_bytes = Some(msb.as_u64().ok_or_else(|| {
                ConfigError::Schema("max_stack_bytes must be a non-negative int".into())
            })?);
        }
        if let Some(mr) = v.get("metrics_routes") {
            cfg.metrics_routes = mr
                .as_bool()
                .ok_or_else(|| ConfigError::Schema("metrics_routes must be a bool".into()))?;
        }
        if let Some(ps) = v.get("pool_size") {
            cfg.pool_size = ps
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("pool_size must be a non-negative int".into()))?
                as usize;
        }
        if let Some(pw) = v.get("prewarm") {
            cfg.prewarm = pw
                .as_u64()
                .ok_or_else(|| ConfigError::Schema("prewarm must be a non-negative int".into()))?
                as usize;
        }
        if let Some(r) = v.get("recycle") {
            cfg.recycle = r
                .as_bool()
                .ok_or_else(|| ConfigError::Schema("recycle must be a bool".into()))?;
        }
        if let Some(f) = v.get("fairness") {
            cfg.fairness = f
                .as_bool()
                .ok_or_else(|| ConfigError::Schema("fairness must be a bool".into()))?;
        }
        if let Some(mi) = v.get("max_inflight") {
            cfg.max_inflight = mi.as_u64().ok_or_else(|| {
                ConfigError::Schema("max_inflight must be a non-negative int".into())
            })? as usize;
        }
        if let Some(mc) = v.get("max_connections") {
            cfg.max_connections = mc.as_u64().ok_or_else(|| {
                ConfigError::Schema("max_connections must be a non-negative int".into())
            })? as usize;
        }
        if let Some(r) = v.get("reactor") {
            cfg.reactor = r
                .as_bool()
                .ok_or_else(|| ConfigError::Schema("reactor must be a bool".into()))?;
        }
        if let Some(a) = v.get("admin_routes") {
            cfg.admin_routes = a
                .as_bool()
                .ok_or_else(|| ConfigError::Schema("admin_routes must be a bool".into()))?;
        }
        let mut funcs = Vec::new();
        if let Some(mods) = v.get("modules") {
            let arr = mods
                .as_array()
                .ok_or_else(|| ConfigError::Schema("modules must be an array".into()))?;
            for m in arr {
                funcs.push(parse_function(m)?);
            }
        }
        Ok((cfg, funcs))
    }
}

fn parse_breaker(cb: &Json) -> Result<BreakerConfig, ConfigError> {
    let mut b = BreakerConfig::default();
    if let Some(t) = cb.get("threshold") {
        let t = t.as_u64().ok_or_else(|| {
            ConfigError::Schema("circuit_breaker.threshold must be an int".into())
        })?;
        if t == 0 {
            return Err(ConfigError::Schema(
                "circuit_breaker.threshold must be >= 1".into(),
            ));
        }
        b.threshold = t as u32;
    }
    if let Some(c) = cb.get("cooldown_ms") {
        b.cooldown = Duration::from_millis(c.as_u64().ok_or_else(|| {
            ConfigError::Schema("circuit_breaker.cooldown_ms must be an int".into())
        })?);
    }
    Ok(b)
}

fn parse_fault_plan(fp: &Json) -> Result<FaultPlan, ConfigError> {
    let mut plan = FaultPlan::default();
    if let Some(s) = fp.get("seed") {
        plan.seed = s
            .as_u64()
            .ok_or_else(|| ConfigError::Schema("fault_plan.seed must be an int".into()))?;
    }
    let pct = |j: &Json, key: &str| -> Result<f64, ConfigError> {
        let p = j
            .as_f64()
            .ok_or_else(|| ConfigError::Schema(format!("fault_plan.{key} must be a number")))?;
        if !(0.0..=100.0).contains(&p) {
            return Err(ConfigError::Schema(format!(
                "fault_plan.{key} must be in 0..=100"
            )));
        }
        Ok(p)
    };
    if let Some(p) = fp.get("instantiation_failure_pct") {
        plan.instantiation_failure_pct = pct(p, "instantiation_failure_pct")?;
    }
    if let Some(p) = fp.get("host_trap_pct") {
        plan.host_trap_pct = pct(p, "host_trap_pct")?;
    }
    if let Some(p) = fp.get("host_latency_pct") {
        plan.host_latency_pct = pct(p, "host_latency_pct")?;
    }
    if let Some(l) = fp.get("host_latency_us") {
        plan.host_latency = Duration::from_micros(l.as_u64().ok_or_else(|| {
            ConfigError::Schema("fault_plan.host_latency_us must be an int".into())
        })?);
    }
    if let Some(p) = fp.get("pool_poison_pct") {
        plan.pool_poison_pct = pct(p, "pool_poison_pct")?;
    }
    if let Some(p) = fp.get("burst_pct") {
        plan.burst_pct = pct(p, "burst_pct")?;
    }
    if let Some(l) = fp.get("burst_latency_us") {
        plan.burst_latency = Duration::from_micros(l.as_u64().ok_or_else(|| {
            ConfigError::Schema("fault_plan.burst_latency_us must be an int".into())
        })?);
    }
    if let Some(p) = fp.get("conn_reset_pct") {
        plan.conn_reset_pct = pct(p, "conn_reset_pct")?;
    }
    Ok(plan)
}

pub(crate) fn parse_function(m: &Json) -> Result<FunctionConfig, ConfigError> {
    let name = m
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ConfigError::Schema("module missing \"name\"".into()))?;
    let mut f = FunctionConfig::new(name);
    if let Some(r) = m.get("route") {
        f.route = Some(
            r.as_str()
                .ok_or_else(|| ConfigError::Schema("route must be a string".into()))?
                .to_string(),
        );
    }
    if let Some(e) = m.get("entry") {
        f.entry = e
            .as_str()
            .ok_or_else(|| ConfigError::Schema("entry must be a string".into()))?
            .to_string();
    }
    if let Some(d) = m.get("deadline_ms") {
        f.deadline = Some(Duration::from_millis(d.as_u64().ok_or_else(|| {
            ConfigError::Schema("module deadline_ms must be a non-negative int".into())
        })?));
    }
    if let Some(b) = m.get("budget") {
        let b = b
            .as_u64()
            .ok_or_else(|| ConfigError::Schema("module budget must be an int".into()))?;
        if b == 0 {
            return Err(ConfigError::Schema(
                "module budget must be >= 1 µs/s (omit it to disable budgeting)".into(),
            ));
        }
        f.budget_us_per_s = Some(b);
    }
    if let Some(p) = m.get("priority") {
        let p = p
            .as_u64()
            .filter(|p| *p <= MAX_PRIORITY as u64)
            .ok_or_else(|| {
                ConfigError::Schema(format!("module priority must be in 0..={MAX_PRIORITY}"))
            })?;
        f.priority = p as u8;
    }
    if let Some(w) = m.get("weight") {
        let w = w
            .as_u64()
            .filter(|w| (1..=u32::MAX as u64).contains(w))
            .ok_or_else(|| ConfigError::Schema("module weight must be a u32 >= 1".into()))?;
        f.weight = w as u32;
    }
    if let Some(s) = m.get("queue_slo_ms") {
        f.queue_slo = Some(Duration::from_millis(s.as_u64().ok_or_else(|| {
            ConfigError::Schema("module queue_slo_ms must be a non-negative int".into())
        })?));
    }
    if let Some(a) = m.get("allowed_hostcalls") {
        let items = a.as_array().ok_or_else(|| {
            ConfigError::Schema("module allowed_hostcalls must be an array of strings".into())
        })?;
        let mut allowed = Vec::with_capacity(items.len());
        for item in items {
            allowed.push(
                item.as_str()
                    .ok_or_else(|| {
                        ConfigError::Schema(
                            "module allowed_hostcalls entries must be strings".into(),
                        )
                    })?
                    .to_string(),
            );
        }
        f.allowed_hostcalls = Some(allowed);
    }
    if let Some(b) = m.get("max_write_footprint_bytes") {
        f.max_write_footprint_bytes = Some(b.as_u64().ok_or_else(|| {
            ConfigError::Schema(
                "module max_write_footprint_bytes must be a non-negative int".into(),
            )
        })?);
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_roundtrip() {
        let text = r#"{
            "workers": 15,
            "quantum_us": 5000,
            "quantum_fuel": 123456,
            "max_pending": 64,
            "max_request_size": 1048576,
            "bounds": "bounds-chk",
            "tier": "aot-naive",
            "modules": [
                {"name": "echo"},
                {"name": "ekf", "route": "/gps", "entry": "run"}
            ]
        }"#;
        let (cfg, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.workers, 15);
        assert_eq!(cfg.quantum, Duration::from_millis(5));
        assert_eq!(cfg.quantum_fuel, Some(123456));
        assert_eq!(cfg.effective_quantum_fuel(), 123456);
        assert_eq!(cfg.max_pending, 64);
        assert_eq!(cfg.bounds, BoundsStrategy::Software);
        assert_eq!(cfg.tier, Tier::Naive);
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].http_route(), "/echo");
        assert_eq!(funcs[1].http_route(), "/gps");
        assert_eq!(funcs[1].entry, "run");
    }

    #[test]
    fn defaults_applied() {
        let (cfg, funcs) = RuntimeConfig::from_json("{}").unwrap();
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.quantum, Duration::from_millis(5));
        assert!(funcs.is_empty());
    }

    #[test]
    fn schema_errors() {
        assert!(RuntimeConfig::from_json(r#"{"workers": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"bounds": "bogus"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"modules": [{}]}"#).is_err());
        assert!(RuntimeConfig::from_json("{").is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_stack_bytes": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_stack_bytes": -1}"#).is_err());
    }

    #[test]
    fn quantum_fuel_derived_from_calibration() {
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.quantum_fuel, None);
        assert_eq!(
            cfg.effective_quantum_fuel(),
            5000 * DEFAULT_COST_UNITS_PER_US,
            "5 ms quantum x default calibration"
        );
        let (cfg, _) =
            RuntimeConfig::from_json(r#"{"quantum_us": 100, "cost_units_per_us": 7}"#).unwrap();
        assert_eq!(cfg.effective_quantum_fuel(), 700);
        // An explicit override wins over derivation.
        let (cfg, _) =
            RuntimeConfig::from_json(r#"{"quantum_us": 100, "quantum_fuel": 42}"#).unwrap();
        assert_eq!(cfg.effective_quantum_fuel(), 42);
        // Degenerate quantum still yields a budget that can make progress.
        let (cfg, _) = RuntimeConfig::from_json(r#"{"quantum_us": 0}"#).unwrap();
        assert_eq!(cfg.effective_quantum_fuel(), 1);
    }

    #[test]
    fn zero_quantum_fuel_rejected() {
        let err = RuntimeConfig::from_json(r#"{"quantum_fuel": 0}"#).unwrap_err();
        assert!(
            matches!(err, ConfigError::Schema(ref s) if s.contains("quantum_fuel")),
            "expected schema error, got {err:?}"
        );
        assert!(RuntimeConfig::from_json(r#"{"quantum_fuel": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"cost_units_per_us": 0}"#).is_err());
    }

    #[test]
    fn max_check_gap_parsed() {
        let (cfg, _) = RuntimeConfig::from_json(r#"{"max_check_gap": 256}"#).unwrap();
        assert_eq!(cfg.max_check_gap, Some(256));
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.max_check_gap, None);
        assert!(RuntimeConfig::from_json(r#"{"max_check_gap": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_check_gap": 4294967296}"#).is_err());
    }

    #[test]
    fn metrics_routes_knob_parsed() {
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert!(cfg.metrics_routes, "metrics routes default on");
        let (cfg, _) = RuntimeConfig::from_json(r#"{"metrics_routes": false}"#).unwrap();
        assert!(!cfg.metrics_routes);
        assert!(RuntimeConfig::from_json(r#"{"metrics_routes": 1}"#).is_err());
    }

    #[test]
    fn static_analysis_knobs_parsed() {
        let text = r#"{"bounds": "bounds-chk", "max_stack_bytes": 1048576}"#;
        let (cfg, _) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.bounds, BoundsStrategy::Software);
        assert!(RuntimeConfig::from_json(r#"{"bounds": "static"}"#).is_err());
        assert_eq!(cfg.max_stack_bytes, Some(1048576));
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.max_stack_bytes, None);
    }

    #[test]
    fn pool_knobs_parsed() {
        let text = r#"{"pool_size": 8, "prewarm": 2, "recycle": false}"#;
        let (cfg, _) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.pool_size, 8);
        assert_eq!(cfg.prewarm, 2);
        assert!(!cfg.recycle);
        // Explicit JSON always wins over the SLEDGE_POOL_SIZE/SLEDGE_PREWARM/
        // SLEDGE_RECYCLE env overrides; absent knobs match the (possibly
        // env-overridden) defaults, so this test is green in both CI legs.
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        let dflt = RuntimeConfig::default();
        assert_eq!(cfg.pool_size, dflt.pool_size);
        assert_eq!(cfg.prewarm, dflt.prewarm);
        assert_eq!(cfg.recycle, dflt.recycle);
        assert!(RuntimeConfig::from_json(r#"{"pool_size": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"pool_size": -1}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"prewarm": 1.5}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"recycle": 1}"#).is_err());
    }

    #[test]
    fn capability_policy_knobs_parsed() {
        let text = r#"{"modules": [
            {"name": "echo",
             "allowed_hostcalls": ["env::request_len", "response_write"],
             "max_write_footprint_bytes": 65536},
            {"name": "open"}
        ]}"#;
        let (_, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(
            funcs[0].allowed_hostcalls.as_deref(),
            Some(&["env::request_len".to_string(), "response_write".to_string()][..])
        );
        assert_eq!(funcs[0].max_write_footprint_bytes, Some(65536));
        assert!(funcs[0].has_capability_policy());
        // Defaults off: no policy, nothing gated.
        assert_eq!(funcs[1].allowed_hostcalls, None);
        assert_eq!(funcs[1].max_write_footprint_bytes, None);
        assert!(!funcs[1].has_capability_policy());
        // An empty allow-list is a valid (deny-everything) policy.
        let (_, funcs) =
            RuntimeConfig::from_json(r#"{"modules": [{"name": "x", "allowed_hostcalls": []}]}"#)
                .unwrap();
        assert_eq!(funcs[0].allowed_hostcalls.as_deref(), Some(&[][..]));
        assert!(funcs[0].has_capability_policy());
        // Schema errors.
        for bad in [
            r#"{"modules": [{"name": "x", "allowed_hostcalls": "env::foo"}]}"#,
            r#"{"modules": [{"name": "x", "allowed_hostcalls": [1]}]}"#,
            r#"{"modules": [{"name": "x", "max_write_footprint_bytes": "big"}]}"#,
            r#"{"modules": [{"name": "x", "max_write_footprint_bytes": -1}]}"#,
        ] {
            assert!(RuntimeConfig::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn fairness_knobs_parsed() {
        let text = r#"{
            "fairness": true,
            "max_inflight": 256,
            "fault_plan": {"burst_pct": 12.5, "burst_latency_us": 900,
                           "conn_reset_pct": 15},
            "modules": [
                {"name": "victim", "budget": 200000, "priority": 3,
                 "weight": 4, "queue_slo_ms": 20},
                {"name": "antagonist", "priority": 0}
            ]
        }"#;
        let (cfg, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert!(cfg.fairness);
        assert_eq!(cfg.max_inflight, 256);
        let fp = cfg.fault_plan.unwrap();
        assert_eq!(fp.burst_pct, 12.5);
        assert_eq!(fp.burst_latency, Duration::from_micros(900));
        assert_eq!(fp.conn_reset_pct, 15.0);
        assert_eq!(funcs[0].budget_us_per_s, Some(200000));
        assert_eq!(funcs[0].priority, 3);
        assert_eq!(funcs[0].weight, 4);
        assert_eq!(funcs[0].queue_slo, Some(Duration::from_millis(20)));
        assert_eq!(funcs[1].budget_us_per_s, None);
        assert_eq!(funcs[1].priority, 0);
        assert_eq!(funcs[1].weight, 1);
        assert_eq!(funcs[1].queue_slo, None);
    }

    #[test]
    fn fairness_knobs_default_off_and_schema_checked() {
        // Explicit JSON wins over the SLEDGE_FAIRNESS/SLEDGE_MAX_INFLIGHT
        // env overrides; absent knobs match the (possibly env-overridden)
        // defaults, so this test is green in both CI legs.
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        let dflt = RuntimeConfig::default();
        assert_eq!(cfg.fairness, dflt.fairness);
        assert_eq!(cfg.max_inflight, dflt.max_inflight);
        let f = FunctionConfig::new("x");
        assert_eq!(f.budget_us_per_s, None);
        assert_eq!(f.priority, MAX_PRIORITY);
        assert_eq!(f.weight, 1);
        assert_eq!(f.queue_slo, None);
        assert!(RuntimeConfig::from_json(r#"{"fairness": 1}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_inflight": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"modules": [{"name": "a", "budget": 0}]}"#).is_err());
        assert!(
            RuntimeConfig::from_json(r#"{"modules": [{"name": "a", "priority": 4}]}"#).is_err()
        );
        assert!(RuntimeConfig::from_json(r#"{"modules": [{"name": "a", "weight": 0}]}"#).is_err());
        assert!(
            RuntimeConfig::from_json(r#"{"modules": [{"name": "a", "queue_slo_ms": "x"}]}"#)
                .is_err()
        );
        assert!(RuntimeConfig::from_json(r#"{"fault_plan": {"burst_pct": 101}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"fault_plan": {"conn_reset_pct": -1}}"#).is_err());
    }

    #[test]
    fn listener_knobs_parsed() {
        let text = r#"{"max_connections": 512, "reactor": false}"#;
        let (cfg, _) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.max_connections, 512);
        assert!(!cfg.reactor);
        // Explicit JSON wins over the SLEDGE_MAX_CONNS/SLEDGE_REACTOR env
        // overrides; absent knobs match the (possibly env-overridden)
        // defaults, so this test is green in both CI legs.
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        let dflt = RuntimeConfig::default();
        assert_eq!(cfg.max_connections, dflt.max_connections);
        assert_eq!(cfg.reactor, dflt.reactor);
        assert!(RuntimeConfig::from_json(r#"{"max_connections": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_connections": -1}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"reactor": 1}"#).is_err());
    }

    #[test]
    fn admin_routes_knob_parsed() {
        let (cfg, _) = RuntimeConfig::from_json(r#"{"admin_routes": true}"#).unwrap();
        assert!(cfg.admin_routes);
        let (cfg, _) = RuntimeConfig::from_json(r#"{"admin_routes": false}"#).unwrap();
        assert!(!cfg.admin_routes);
        // Explicit JSON wins over the SLEDGE_ADMIN env override; absent knobs
        // match the (possibly env-overridden) default, so this test is green
        // in both CI legs.
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.admin_routes, RuntimeConfig::default().admin_routes);
        assert!(RuntimeConfig::from_json(r#"{"admin_routes": 1}"#).is_err());
    }

    #[test]
    fn resilience_knobs_parsed() {
        let text = r#"{
            "deadline_ms": 250,
            "conn_idle_ms": 7000,
            "circuit_breaker": {"threshold": 3, "cooldown_ms": 200},
            "fault_plan": {
                "seed": 42,
                "instantiation_failure_pct": 5,
                "host_trap_pct": 2.5,
                "host_latency_pct": 10,
                "host_latency_us": 1500,
                "pool_poison_pct": 7.5
            },
            "modules": [
                {"name": "echo", "deadline_ms": 50},
                {"name": "slow"}
            ]
        }"#;
        let (cfg, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.deadline, Some(Duration::from_millis(250)));
        assert_eq!(cfg.conn_idle, Duration::from_millis(7000));
        let cb = cfg.circuit_breaker.unwrap();
        assert_eq!(cb.threshold, 3);
        assert_eq!(cb.cooldown, Duration::from_millis(200));
        let fp = cfg.fault_plan.unwrap();
        assert_eq!(fp.seed, 42);
        assert_eq!(fp.instantiation_failure_pct, 5.0);
        assert_eq!(fp.host_trap_pct, 2.5);
        assert_eq!(fp.host_latency_pct, 10.0);
        assert_eq!(fp.host_latency, Duration::from_micros(1500));
        assert_eq!(fp.pool_poison_pct, 7.5);
        assert_eq!(funcs[0].deadline, Some(Duration::from_millis(50)));
        assert_eq!(funcs[1].deadline, None);
    }

    #[test]
    fn resilience_knobs_default_off() {
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.deadline, None);
        assert!(cfg.circuit_breaker.is_none());
        assert!(cfg.fault_plan.is_none());
        assert_eq!(cfg.conn_idle, Duration::from_secs(10));
    }

    #[test]
    fn resilience_schema_errors() {
        assert!(RuntimeConfig::from_json(r#"{"deadline_ms": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"deadline_ms": -5}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"circuit_breaker": {"threshold": 0}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"circuit_breaker": {"cooldown_ms": "x"}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"fault_plan": {"host_trap_pct": 101}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"fault_plan": {"host_trap_pct": -1}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"fault_plan": {"pool_poison_pct": 200}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"conn_idle_ms": 1.5}"#).is_err());
        assert!(
            RuntimeConfig::from_json(r#"{"modules": [{"name": "a", "deadline_ms": "x"}]}"#)
                .is_err()
        );
    }
}
