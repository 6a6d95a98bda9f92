//! Runtime and per-function configuration, loadable from the JSON format
//! the paper's runtime uses.

use crate::json::{Json, JsonError};
use crate::registry::FunctionId;
use awsm::{BoundsStrategy, Tier};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Whole-runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker cores (threads). The listener runs on its own
    /// thread, matching the paper's dedicated listener core.
    pub workers: usize,
    /// Preemption time slice (the paper uses 5 ms), enforced as fuel: a
    /// dispatch ends when it has burned [`RuntimeConfig::dispatch_fuel`],
    /// `quantum` × [`cost_units_per_us`] cost units. No clock cuts a
    /// dispatch short; the timer preempts a running sandbox only at its
    /// deadline. `Duration::MAX` is run-to-completion, the §3.4 ablation:
    /// the fuel saturates, so a dispatch ends only when the guest returns,
    /// blocks, reaches its deadline or the node force-kills or shuts down.
    ///
    /// [`cost_units_per_us`]: RuntimeConfig::cost_units_per_us
    pub quantum: Duration,
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
    /// Always [`BoundsStrategy::Software`]: every out-of-bounds guest
    /// access traps. Nothing reads it; it stays only for callers that
    /// copy it into an [`awsm::EngineConfig`].
    pub bounds: BoundsStrategy,
    /// Always [`Tier::Optimized`]: the engine has one executor. Nothing
    /// reads it; it stays only for callers that copy it into an
    /// [`awsm::EngineConfig`] (ROADMAP 36).
    pub tier: Tier,
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
    /// Worst-case guest stack budget enforced at registration. Modules whose
    /// statically-verified stack bound exceeds this (or is unbounded due to
    /// recursion) are rejected before any sandbox is created. `None`
    /// disables the check.
    pub max_stack_bytes: Option<u64>,
    /// Capacity of each function's warm sandbox pool, which workers fill
    /// by recycling the sandboxes of clean completions. 0 (the default)
    /// disables the pool: every request instantiates fresh, and the pool
    /// series on `/metrics` and the summary line read zero.
    pub pool_size: usize,
    /// Give each function its own weighted deficit-round-robin lane on the
    /// per-worker run queues. Off (the default), every sandbox shares one
    /// lane, which is plain round-robin in arrival order, and the banner
    /// says `one lane`; the per-function deferral series still render,
    /// at zero.
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
    /// Serve `POST /admin/modules` on the HTTP front end: module ingest for
    /// cluster-mode distribution (the router pushes `.wasm`; the node
    /// decodes, validates and translates it under its own budgets, as
    /// [`Runtime::register_wasm`](crate::Runtime::register_wasm) does). Off by default:
    /// the path is then routed like any other, so it is a 404 unless a
    /// function owns it.
    pub admin_routes: bool,
}

/// Default calibration for [`RuntimeConfig::cost_units_per_us`]: cost
/// units the interpreter retires per microsecond, measured by dividing
/// `Instance::fuel_used` by wall time across the PolyBench kernels
/// (see `preemption_latency --calibrate`). Conservative: real cores run
/// hotter, which only makes quanta shorter than requested, never longer.
pub(crate) const DEFAULT_COST_UNITS_PER_US: u64 = 150;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: num_cpus(),
            quantum: Duration::from_millis(5),
            cost_units_per_us: DEFAULT_COST_UNITS_PER_US,
            max_check_gap: None,
            max_pending: 8192,
            max_request_size: 4 << 20,
            bounds: BoundsStrategy::Software,
            tier: Tier::Optimized,
            deadline: None,
            circuit_breaker: None,
            conn_idle: Duration::from_secs(10),
            max_stack_bytes: None,
            pool_size: 0,
            fairness: false,
            max_inflight: 0,
            max_connections: 0,
            admin_routes: false,
        }
    }
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

/// Best-effort CPU count without external crates.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Highest (and default) priority class; classes run 0 (shed first)
/// through this value (shed last, only at the full in-flight cap).
pub(crate) const MAX_PRIORITY: u8 = 3;

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
    /// Priority class for overload shedding, 0..=3; lower
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
        }
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
    /// Fuel budget per dispatch, in cost units: `quantum` converted through
    /// the [`cost_units_per_us`](RuntimeConfig::cost_units_per_us)
    /// calibration (saturating at `u64::MAX`). Never zero — a zero budget
    /// could not make progress.
    pub fn dispatch_fuel(&self) -> u64 {
        u64::try_from(self.quantum.as_micros())
            .unwrap_or(u64::MAX)
            .saturating_mul(self.cost_units_per_us)
            .max(1)
    }

    /// The run-queue lane a sandbox of `function` waits in: the function's
    /// own lane under [`fairness`](RuntimeConfig::fairness), otherwise the
    /// one lane every sandbox shares.
    pub(crate) fn lane(&self, function: FunctionId) -> u32 {
        if self.fairness {
            function.0
        } else {
            0
        }
    }

    /// Parse a runtime configuration from the JSON format:
    ///
    /// ```json
    /// {
    ///   "workers": 15,
    ///   "quantum_us": 5000,
    ///   "max_pending": 8192,
    ///   "modules": [ {"name": "echo", "route": "/echo", "entry": "main"} ]
    /// }
    /// ```
    ///
    /// Returns the runtime config plus the declared function configs (the
    /// module binaries themselves are registered programmatically).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for syntax or schema problems. The document,
    /// each module and the `circuit_breaker` section must be objects, and a
    /// key this parser does not know (a misspelling, or a setting that no
    /// longer exists) is an error naming the key.
    pub fn from_json(text: &str) -> Result<(RuntimeConfig, Vec<FunctionConfig>), ConfigError> {
        let doc = crate::json::parse(text)?;
        let mut cfg = RuntimeConfig::default();
        let mut funcs = Vec::new();
        for (key, v) in members(&doc, "config")? {
            match key.as_str() {
                "workers" => {
                    cfg.workers = v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("workers must be a non-negative int".into())
                    })? as usize;
                }
                "quantum_us" => {
                    let q = v
                        .as_u64()
                        .ok_or_else(|| ConfigError::Schema("quantum_us must be an int".into()))?;
                    if q == 0 {
                        return Err(ConfigError::Schema(
                            "quantum_us must be >= 1 (a zero quantum preempts without pause)"
                                .into(),
                        ));
                    }
                    cfg.quantum = Duration::from_micros(q);
                }
                // A dispatch's fuel is the quantum at the calibrated rate;
                // nothing pins it apart from the two.
                "quantum_fuel" => {
                    return Err(ConfigError::Schema(
                        "config key \"quantum_fuel\" is gone: a dispatch burns quantum_us × \
                         cost_units_per_us cost units, so set those two instead (ROADMAP 29(b))"
                            .into(),
                    ))
                }
                "cost_units_per_us" => {
                    let c = v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("cost_units_per_us must be an int".into())
                    })?;
                    if c == 0 {
                        return Err(ConfigError::Schema("cost_units_per_us must be >= 1".into()));
                    }
                    cfg.cost_units_per_us = c;
                }
                "max_check_gap" => {
                    cfg.max_check_gap = Some(
                        v.as_u64()
                            .filter(|g| *g <= u32::MAX as u64)
                            .ok_or_else(|| {
                                ConfigError::Schema("max_check_gap must be a u32".into())
                            })? as u32,
                    );
                }
                "max_pending" => {
                    cfg.max_pending = v
                        .as_u64()
                        .ok_or_else(|| ConfigError::Schema("max_pending must be an int".into()))?
                        as usize;
                }
                "max_request_size" => {
                    cfg.max_request_size = v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("max_request_size must be an int".into())
                    })? as usize;
                }
                // One executor runs every guest.
                "tier" => {
                    return Err(ConfigError::Schema(
                        "config key \"tier\" is gone: the engine has one executor (ROADMAP 36)"
                            .into(),
                    ))
                }
                "deadline_ms" => {
                    cfg.deadline = Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("deadline_ms must be a non-negative int".into())
                    })?));
                }
                "circuit_breaker" => {
                    cfg.circuit_breaker = Some(parse_breaker(v)?);
                }
                "conn_idle_ms" => {
                    cfg.conn_idle = Duration::from_millis(v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("conn_idle_ms must be a non-negative int".into())
                    })?);
                }
                "max_stack_bytes" => {
                    cfg.max_stack_bytes = Some(v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("max_stack_bytes must be a non-negative int".into())
                    })?);
                }
                // `/metrics` is always served, and a function can no
                // longer own any route the node answers itself.
                "metrics_routes" => {
                    return Err(ConfigError::Schema(
                        "config key \"metrics_routes\" is gone: /metrics is always served, \
                         and the routes the node answers itself are reserved (ROADMAP 27(e))"
                            .into(),
                    ))
                }
                "pool_size" => {
                    cfg.pool_size = v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("pool_size must be a non-negative int".into())
                    })? as usize;
                }
                "fairness" => {
                    cfg.fairness = v
                        .as_bool()
                        .ok_or_else(|| ConfigError::Schema("fairness must be a bool".into()))?;
                }
                "max_inflight" => {
                    cfg.max_inflight = v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("max_inflight must be a non-negative int".into())
                    })? as usize;
                }
                "max_connections" => {
                    cfg.max_connections = v.as_u64().ok_or_else(|| {
                        ConfigError::Schema("max_connections must be a non-negative int".into())
                    })? as usize;
                }
                "admin_routes" => {
                    cfg.admin_routes = v
                        .as_bool()
                        .ok_or_else(|| ConfigError::Schema("admin_routes must be a bool".into()))?;
                }
                "modules" => {
                    let arr = v
                        .as_array()
                        .ok_or_else(|| ConfigError::Schema("modules must be an array".into()))?;
                    for m in arr {
                        funcs.push(parse_function(m)?);
                    }
                }
                other => return Err(unknown("config", other)),
            }
        }
        Ok((cfg, funcs))
    }
}

fn parse_breaker(cb: &Json) -> Result<BreakerConfig, ConfigError> {
    let mut b = BreakerConfig::default();
    for (key, v) in members(cb, "circuit_breaker")? {
        match key.as_str() {
            "threshold" => {
                let t = v.as_u64().ok_or_else(|| {
                    ConfigError::Schema("circuit_breaker.threshold must be an int".into())
                })?;
                if t == 0 {
                    return Err(ConfigError::Schema(
                        "circuit_breaker.threshold must be >= 1".into(),
                    ));
                }
                b.threshold = t as u32;
            }
            "cooldown_ms" => {
                b.cooldown = Duration::from_millis(v.as_u64().ok_or_else(|| {
                    ConfigError::Schema("circuit_breaker.cooldown_ms must be an int".into())
                })?);
            }
            other => return Err(unknown("circuit_breaker", other)),
        }
    }
    Ok(b)
}

pub(crate) fn parse_function(m: &Json) -> Result<FunctionConfig, ConfigError> {
    let entries = members(m, "module")?;
    let name = entries
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ConfigError::Schema("module missing \"name\"".into()))?;
    let mut f = FunctionConfig::new(name);
    for (key, v) in entries {
        match key.as_str() {
            // `wasm` is the module's path, which `sledged` reads itself.
            "name" | "wasm" => {}
            "route" => {
                f.route = Some(
                    v.as_str()
                        .ok_or_else(|| ConfigError::Schema("route must be a string".into()))?
                        .to_string(),
                );
            }
            "entry" => {
                f.entry = v
                    .as_str()
                    .ok_or_else(|| ConfigError::Schema("entry must be a string".into()))?
                    .to_string();
            }
            "deadline_ms" => {
                f.deadline = Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                    ConfigError::Schema("module deadline_ms must be a non-negative int".into())
                })?));
            }
            "budget" => {
                let b = v
                    .as_u64()
                    .ok_or_else(|| ConfigError::Schema("module budget must be an int".into()))?;
                if b == 0 {
                    return Err(ConfigError::Schema(
                        "module budget must be >= 1 µs/s (omit it to disable budgeting)".into(),
                    ));
                }
                f.budget_us_per_s = Some(b);
            }
            "priority" => {
                let p = v
                    .as_u64()
                    .filter(|p| *p <= MAX_PRIORITY as u64)
                    .ok_or_else(|| {
                        ConfigError::Schema(format!(
                            "module priority must be in 0..={MAX_PRIORITY}"
                        ))
                    })?;
                f.priority = p as u8;
            }
            "weight" => {
                let w = v
                    .as_u64()
                    .filter(|w| (1..=u32::MAX as u64).contains(w))
                    .ok_or_else(|| {
                        ConfigError::Schema("module weight must be a u32 >= 1".into())
                    })?;
                f.weight = w as u32;
            }
            "queue_slo_ms" => {
                f.queue_slo = Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                    ConfigError::Schema("module queue_slo_ms must be a non-negative int".into())
                })?));
            }
            "allowed_hostcalls" => {
                let items = v.as_array().ok_or_else(|| {
                    ConfigError::Schema(
                        "module allowed_hostcalls must be an array of strings".into(),
                    )
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
            // The analysis bounds no store address, so no footprint can be
            // capped; a per-function page limit (ROADMAP item 35(a)) is the
            // memory policy a deployment can state.
            "max_write_footprint_bytes" => {
                return Err(ConfigError::Schema(
                    "module key \"max_write_footprint_bytes\" is gone: the effect certificate \
                     bounds no store address; cap memory per function instead (ROADMAP 35(a))"
                        .into(),
                ))
            }
            other => return Err(unknown("module", other)),
        }
    }
    Ok(f)
}

/// The members of `v`, which must be a JSON object (`what` names it).
fn members<'a>(v: &'a Json, what: &str) -> Result<&'a BTreeMap<String, Json>, ConfigError> {
    match v {
        Json::Object(m) => Ok(m),
        _ => Err(ConfigError::Schema(format!("{what} must be a JSON object"))),
    }
}

fn unknown(what: &str, key: &str) -> ConfigError {
    ConfigError::Schema(format!("unknown {what} key {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_roundtrip() {
        let text = r#"{
            "workers": 15,
            "quantum_us": 5000,
            "cost_units_per_us": 20,
            "max_pending": 64,
            "max_request_size": 1048576,
            "modules": [
                {"name": "echo"},
                {"name": "ekf", "route": "/gps", "entry": "run"}
            ]
        }"#;
        let (cfg, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.workers, 15);
        assert_eq!(cfg.quantum, Duration::from_millis(5));
        assert_eq!(cfg.cost_units_per_us, 20);
        assert_eq!(cfg.dispatch_fuel(), 100_000);
        assert_eq!(cfg.max_pending, 64);
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
        // OOB always traps: the old bounds key is an error whatever it holds.
        for value in [r#""bounds-chk""#, r#""mpx""#, r#""static""#, "true", "null"] {
            let text = format!(r#"{{"bounds": {value}}}"#);
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains("\"bounds\"")),
                "{value}: {err:?}"
            );
        }
        // One executor: the old tier key is an error whatever it holds.
        for value in [r#""aot-opt""#, r#""aot-naive""#, "true", "null"] {
            let text = format!(r#"{{"tier": {value}}}"#);
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s)
                    if s.contains("\"tier\"") && s.contains("ROADMAP 36")),
                "{value}: {err:?}"
            );
        }
        assert!(RuntimeConfig::from_json(r#"{"modules": [{}]}"#).is_err());
        assert!(RuntimeConfig::from_json("{").is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_stack_bytes": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_stack_bytes": -1}"#).is_err());
    }

    #[test]
    fn unknown_keys_and_non_objects_rejected() {
        // A misspelt key is an error naming it, at every level, never a
        // silently ignored setting.
        for (text, key) in [
            (r#"{"pool_sise": 4}"#, "pool_sise"),
            (r#"{"modules": [{"name": "f", "wieght": 2}]}"#, "wieght"),
            (r#"{"circuit_breaker": {"treshold": 3}}"#, "treshold"),
        ] {
            let err = RuntimeConfig::from_json(text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains(&format!("{key:?}"))),
                "{text}: {err:?}"
            );
        }
        for text in [
            "[]",
            "42",
            r#"{"modules": [[]]}"#,
            r#"{"circuit_breaker": 1}"#,
        ] {
            let err = RuntimeConfig::from_json(text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains("object")),
                "{text}: {err:?}"
            );
        }
        // `wasm` is the module path sledged reads; it is a known key.
        let (_, funcs) =
            RuntimeConfig::from_json(r#"{"modules": [{"name": "f", "wasm": "f.wasm"}]}"#).unwrap();
        assert_eq!(funcs[0].name, "f");
    }

    #[test]
    fn quantum_fuel_derived_from_calibration() {
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(
            cfg.dispatch_fuel(),
            5000 * DEFAULT_COST_UNITS_PER_US,
            "5 ms quantum x default calibration"
        );
        let (cfg, _) =
            RuntimeConfig::from_json(r#"{"quantum_us": 100, "cost_units_per_us": 7}"#).unwrap();
        assert_eq!(cfg.dispatch_fuel(), 700);
        // A degenerate quantum still yields a budget that can make progress
        // (JSON refuses `"quantum_us": 0`; a struct literal can still set it).
        let cfg = RuntimeConfig {
            quantum: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(cfg.dispatch_fuel(), 1);
    }

    #[test]
    fn quantum_fuel_derivation_saturates() {
        // 1e15 µs × 1e6 units/µs overflows u64: saturate, never panic or wrap.
        let (cfg, _) =
            RuntimeConfig::from_json(r#"{"quantum_us": 1e15, "cost_units_per_us": 1e6}"#).unwrap();
        assert_eq!(cfg.dispatch_fuel(), u64::MAX);
        // A quantum whose microseconds do not fit in u64 saturates too.
        let cfg = RuntimeConfig {
            quantum: Duration::MAX,
            cost_units_per_us: 1,
            ..Default::default()
        };
        assert_eq!(cfg.dispatch_fuel(), u64::MAX);
        // JSON numbers are f64, so a budget past i64::MAX derives as given.
        let (cfg, _) =
            RuntimeConfig::from_json(r#"{"quantum_us": 1e13, "cost_units_per_us": 1e6}"#).unwrap();
        assert_eq!(cfg.dispatch_fuel(), 10_000_000_000_000_000_000);
    }

    #[test]
    fn zero_quantum_fuel_rejected() {
        // A zero quantum or rate would derive a budget of zero: both are
        // schema errors naming their key.
        for key in ["quantum_us", "cost_units_per_us"] {
            let err = RuntimeConfig::from_json(&format!(r#"{{"{key}": 0}}"#)).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains(key)),
                "{key}: expected schema error, got {err:?}"
            );
        }
        // The budget is never pinned apart from those two: the old key is
        // refused whatever it holds, naming what replaces it.
        for value in ["0", "1", "1e19", r#""x""#] {
            let text = format!(r#"{{"quantum_fuel": {value}}}"#);
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s)
                    if s.contains("\"quantum_fuel\" is gone") && s.contains("quantum_us")),
                "{text}: {err:?}"
            );
        }
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
        // The knob is gone: whatever its value, the key parses to a schema
        // error, because the exposition has no switch.
        for value in ["true", "false", "1"] {
            let text = format!(r#"{{"metrics_routes": {value}}}"#);
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s)
                    if s.contains("\"metrics_routes\" is gone") && s.contains("reserved")),
                "{text}: {err:?}"
            );
        }
    }

    #[test]
    fn static_analysis_knobs_parsed() {
        let text = r#"{"max_stack_bytes": 1048576}"#;
        let (cfg, _) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(cfg.max_stack_bytes, Some(1048576));
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.max_stack_bytes, None);
    }

    #[test]
    fn pool_knobs_parsed() {
        let (cfg, _) = RuntimeConfig::from_json(r#"{"pool_size": 8}"#).unwrap();
        assert_eq!(cfg.pool_size, 8);
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.pool_size, 0);
        assert!(RuntimeConfig::from_json(r#"{"pool_size": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"pool_size": -1}"#).is_err());
        // Recycling is the only way into a pool, and it has no switch.
        for (text, key) in [
            (r#"{"prewarm": 2}"#, "prewarm"),
            (r#"{"recycle": false}"#, "recycle"),
        ] {
            let err = RuntimeConfig::from_json(text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains(&format!("{key:?}"))),
                "{text}: {err:?}"
            );
        }
    }

    #[test]
    fn capability_policy_knobs_parsed() {
        let text = r#"{"modules": [
            {"name": "echo",
             "allowed_hostcalls": ["env::request_len", "response_write"]},
            {"name": "open"}
        ]}"#;
        let (_, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert_eq!(
            funcs[0].allowed_hostcalls.as_deref(),
            Some(&["env::request_len".to_string(), "response_write".to_string()][..])
        );
        // Defaults off: no policy, nothing gated.
        assert_eq!(funcs[1].allowed_hostcalls, None);
        // An empty allow-list is a valid (deny-everything) policy.
        let (_, funcs) =
            RuntimeConfig::from_json(r#"{"modules": [{"name": "x", "allowed_hostcalls": []}]}"#)
                .unwrap();
        assert_eq!(funcs[0].allowed_hostcalls.as_deref(), Some(&[][..]));
        // Schema errors.
        for bad in [
            r#"{"modules": [{"name": "x", "allowed_hostcalls": "env::foo"}]}"#,
            r#"{"modules": [{"name": "x", "allowed_hostcalls": [1]}]}"#,
        ] {
            assert!(RuntimeConfig::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn write_footprint_key_is_a_schema_error() {
        // Whatever its value, the key is refused, and the error points at
        // the memory policy that replaces it.
        for value in ["65536", "0", "\"big\""] {
            let text = format!(
                r#"{{"modules": [{{"name": "x", "max_write_footprint_bytes": {value}}}]}}"#
            );
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s)
                    if s.contains("\"max_write_footprint_bytes\"") && s.contains("35(a)")),
                "{text}: {err:?}"
            );
        }
    }

    #[test]
    fn fairness_knobs_parsed() {
        let text = r#"{
            "fairness": true,
            "max_inflight": 256,
            "modules": [
                {"name": "victim", "budget": 200000, "priority": 3,
                 "weight": 4, "queue_slo_ms": 20},
                {"name": "antagonist", "priority": 0}
            ]
        }"#;
        let (cfg, funcs) = RuntimeConfig::from_json(text).unwrap();
        assert!(cfg.fairness);
        assert_eq!(cfg.max_inflight, 256);
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
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert!(!cfg.fairness);
        assert_eq!(cfg.max_inflight, 0);
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
    }

    #[test]
    fn listener_knobs_parsed() {
        let (cfg, _) = RuntimeConfig::from_json(r#"{"max_connections": 512}"#).unwrap();
        assert_eq!(cfg.max_connections, 512);
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.max_connections, 0);
        assert!(RuntimeConfig::from_json(r#"{"max_connections": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"max_connections": -1}"#).is_err());
        // One listener: the old backend switch is an error whatever it holds.
        for value in ["true", "false", "0", "1", r#""poll""#, "null"] {
            let text = format!(r#"{{"reactor": {value}}}"#);
            let err = RuntimeConfig::from_json(&text).unwrap_err();
            assert!(
                matches!(err, ConfigError::Schema(ref s) if s.contains("\"reactor\"")),
                "{value}: {err:?}"
            );
        }
    }

    #[test]
    fn admin_routes_knob_parsed() {
        let (cfg, _) = RuntimeConfig::from_json(r#"{"admin_routes": true}"#).unwrap();
        assert!(cfg.admin_routes);
        let (cfg, _) = RuntimeConfig::from_json(r#"{"admin_routes": false}"#).unwrap();
        assert!(!cfg.admin_routes);
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert!(!cfg.admin_routes);
        assert!(RuntimeConfig::from_json(r#"{"admin_routes": 1}"#).is_err());
    }

    #[test]
    fn resilience_knobs_parsed() {
        let text = r#"{
            "deadline_ms": 250,
            "conn_idle_ms": 7000,
            "circuit_breaker": {"threshold": 3, "cooldown_ms": 200},
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
        assert_eq!(funcs[0].deadline, Some(Duration::from_millis(50)));
        assert_eq!(funcs[1].deadline, None);
    }

    #[test]
    fn resilience_knobs_default_off() {
        let (cfg, _) = RuntimeConfig::from_json("{}").unwrap();
        assert_eq!(cfg.deadline, None);
        assert!(cfg.circuit_breaker.is_none());
        assert_eq!(cfg.conn_idle, Duration::from_secs(10));
    }

    #[test]
    fn resilience_schema_errors() {
        assert!(RuntimeConfig::from_json(r#"{"deadline_ms": "x"}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"deadline_ms": -5}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"circuit_breaker": {"threshold": 0}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"circuit_breaker": {"cooldown_ms": "x"}}"#).is_err());
        assert!(RuntimeConfig::from_json(r#"{"conn_idle_ms": 1.5}"#).is_err());
        assert!(
            RuntimeConfig::from_json(r#"{"modules": [{"name": "a", "deadline_ms": "x"}]}"#)
                .is_err()
        );
    }
}
