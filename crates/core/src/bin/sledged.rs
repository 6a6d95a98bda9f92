//! `sledged` — the standalone Sledge server: load a JSON configuration
//! naming `.wasm` modules (as the paper's runtime does), bind the HTTP
//! front end, and serve until killed.
//!
//! Usage: `sledged <config.json> [listen-addr] [flags]`
//!
//! Flags:
//!
//! * `--deadline-ms N` — override the runtime-wide execution deadline.
//! * `--run-for-s N` — serve for N seconds, then drain gracefully and exit
//!   (useful for scripted benchmarks and chaos runs).
//! * `--drain-timeout-ms M` — budget for the graceful drain on exit
//!   (default 5000 ms; past it the backlog is killed with 504s).
//! * `--stats-interval-s N` — print a one-line latency/outcome summary
//!   every N seconds (the same data `GET /metrics` serves).
//!
//! Config format (paths are relative to the config file):
//!
//! ```json
//! {
//!   "workers": 4,
//!   "quantum_us": 5000,
//!   "bounds": "vm-guard",
//!   "deadline_ms": 250,
//!   "circuit_breaker": {"threshold": 5, "cooldown_ms": 1000},
//!   "conn_idle_ms": 10000,
//!   "modules": [
//!     {"name": "echo", "wasm": "echo.wasm", "route": "/echo", "deadline_ms": 50}
//!   ]
//! }
//! ```

use sledge_core::{parse_json, FunctionConfig, Json, RegisterError, Runtime, RuntimeConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();

    // Split flags (`--name value`) from positional arguments.
    let mut positional = Vec::new();
    let mut deadline_ms: Option<u64> = None;
    let mut run_for_s: Option<u64> = None;
    let mut drain_timeout_ms: u64 = 5000;
    let mut stats_interval_s: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<u64, Box<dyn std::error::Error>> {
            let flag = args[*i].clone();
            *i += 1;
            let v = args
                .get(*i)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            Ok(v.parse::<u64>().map_err(|e| format!("{flag}: {e}"))?)
        };
        match args[i].as_str() {
            "--deadline-ms" => deadline_ms = Some(take_value(&mut i)?),
            "--run-for-s" => run_for_s = Some(take_value(&mut i)?),
            "--drain-timeout-ms" => drain_timeout_ms = take_value(&mut i)?,
            "--stats-interval-s" => stats_interval_s = Some(take_value(&mut i)?),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}").into());
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }

    let Some(config_path) = positional.first() else {
        eprintln!("usage: sledged <config.json> [listen-addr] [--deadline-ms N] [--run-for-s N] [--drain-timeout-ms M] [--stats-interval-s N]");
        std::process::exit(2);
    };
    let listen: SocketAddr = positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080")
        .parse()?;

    let text = std::fs::read_to_string(config_path)?;
    let (mut config, functions) = RuntimeConfig::from_json(&text)?;
    if let Some(ms) = deadline_ms {
        config.deadline = Some(Duration::from_millis(ms));
    }
    let base = std::path::Path::new(config_path)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();

    // Re-parse to pull each module's "wasm" path (FunctionConfig carries the
    // runtime-facing fields; the binary location is sledged's concern).
    let doc = parse_json(&text)?;
    let module_paths: Vec<Option<String>> = doc
        .get("modules")
        .and_then(Json::as_array)
        .map(|mods| {
            mods.iter()
                .map(|m| m.get("wasm").and_then(Json::as_str).map(str::to_string))
                .collect()
        })
        .unwrap_or_default();

    let deadline = config.deadline;
    let breaker = config.circuit_breaker;
    let conn_idle = config.conn_idle;
    let listener = (config.reactor, config.max_connections);
    let faults = config.fault_plan.is_some();
    let pool = (config.pool_size, config.prewarm, config.recycle);
    let fairness = (config.fairness, config.max_inflight);
    let admin = config.admin_routes;
    let rt = Runtime::with_http(config, listen)?;
    let mut loaded = 0usize;
    for (fc, wasm_rel) in functions.into_iter().zip(module_paths) {
        let Some(rel) = wasm_rel else {
            eprintln!("module {:?}: missing \"wasm\" path, skipping", fc.name);
            continue;
        };
        let path = base.join(rel);
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let route = fc.http_route();
        let name = fc.name.clone();
        match rt.register_wasm(FunctionConfig { ..fc }, &bytes) {
            Ok(_) => {}
            // A capability-policy rejection is an operator decision, not a
            // deployment error: report it cleanly, skip the module, and keep
            // serving the rest (the /stats counter records the rejection).
            Err(RegisterError::Capability(diags)) => {
                eprintln!("module {name:?}: rejected by capability policy, skipping:");
                for d in diags {
                    eprintln!("  {d}");
                }
                continue;
            }
            Err(e) => return Err(format!("registering {name}: {e}").into()),
        }
        println!(
            "loaded {:<12} {:>8} bytes  ->  POST {route}",
            name,
            bytes.len()
        );
        loaded += 1;
    }

    let reg = rt.registry_stats();
    println!(
        "verified {} module(s): {} lint warning(s), {} cost-certified",
        reg.modules_verified, reg.lint_warnings, reg.cost_certified
    );
    // Printed only when at least one module carried a capability policy, so a
    // policy-free deployment's banner is byte-identical to earlier releases.
    if reg.capability_certified + reg.capability_rejected > 0 {
        println!(
            "capability policy: {} certified, {} rejected",
            reg.capability_certified, reg.capability_rejected
        );
    }

    println!(
        "sledged serving on http://{} ({loaded} functions)",
        rt.http_addr().expect("http bound"),
    );
    match deadline {
        Some(d) => println!("  deadline: {} ms", d.as_millis()),
        None => println!("  deadline: none"),
    }
    match breaker {
        Some(cb) => println!(
            "  circuit breaker: threshold {} / cooldown {} ms",
            cb.threshold,
            cb.cooldown.as_millis()
        ),
        None => println!("  circuit breaker: off"),
    }
    println!("  idle connection timeout: {} ms", conn_idle.as_millis());
    println!(
        "  listener: {} backend, max connections {}",
        if listener.0 { "reactor" } else { "poll" },
        if listener.1 > 0 {
            listener.1.to_string()
        } else {
            "unlimited".into()
        }
    );
    if pool.0 > 0 {
        println!(
            "  sandbox pool: {} per function, prewarm {}, recycle {}",
            pool.0,
            pool.1,
            if pool.2 { "on" } else { "off" }
        );
    }
    if fairness.0 || fairness.1 > 0 {
        println!(
            "  fairness: dwrr {}, max in-flight {}",
            if fairness.0 { "on" } else { "off" },
            if fairness.1 > 0 {
                fairness.1.to_string()
            } else {
                "uncapped".into()
            }
        );
    }
    if admin {
        println!("  admin: module ingest enabled (POST /admin/modules)");
    }
    if faults {
        println!("  FAULT INJECTION ACTIVE (chaos configuration)");
    }

    if let Some(secs) = stats_interval_s.filter(|s| *s > 0) {
        // Periodic one-line reporter, detached: it reads metrics through a
        // cheap handle and dies with the process.
        let handle = rt.metrics_handle();
        std::thread::Builder::new()
            .name("sledged-stats".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_secs(secs));
                let report = handle.latency_report();
                let stats = handle.stats();
                println!("[stats] {}", sledge_core::summary_line(&report, &stats));
            })?;
        println!("  stats summary every {secs} s");
    }

    match run_for_s {
        Some(secs) => {
            println!("serving for {secs} s, then draining.");
            std::thread::sleep(Duration::from_secs(secs));
            let handle = rt.metrics_handle();
            let drained = rt.shutdown_drain(Duration::from_millis(drain_timeout_ms));
            println!(
                "drain {}",
                if drained {
                    "completed"
                } else {
                    "timed out (backlog killed)"
                }
            );
            println!(
                "[final] {}",
                sledge_core::summary_line(&handle.latency_report(), &handle.stats())
            );
            Ok(())
        }
        None => {
            println!("Ctrl-C to stop.");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}
