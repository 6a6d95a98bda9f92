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
//!
//! A usage error (an unknown flag, a flag without its value, a bad number
//! or listen address) prints the usage line and exits 2; a config the node
//! refuses prints why, in words, and exits 1.
//!
//! Config format (paths are relative to the config file):
//!
//! ```json
//! {
//!   "workers": 4,
//!   "quantum_us": 5000,
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

fn usage() -> ! {
    eprintln!(
        "usage: sledged <config.json> [listen-addr] [--deadline-ms N] [--run-for-s N] \
         [--drain-timeout-ms M]"
    );
    std::process::exit(2)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    // Split flags (`--name value`) from positional arguments.
    let mut positional = Vec::new();
    let mut deadline_ms: Option<u64> = None;
    let mut run_for_s: Option<u64> = None;
    let mut drain_timeout_ms: u64 = 5000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || -> u64 {
            let Some(v) = args.next() else {
                eprintln!("missing value for {arg}");
                usage()
            };
            v.parse().unwrap_or_else(|e| {
                eprintln!("bad number for {arg}: {v:?}: {e}");
                usage()
            })
        };
        match arg.as_str() {
            "--deadline-ms" => deadline_ms = Some(value()),
            "--run-for-s" => run_for_s = Some(value()),
            "--drain-timeout-ms" => drain_timeout_ms = value(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                usage()
            }
            _ => positional.push(arg),
        }
    }

    let Some(config_path) = positional.first() else {
        usage()
    };
    let listen: SocketAddr = positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("bad listen address: {e}");
            usage()
        });

    let text =
        std::fs::read_to_string(config_path).map_err(|e| format!("reading {config_path}: {e}"))?;
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
    let max_connections = config.max_connections;
    let pool_size = config.pool_size;
    let fairness = (config.fairness, config.max_inflight);
    let admin = config.admin_routes;
    let mut rt = Runtime::with_http(config, listen)?;
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
            // serving the rest (`/metrics` counts the rejection).
            Err(RegisterError::Capability(d)) => {
                eprintln!("module {name:?}: rejected by capability policy, skipping:");
                eprintln!("  {d}");
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

    let reg = rt.latency_report().registry;
    println!(
        "verified {} module(s): {} lint warning(s), {} cost-certified, {} compiled",
        reg.modules_verified, reg.lint_warnings, reg.cost_certified, reg.modules_compiled
    );
    println!(
        "capability policy: {} certified, {} rejected",
        reg.capability_certified, reg.capability_rejected
    );

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
        "  listener: max connections {}",
        if max_connections > 0 {
            max_connections.to_string()
        } else {
            "unlimited".into()
        }
    );
    match pool_size {
        0 => println!("  sandbox pool: off"),
        size => println!("  sandbox pool: {size} per function"),
    }
    println!(
        "  run queue: {}, max in-flight {}",
        if fairness.0 {
            "per-function lanes"
        } else {
            "one lane"
        },
        if fairness.1 > 0 {
            fairness.1.to_string()
        } else {
            "uncapped".into()
        }
    );
    if admin {
        println!("  admin: module ingest enabled (POST /admin/modules)");
    }

    match run_for_s {
        Some(secs) => {
            println!("serving for {secs} s, then draining.");
            std::thread::sleep(Duration::from_secs(secs));
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
                sledge_core::summary_line(&rt.latency_report())
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
