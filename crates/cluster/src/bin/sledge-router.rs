//! sledge-router — the cluster routing tier.
//!
//! Boots a consistent-hash router over a set of `sledged` nodes,
//! optionally pushes certificate-carrying module artifacts to every node,
//! then serves until interrupted (or for `--run-for-s` seconds).
//!
//! ```text
//! sledge-router --listen 127.0.0.1:8090 \
//!     --node a=127.0.0.1:8081 --node b=127.0.0.1:8082 --node c=127.0.0.1:8083 \
//!     --module fixtures/echo.json=fixtures/echo.wasm
//! ```

use sledge_cluster::{artifact_from_wasm, Router, RouterConfig};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    listen: SocketAddr,
    nodes: Vec<(String, SocketAddr)>,
    /// `(config.json path, module.wasm path)` pairs to distribute at boot.
    modules: Vec<(String, String)>,
    config: RouterConfig,
    run_for: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sledge-router --listen ADDR --node NAME=ADDR [--node NAME=ADDR ...]\n\
         \x20      [--module CONFIG.json=MODULE.wasm ...] [--replicas N] [--vnodes V]\n\
         \x20      [--seed S] [--probe-ms MS] [--workers N] [--no-locality]\n\
         \x20      [--run-for-s SECS]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:8090".parse().expect("default listen addr"),
        nodes: Vec::new(),
        modules: Vec::new(),
        config: RouterConfig::default(),
        run_for: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => {
                args.listen = value("--listen").parse().unwrap_or_else(|e| {
                    eprintln!("bad --listen: {e}");
                    usage()
                });
            }
            "--node" => {
                let v = value("--node");
                let Some((name, addr)) = v.split_once('=') else {
                    eprintln!("--node wants NAME=ADDR, got {v:?}");
                    usage()
                };
                let addr: SocketAddr = addr.parse().unwrap_or_else(|e| {
                    eprintln!("bad node address {addr:?}: {e}");
                    usage()
                });
                args.nodes.push((name.to_string(), addr));
            }
            "--module" => {
                let v = value("--module");
                let Some((cfg, wasm)) = v.split_once('=') else {
                    eprintln!("--module wants CONFIG.json=MODULE.wasm, got {v:?}");
                    usage()
                };
                args.modules.push((cfg.to_string(), wasm.to_string()));
            }
            "--replicas" => args.config.replicas = parse_num(&value("--replicas")),
            "--vnodes" => args.config.vnodes = parse_num(&value("--vnodes")),
            "--seed" => args.config.seed = parse_num(&value("--seed")) as u64,
            "--workers" => args.config.workers = parse_num(&value("--workers")),
            "--probe-ms" => {
                args.config.probe_interval =
                    Duration::from_millis(parse_num(&value("--probe-ms")) as u64);
            }
            "--no-locality" => args.config.locality = false,
            "--run-for-s" => {
                args.run_for = Some(Duration::from_secs(parse_num(&value("--run-for-s")) as u64));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.nodes.is_empty() {
        eprintln!("at least one --node is required");
        usage()
    }
    args
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|e| {
        eprintln!("bad number {s:?}: {e}");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let router = match Router::start(args.config.clone(), args.nodes.clone(), args.listen) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sledge-router: bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };

    println!("sledge-router listening on {}", router.addr());
    println!(
        "  ring: {} nodes, {} vnodes, {} replicas, seed {:#x}",
        args.nodes.len(),
        args.config.vnodes,
        args.config.replicas,
        args.config.seed
    );
    for (name, addr) in &args.nodes {
        println!("  node: {name} at {addr}");
    }

    let mut push_failures = 0usize;
    for (cfg_path, wasm_path) in &args.modules {
        let config_json = match std::fs::read_to_string(cfg_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sledge-router: read {cfg_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wasm = match std::fs::read(wasm_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sledge-router: read {wasm_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let artifact = match artifact_from_wasm(&wasm) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("sledge-router: compile {wasm_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  module: {wasm_path} -> {} byte certificate-carrying artifact",
            artifact.len()
        );
        for push in router.distribute(&config_json, &artifact) {
            match push.result {
                Ok(_) => println!("    {}: ok", push.node),
                Err(e) => {
                    push_failures += 1;
                    eprintln!("    {}: REJECTED ({e})", push.node);
                }
            }
        }
    }
    if !args.modules.is_empty() && push_failures == args.nodes.len() * args.modules.len() {
        eprintln!("sledge-router: every node rejected every module");
        return ExitCode::FAILURE;
    }

    match args.run_for {
        Some(d) => std::thread::sleep(d),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let stats = router.stats();
    println!(
        "sledge-router: routed {} (retried {}, failed over {}, steered {}, failed {})",
        stats.routed, stats.retried, stats.failed_over, stats.steered, stats.failed
    );
    router.shutdown();
    ExitCode::SUCCESS
}
