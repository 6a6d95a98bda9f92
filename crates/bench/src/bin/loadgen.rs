//! HTTP load generator for the listener front end.
//!
//! Two modes:
//!
//! * **External** — point it at a running `sledged`:
//!
//!   ```text
//!   loadgen --addr 127.0.0.1:8080 --route /echo --conns 8 --secs 5 \
//!           --pipeline 4 --idle-conns 0
//!   ```
//!
//!   Closed-loop keep-alive clients, optional pipelining depth, optional
//!   herd of idle connections parked on the listener, optional open-loop
//!   pacing (`--rate R` total requests/s). Prints a one-line summary and
//!   exits nonzero if any request failed.
//!
//! * **Sweep** (no `--addr`) — boots the runtime in-process once per cell
//!   and sweeps the idle-connection count: the epoll listener only touches
//!   ready sockets, so its keep-alive throughput and latency should stay
//!   flat as the parked herd grows. This regenerates `results/loadgen.txt`.

use sledge_bench::{fmt_dur, LatencyStats};
use sledge_core::{FunctionConfig, Runtime, RuntimeConfig};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_http::{format_request, ClientConfig, HttpClient};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Opts {
    addr: Option<SocketAddr>,
    route: String,
    conns: usize,
    secs: u64,
    pipeline: usize,
    idle_conns: usize,
    body: String,
    /// Target request rate (req/s) across all connections; 0 = closed loop
    /// (each connection re-fires as soon as its burst completes).
    rate: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: None,
            route: "/echo".into(),
            conns: 8,
            secs: 5,
            pipeline: 4,
            idle_conns: 0,
            body: "ping".into(),
            rate: 0,
        }
    }
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().collect();
    let mut o = Opts::default();
    let mut i = 1;
    let value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
            .clone()
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--addr" => o.addr = Some(value(&args, i, flag).parse().expect("--addr host:port")),
            "--route" => o.route = value(&args, i, flag),
            "--conns" => o.conns = value(&args, i, flag).parse().expect("--conns N"),
            "--secs" => o.secs = value(&args, i, flag).parse().expect("--secs N"),
            "--pipeline" => o.pipeline = value(&args, i, flag).parse().expect("--pipeline N"),
            "--idle-conns" => o.idle_conns = value(&args, i, flag).parse().expect("--idle-conns N"),
            "--body" => o.body = value(&args, i, flag),
            "--rate" => o.rate = value(&args, i, flag).parse().expect("--rate R"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if o.conns == 0 || o.pipeline == 0 {
        eprintln!("--conns and --pipeline must be positive");
        std::process::exit(2);
    }
    o
}

/// One run's aggregate: responses completed, failures, batch latencies.
struct RunResult {
    completed: u64,
    failed: u64,
    wall: Duration,
    latency: LatencyStats,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

/// Closed-loop keep-alive client loop: write `pipeline` requests in one
/// burst, read all responses, repeat until `stop`. Connection handling and
/// response parsing come from `sledge_http::HttpClient`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    route: &str,
    body: &str,
    pipeline: usize,
    interval: Duration,
    stop: &AtomicBool,
    completed: &AtomicU64,
    failed: &AtomicU64,
    samples: &mut Vec<Duration>,
) {
    let mut client = HttpClient::with_config(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    );
    let burst: Vec<u8> = format_request("POST", route, &[], body.as_bytes()).repeat(pipeline);
    // Open-loop pacing: fire a burst every `interval` regardless of how
    // long the previous one took (interval ZERO = closed loop).
    let mut next_fire = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        if !interval.is_zero() {
            let now = Instant::now();
            if now < next_fire {
                std::thread::sleep(next_fire - now);
            }
            next_fire += interval;
        }
        let t0 = Instant::now();
        if client.send_raw(&burst).is_err() {
            failed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for _ in 0..pipeline {
            match client.read_response() {
                Ok(resp) if resp.is_success() => {
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    failed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        samples.push(t0.elapsed());
    }
}

/// Run one closed-loop measurement against `addr`.
fn run_load(addr: SocketAddr, o: &Opts) -> RunResult {
    // Park the idle herd first; each socket connects and then never
    // speaks, so only a listener that touches idle sockets pays for it.
    let mut herd = Vec::with_capacity(o.idle_conns);
    for _ in 0..o.idle_conns {
        match TcpStream::connect(addr) {
            Ok(s) => herd.push(s),
            Err(e) => {
                eprintln!("idle connect failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    // Per-connection burst interval for open-loop mode: `rate` requests/s
    // spread across `conns` connections firing `pipeline` requests a burst.
    let interval = if o.rate > 0 {
        Duration::from_secs_f64(o.conns as f64 * o.pipeline as f64 / o.rate as f64)
    } else {
        Duration::ZERO
    };
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for _ in 0..o.conns {
        let (stop, completed, failed) = (stop.clone(), completed.clone(), failed.clone());
        let (route, body, pipeline) = (o.route.clone(), o.body.clone(), o.pipeline);
        workers.push(std::thread::spawn(move || {
            let mut samples = Vec::new();
            client_loop(
                addr,
                &route,
                &body,
                pipeline,
                interval,
                &stop,
                &completed,
                &failed,
                &mut samples,
            );
            samples
        }));
    }
    std::thread::sleep(Duration::from_secs(o.secs));
    stop.store(true, Ordering::Relaxed);
    let mut samples = Vec::new();
    for w in workers {
        samples.extend(w.join().expect("client thread"));
    }
    let wall = t0.elapsed();
    drop(herd);
    if samples.is_empty() {
        samples.push(wall);
    }
    RunResult {
        completed: completed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        wall,
        latency: LatencyStats::from_samples(samples),
    }
}

/// Echo guest (request body copied back) for the self-hosted sweep.
fn echo_guest() -> Module {
    let mut mb = ModuleBuilder::new("echo");
    mb.memory(2, Some(64));
    let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
    let req_read = mb.import_func(
        "env",
        "request_read",
        &[ValType::I32, ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let resp_write = mb.import_func(
        "env",
        "response_write",
        &[ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let n = f.local(ValType::I32);
    f.extend([
        set(n, call(req_len, vec![])),
        exec(call(req_read, vec![i32c(0), local(n), i32c(0)])),
        exec(call(resp_write, vec![i32c(0), local(n)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

fn boot_runtime() -> Runtime {
    let rt = Runtime::with_http(
        RuntimeConfig {
            workers: 2,
            quantum: Duration::from_millis(5),
            // Idle reaping off: the parked herd must stay parked.
            conn_idle: Duration::ZERO,
            ..Default::default()
        },
        "127.0.0.1:0".parse().unwrap(),
    )
    .expect("bind http");
    rt.register_module(FunctionConfig::new("echo"), &echo_guest())
        .expect("register echo");
    rt
}

fn sweep_mode(base: &Opts) {
    // A mostly-idle keep-alive herd is the edge steady state this listener
    // is built for. Few active conns + shallow pipelining keep the work per
    // wake-up small, so any per-idle-socket cost would show.
    let idle_points = [0usize, 1024, 4096, 6144];
    let conns = 4.min(base.conns);
    let pipeline = 2.min(base.pipeline);
    println!(
        "idle-connection sweep — {conns} active conns, pipeline {pipeline}, {}s per cell",
        base.secs
    );
    println!();
    println!(
        "{:>10} {:>12} {:>10} {:>10}",
        "idle conns", "req/s", "p50", "p99"
    );
    for &idle in &idle_points {
        let rt = boot_runtime();
        let addr = rt.http_addr().expect("http addr");
        let o = Opts {
            addr: Some(addr),
            route: base.route.clone(),
            conns,
            secs: base.secs,
            pipeline,
            idle_conns: idle,
            body: base.body.clone(),
            rate: base.rate,
        };
        let r = run_load(addr, &o);
        println!(
            "{:>10} {:>12.0} {:>10} {:>10}",
            idle,
            r.throughput(),
            fmt_dur(r.latency.p50),
            fmt_dur(r.latency.p99),
        );
        if r.failed > 0 {
            eprintln!("idle {idle}: {} failed requests", r.failed);
            std::process::exit(1);
        }
        rt.shutdown();
    }
}

fn main() {
    let o = parse_args();
    match o.addr {
        Some(addr) => {
            let r = run_load(addr, &o);
            println!(
                "{} requests in {} ({:.0} req/s), {} failed | p50 {} p99 {} max {} (per burst of {})",
                r.completed,
                fmt_dur(r.wall),
                r.throughput(),
                r.failed,
                fmt_dur(r.latency.p50),
                fmt_dur(r.latency.p99),
                fmt_dur(r.latency.max),
                o.pipeline,
            );
            if r.failed > 0 {
                std::process::exit(1);
            }
        }
        None => sweep_mode(&o),
    }
}
