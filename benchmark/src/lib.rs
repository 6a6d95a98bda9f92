//! The request-path ledger: boots real Sledge nodes in-process, drives them
//! over loopback TCP, and reports end-to-end metrics (untraced binary) or the
//! per-layer ladder (traced binary). `../README.md` has the metric dictionary.

pub mod layers;
pub mod ledger;
pub mod load;
pub mod proc;
pub mod rng;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod wire;

use ledger::{Ledger, MANY};
use load::{Phase, Plan, Prepared};
use stack::Workload;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use trace::SpanId;

/// Segments per phase; each reported value is the median across them.
const SEGMENTS: usize = 10;
/// Connections (and client threads) of the closed-loop phase.
const SAT_CONNS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Length of the window `proc.idle_cpu_pct` is taken over.
const IDLE_WINDOW: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// Internal: the traced binary runs the untraced one this way to get the
    /// base of `trace.overhead_pct`.
    sparse_only: bool,
    /// Where the traced run writes its span file.
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut sparse_only = false;
    let mut out = PathBuf::from("out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--sparse-only" => sparse_only = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        sparse_only,
        out,
    })
}

/// Entry point of both binaries.
pub fn main(traced: bool) -> ExitCode {
    // Shipped defaults are what is measured: no knob leaks in from the
    // environment. No other thread exists yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SLEDGE_") {
            std::env::remove_var(key);
        }
    }
    if std::env::args().nth(1).as_deref() == Some("--spin") {
        spin();
    }
    let result = parse_args().and_then(|args| {
        let run = if traced { run_traced } else { run_untraced };
        run(&args).map_err(|e| format!("{}: {e}", args.workload.name()))
    });
    match result {
        Ok(ledger) => {
            println!("{}", ledger.to_json(ledger.failed == 0));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One niced spinner process per core, alive as long as this value: the
/// user-space form of booting with `idle=poll`. Held while a phase or a
/// ladder rung runs, not during set-up or the call-timing loops, which never
/// sleep and which a spinner on the sibling hyperthread slows by a third.
///
/// On this Firecracker guest a timer or a wake-up that finds its vCPU halted
/// pays the host's wake-up path, 30 to 200 µs depending on what the host is
/// doing that minute, on a request path of 250 µs made of exactly such
/// wake-ups. With the vCPUs kept running, a woken thread only has to preempt
/// a nice-19 task. Processes, not threads, so that `proc.*` (which is
/// `getrusage` of this process) does not count them.
struct HotCpus(Vec<std::process::Child>);

impl HotCpus {
    fn start() -> io::Result<Self> {
        let exe = std::env::current_exe()?;
        let cores = std::thread::available_parallelism()?.get();
        let mut hot = HotCpus(Vec::new());
        for _ in 0..cores {
            let child = std::process::Command::new(&exe)
                .arg("--spin")
                .stdin(std::process::Stdio::piped())
                .spawn()?;
            hot.0.push(child);
        }
        Ok(hot)
    }
}

impl Drop for HotCpus {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The spinner process: lowest priority, until killed or orphaned.
fn spin() -> ! {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    // SAFETY: plain integers in, an integer out; PRIO_PROCESS (0) with `who`
    // 0 means the calling thread on Linux, and 19 is a valid nice value.
    let _ = unsafe { setpriority(0, 0, 19) };
    // The parent holds the other end of stdin and never writes: a read that
    // returns means the parent is gone, however it went.
    std::thread::spawn(|| {
        let _ = io::stdin().read(&mut [0]);
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}

/// Count a phase's operations, report its first failure, and when traced add
/// its spans: the phase, its segments, and every correct exchange under the
/// segment it belongs to.
fn record_phase(
    ledger: &mut Ledger,
    parent: Option<SpanId>,
    name: &str,
    request: &str,
    phase: &Phase,
) {
    ledger.attempted += phase.attempted;
    ledger.failed += phase.failed;
    if let Some(what) = &phase.first_failure {
        eprintln!(
            "benchmark: {name}: {} of {} failed, first: {what}",
            phase.failed, phase.attempted
        );
    }
    let Some(tracer) = ledger.tracer.as_mut() else {
        return;
    };
    let seg_ns = phase.segment_len.as_nanos() as u64;
    let end_ns = phase.start_ns + seg_ns * phase.segments as u64;
    let phase_span = tracer.add(&Arc::from(name), phase.start_ns, end_ns, parent, None);
    let segment_name: Arc<str> = Arc::from(format!("{name}.segment"));
    let segments: Vec<SpanId> = (0..phase.segments as u64)
        .map(|i| {
            let start = phase.start_ns + i * seg_ns;
            tracer.add(&segment_name, start, start + seg_ns, Some(phase_span), None)
        })
        .collect();
    let request: Arc<str> = Arc::from(request);
    for (id, x) in phase.exchanges.iter().enumerate() {
        tracer.add(
            &request,
            x.start_ns,
            x.end_ns,
            Some(segments[x.segment]),
            Some(id as u64),
        );
    }
}

/// Where and how hard an open-loop phase sends.
struct Sparse<'a> {
    addr: SocketAddr,
    plan: &'a Plan,
    rate: f64,
    segment_len: Duration,
    seed: u64,
}

impl Sparse<'_> {
    /// A two-segment warm-up, then the measured phase, recorded as
    /// `<name>.warmup` and `<name>`; also the process-wide usage over the
    /// measured phase. The warm-up is open-loop at the same rate, so that a
    /// node's own histograms see nothing but sparse arrivals until something
    /// else is sent.
    fn run(
        &self,
        ledger: &mut Ledger,
        parent: Option<SpanId>,
        name: &str,
        request: &str,
    ) -> io::Result<(Phase, proc::Usage, proc::Usage)> {
        let open_loop = |segments, jitter_seed| {
            load::open_loop(
                self.addr,
                self.plan,
                self.rate,
                self.segment_len,
                segments,
                ledger.epoch,
                jitter_seed,
            )
        };
        let warm = open_loop(2, !self.seed)?;
        let before = proc::usage();
        let phase = open_loop(SEGMENTS, self.seed)?;
        let after = proc::usage();
        record_phase(ledger, parent, &format!("{name}.warmup"), request, &warm);
        record_phase(ledger, parent, name, request, &phase);
        Ok((phase, before, after))
    }
}

/// What a workload's phases run against.
struct Target<'a> {
    workload: Workload,
    addr: SocketAddr,
    plan: &'a Plan,
    segment_len: Duration,
    seed: u64,
}

impl Target<'_> {
    fn request_span(&self) -> String {
        format!("{}.request", self.workload.name())
    }

    /// The open-loop phase at the workload's sparse rate.
    fn sparse(
        &self,
        ledger: &mut Ledger,
        parent: Option<SpanId>,
    ) -> io::Result<(Phase, proc::Usage, proc::Usage)> {
        Sparse {
            addr: self.addr,
            plan: self.plan,
            rate: self.workload.sparse_rate(),
            segment_len: self.segment_len,
            seed: self.seed,
        }
        .run(ledger, parent, "sparse", &self.request_span())
    }

    /// The closed-loop phase.
    fn sat(&self, ledger: &mut Ledger, parent: Option<SpanId>) -> io::Result<Phase> {
        let sat = load::closed_loop(
            self.addr,
            self.plan,
            SAT_CONNS,
            self.segment_len,
            SEGMENTS,
            ledger.epoch,
            self.seed,
        )?;
        record_phase(ledger, parent, "sat", &self.request_span(), &sat);
        Ok(sat)
    }
}

fn need(value: Option<f64>, what: &str) -> io::Result<f64> {
    value.ok_or_else(|| io::Error::other(format!("no correct exchange to take {what} from")))
}

fn sparse_p50_us(sparse: &Phase) -> io::Result<f64> {
    Ok(need(
        stats::segment_median(&sparse.latencies(), 0.5),
        "sparse_p50_us",
    )? / 1e3)
}

/// The untraced run: set up, run the phases, note the peak footprint, then set
/// up `SETUP_REPS - 1` more times for the median. The phases come first so
/// that `peak_rss_mib` is one stack's footprint, not what eleven leave behind.
fn run_untraced(args: &Args) -> Result<Ledger, io::Error> {
    let mut ledger = Ledger::new(false);
    let setup = stack::setup(args.workload, args.seed)?;
    let mut setup_s = vec![setup.setup_s];

    let target = Target {
        workload: args.workload,
        addr: setup.stack.addr,
        plan: &setup.plan,
        segment_len: Duration::from_secs_f64(args.seconds / (2 * SEGMENTS) as f64),
        seed: args.seed,
    };
    let hot = HotCpus::start()?;
    let phases = target.sparse(&mut ledger, None).and_then(|(sparse, _, _)| {
        let sat = if args.sparse_only {
            None
        } else {
            Some(target.sat(&mut ledger, None)?)
        };
        Ok((sparse, sat))
    });
    drop(hot);
    let peak_rss_kib = proc::vm_hwm_kib();
    setup.stack.shutdown();
    let (sparse, sat) = phases?;

    let reps = if args.sparse_only { 1 } else { SETUP_REPS };
    for _ in 1..reps {
        let again = stack::setup(args.workload, args.seed)?;
        setup_s.push(again.setup_s);
        again.stack.shutdown();
    }
    ledger.attempted += reps as u64;

    ledger.put(
        "setup_s",
        stats::median(&setup_s).expect("at least one set-up"),
        "s",
    );
    ledger.put("sparse_p50_us", sparse_p50_us(&sparse)?, "us");
    if let Some(sat) = &sat {
        ledger.put(
            "sat_req_per_s",
            need(stats::median(&sat.rates()), "sat_req_per_s")?,
            "req/s",
        );
    }
    ledger.put("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB");
    Ok(ledger)
}

/// Run the untraced binary beside this one on the sparse phase alone, with
/// this run's segment length, and return its `sparse_p50_us`.
fn untraced_sparse_p50_us(args: &Args) -> io::Result<f64> {
    let exe = std::env::current_exe()?.with_file_name("bench");
    let out = std::process::Command::new(&exe)
        .args(["--workload", args.workload.name(), "--sparse-only"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / 2.0).to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = sledge_core::parse_json(stdout.lines().last().unwrap_or(""))
        .ok()
        .filter(|_| out.status.success())
        .and_then(|json| {
            json.get("metrics")?
                .get("sparse_p50_us")?
                .get("value")?
                .as_f64()
        });
    value.ok_or_else(|| io::Error::other(format!("{} did not report sparse_p50_us", exe.display())))
}

/// A peer that knows no HTTP: for every `request_len` bytes it has read it
/// writes `reply`. What the client measures against it is the loopback and
/// the generator, the bottom rung of the ladder.
fn loopback_peer(
    request_len: usize,
    reply: Vec<u8>,
) -> io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        // One connection per phase, until the listener is poked to stop.
        while let Ok((mut conn, _)) = listener.accept() {
            let _ = conn.set_nodelay(true);
            let mut buf = [0u8; 4096];
            let mut pending = 0;
            let mut served = false;
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => pending += n,
                }
                while pending >= request_len {
                    pending -= request_len;
                    served = true;
                    if conn.write_all(&reply).is_err() {
                        break;
                    }
                }
            }
            if !served {
                return;
            }
        }
    });
    Ok((addr, handle))
}

/// One rung: a short sparse phase at ping's rate against `addr`; the median
/// across segments of the per-segment p50, in µs.
fn rung(
    ledger: &mut Ledger,
    parent: Option<SpanId>,
    name: &str,
    addr: SocketAddr,
    plan: &Plan,
    segment_len: Duration,
    seed: u64,
) -> io::Result<f64> {
    let sparse = Sparse {
        addr,
        plan,
        rate: Workload::Ping.sparse_rate(),
        segment_len,
        seed,
    };
    let (phase, _, _) = sparse.run(ledger, parent, name, &format!("{name}.request"))?;
    Ok(need(stats::segment_median(&phase.latencies(), 0.5), name)? / 1e3)
}

/// What `Runtime::invoke().wait()` needs to run `workload`'s guest for tenant
/// 0 on `node`: the function, the seeded body and the native twin's output.
fn in_process(
    node: &sledge_core::Runtime,
    workload: Workload,
    seed: u64,
    guests: &[stack::Guest],
) -> io::Result<(sledge_core::FunctionId, Vec<u8>, Vec<u8>)> {
    let name = stack::function_name(0, workload.guest());
    let id = node
        .function_by_name(&name)
        .ok_or_else(|| io::Error::other(format!("{name} is not registered")))?;
    let body = stack::request_body(workload, &mut rng::Rng::new(seed));
    let guest = guests.iter().find(|g| g.name == workload.guest());
    let native = guest
        .and_then(|g| g.native)
        .expect("workload guests have a native twin");
    let expected = native(&body);
    Ok((id, body, expected))
}

fn is_success(completion: &Option<sledge_core::Completion>, expected: &[u8]) -> bool {
    matches!(
        completion.as_ref().map(|c| &c.outcome),
        Some(sledge_core::Outcome::Success(body)) if body == expected
    )
}

/// A rung without sockets: `Runtime::invoke().wait()` on `node` at the
/// workload's sparse rate, as the sparse phase arrives over HTTP; the median
/// across segments of the per-segment p50, in µs.
fn invoke_rung(
    ledger: &mut Ledger,
    parent: Option<SpanId>,
    node: &sledge_core::Runtime,
    workload: Workload,
    seed: u64,
    guests: &[stack::Guest],
    segment_len: Duration,
) -> io::Result<f64> {
    let (id, body, expected) = in_process(node, workload, seed, guests)?;
    let name = format!("core.invoke.{}", workload.name());
    // At least three calls to a segment, whatever the rate.
    let segment_len = segment_len.max(Duration::from_secs_f64(3.0 / workload.sparse_rate()));
    let phase = |segments, jitter_seed| {
        load::paced_calls(
            workload.sparse_rate(),
            segment_len,
            segments,
            ledger.epoch,
            jitter_seed,
            || body.clone(),
            |body| is_success(&node.invoke(id, body).wait(), &expected),
        )
    };
    let warm = phase(2, !seed);
    let measured = phase(SEGMENTS, seed);
    record_phase(
        ledger,
        parent,
        &format!("{name}.warmup"),
        &format!("{name}.call"),
        &warm,
    );
    record_phase(ledger, parent, &name, &format!("{name}.call"), &measured);
    Ok(need(stats::segment_median(&measured.latencies(), 0.5), &name)? / 1e3)
}

/// Allocator calls and bytes requested per `Runtime::invoke().wait()`, back to
/// back on `node`; both 0 unless the counting allocator is installed.
fn invoke_allocs(
    ledger: &mut Ledger,
    parent: Option<SpanId>,
    node: &sledge_core::Runtime,
    workload: Workload,
    seed: u64,
    guests: &[stack::Guest],
) -> io::Result<(f64, f64)> {
    let (id, body, expected) = in_process(node, workload, seed, guests)?;
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let calls = ledger.time_calls(
        &format!("proc.allocs.{}", workload.name()),
        parent,
        MANY,
        || body.clone(),
        |body| {
            let (a0, b0) = trace::alloc_counters();
            let completion = node.invoke(id, body).wait();
            let (a1, b1) = trace::alloc_counters();
            allocs += a1 - a0;
            bytes += b1 - b0;
            assert!(
                is_success(&completion, &expected),
                "in-process invocation failed"
            );
            completion
        },
    );
    let calls = calls.len() as f64;
    Ok((allocs as f64 / calls, bytes as f64 / calls))
}

/// The ladder: the same 200 req/s sparse phase against a bare TCP peer, a
/// node's `/healthz`, a node's ping route, and ping through the router, on
/// full-size stacks of its own, so every traced run measures it alike.
fn ladder(
    ledger: &mut Ledger,
    parent: Option<SpanId>,
    seed: u64,
    guests: &[stack::Guest],
    segment_len: Duration,
) -> io::Result<()> {
    let functions = (guests.len() * stack::TENANTS) as f64;
    let ping = stack::plan(Workload::Ping, seed, guests);

    let span = ledger.open("ladder.direct", parent);
    let (direct, register_s) = stack::boot_direct(guests)?;
    ledger.put(
        "core.register_ms_per_module",
        register_s * 1e3 / functions,
        "ms",
    );
    let hot = HotCpus::start()?;
    let result = (|| {
        let reply = sledge_http::Response::ok(ping.requests[0].expected.clone()).to_bytes();
        let (peer_addr, peer) = loopback_peer(ping.requests[0].bytes.len(), reply)?;
        let rtt = rung(
            ledger,
            span,
            "env.loopback",
            peer_addr,
            &ping,
            segment_len,
            seed,
        );
        // A connection that sends nothing tells the peer to stop.
        drop(std::net::TcpStream::connect(peer_addr));
        peer.join().expect("loopback peer panicked");
        ledger.put("env.loopback_rtt_us", rtt?, "us");

        let healthz = Plan {
            requests: vec![Prepared {
                bytes: sledge_http::format_request("GET", "/healthz", &[], &[]),
                expected: b"ok".to_vec(),
            }],
            order: vec![0],
        };
        let us = rung(
            ledger,
            span,
            "core.healthz",
            direct.addr,
            &healthz,
            segment_len,
            seed,
        )?;
        ledger.put("core.healthz_p50_us", us, "us");
        let us = rung(ledger, span, "ping", direct.addr, &ping, segment_len, seed)?;
        ledger.put("ping.sparse_p50_us", us, "us");

        for w in [Workload::Ping, Workload::Echo64k, Workload::Cifar10] {
            let us = invoke_rung(ledger, span, &direct.nodes[0], w, seed, guests, segment_len)?;
            ledger.put(format!("core.invoke_p50_us.{}", w.name()), us, "us");
        }
        Ok::<(), io::Error>(())
    })();
    drop(hot);
    direct.shutdown();
    ledger.close(span);
    result?;

    let span = ledger.open("ladder.routed", parent);
    let (routed, distribute_s) = stack::boot_routed(guests)?;
    ledger.put(
        "cluster.distribute_ms_per_module",
        distribute_s * 1e3 / functions,
        "ms",
    );
    let hot = HotCpus::start()?;
    let us = rung(
        ledger,
        span,
        "ping_routed",
        routed.addr,
        &ping,
        segment_len,
        seed,
    );
    drop(hot);
    routed.shutdown();
    ledger.close(span);
    ledger.put("ping_routed.sparse_p50_us", us?, "us");
    // Base: ping.sparse_p50_us of this same ladder.
    let hop = ledger.get("ping_routed.sparse_p50_us") - ledger.get("ping.sparse_p50_us");
    ledger.put("cluster.hop_p50_us", hop, "us");
    Ok(())
}

/// The traced run: the workload once with spans, then the ladder and the
/// socket-free layer loops.
fn run_traced(args: &Args) -> Result<Ledger, io::Error> {
    let (steal0, jiffies0) = proc::cpu_jiffies();
    let untraced_p50 = untraced_sparse_p50_us(args)?;

    let mut ledger = Ledger::new(true);
    let root = ledger.open("run", None);
    let workload = args.workload;
    let segment_len = Duration::from_secs_f64(args.seconds / (4 * SEGMENTS) as f64);

    let span = ledger.open("setup", root);
    let setup = stack::setup(workload, args.seed)?;
    ledger.close(span);
    ledger.attempted += 1;

    let guests = stack::catalogue();
    let span = ledger.open("workload", root);
    let hot = HotCpus::start()?;
    let on_stack = (|| {
        let target = Target {
            workload,
            addr: setup.stack.addr,
            plan: &setup.plan,
            segment_len,
            seed: args.seed,
        };
        let (sparse_phase, before, after) = target.sparse(&mut ledger, span)?;
        // The nodes' own phase histograms, read before the sat phase blurs
        // them; merged over the nodes of a routed stack.
        let mut global = sledge_core::PhaseSnapshot::default();
        for node in &setup.stack.nodes {
            global.merge(&node.latency_report().global);
        }
        let sat = target.sat(&mut ledger, span)?;

        let (sparse, sat) = (sparse_phase.latencies(), sat.latencies());
        for (name, q) in [
            ("client.sparse_p50_us", 0.5),
            ("client.sparse_p90_us", 0.9),
            ("client.sparse_p99_us", 0.99),
        ] {
            ledger.put(
                name,
                need(stats::segment_median(&sparse, q), name)? / 1e3,
                "us",
            );
        }
        for (name, q) in [("client.sat_p50_us", 0.5), ("client.sat_p99_us", 0.99)] {
            ledger.put(
                name,
                need(stats::segment_median(&sat, q), name)? / 1e3,
                "us",
            );
        }
        ledger.put(
            "client.late_p99_us",
            stats::percentile_of(&sparse_phase.late_ns, 0.99) as f64 / 1e3,
            "us",
        );
        // Base: the untraced binary's sparse_p50_us, same seed and segments.
        ledger.put(
            "trace.overhead_pct",
            (ledger.get("client.sparse_p50_us") / untraced_p50 - 1.0) * 100.0,
            "%",
        );

        // Whole process, generator threads included, over the sparse phase.
        let requests = sparse_phase.attempted as f64;
        ledger.put(
            "proc.ctx_switches_per_req",
            (after.ctx_switches - before.ctx_switches) as f64 / requests,
            "count",
        );
        ledger.put(
            "proc.cpu_us_per_req",
            (after.cpu_us - before.cpu_us) as f64 / requests,
            "us",
        );

        for (phase, hist) in [
            ("queue", &global.queue),
            ("instantiation", &global.instantiation),
            ("execution", &global.execution),
        ] {
            ledger.put(
                format!("core.phase.{phase}_p50_us"),
                hist.quantile(0.5) as f64 / 1e3,
                "us",
            );
        }
        let ring = setup
            .stack
            .router
            .as_ref()
            .map(|r| r.stats())
            .unwrap_or_default();
        ledger.put("cluster.retried", ring.retried as f64, "count");
        ledger.put("cluster.failed_over", ring.failed_over as f64, "count");

        // Nobody is connected and nothing is due: what the stack burns idle.
        let idle = ledger.open("idle", span);
        let before = proc::usage();
        std::thread::sleep(IDLE_WINDOW);
        let after = proc::usage();
        ledger.close(idle);
        ledger.put(
            "proc.idle_cpu_pct",
            (after.cpu_us - before.cpu_us) as f64 / IDLE_WINDOW.as_micros() as f64 * 100.0,
            "%",
        );

        let node = &setup.stack.nodes[0];
        let (allocs, bytes) = invoke_allocs(&mut ledger, span, node, workload, args.seed, &guests)?;
        ledger.put("proc.allocs_per_req", allocs, "count");
        ledger.put("proc.alloc_bytes_per_req", bytes, "B");
        Ok::<(), io::Error>(())
    })();
    drop(hot);
    setup.stack.shutdown();
    ledger.close(span);
    on_stack?;

    let span = ledger.open("ladder", root);
    ladder(
        &mut ledger,
        span,
        args.seed,
        &guests,
        Duration::from_secs_f64(args.seconds / (20 * SEGMENTS) as f64),
    )?;
    ledger.close(span);

    let span = ledger.open("layers", root);
    layers::load_path(&mut ledger, span, &guests);
    layers::applications(&mut ledger, span, &guests, args.seed);
    layers::polybench(&mut ledger, span, &guests);
    layers::http(&mut ledger, span, args.seed);
    layers::deque(&mut ledger, span);
    layers::ring(&mut ledger, span);
    ledger.close(span);
    ledger.close(root);

    let (steal1, jiffies1) = proc::cpu_jiffies();
    ledger.put(
        "env.steal_pct",
        (steal1 - steal0) as f64 / (jiffies1 - jiffies0).max(1) as f64 * 100.0,
        "%",
    );

    std::fs::create_dir_all(&args.out)?;
    let tracer = ledger.tracer.as_ref().expect("traced ledger");
    std::fs::write(
        args.out.join(format!("trace-{}.json", workload.name())),
        tracer.to_json(),
    )?;
    Ok(ledger)
}
