//! Set-up: the guest catalogue, the node(s) that serve it, and the requests a
//! workload sends. Everything here is inside `setup_s`.

use crate::load::{Plan, Prepared};
use crate::rng::Rng;
use crate::wire::{is_correct, Splitter};
use sledge_cluster::{Router, RouterConfig};
use sledge_core::{FunctionConfig, Runtime, RuntimeConfig};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::time::Instant;

/// Tenants the catalogue is registered for: 16 × 37 = 592 functions.
pub const TENANTS: usize = 16;
/// Tenant routes a workload cycles over.
pub const ROUTES: usize = 8;
/// Length of the seeded route order.
const ORDER_LEN: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Ping,
    Cifar10,
    Echo64k,
    PingRouted,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ping,
        Workload::Cifar10,
        Workload::Echo64k,
        Workload::PingRouted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ping => "ping",
            Workload::Cifar10 => "cifar10",
            Workload::Echo64k => "echo64k",
            Workload::PingRouted => "ping_routed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The catalogue entry the workload invokes.
    pub fn guest(self) -> &'static str {
        match self {
            Workload::Ping | Workload::PingRouted => "ping",
            Workload::Cifar10 => "cifar10",
            Workload::Echo64k => "echo",
        }
    }

    /// Open-loop arrival rate of the sparse phase, requests per second: low
    /// enough that the node is idle between arrivals.
    pub fn sparse_rate(self) -> f64 {
        match self {
            Workload::Cifar10 => 10.0,
            _ => 200.0,
        }
    }

    pub fn routed(self) -> bool {
        self == Workload::PingRouted
    }
}

/// A native twin: request body in, response body out.
pub type Native = fn(&[u8]) -> Vec<u8>;

/// One guest of the catalogue.
pub struct Guest {
    pub name: String,
    pub wasm: Vec<u8>,
    /// The PolyBench kernels' twins take no body; `layers` calls them itself.
    pub native: Option<Native>,
}

/// The 37 guests: the paper's 7 applications and the 30 PolyBench kernels,
/// built from the DSL and encoded to `.wasm` as a deployment would ship them.
pub fn catalogue() -> Vec<Guest> {
    let apps = sledge_apps::all_apps().into_iter().map(|a| Guest {
        name: a.name.to_string(),
        wasm: sledge_wasm::encode::encode_module(&(a.module)()),
        native: Some(a.native),
    });
    let kernels = sledge_apps::polybench::kernels()
        .into_iter()
        .map(|k| Guest {
            name: format!("pb-{}", k.name),
            wasm: sledge_wasm::encode::encode_module(&(k.build)()),
            native: None,
        });
    apps.chain(kernels).collect()
}

pub fn function_name(tenant: usize, guest: &str) -> String {
    format!("t{tenant:02}-{guest}")
}

/// The request body a workload sends, from the seed.
pub fn request_body(workload: Workload, rng: &mut Rng) -> Vec<u8> {
    match workload {
        Workload::Ping | Workload::PingRouted => Vec::new(),
        Workload::Echo64k => rng.bytes(64 << 10),
        Workload::Cifar10 => rng.bytes(sledge_apps::cifar10::IN * sledge_apps::cifar10::IN * 3),
    }
}

/// The workload's requests: one body, `ROUTES` of the `TENANTS` routes and the
/// order they are visited in all come from the seed; the expected reply is
/// the native twin's output for the body.
pub fn plan(workload: Workload, seed: u64, catalogue: &[Guest]) -> Plan {
    let mut rng = Rng::new(seed);
    let body = request_body(workload, &mut rng);
    let guest = catalogue
        .iter()
        .find(|g| g.name == workload.guest())
        .expect("workload guest is in the catalogue");
    let expected = (guest.native.expect("applications have a native twin"))(&body);
    let mut tenants: Vec<usize> = (0..TENANTS).collect();
    rng.shuffle(&mut tenants);
    let requests = tenants[..ROUTES]
        .iter()
        .map(|&t| Prepared {
            bytes: sledge_http::format_request(
                "POST",
                &format!("/{}", function_name(t, workload.guest())),
                &[],
                &body,
            ),
            expected: expected.clone(),
        })
        .collect();
    // Every route equally often, in a seeded order.
    let mut order: Vec<usize> = (0..ORDER_LEN).map(|i| i % ROUTES).collect();
    rng.shuffle(&mut order);
    Plan { requests, order }
}

/// What a workload's clients talk to.
pub struct Stack {
    pub nodes: Vec<Runtime>,
    pub router: Option<Router>,
    /// The address clients connect to: the router's if there is one.
    pub addr: SocketAddr,
}

impl Stack {
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// Shipped defaults, except two workers: the machine has two cores.
fn node_config(admin_routes: bool) -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        admin_routes,
        ..Default::default()
    }
}

fn boot_node(admin_routes: bool) -> io::Result<Runtime> {
    Runtime::with_http(
        node_config(admin_routes),
        "127.0.0.1:0".parse().expect("literal"),
    )
}

/// One node with `guests` registered from `.wasm` bytes for every tenant.
/// Returns the seconds spent in `register_wasm` alone.
pub fn boot_direct(guests: &[Guest]) -> io::Result<(Stack, f64)> {
    let node = boot_node(false)?;
    let t = Instant::now();
    for tenant in 0..TENANTS {
        for g in guests {
            node.register_wasm(FunctionConfig::new(function_name(tenant, &g.name)), &g.wasm)
                .map_err(|e| io::Error::other(format!("register {}: {e}", g.name)))?;
        }
    }
    let register_s = t.elapsed().as_secs_f64();
    let addr = node.http_addr().expect("node serves HTTP");
    Ok((
        Stack {
            nodes: vec![node],
            router: None,
            addr,
        },
        register_s,
    ))
}

/// Certificate-carrying artifacts of `guests`, as a router distributes them.
pub fn artifacts(guests: &[Guest]) -> io::Result<Vec<Vec<u8>>> {
    guests
        .iter()
        .map(|g| {
            let module = sledge_wasm::decode::decode_module(&g.wasm)
                .map_err(|e| io::Error::other(format!("decode {}: {e}", g.name)))?;
            let compiled = awsm::translate_with(
                &module,
                awsm::Tier::Optimized,
                awsm::TranslateOptions::default(),
            )
            .map_err(|e| io::Error::other(format!("translate {}: {e}", g.name)))?;
            Ok(awsm::encode_artifact(&compiled))
        })
        .collect()
}

/// Two nodes behind a router, `guests` distributed to both as artifacts for
/// every tenant. Returns the seconds spent in `Router::distribute` alone.
pub fn boot_routed(guests: &[Guest]) -> io::Result<(Stack, f64)> {
    let artifacts = artifacts(guests)?;
    let nodes = vec![boot_node(true)?, boot_node(true)?];
    let members = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (
                format!("node-{i}"),
                n.http_addr().expect("node serves HTTP"),
            )
        })
        .collect();
    let router = Router::start(
        RouterConfig::default(),
        members,
        "127.0.0.1:0".parse().expect("literal"),
    )?;
    let t = Instant::now();
    for tenant in 0..TENANTS {
        for (g, artifact) in guests.iter().zip(&artifacts) {
            let config = format!("{{\"name\": \"{}\"}}", function_name(tenant, &g.name));
            for push in router.distribute(&config, artifact) {
                push.result.map_err(|e| {
                    io::Error::other(format!("distribute {} to {}: {e}", g.name, push.node))
                })?;
            }
        }
    }
    let distribute_s = t.elapsed().as_secs_f64();
    let addr = router.addr();
    Ok((
        Stack {
            nodes,
            router: Some(router),
            addr,
        },
        distribute_s,
    ))
}

/// One exchange on a fresh connection; `Ok(true)` when the reply is correct.
pub fn exchange_once(addr: SocketAddr, request: &Prepared) -> io::Result<bool> {
    let mut stream = crate::load::connect(addr)?;
    stream.write_all(&request.bytes)?;
    let mut splitter = Splitter::new();
    let mut scratch = vec![0u8; 1 << 16];
    loop {
        match splitter.next_response() {
            Ok(Some((status, body))) => return Ok(is_correct(status, body, &request.expected)),
            Ok(None) => {}
            Err(_) => return Ok(false),
        }
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Ok(false);
        }
        splitter.feed(&scratch[..n]);
    }
}

pub struct Setup {
    pub stack: Stack,
    pub plan: Plan,
    /// Wall seconds from nothing to the first correct reply.
    pub setup_s: f64,
}

/// Everything a workload needs before its first measured request: build and
/// encode the catalogue, boot, install it for every tenant, connect, and see
/// one correct reply.
pub fn setup(workload: Workload, seed: u64) -> io::Result<Setup> {
    let t = Instant::now();
    let guests = catalogue();
    let plan = plan(workload, seed, &guests);
    let (stack, _) = if workload.routed() {
        boot_routed(&guests)?
    } else {
        boot_direct(&guests)?
    };
    if !exchange_once(stack.addr, &plan.requests[0])? {
        return Err(io::Error::other(
            "first reply is not the native twin's output",
        ));
    }
    Ok(Setup {
        stack,
        plan,
        setup_s: t.elapsed().as_secs_f64(),
    })
}
