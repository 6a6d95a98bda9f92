//! Shared by the suites whose invariants must hold under concurrency, and
//! by the chaos tests, whose faults all come from the client side: a guest
//! that traps or blocks when its request body says so, a tenant whose every
//! instantiation fails, and a seeded [`Rng`] that decides which request
//! gets which. Each suite uses a subset of this module.
#![allow(dead_code)]

use sledge_core::{
    FunctionConfig, FunctionId, FunctionReport, FunctionStatsSnapshot, InvocationHandle,
    LatencyReport, Runtime, RuntimeConfig,
};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar, Stmt};
use sledge_testkit::Rng;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// `base` as given, then `base` with every feature that shares state
/// between threads armed: a warm pool (which recycling fills), one DWRR
/// lane per function, and an in-flight cap above the suites' largest burst
/// (600), so the cap is checked but never sheds. Each pair carries a label
/// to name the configuration a failure came from.
pub fn plain_and_armed(base: RuntimeConfig) -> [(&'static str, RuntimeConfig); 2] {
    let armed = RuntimeConfig {
        pool_size: 4,
        fairness: true,
        max_inflight: 1024,
        ..base.clone()
    };
    [("plain", base), ("armed", armed)]
}

/// The report entry of the function registered as `name`.
pub fn function<'a>(report: &'a LatencyReport, name: &str) -> &'a FunctionReport {
    report
        .per_function
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no function {name:?} in the report"))
}

/// The counters of the function registered as `name`, read now.
pub fn stats_of(rt: &Runtime, name: &str) -> FunctionStatsSnapshot {
    function(&rt.latency_report(), name).stats
}

/// What one chaos request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// The chaos guest echoes the body.
    Echo,
    /// The chaos guest traps (`unreachable`).
    Trap,
    /// The chaos guest blocks in `io_delay` for this many µs, then echoes.
    Delay(u32),
    /// The request goes to the tenant whose instantiation always fails, so
    /// the listener rejects it before execution.
    Reject,
}

/// Percentages of a chaos schedule; whatever is left over echoes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    /// Requests sent to the failing tenant.
    pub reject_pct: u64,
    /// Requests whose guest traps.
    pub trap_pct: u64,
    /// Requests whose guest blocks for `delay_us`.
    pub delay_pct: u64,
    /// How long a delayed request blocks.
    pub delay_us: u32,
    /// Windows of [`BURST_WINDOW`] consecutive requests in which every
    /// request blocks for `delay_us`: an antagonist stampede rather than
    /// isolated slow requests.
    pub burst_pct: u64,
}

/// Requests per burst window.
pub const BURST_WINDOW: usize = 32;

impl Mix {
    /// The chaos of requests `0..n`, drawn from `Rng::new(seed)`: the same
    /// seed gives the same schedule whatever the threads' interleaving.
    pub fn draw(&self, seed: u64, n: usize) -> Vec<Chaos> {
        let mut rng = Rng::new(seed);
        let mut burst = false;
        (0..n)
            .map(|i| {
                if i % BURST_WINDOW == 0 {
                    burst = rng.range(0, 100) < self.burst_pct;
                }
                let roll = rng.range(0, 100);
                if burst {
                    Chaos::Delay(self.delay_us)
                } else if roll < self.reject_pct {
                    Chaos::Reject
                } else if roll < self.reject_pct + self.trap_pct {
                    Chaos::Trap
                } else if roll < self.reject_pct + self.trap_pct + self.delay_pct {
                    Chaos::Delay(self.delay_us)
                } else {
                    Chaos::Echo
                }
            })
            .collect()
    }
}

/// Reads its whole body and acts on the first byte: 1 traps with
/// `unreachable`, 2 blocks in `io_delay` for the µs in bytes 1..5 (LE).
/// Anything that does not trap then echoes the body.
pub fn chaos_guest() -> Module {
    let mut mb = ModuleBuilder::new("chaos");
    mb.memory(2, Some(64));
    let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
    let req_read = mb.import_func(
        "env",
        "request_read",
        &[ValType::I32, ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let io_delay = mb.import_func("env", "io_delay", &[ValType::I32], Some(ValType::I32));
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
        if_(
            eq(load(Scalar::U8, i32c(0), 0), i32c(1)),
            vec![Stmt::Unreachable],
        ),
        if_(
            eq(load(Scalar::U8, i32c(0), 0), i32c(2)),
            vec![exec(call(io_delay, vec![load(Scalar::I32, i32c(1), 0)]))],
        ),
        exec(call(resp_write, vec![i32c(0), local(n)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

/// A module whose data segment lands outside its one-page memory, so
/// registration succeeds but per-request instantiation fails.
pub fn bad_instantiation() -> Module {
    let mut mb = ModuleBuilder::new("bad");
    mb.memory(1, Some(1));
    mb.data(65_534, vec![0xAA; 8]);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(i32c(0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

/// The two functions a [`Chaos`] schedule is sent to.
#[derive(Debug, Clone, Copy)]
pub struct ChaosTenants {
    /// The chaos guest.
    pub guest: FunctionId,
    /// The tenant whose instantiation always fails.
    pub bad: FunctionId,
}

impl ChaosTenants {
    /// Register the chaos guest as `chaos` and the failing tenant as `bad`.
    pub fn register(rt: &Runtime) -> ChaosTenants {
        ChaosTenants {
            guest: rt
                .register_module(FunctionConfig::new("chaos"), &chaos_guest())
                .unwrap(),
            bad: rt
                .register_module(FunctionConfig::new("bad"), &bad_instantiation())
                .unwrap(),
        }
    }

    /// Send one request doing `chaos`; an echo or a delay answers `tag`
    /// behind its one- or five-byte command.
    pub fn invoke(&self, rt: &Runtime, chaos: Chaos, tag: &[u8]) -> InvocationHandle {
        let mut body = match chaos {
            Chaos::Echo => vec![0],
            Chaos::Trap => vec![1],
            Chaos::Delay(us) => [&[2u8][..], &us.to_le_bytes()].concat(),
            Chaos::Reject => return rt.invoke(self.bad, Vec::new()),
        };
        body.extend_from_slice(tag);
        rt.invoke(self.guest, body)
    }
}
