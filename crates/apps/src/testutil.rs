//! Test support: run a guest module to completion with an in-memory host
//! implementing the standard `env` ABI (request/response buffers).
//!
//! Mirrors `sledge_core::SandboxHost` without pulling the runtime crate into
//! this one (the dependency goes the other way).

use awsm::{
    translate, BoundsStrategy, EngineConfig, Host, HostImport, HostOutcome, Instance, LinearMemory,
    StepResult, Tier, Trap,
};
use sledge_wasm::module::Module;
use std::sync::Arc;
use std::time::Instant;

/// In-memory host for tests and native-vs-guest cross-validation.
#[derive(Debug)]
pub struct BufferHost {
    /// Request body.
    pub request: Vec<u8>,
    /// Accumulated response.
    pub response: Vec<u8>,
    epoch: Instant,
}

impl BufferHost {
    /// Host with the given request body.
    pub fn new(request: impl Into<Vec<u8>>) -> Self {
        BufferHost {
            request: request.into(),
            response: Vec::new(),
            epoch: Instant::now(),
        }
    }
}

impl Host for BufferHost {
    fn call(
        &mut self,
        _idx: u32,
        import: &HostImport,
        args: &[u64],
        memory: &mut LinearMemory,
    ) -> HostOutcome {
        match import.name.as_str() {
            "request_len" => HostOutcome::Value(self.request.len() as u64),
            "request_read" => {
                let dst = args[0] as u32;
                let len = args[1] as u32 as usize;
                let off = args[2] as u32 as usize;
                if off >= self.request.len() {
                    return HostOutcome::Value(0);
                }
                let n = len.min(self.request.len() - off);
                match memory.write_bytes(dst, &self.request[off..off + n]) {
                    Ok(()) => HostOutcome::Value(n as u64),
                    Err(t) => HostOutcome::Trap(t),
                }
            }
            "response_write" => {
                let src = args[0] as u32;
                let len = args[1] as u32;
                match memory.read_bytes(src, len) {
                    Ok(b) => {
                        self.response.extend_from_slice(b);
                        HostOutcome::Value(len as u64)
                    }
                    Err(t) => HostOutcome::Trap(t),
                }
            }
            "clock_ns" => HostOutcome::Value(self.epoch.elapsed().as_nanos() as u64),
            // In the buffer host, emulated I/O completes immediately.
            "io_delay" => HostOutcome::Value(0),
            _ => HostOutcome::Trap(Trap::Unreachable),
        }
    }
}

/// Run a guest's `main` export to completion with the given request body
/// and return the response it wrote, under a specific configuration.
///
/// # Panics
///
/// Panics on translation errors or guest traps (tests want loud failures).
pub fn run_guest_config(
    module: &Module,
    body: &[u8],
    tier: Tier,
    bounds: BoundsStrategy,
) -> Vec<u8> {
    let cm = Arc::new(translate(module, tier).expect("translate"));
    let mut inst = Instance::new(
        cm,
        EngineConfig {
            bounds,
            tier,
            ..Default::default()
        },
    )
    .expect("instantiate");
    let mut host = BufferHost::new(body);
    inst.invoke_export("main", &[]).expect("invoke main");
    loop {
        match inst.run(&mut host, u64::MAX) {
            StepResult::Complete(_) => return host.response,
            StepResult::OutOfFuel | StepResult::Preempted | StepResult::Blocked => continue,
            StepResult::Trapped(t) => panic!("guest trapped: {t}"),
        }
    }
}

/// Run a guest under the default configuration (optimized tier, guard-region
/// bounds — "Sledge+aWsm").
pub fn run_guest(module: &Module, body: &[u8]) -> Vec<u8> {
    run_guest_config(module, body, Tier::Optimized, BoundsStrategy::GuardRegion)
}

/// Run under every tier × bounds combination and assert all outputs equal;
/// returns the common output.
pub fn run_guest_all_configs(module: &Module, body: &[u8]) -> Vec<u8> {
    let reference = run_guest(module, body);
    for (tier, bounds) in [
        (Tier::Optimized, BoundsStrategy::Software),
        (Tier::Optimized, BoundsStrategy::MpxEmulated),
        (Tier::Optimized, BoundsStrategy::None),
        (Tier::Naive, BoundsStrategy::GuardRegion),
        (Tier::Naive, BoundsStrategy::Software),
    ] {
        let out = run_guest_config(module, body, tier, bounds);
        assert_eq!(out, reference, "output differs under {tier:?}/{bounds:?}");
    }
    reference
}
