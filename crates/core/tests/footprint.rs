//! Footprint pins: a node's memory grows with what runs, not with what is
//! registered. A 2-worker node serves the benchmark's catalogue (the 7
//! applications and 30 PolyBench kernels) for 16 tenants, 592 functions,
//! and a counting allocator measures three things in bytes, with no clocks:
//!
//! - the heap one more registered function costs before it ever runs;
//! - what one `latency_report()` allocates when 1 of the 592 has run;
//! - what a function's first and second samples allocate for its shards.
//!
//! A change that grows one of these raises its pin here, in its own diff.

use sledge_core::{FunctionConfig, FunctionId, Outcome, PhaseHistograms, Runtime, RuntimeConfig};
use sledge_testkit::alloc::{watch, AllocCounts, CountingAlloc};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-wide: every test holds this for its whole run,
/// so no two of them measure at the same time.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

const WORKERS: usize = 2;
const TENANTS: usize = 16;

/// Heap bytes one more registered function may cost before it runs.
const PIN_BYTES_PER_FUNCTION: i64 = 1024;
/// Bytes one snapshot of the 592-function node may allocate with one
/// function sampled.
const PIN_SNAPSHOT_BYTES: u64 = 128 * 1024;

/// What a function's first sample allocates: one shard per worker.
const SHARD_BYTES: usize = WORKERS * std::mem::size_of::<PhaseHistograms>();

/// The benchmark's 37 guests, named, as `.wasm` bytes; `ping` is first.
fn catalogue() -> Vec<(&'static str, Vec<u8>)> {
    let apps = sledge_apps::all_apps()
        .into_iter()
        .map(|a| (a.name, (a.module)()));
    let kernels = sledge_apps::polybench::kernels()
        .into_iter()
        .map(|k| (k.name, (k.build)()));
    let catalogue: Vec<_> = apps
        .chain(kernels)
        .map(|(name, m)| (name, sledge_wasm::encode::encode_module(&m)))
        .collect();
    assert_eq!(catalogue.len(), 37);
    assert_eq!(catalogue[0].0, "ping");
    catalogue
}

fn node() -> Runtime {
    Runtime::new(RuntimeConfig {
        workers: WORKERS,
        ..Default::default()
    })
}

/// Register every guest for `tenant`; returns the ids in catalogue order.
fn register_tenant(rt: &Runtime, catalogue: &[(&str, Vec<u8>)], tenant: usize) -> Vec<FunctionId> {
    catalogue
        .iter()
        .map(|(name, wasm)| {
            rt.register_wasm(FunctionConfig::new(format!("t{tenant}-{name}")), wasm)
                .unwrap()
        })
        .collect()
}

/// The full 592-function node; returns each tenant's `ping`.
fn catalogue_node() -> (Runtime, Vec<FunctionId>) {
    let rt = node();
    let catalogue = catalogue();
    let pings = (0..TENANTS)
        .map(|tenant| register_tenant(&rt, &catalogue, tenant)[0])
        .collect();
    (rt, pings)
}

fn invoke_ok(rt: &Runtime, id: FunctionId) {
    let done = rt.invoke(id, Vec::new()).wait().expect("completion");
    assert!(
        matches!(done.outcome, Outcome::Success(_)),
        "{:?}",
        done.outcome
    );
}

#[test]
fn a_registered_function_costs_under_a_kib_before_it_runs() {
    let _measuring = measuring();
    let rt = node();
    let catalogue = catalogue();
    // Tenant 0 compiles the 37 modules; every later tenant shares them, so
    // what it adds is the per-function state alone.
    register_tenant(&rt, &catalogue, 0);
    let before = AllocCounts::now();
    for tenant in 1..TENANTS {
        register_tenant(&rt, &catalogue, tenant);
    }
    let added = AllocCounts::now().since(before);
    let functions = ((TENANTS - 1) * catalogue.len()) as i64;
    let per_function = added.live() / functions;
    eprintln!("heap per additional registered function: {per_function} B");
    assert!(
        per_function <= PIN_BYTES_PER_FUNCTION,
        "{per_function} B per registered function (pin {PIN_BYTES_PER_FUNCTION} B)"
    );
    assert_eq!(rt.latency_report().registry.modules_compiled, 37);
    rt.shutdown();
}

#[test]
fn a_snapshot_costs_only_the_sampled_functions() {
    let _measuring = measuring();
    let (rt, pings) = catalogue_node();
    invoke_ok(&rt, pings[0]);
    let before = AllocCounts::now();
    let report = rt.latency_report();
    let cost = AllocCounts::now().since(before);
    eprintln!(
        "latency_report with 1 of {} functions sampled: {} B in {} allocations",
        report.per_function.len(),
        cost.bytes,
        cost.allocs
    );
    assert!(
        cost.bytes <= PIN_SNAPSHOT_BYTES,
        "one snapshot allocated {} B (pin {PIN_SNAPSHOT_BYTES} B)",
        cost.bytes
    );
    assert_eq!(report.per_function.len(), TENANTS * 37);
    let counts: Vec<u64> = report
        .per_function
        .iter()
        .map(|f| f.phases().count())
        .collect();
    assert_eq!(counts.iter().sum::<u64>(), 1);
    assert_eq!(report.global.count(), 1);
    rt.shutdown();
}

#[test]
fn a_first_sample_allocates_the_shards_once() {
    let _measuring = measuring();
    let (rt, pings) = catalogue_node();
    let fresh = pings[1];
    let samples = |rt: &Runtime| -> Vec<u64> {
        let report = rt.latency_report();
        let count = |name: String| {
            let f = report.per_function.iter().find(|f| f.name == name);
            f.expect("registered").phases().count()
        };
        (0..TENANTS).map(|t| count(format!("t{t}-ping"))).collect()
    };
    assert_eq!(samples(&rt), [0; TENANTS]);
    watch(SHARD_BYTES);
    let before = AllocCounts::now();
    invoke_ok(&rt, fresh);
    let first = AllocCounts::now().since(before);
    // One allocation of exactly one shard per worker: registration made
    // none, and the first sample made them all.
    assert_eq!(first.watched, 1, "first sample: {first:?}");
    assert!(first.bytes >= SHARD_BYTES as u64, "{first:?}");
    let before = AllocCounts::now();
    invoke_ok(&rt, fresh);
    let second = AllocCounts::now().since(before);
    assert_eq!(second.watched, 0, "second sample: {second:?}");
    watch(0);
    // Only the sampled function has samples.
    let mut expected = [0; TENANTS];
    expected[1] = 2;
    assert_eq!(samples(&rt), expected);
    rt.shutdown();
}

#[test]
fn racing_first_samples_allocate_once() {
    // Each fresh function gets two invocations at once, so both workers'
    // first records can meet on its empty shards. However they interleave,
    // one allocation happens and neither sample is lost.
    let _measuring = measuring();
    const FRESH: usize = 64;
    let rt = node();
    let (_, ping) = &catalogue()[0];
    let ids: Vec<FunctionId> = (0..FRESH)
        .map(|i| {
            rt.register_wasm(FunctionConfig::new(format!("fresh-{i}")), ping)
                .unwrap()
        })
        .collect();
    watch(SHARD_BYTES);
    let before = AllocCounts::now();
    for &id in &ids {
        let pair = [rt.invoke(id, Vec::new()), rt.invoke(id, Vec::new())];
        for h in pair {
            let done = h.wait().expect("completion");
            assert!(matches!(done.outcome, Outcome::Success(_)));
        }
    }
    let raced = AllocCounts::now().since(before);
    watch(0);
    assert_eq!(raced.watched, FRESH as u64, "{raced:?}");
    let report = rt.latency_report();
    // `raced.watched` counted one allocation of a worker's worth of shards
    // per function.
    assert_eq!(report.per_function.len(), FRESH);
    for f in &report.per_function {
        let s = f.stats;
        assert_eq!(f.phases().count(), s.completed + s.trapped + s.timed_out);
        assert_eq!(f.phases().count(), 2, "{}", f.name);
    }
    assert_eq!(report.global.count(), 2 * FRESH as u64);
    rt.shutdown();
}
