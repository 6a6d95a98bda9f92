//! Effect-certificate tests: crafted modules whose static capability sets
//! and memory effects must over-approximate everything the interpreter
//! actually does at runtime, plus the reset-policy derivation and the
//! recycled≡fresh differential under the derived (elided or full) resets —
//! on crafted modules first, then on seeded random store patterns.

mod common;

use awsm::{
    translate, EngineConfig, Host, HostImport, HostOutcome, Instance, LinearMemory, NullHost,
    ResetApplied, ResetPolicy, Severity, Tier, Value,
};
use common::{any_i32, run_once};
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, FuncBuilder, ModuleBuilder, Scalar};
use sledge_testkit::{cases, Rng};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;

/// Records every host-call index it services and returns the first argument.
struct RecordingHost {
    seen: Vec<u32>,
}

impl Host for RecordingHost {
    fn call(
        &mut self,
        idx: u32,
        _import: &HostImport,
        args: &[u64],
        _memory: &mut LinearMemory,
    ) -> HostOutcome {
        self.seen.push(idx);
        HostOutcome::Value(args.first().copied().unwrap_or(0))
    }
}

/// Static capability set of `main` as qualified import names.
fn static_hostcalls(m: &Module) -> Vec<String> {
    let cm = translate(m, Tier::Optimized).unwrap();
    let eff = &cm.analysis.effects;
    let entry = cm.export("main").expect("main export");
    let (calls, _, _) = eff.entry_effect(entry).expect("entry effect");
    calls
        .iter()
        .map(|&h| eff.imports[h as usize].clone())
        .collect()
}

// -------------------------------------------------- capability soundness

#[test]
fn direct_host_call_appears_in_capability_set() {
    let mut mb = ModuleBuilder::new("direct");
    let sink = mb.import_func("env", "sink", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call(sink, vec![i32c(7)]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    assert_eq!(static_hostcalls(&mb.build().unwrap()), ["env::sink"]);
}

#[test]
fn transitive_host_call_appears_in_capability_set() {
    // main -> helper -> env::sink: the closure must cross local calls.
    let mut mb = ModuleBuilder::new("transitive");
    let sink = mb.import_func("env", "sink", &[ValType::I32], Some(ValType::I32));
    let mut h = FuncBuilder::new(&[], Some(ValType::I32));
    h.push(ret(Some(call(sink, vec![i32c(1)]))));
    let helper = mb.add_func("helper", h);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call(helper, vec![]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    assert_eq!(static_hostcalls(&mb.build().unwrap()), ["env::sink"]);
}

#[test]
fn call_indirect_over_approximates_table_host_imports() {
    // The table holds a host import and a local function of the same type;
    // `main` dispatches through a *dynamic* index. The analysis cannot know
    // which target runs, so the certificate must include the host import.
    let mut mb = ModuleBuilder::new("indirect");
    let sink = mb.import_func("env", "sink", &[ValType::I32], Some(ValType::I32));
    let sig = mb.signature(&[ValType::I32], Some(ValType::I32));
    let mut l = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let a = l.arg(0);
    l.push(ret(Some(add(local(a), i32c(1)))));
    let localf = mb.add_func("localf", l);
    mb.table(&[sink, localf]);
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let which = f.arg(0);
    f.push(ret(Some(call_indirect(&sig, local(which), vec![i32c(40)]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_eq!(static_hostcalls(&m), ["env::sink"]);

    // And the over-approximation is honest: running either branch never
    // calls anything outside the static set.
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let eff = &cm.analysis.effects;
    let entry = cm.export("main").unwrap();
    let (static_set, _, _) = eff.entry_effect(entry).unwrap();
    for which in [0i32, 1] {
        let mut host = RecordingHost { seen: Vec::new() };
        let mut inst = Instance::new(Arc::clone(&cm), EngineConfig::default()).unwrap();
        inst.call_complete("main", &[Value::I32(which)], &mut host)
            .unwrap();
        for idx in &host.seen {
            assert!(
                static_set.contains(idx),
                "runtime called import {idx} outside static set {static_set:?}"
            );
        }
    }
}

#[test]
fn runtime_host_calls_subset_of_static_set() {
    // Both imports are declared; only one is reachable from main. The
    // certificate must include the reachable one, and the recorded calls
    // must stay inside it.
    let mut mb = ModuleBuilder::new("subset");
    let used = mb.import_func("env", "used", &[ValType::I32], Some(ValType::I32));
    let unused = mb.import_func("env", "unused", &[ValType::I32], Some(ValType::I32));
    let mut dead = FuncBuilder::new(&[], Some(ValType::I32));
    dead.push(ret(Some(call(unused, vec![i32c(0)]))));
    mb.add_func("dead", dead);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call(used, vec![i32c(5)]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_eq!(static_hostcalls(&m), ["env::used"]);

    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let eff = &cm.analysis.effects;
    let entry = cm.export("main").unwrap();
    let (static_set, _, _) = eff.entry_effect(entry).unwrap();
    let mut host = RecordingHost { seen: Vec::new() };
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let got = inst.call_complete("main", &[], &mut host).unwrap();
    assert_eq!(got, Some(5));
    assert!(!host.seen.is_empty(), "main must actually reach the host");
    for idx in &host.seen {
        assert!(static_set.contains(idx));
    }
}

// ------------------------------------------------- footprint soundness

#[test]
fn footprint_covers_runtime_high_water_mark() {
    // Constant-address stores at two disjoint spots: the certificate must
    // say the entry writes memory, since the runtime high-water mark rises
    // past the template image.
    let mut mb = ModuleBuilder::new("span");
    mb.memory(1, Some(1));
    mb.data(16, b"abc".to_vec());
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(store(Scalar::I32, i32c(0x100), 0, i32c(1)));
    f.push(store(Scalar::I32, i32c(0x180), 0, i32c(2)));
    f.push(ret(Some(load(Scalar::I32, i32c(0x180), 0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let eff = &cm.analysis.effects;
    let entry = cm.export("main").unwrap();
    let (_, writes_memory, may_grow) = eff.entry_effect(entry).unwrap();
    assert!(writes_memory && !may_grow);
    assert_eq!(cm.reset_policy("main"), ResetPolicy::HighWater);

    let template_len = cm.template.image().len();
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let got = inst.call_complete("main", &[], &mut NullHost).unwrap();
    assert_eq!(got, Some(2));
    assert!(inst.memory().high_water_mark() > template_len);
}

#[test]
fn pure_entry_is_certified_and_memory_grow_defeats_it() {
    // No stores, no grow: Pure, and the module-level policy derivation
    // elides the reset.
    let mut mb = ModuleBuilder::new("pure");
    mb.memory(1, Some(2));
    mb.data(0, b"seed".to_vec());
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    f.push(ret(Some(add(load(Scalar::I32, i32c(0), 0), local(x)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    let eff = &cm.analysis.effects;
    let entry = cm.export("main").unwrap();
    let (_, writes_memory, may_grow) = eff.entry_effect(entry).unwrap();
    assert!(!writes_memory && !may_grow);
    assert!(eff.funcs[0].pure);
    assert_eq!(cm.reset_policy("main"), ResetPolicy::Elide);

    // Same shape plus a memory.grow: no longer elidable, hwm reset rules.
    let mut mb = ModuleBuilder::new("grower");
    mb.memory(1, Some(4));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let g = f.local(ValType::I32);
    f.push(set(g, Expr::MemoryGrow(Box::new(i32c(1)))));
    f.push(ret(Some(local(g))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert_eq!(cm.reset_policy("main"), ResetPolicy::HighWater);
}

// ------------------------------------- recycled ≡ fresh under partial reset

#[test]
fn elided_reset_matches_fresh_exactly() {
    let mut mb = ModuleBuilder::new("pure");
    mb.memory(1, Some(2));
    mb.data(0, b"\x2a\x00\x00\x00".to_vec());
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    f.push(ret(Some(add(load(Scalar::I32, i32c(0), 0), local(x)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let policy = cm.reset_policy("main");
    assert_eq!(policy, ResetPolicy::Elide);

    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let want = inst
        .call_complete("main", &[Value::I32(8)], &mut NullHost)
        .unwrap();
    assert_eq!(want, Some(50));
    for round in 0..20 {
        let applied = inst.reset_with(policy).unwrap();
        assert_eq!(applied, ResetApplied::Elided, "round {round}");
        let got = inst
            .call_complete("main", &[Value::I32(8)], &mut NullHost)
            .unwrap();
        assert_eq!(got, want, "round {round}");
    }
}

#[test]
fn host_dirty_memory_downgrades_partial_reset_to_full() {
    // A host-side write into a pure entry's memory invalidates the elided
    // reset; `reset_with` must notice and fall back to a full reset rather
    // than leak the dirt into the next tenant.
    let mut mb = ModuleBuilder::new("reader");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(load(Scalar::I32, i32c(0x8000), 0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let policy = cm.reset_policy("main");
    assert_eq!(policy, ResetPolicy::Elide);
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.call_complete("main", &[], &mut NullHost).unwrap();
    inst.memory_mut().write_bytes(0x40, b"dirty").unwrap();
    let applied = inst.reset_with(policy).unwrap();
    assert_eq!(applied, ResetApplied::Full, "host write forces full reset");
    assert_eq!(inst.memory().read_bytes(0x40, 5).unwrap(), &[0u8; 5]);
}

// ------------------------------------------------------ effect-aware lints

#[test]
fn dead_host_import_lints() {
    let mut mb = ModuleBuilder::new("deadimp");
    let used = mb.import_func("env", "used", &[ValType::I32], Some(ValType::I32));
    mb.import_func("env", "never", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call(used, vec![i32c(1)]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(
        cm.analysis
            .with_severity(Severity::Warn)
            .any(|d| d.message.contains("env::never")),
        "{:?}",
        cm.analysis.diagnostics
    );
    assert!(
        !cm.analysis
            .diagnostics
            .iter()
            .any(|d| d.message.contains("env::used")),
        "{:?}",
        cm.analysis.diagnostics
    );
}

// ------------------------------------------- seeded random store patterns

/// One constant-address store the generated guest may (conditionally)
/// execute: `if x >= gate { mem[addr] = val }`.
#[derive(Debug, Clone)]
struct StoreSite {
    addr: u32,
    val: i32,
    gate: i32,
}

fn store_sites(rng: &mut Rng) -> Vec<StoreSite> {
    rng.vec(1, 12, |rng| StoreSite {
        addr: rng.range(64, 65532) as u32 & !3,
        val: any_i32(rng),
        gate: rng.range(0, 16) as i32 - 8,
    })
}

/// Build a guest executing the given (conditional) constant-address stores,
/// then returning a read-back of the last site plus the argument.
fn build_storer(sites: &[StoreSite]) -> Module {
    let mut mb = ModuleBuilder::new("prop-effects");
    mb.memory(1, Some(1));
    mb.data(8, b"seed".to_vec());
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    for s in sites {
        f.push(if_(
            ge_s(local(x), i32c(s.gate)),
            vec![store(Scalar::I32, i32c(s.addr as i32), 0, i32c(s.val))],
        ));
    }
    let last = sites.last().expect("at least one site");
    f.push(ret(Some(add(
        load(Scalar::I32, i32c(last.addr as i32), 0),
        local(x),
    ))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("generated module must validate")
}

/// Soundness of the memory-effect certificate: every generated guest has a
/// store on some path, executed or not, so it is certified as writing memory
/// and never armed for an elided reset, whatever its input does.
#[test]
fn static_footprint_covers_runtime_high_water() {
    cases(64, 0xEFFE_C750, |rng| {
        let cm = Arc::new(translate(&build_storer(&store_sites(rng)), Tier::Optimized).unwrap());
        let eff = &cm.analysis.effects;
        let entry = cm.export("main").expect("main export");
        let (_, writes_memory, may_grow) = eff.entry_effect(entry).expect("entry effect");
        assert!(writes_memory && !may_grow);
        assert_eq!(cm.reset_policy("main"), ResetPolicy::HighWater);
    });
}

/// The differential property under the *derived* reset policy: a recycled
/// instance replaying the baseline input is indistinguishable from a fresh
/// one.
#[test]
fn recycled_under_derived_policy_is_fresh() {
    cases(64, 0x0DE2_17ED, |rng| {
        let cm = Arc::new(translate(&build_storer(&store_sites(rng)), Tier::Optimized).unwrap());
        let policy = cm.reset_policy("main");
        let cfg = EngineConfig::default();
        let (x, dirty_x) = ([Value::I32(any_i32(rng))], [Value::I32(any_i32(rng))]);

        let mut fresh = Instance::new(Arc::clone(&cm), cfg).unwrap();
        let want = run_once(&mut fresh, &x);

        let mut recycled = Instance::new(cm, cfg).unwrap();
        for _ in 0..rng.range(1, 6) {
            run_once(&mut recycled, &dirty_x);
            recycled.reset_with(policy).unwrap();
            assert_eq!(run_once(&mut recycled, &x), want);
            recycled.reset_with(policy).unwrap();
        }
    });
}
