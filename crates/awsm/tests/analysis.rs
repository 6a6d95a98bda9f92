//! Load-time static-analysis tests: crafted modules that must be verified,
//! linted, or rejected before any sandbox exists.

use awsm::{
    translate, EngineConfig, Instance, NullHost, Severity, StackBound, StepResult, Tier, Trap,
    Value,
};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Stmt};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;

fn run(m: &Module, tier: Tier, args: &[Value]) -> Result<Option<u64>, Trap> {
    let cm = Arc::new(translate(m, tier).expect("translate"));
    let mut inst = Instance::new(
        cm,
        EngineConfig {
            tier,
            ..Default::default()
        },
    )
    .expect("instantiate");
    inst.invoke_export("main", args).expect("invoke");
    loop {
        match inst.run(&mut NullHost, u64::MAX) {
            StepResult::Complete(v) => return Ok(v),
            StepResult::Trapped(t) => return Err(t),
            StepResult::OutOfFuel | StepResult::Preempted => continue,
            StepResult::Blocked => panic!("unexpected block"),
        }
    }
}

// ------------------------------------------------------------ stack bounds

#[test]
fn straight_line_module_is_bounded() {
    let mut mb = ModuleBuilder::new("sl");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(add(i32c(1), i32c(2)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    match cm.analysis.stack_bound {
        StackBound::Bounded(b) => assert!(b > 0, "one frame is never zero bytes"),
        StackBound::Unbounded { .. } => panic!("no calls, must be bounded"),
    }
    assert_eq!(cm.analysis.funcs.len(), 1);
    assert!(cm.analysis.diagnostics.is_empty());
    // A generous budget passes; a 1-byte budget cannot hold any frame.
    assert!(cm.analysis.check_stack(1 << 20).is_none());
    let d = cm.analysis.check_stack(1).expect("over budget");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn call_chain_bound_sums_frames() {
    // main -> mid -> leaf; the bound must cover all three frames, and be
    // strictly larger than the leaf alone.
    let mut mb = ModuleBuilder::new("chain");
    let mut leaf = FuncBuilder::new(&[], Some(ValType::I32));
    leaf.push(ret(Some(i32c(7))));
    let leaf = mb.add_func("leaf", leaf);
    let mut mid = FuncBuilder::new(&[], Some(ValType::I32));
    mid.push(ret(Some(add(call(leaf, vec![]), i32c(1)))));
    let mid = mb.add_func("mid", mid);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(add(call(mid, vec![]), i32c(1)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    let StackBound::Bounded(total) = cm.analysis.stack_bound else {
        panic!("acyclic chain must be bounded");
    };
    let frames: u64 = cm.analysis.funcs.iter().map(|f| f.frame_bytes).sum();
    assert_eq!(total, frames, "deepest chain is all three frames");
    assert_eq!(run(&mb_clone_run(), Tier::Optimized, &[]), Ok(Some(9)));

    fn mb_clone_run() -> Module {
        let mut mb = ModuleBuilder::new("chain");
        let mut leaf = FuncBuilder::new(&[], Some(ValType::I32));
        leaf.push(ret(Some(i32c(7))));
        let leaf = mb.add_func("leaf", leaf);
        let mut mid = FuncBuilder::new(&[], Some(ValType::I32));
        mid.push(ret(Some(add(call(leaf, vec![]), i32c(1)))));
        let mid = mb.add_func("mid", mid);
        let mut f = FuncBuilder::new(&[], Some(ValType::I32));
        f.push(ret(Some(add(call(mid, vec![]), i32c(1)))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }
}

#[test]
fn recursion_is_unbounded_with_cycle() {
    let mut mb = ModuleBuilder::new("rec");
    let fr = mb.declare("main", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = f.arg(0);
    f.push(if_(le_s(local(n), i32c(0)), vec![ret(Some(i32c(0)))]));
    f.push(ret(Some(add(
        local(n),
        call(fr, vec![sub(local(n), i32c(1))]),
    ))));
    mb.define(fr, f);
    mb.export_func(fr, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    let StackBound::Unbounded { cycle } = &cm.analysis.stack_bound else {
        panic!("self-recursion must be flagged unbounded");
    };
    assert!(!cycle.is_empty());
    // Any finite budget rejects it.
    let d = cm.analysis.check_stack(u64::MAX).expect("unbounded");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("recursive"), "{}", d.message);
    // The module still runs fine — rejection is a policy decision upstream.
    let ran = run(
        &{
            let mut mb = ModuleBuilder::new("rec");
            let fr = mb.declare("main", &[ValType::I32], Some(ValType::I32));
            let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
            let n = f.arg(0);
            f.push(if_(le_s(local(n), i32c(0)), vec![ret(Some(i32c(0)))]));
            f.push(ret(Some(add(
                local(n),
                call(fr, vec![sub(local(n), i32c(1))]),
            ))));
            mb.define(fr, f);
            mb.export_func(fr, "main");
            mb.build().unwrap()
        },
        Tier::Optimized,
        &[Value::I32(10)],
    );
    assert_eq!(ran, Ok(Some(55)));
}

// ------------------------------------------------------------------ lints

#[test]
fn exported_entry_unreachable_is_error() {
    let mut mb = ModuleBuilder::new("dead-entry");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(Stmt::Unreachable);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(cm.analysis.has_errors());
    let d = cm
        .analysis
        .with_severity(Severity::Error)
        .next()
        .expect("error lint");
    assert!(d.message.contains("traps unconditionally"), "{}", d.message);
    assert_eq!(d.func, Some(0));
}

#[test]
fn dead_function_is_warning_not_error() {
    let mut mb = ModuleBuilder::new("dead-helper");
    let mut h = FuncBuilder::new(&[], Some(ValType::I32));
    h.push(ret(Some(i32c(1))));
    let _helper = mb.add_func("helper", h);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(i32c(2))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(!cm.analysis.has_errors());
    let warns: Vec<_> = cm.analysis.with_severity(Severity::Warn).collect();
    assert!(
        warns
            .iter()
            .any(|d| d.message.contains("unreachable from every export")),
        "{warns:?}"
    );
    assert!(!cm.analysis.funcs[0].reachable);
    assert!(cm.analysis.funcs[1].reachable);
}

#[test]
fn constant_div_by_zero_warns() {
    // Guarded by a data-dependent branch, so it is not an entry trap — but
    // the instruction itself is a guaranteed trap if it ever executes.
    let mut mb = ModuleBuilder::new("divz");
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = f.arg(0);
    f.push(if_(eqz(local(n)), vec![ret(Some(div(local(n), i32c(0))))]));
    f.push(ret(Some(local(n))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(!cm.analysis.has_errors());
    assert!(
        cm.analysis
            .with_severity(Severity::Warn)
            .any(|d| d.message.contains("division by zero")),
        "{:?}",
        cm.analysis.diagnostics
    );
}

#[test]
fn doomed_call_indirect_warns() {
    // Table has one entry; a constant index of 5 can only trap.
    let mut mb = ModuleBuilder::new("ci");
    let sig = mb.signature(&[], Some(ValType::I32));
    let mut t = FuncBuilder::new(&[], Some(ValType::I32));
    t.push(ret(Some(i32c(3))));
    let target = mb.add_func("target", t);
    mb.table(&[target]);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call_indirect(&sig, i32c(5), vec![]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(
        cm.analysis
            .with_severity(Severity::Warn)
            .any(|d| d.message.contains("call_indirect")),
        "{:?}",
        cm.analysis.diagnostics
    );
}

#[test]
fn constant_oob_store_is_error() {
    // Memory is capped at one page; a store at 1 MiB can never be in
    // bounds, no matter how much the instance grows.
    let mut mb = ModuleBuilder::new("oob");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(store_i32(i32c(1 << 20), i32c(42)));
    f.push(ret(Some(i32c(0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let cm = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    assert!(cm.analysis.has_errors());
    let d = cm
        .analysis
        .with_severity(Severity::Error)
        .next()
        .expect("certain OOB");
    assert!(d.message.contains("out of bounds"), "{}", d.message);
    assert!(d.pc.is_some());
}
