//! Recycling tests: an instance reset in place from its module's
//! [`MemoryTemplate`] must be observationally identical to a freshly
//! instantiated one — same outputs, same linear-memory contents, same fuel —
//! no matter how thoroughly the previous invocation dirtied it. Fixed cases
//! first, then the same property over seeded random stateful guests.

mod common;

use awsm::{
    translate, BoundsStrategy, EngineConfig, Instance, InstanceError, NullHost, StepResult, Tier,
    Value,
};
use common::{any_i32, fnv_memory_hash, run_once, Arith};
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, FuncBuilder, ModuleBuilder, Scalar};
use sledge_testkit::cases;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;

/// A deliberately stateful guest: every run mutates a global, overwrites a
/// template data byte, grows memory, and scribbles into the fresh page. Its
/// return value depends on the global *and* the template byte, so any state
/// leaking across a reset changes the observable result.
fn stateful_module() -> Module {
    let mut mb = ModuleBuilder::new("stateful");
    mb.memory(1, Some(4));
    mb.data(16, b"abc".to_vec());
    let g = mb.global_i32(5);
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let old = f.local(ValType::I32);
    let grew = f.local(ValType::I32);
    f.extend([
        // Mutate the global: a second run on a non-reset instance sees 2x.
        set_global(g, add(global(g, ValType::I32), local(x))),
        // Read the template byte, then clobber it.
        set(old, load(Scalar::U8, i32c(16), 0)),
        store(Scalar::U8, i32c(16), 0, i32c(0xFF)),
        // Grow past the initial page and dirty the new one; after a correct
        // reset pages snap back to 1 and the grow succeeds again.
        set(grew, Expr::MemoryGrow(Box::new(i32c(1)))),
        if_(ne(local(grew), i32c(1)), vec![ret(Some(i32c(-1)))]),
        store(Scalar::I32, i32c(65536 + 8), 0, global(g, ValType::I32)),
        ret(Some(add(
            mul(global(g, ValType::I32), i32c(256)),
            local(old),
        ))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

#[test]
fn recycled_instance_matches_fresh_exactly() {
    let m = stateful_module();
    for (tier, bounds) in [
        (Tier::Optimized, BoundsStrategy::Software),
        (Tier::Optimized, BoundsStrategy::GuardRegion),
        (Tier::Naive, BoundsStrategy::Software),
    ] {
        let cm = Arc::new(translate(&m, tier).unwrap());
        let cfg = EngineConfig {
            bounds,
            tier,
            ..Default::default()
        };

        // Fresh baseline.
        let mut fresh = Instance::new(Arc::clone(&cm), cfg).unwrap();
        let want = fresh
            .call_complete("main", &[Value::I32(3)], &mut NullHost)
            .unwrap();
        assert_eq!(want, Some((5 + 3) * 256 + 97), "tier={tier:?}");
        let want_hash = fnv_memory_hash(&fresh);
        let want_fuel = fresh.fuel_used();

        // Dirty a second instance with a *different* argument, recycle it,
        // and replay the baseline invocation.
        let mut recycled = Instance::new(cm, cfg).unwrap();
        recycled
            .call_complete("main", &[Value::I32(9)], &mut NullHost)
            .unwrap();
        recycled.reset_from_template().unwrap();
        assert_eq!(recycled.memory().pages(), 1, "pages snap back to min");
        assert_eq!(recycled.fuel_used(), 0, "fuel rearmed by reset");

        let got = recycled
            .call_complete("main", &[Value::I32(3)], &mut NullHost)
            .unwrap();
        assert_eq!(got, want, "tier={tier:?} bounds={bounds:?}");
        assert_eq!(fnv_memory_hash(&recycled), want_hash, "memory hash");
        assert_eq!(recycled.fuel_used(), want_fuel, "fuel");
    }
}

#[test]
fn reset_restores_template_bytes_and_zeroes_dirt() {
    let m = stateful_module();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.call_complete("main", &[Value::I32(1)], &mut NullHost)
        .unwrap();
    assert_eq!(inst.memory().read_bytes(16, 1).unwrap(), &[0xFF]);
    inst.reset_from_template().unwrap();
    // Template bytes restored, dirt beyond the data segment zeroed.
    assert_eq!(inst.memory().read_bytes(16, 3).unwrap(), b"abc");
    assert_eq!(inst.memory().read_bytes(19, 1).unwrap(), &[0]);
    assert_eq!(inst.memory().read_bytes(1024, 64).unwrap(), &[0u8; 64]);
}

#[test]
fn reset_mid_invocation_is_rejected() {
    let m = stateful_module();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.invoke_export("main", &[Value::I32(1)]).unwrap();
    // One unit of fuel cannot finish the body: the instance is mid-run.
    assert!(matches!(
        inst.run(&mut NullHost, 1),
        StepResult::OutOfFuel | StepResult::Preempted
    ));
    assert!(matches!(
        inst.reset_from_template(),
        Err(InstanceError::InvalidState)
    ));
    // Finishing the invocation makes it resettable again.
    loop {
        match inst.run(&mut NullHost, u64::MAX) {
            StepResult::Complete(_) => break,
            StepResult::OutOfFuel | StepResult::Preempted => continue,
            other => panic!("unexpected {other:?}"),
        }
    }
    inst.reset_from_template().unwrap();
}

#[test]
fn dead_instance_can_be_recycled() {
    // A trapped (Dead) instance is still pool-eligible at the engine layer:
    // reset discards the trap state with the rest.
    let mut mb = ModuleBuilder::new("oob");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let a = f.arg(0);
    f.push(ret(Some(load(Scalar::I32, local(a), 0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let cfg = EngineConfig {
        bounds: BoundsStrategy::Software,
        ..Default::default()
    };
    let mut inst = Instance::new(cm, cfg).unwrap();
    assert!(inst
        .call_complete("main", &[Value::I32(-4)], &mut NullHost)
        .is_err());
    inst.reset_from_template().unwrap();
    let got = inst
        .call_complete("main", &[Value::I32(64)], &mut NullHost)
        .unwrap();
    assert_eq!(got, Some(0));
}

#[test]
fn repeated_recycling_stays_pristine() {
    // Fifty dirty-then-reset cycles: the high-water-mark bookkeeping must not
    // drift, and every replay must match the first.
    let m = stateful_module();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let want = inst
        .call_complete("main", &[Value::I32(2)], &mut NullHost)
        .unwrap();
    let want_fuel = inst.fuel_used();
    let want_hash = fnv_memory_hash(&inst);
    for round in 0..50 {
        inst.reset_from_template().unwrap();
        let got = inst
            .call_complete("main", &[Value::I32(2)], &mut NullHost)
            .unwrap();
        assert_eq!(got, want, "round {round}");
        assert_eq!(inst.fuel_used(), want_fuel, "round {round}");
        assert_eq!(fnv_memory_hash(&inst), want_hash, "round {round}");
    }
}

/// Build a guest that evaluates `e`, scribbles the result across a stride of
/// memory words (addresses masked into page 0), mutates a global accumulator,
/// optionally grows memory and dirties the new page, and returns a value that
/// depends on the global, a template data byte, and a read-back of the
/// scribbled memory.
fn build_stateful(e: &Arith, stores: u32, grow: bool) -> Module {
    let mut mb = ModuleBuilder::new("prop-recycle");
    mb.memory(1, Some(4));
    mb.data(8, b"seed".to_vec());
    let g = mb.global_i32(17);
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let y = f.arg(1);
    let v = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    let addr = f.local(ValType::I32);
    f.push(set(v, e.to_expr(x, y)));
    f.push(set_global(g, add(global(g, ValType::I32), local(v))));
    // Scribble `stores` words at value-dependent (masked) addresses.
    f.push(for_loop(
        i,
        i32c(0),
        lt_s(local(i), i32c(stores as i32)),
        1,
        vec![
            set(
                addr,
                and(add(local(v), mul(local(i), i32c(52))), i32c(0xFFFC)),
            ),
            store(Scalar::I32, local(addr), 0, xor(local(v), local(i))),
        ],
    ));
    if grow {
        f.push(set(i, Expr::MemoryGrow(Box::new(i32c(1)))));
        f.push(store(
            Scalar::I32,
            i32c(65536 + 128),
            0,
            global(g, ValType::I32),
        ));
    }
    f.push(ret(Some(add(
        add(
            mul(global(g, ValType::I32), i32c(31)),
            load(Scalar::U8, i32c(8), 0),
        ),
        load(Scalar::I32, and(local(v), i32c(0xFFFC)), 0),
    ))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("generated module must validate")
}

/// The differential property at the heart of the warm pool: recycled ≡
/// fresh, for arbitrary programs, dirtying patterns, and input pairs.
#[test]
fn recycled_is_observationally_fresh() {
    cases(64, 0x5EC7_C1E0, |rng| {
        let e = Arith::gen(rng, 4);
        let args = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let dirt = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let m = build_stateful(&e, rng.range(1, 24) as u32, rng.flip());
        for (tier, bounds) in [
            (Tier::Optimized, BoundsStrategy::Software),
            (Tier::Optimized, BoundsStrategy::GuardRegion),
            (Tier::Naive, BoundsStrategy::Software),
        ] {
            let cm = Arc::new(translate(&m, tier).unwrap());
            let cfg = EngineConfig {
                bounds,
                tier,
                ..Default::default()
            };

            let mut fresh = Instance::new(Arc::clone(&cm), cfg).unwrap();
            let want = run_once(&mut fresh, &args);

            let mut recycled = Instance::new(cm, cfg).unwrap();
            // Dirty with unrelated inputs, then reset and replay.
            run_once(&mut recycled, &dirt);
            recycled.reset_from_template().unwrap();
            assert_eq!(recycled.memory().pages(), 1);
            let got = run_once(&mut recycled, &args);

            assert_eq!(got, want, "tier={tier:?} bounds={bounds:?} e={e:?}");
        }
    });
}

/// Many consecutive recycles of one instance never drift from the fresh
/// baseline (the high-water-mark tracking must stay sound under reuse).
#[test]
fn repeated_recycles_never_drift() {
    cases(64, 0xD21F_7000, |rng| {
        let e = Arith::gen(rng, 4);
        let args = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let m = build_stateful(&e, 8, false);
        let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
        let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
        let want = run_once(&mut inst, &args);
        for _ in 0..rng.range(2, 12) {
            inst.reset_from_template().unwrap();
            assert_eq!(run_once(&mut inst, &args), want, "e={e:?}");
        }
    });
}
