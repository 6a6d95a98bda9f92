//! Differential tests for the translate-time optimizer. Guest programs
//! exercising constant folding, dead-code elimination, branch simplification,
//! fusion, and bounds-check elision are run with the optimizer on and off;
//! results, traps, fuel, and full-memory hashes must match across both tiers
//! and bounds strategies. Each property runs on fixed boundary inputs and on
//! seeded random programs.

mod common;

use awsm::{
    translate_with, BoundsStrategy, EngineConfig, Instance, NullHost, Tier, TranslateOptions, Trap,
    Value, DEFAULT_MAX_CHECK_GAP,
};
use common::{any_i32, run_once, Arith, BinOp};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_testkit::cases;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;

/// A guest with something for every optimizer pass: a constant preamble
/// routed through locals, a constant-condition branch with a dead arm,
/// dominated stores, a store/load loop of `iters` rounds, and a global
/// accumulator. `arms` are what the two sides of the branch compute.
fn workout_module(arms: [&Arith; 2], iters: i32, dead_arm_taken: bool) -> Module {
    let mut mb = ModuleBuilder::new("opt-diff");
    mb.memory(1, Some(2));
    mb.data(8, b"opt!".to_vec());
    let g = mb.global_i32(23);
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let y = f.arg(1);
    let v = f.local(ValType::I32);
    let k = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    let a = f.local(ValType::I32);
    // An address loaded from memory is opaque to interval analysis (it is 0
    // at runtime: this reads pristine zeroed memory), so the first access
    // through it stays checked — and *dominates* the later, smaller
    // accesses, which the coverage pass converts to unchecked forms.
    f.push(set(a, load(Scalar::I32, i32c(0), 0)));
    f.push(store(Scalar::I32, local(a), 16, i32c(77)));
    f.push(store(Scalar::I32, local(a), 0, i32c(88)));
    f.push(set(v, load(Scalar::I32, local(a), 8)));
    // Constant preamble through a local: folds to a single constant.
    f.push(set(k, add(mul(i32c(7), i32c(3)), i32c(100))));
    // Constant-condition branch: one arm statically dead.
    f.push(if_else(
        i32c(if dead_arm_taken { 1 } else { 0 }),
        vec![set(v, add(arms[0].to_expr(x, y), local(k)))],
        vec![set(v, xor(arms[1].to_expr(x, y), local(k)))],
    ));
    f.push(set_global(g, add(global(g, ValType::I32), local(v))));
    // Constant-address stores; the second is dominated by the first.
    f.push(store(Scalar::I32, i32c(256), 0, local(v)));
    f.push(store(Scalar::I32, i32c(128), 0, global(g, ValType::I32)));
    // Relative pair off one base local.
    f.push(set(k, and(local(v), i32c(0xFF00))));
    f.push(store(Scalar::I32, local(k), 12, local(v)));
    f.push(store(Scalar::I32, local(k), 4, xor(local(v), i32c(-1))));
    // Loop with memory traffic and a data-dependent branch.
    f.push(for_loop(
        i,
        i32c(0),
        lt_s(local(i), i32c(iters)),
        1,
        vec![
            store(
                Scalar::I32,
                and(mul(local(i), i32c(4)), i32c(0xFFC)),
                0,
                xor(local(v), local(i)),
            ),
            if_(
                gt_s(local(v), i32c(0)),
                vec![set(v, sub(i32c(0), local(v)))],
            ),
            set(
                v,
                add(
                    local(v),
                    load(Scalar::I32, and(mul(local(i), i32c(4)), i32c(0xFFC)), 0),
                ),
            ),
        ],
    ));
    f.push(ret(Some(add(
        add(
            mul(global(g, ValType::I32), i32c(31)),
            load(Scalar::U8, i32c(8), 0),
        ),
        local(v),
    ))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("module must validate")
}

/// The fixed workout: `x * y` on one arm, `x - y` on the other, 11 rounds.
fn fixed_workout(dead_arm_taken: bool) -> Module {
    let bin = |op| Arith::Bin(op, Box::new(Arith::X), Box::new(Arith::Y));
    workout_module([&bin(BinOp::Mul), &bin(BinOp::Sub)], 11, dead_arm_taken)
}

/// A guest whose second store traps iff `off` pushes it past the page.
fn trapping_module(off: u32) -> Module {
    let mut mb = ModuleBuilder::new("opt-diff-trap");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let v = f.local(ValType::I32);
    f.push(set(v, mul(local(x), i32c(3))));
    f.push(store(Scalar::I32, i32c(16), 0, local(v)));
    f.push(store(
        Scalar::I32,
        and(local(v), i32c(0xFFC)),
        off,
        local(v),
    ));
    f.push(ret(Some(load(Scalar::I32, i32c(16), 0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("module must validate")
}

fn translate_opt(m: &Module, tier: Tier, optimize: bool) -> Arc<awsm::CompiledModule> {
    Arc::new(
        translate_with(
            m,
            tier,
            TranslateOptions {
                max_check_gap: DEFAULT_MAX_CHECK_GAP,
                optimize,
            },
        )
        .unwrap(),
    )
}

fn observe(
    cm: Arc<awsm::CompiledModule>,
    tier: Tier,
    bounds: BoundsStrategy,
    args: &[Value],
) -> (Option<u64>, u64, u64) {
    let mut inst = Instance::new(
        cm,
        EngineConfig {
            bounds,
            tier,
            ..Default::default()
        },
    )
    .unwrap();
    run_once(&mut inst, args)
}

fn observe_trap(
    cm: Arc<awsm::CompiledModule>,
    tier: Tier,
    bounds: BoundsStrategy,
    args: &[Value],
) -> (Result<Option<u64>, Trap>, u64) {
    let mut inst = Instance::new(
        cm,
        EngineConfig {
            bounds,
            tier,
            ..Default::default()
        },
    )
    .unwrap();
    let out = match inst.call_complete("main", args, &mut NullHost) {
        Ok(v) => Ok(v),
        Err(e) => match e.downcast::<Trap>() {
            Ok(t) => Err(*t),
            Err(other) => panic!("non-trap failure: {other}"),
        },
    };
    (out, inst.fuel_used())
}

const INPUTS: &[(i32, i32)] = &[
    (0, 0),
    (1, -1),
    (12345, 678),
    (-777, 31),
    (i32::MAX, 2),
    (i32::MIN, i32::MIN),
];

#[test]
fn optimized_matches_unoptimized_on_result_memory_and_fuel() {
    for dead_arm in [false, true] {
        let m = fixed_workout(dead_arm);
        for tier in [Tier::Optimized, Tier::Naive] {
            let base = translate_opt(&m, tier, false);
            let opt = translate_opt(&m, tier, true);
            awsm::validate_opt(&opt).expect("certificate must validate");
            for bounds in [BoundsStrategy::Software, BoundsStrategy::GuardRegion] {
                for &(x, y) in INPUTS {
                    let args = [Value::I32(x), Value::I32(y)];
                    let want = observe(Arc::clone(&base), tier, bounds, &args);
                    let got = observe(Arc::clone(&opt), tier, bounds, &args);
                    assert_eq!(
                        got, want,
                        "tier={tier:?} bounds={bounds:?} x={x} y={y} dead_arm={dead_arm}"
                    );
                }
            }
        }
    }
}

#[test]
fn optimizer_actually_optimizes_the_workout() {
    // The differential test is vacuous if the optimizer did nothing; pin
    // that the workout module really exercises the passes.
    let opt = translate_opt(&fixed_workout(false), Tier::Optimized, true);
    let report = opt.analysis.opt.as_ref().expect("optimizer report");
    assert!(report.ops_after < report.ops_before, "{report:?}");
    assert!(report.folded > 0, "constant folding fired: {report:?}");
    assert!(
        report.branches_simplified > 0,
        "constant branch simplified: {report:?}"
    );
    assert!(report.dce_ops > 0, "dead arm removed: {report:?}");
    assert!(
        report.checks_elided > 0,
        "dominated checks elided: {report:?}"
    );
    // Opt-off translation carries no report.
    let base = translate_opt(&fixed_workout(false), Tier::Optimized, false);
    assert!(base.analysis.opt.is_none());
}

#[test]
fn traps_are_preserved_across_optimization() {
    // Offsets straddling the one-page boundary: in-bounds, data-dependent,
    // and always-out-of-bounds for the masked address range [0, 0xFFC].
    for off in [0u32, 1020, 61_440, 64_508, 65_532, 70_000] {
        let m = trapping_module(off);
        for tier in [Tier::Optimized, Tier::Naive] {
            let base = translate_opt(&m, tier, false);
            let opt = translate_opt(&m, tier, true);
            for bounds in [BoundsStrategy::Software, BoundsStrategy::GuardRegion] {
                for x in [0i32, 1, 341, 1365, -1] {
                    let args = [Value::I32(x)];
                    let (want, want_fuel) = observe_trap(Arc::clone(&base), tier, bounds, &args);
                    let (got, got_fuel) = observe_trap(Arc::clone(&opt), tier, bounds, &args);
                    assert_eq!(got, want, "tier={tier:?} bounds={bounds:?} off={off} x={x}");
                    // Fuel at a trap is only comparable where charging is
                    // per-op; the optimized tier prepays block segments.
                    if tier == Tier::Naive || want.is_ok() {
                        assert_eq!(
                            got_fuel, want_fuel,
                            "fuel: tier={tier:?} bounds={bounds:?} off={off} x={x}"
                        );
                    }
                }
            }
        }
    }
}

/// A recycled instance of the *optimized* translation of `m` (dirtied with
/// `dirt`, reset from its memory template) replays `args` exactly as a
/// fresh instance runs them.
fn assert_recycled_optimized_is_fresh(m: &Module, args: &[Value], dirt: &[Value]) {
    let cm = translate_opt(m, Tier::Optimized, true);
    let cfg = EngineConfig::default();
    let mut fresh = Instance::new(Arc::clone(&cm), cfg).unwrap();
    let want = run_once(&mut fresh, args);

    let mut recycled = Instance::new(cm, cfg).unwrap();
    run_once(&mut recycled, dirt);
    recycled.reset_from_template().unwrap();
    assert_eq!(run_once(&mut recycled, args), want);
}

#[test]
fn recycled_optimized_instance_matches_fresh() {
    assert_recycled_optimized_is_fresh(
        &fixed_workout(false),
        &[Value::I32(4242), Value::I32(-99)],
        &[Value::I32(-31415), Value::I32(926)],
    );
}

// --------------------------------------------------- seeded random programs

/// The core translation-validation property, dynamically: optimized and
/// unoptimized translations of the same module are observationally
/// identical — result, full-memory hash, and total fuel — across both
/// tiers and both checking bounds strategies.
#[test]
fn optimized_is_observationally_unoptimized() {
    cases(48, 0x0071_D1FF, |rng| {
        let e = Arith::gen(rng, 4);
        let args = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let m = workout_module([&e, &e], rng.range(1, 16) as i32, rng.flip());
        for tier in [Tier::Optimized, Tier::Naive] {
            let base = translate_opt(&m, tier, false);
            let opt = translate_opt(&m, tier, true);
            assert!(opt.analysis.opt.is_some(), "optimizer report attached");
            awsm::validate_opt(&opt).expect("certificate must validate");
            for bounds in [BoundsStrategy::Software, BoundsStrategy::GuardRegion] {
                let want = observe(Arc::clone(&base), tier, bounds, &args);
                let got = observe(Arc::clone(&opt), tier, bounds, &args);
                assert_eq!(got, want, "tier={tier:?} bounds={bounds:?} e={e:?}");
            }
        }
    });
}

/// Trap preservation: a guest that traps does so identically with the
/// optimizer on and off, in both tiers. Fuel is compared in the naive
/// tier only (per-op charging observes the same executed prefix); the
/// optimized tier prepays block segments whose layout the optimizer may
/// legally reshape past the trap point.
#[test]
fn traps_are_preserved() {
    cases(48, 0x72A9_5AFE, |rng| {
        let off = if rng.flip() {
            rng.range(0, 1024)
        } else {
            rng.range(64_000, 70_000)
        } as u32;
        let m = trapping_module(off);
        let args = [Value::I32(any_i32(rng))];
        for tier in [Tier::Optimized, Tier::Naive] {
            let base = translate_opt(&m, tier, false);
            let opt = translate_opt(&m, tier, true);
            for bounds in [BoundsStrategy::Software, BoundsStrategy::GuardRegion] {
                let (want, want_fuel) = observe_trap(Arc::clone(&base), tier, bounds, &args);
                let (got, got_fuel) = observe_trap(Arc::clone(&opt), tier, bounds, &args);
                assert_eq!(got, want, "tier={tier:?} bounds={bounds:?} off={off}");
                if tier == Tier::Naive || want.is_ok() {
                    assert_eq!(
                        got_fuel, want_fuel,
                        "fuel: tier={tier:?} bounds={bounds:?} off={off}"
                    );
                }
            }
        }
    });
}

/// Pool-path equivalence: a recycled instance of an *optimized* module
/// (reset from its memory template) stays observationally identical to
/// a fresh instance — the optimizer must not perturb the template or
/// the high-water-mark reset.
#[test]
fn recycled_optimized_instance_is_fresh() {
    cases(48, 0x0F2E_5400, |rng| {
        let e = Arith::gen(rng, 4);
        let args = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let dirt = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let m = workout_module([&e, &e], rng.range(1, 8) as i32, false);
        assert_recycled_optimized_is_fresh(&m, &args, &dirt);
    });
}
