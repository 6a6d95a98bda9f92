//! Integration tests for the static cost model and its preemption-latency
//! certificates: weighted fuel as a tier-independent work meter, budget
//! checks placed per basic block, splits under tight gap budgets, and the
//! certificate fields (`max_gap` / `max_loop_gap` / `max_host_gap`). The
//! work-meter and partition properties also run on seeded random programs.

mod common;

use awsm::{
    op_cost, translate, translate_with, EngineConfig, Host, HostImport, HostOutcome, Instance,
    LinearMemory, NullHost, Op, StepResult, Tier, TranslateOptions, Value, DEFAULT_MAX_CHECK_GAP,
};
use common::{any_i32, Arith, ALL_TIERS};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_testkit::cases;
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;
use std::sync::Arc;

/// A loop with a conditional, memory traffic, and mixed-weight arithmetic:
/// exercises back edges, fused compare-branches, and fused binops.
fn work_module(iters: i32) -> Module {
    let mut mb = ModuleBuilder::new("work");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let acc = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    f.extend([
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(iters)),
            1,
            vec![
                set(acc, add(local(acc), mul(local(x), local(i)))),
                if_(
                    gt_s(local(acc), i32c(1000)),
                    vec![set(acc, div_u(local(acc), i32c(3)))],
                ),
                store_i32(and(mul(local(i), i32c(4)), i32c(0xfff)), local(acc)),
                set(
                    acc,
                    add(
                        local(acc),
                        load_i32(and(mul(local(i), i32c(4)), i32c(0xfff))),
                    ),
                ),
            ],
        ),
        ret(Some(local(acc))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

fn with_gap(max_check_gap: u32) -> TranslateOptions {
    TranslateOptions { max_check_gap }
}

/// Run to completion with per-call fuel grant `quantum`; returns the
/// result value and total fuel consumed.
fn run_metered(
    m: &Module,
    tier: Tier,
    options: TranslateOptions,
    args: &[Value],
    quantum: u64,
) -> (Option<u64>, u64) {
    let cm = Arc::new(translate_with(m, tier, options).unwrap());
    let mut inst = Instance::new(
        cm,
        EngineConfig {
            tier,
            ..Default::default()
        },
    )
    .unwrap();
    inst.invoke_export("main", args).unwrap();
    let got = loop {
        match inst.run(&mut NullHost, quantum) {
            StepResult::Complete(v) => break v,
            StepResult::OutOfFuel => continue,
            other => panic!("unexpected {other:?}"),
        }
    };
    (got, inst.fuel_used())
}

// ------------------------------------------------ work-meter equivalence

#[test]
fn tiers_and_strategies_agree_on_total_fuel() {
    let m = work_module(25);
    let (ref_val, ref_fuel) = run_metered(
        &m,
        Tier::Optimized,
        with_gap(512),
        &[Value::I32(7)],
        u64::MAX,
    );
    assert!(ref_fuel > 0);
    for &tier in ALL_TIERS {
        let (v, fuel) = run_metered(&m, tier, with_gap(512), &[Value::I32(7)], u64::MAX);
        assert_eq!(v, ref_val, "value under {tier:?}");
        assert_eq!(fuel, ref_fuel, "fuel under {tier:?}");
    }
}

#[test]
fn chopping_preserves_totals_at_any_quantum() {
    let m = work_module(12);
    let (ref_val, ref_fuel) = run_metered(
        &m,
        Tier::Optimized,
        with_gap(128),
        &[Value::I32(3)],
        u64::MAX,
    );
    for quantum in [1, 2, 7, 33, 100] {
        for tier in [Tier::Optimized, Tier::Naive] {
            let (v, fuel) = run_metered(&m, tier, with_gap(128), &[Value::I32(3)], quantum);
            assert_eq!(v, ref_val, "chopped at {quantum} under {tier:?}");
            assert_eq!(fuel, ref_fuel, "fuel chopped at {quantum} under {tier:?}");
        }
    }
}

#[test]
fn instrumentation_gap_budget_does_not_change_totals() {
    let m = work_module(10);
    let (ref_val, ref_fuel) = run_metered(
        &m,
        Tier::Optimized,
        with_gap(512),
        &[Value::I32(5)],
        u64::MAX,
    );
    for gap in [4, 16, 64, 4096] {
        let (v, fuel) = run_metered(
            &m,
            Tier::Optimized,
            with_gap(gap),
            &[Value::I32(5)],
            u64::MAX,
        );
        assert_eq!(v, ref_val, "value at gap {gap}");
        assert_eq!(fuel, ref_fuel, "fuel at gap {gap}");
    }
}

// ------------------------------------------------ certificate structure

/// Scan an instrumented body: every `Op::Fuel` charge must be within the
/// certified gap, and the ops between consecutive charge sites must sum
/// to exactly the preceding charge (charges partition the body; zero-cost
/// chunks have their charge elided and merge in at no cost).
fn verify_partition(code: &[Op], max_gap: u32) {
    let mut seg = 0u64;
    let mut pending: Option<u32> = None;
    for op in code {
        if let Op::Fuel(n) = op {
            if let Some(p) = pending {
                assert_eq!(u64::from(p), seg, "segment under-/over-charged");
            }
            assert!(*n <= max_gap, "charge {n} above certified gap {max_gap}");
            pending = Some(*n);
            seg = 0;
        } else {
            seg += u64::from(op_cost(op));
        }
    }
    if let Some(p) = pending {
        assert_eq!(u64::from(p), seg, "trailing segment mismatch");
    }
}

#[test]
fn charges_partition_the_body_exactly() {
    for gap in [4, 32, DEFAULT_MAX_CHECK_GAP] {
        let cm = translate_with(&work_module(8), Tier::Optimized, with_gap(gap)).unwrap();
        let cert = &cm.analysis.cost;
        assert_eq!(cert.max_check_gap, gap);
        assert!(cert.max_gap <= gap, "splitting must meet the budget");
        for func in &cm.funcs {
            verify_partition(&func.code, cert.max_gap);
        }
    }
}

#[test]
fn branch_targets_land_on_charge_sites() {
    let cm = translate_with(&work_module(8), Tier::Optimized, with_gap(16)).unwrap();
    // Every branch target must be a block leader, i.e. its chunk's charge
    // site (or a zero-cost chunk's first op, which charges nothing).
    for func in &cm.funcs {
        let target_ok = |t: u32| {
            let i = t as usize;
            assert!(i < func.code.len(), "target {t} out of range");
            // A paid chunk's entry is its charge site; jumping there pays
            // the chunk's cost before executing any of it.
            if matches!(func.code[i], Op::Fuel(_)) {
                return;
            }
            // Otherwise the target must start a charge-elided (zero-cost)
            // chunk: a mid-chunk target would let a jump skip paid ops.
            let mut j = i;
            let mut back_cost = 0u64;
            while j > 0 && !matches!(func.code[j - 1], Op::Fuel(_)) {
                j -= 1;
                back_cost += u64::from(op_cost(&func.code[j]));
                if matches!(
                    func.code[j],
                    Op::Br(_) | Op::BrIf(_) | Op::BrIfZ(_) | Op::BrTable(_) | Op::Return
                ) {
                    // Hit the previous block's terminator first: the
                    // target starts a charge-elided (zero-cost) chunk.
                    back_cost = 0;
                    break;
                }
            }
            assert_eq!(
                back_cost, 0,
                "branch target {t} lands mid-chunk after paid ops"
            );
        };
        for op in &func.code {
            match op {
                Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => target_ok(b.target),
                Op::BrTable(p) => {
                    for b in p.targets.iter().chain(std::iter::once(&p.default)) {
                        target_ok(b.target);
                    }
                }
                _ => {}
            }
        }
    }
}

#[test]
fn tight_budget_inserts_splits_in_straight_line_code() {
    // 40 stores back-to-back: one basic block far over an 8-unit budget.
    let mut mb = ModuleBuilder::new("straight");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    for i in 0..40 {
        f.push(store_i32(i32c(i * 4), i32c(i)));
    }
    f.push(ret(Some(load_i32(i32c(0)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let tight = translate_with(&m, Tier::Optimized, with_gap(8)).unwrap();
    let cert = &tight.analysis.cost;
    assert!(cert.splits > 0, "tight budget must split the block");
    assert!(cert.max_gap <= 8);

    let loose = translate_with(&m, Tier::Optimized, with_gap(DEFAULT_MAX_CHECK_GAP)).unwrap();
    let loose_cert = &loose.analysis.cost;
    assert_eq!(loose_cert.splits, 0, "default budget fits the block whole");
    assert!(loose_cert.max_gap > 8);
    assert!(loose_cert.checks < cert.checks);

    // Same totals either way.
    let total_tight: u64 = cert.funcs.iter().map(|f| f.total_cost).sum();
    let total_loose: u64 = loose_cert.funcs.iter().map(|f| f.total_cost).sum();
    assert_eq!(total_tight, total_loose);
}

#[test]
fn loop_and_host_gaps_reported() {
    // Loop body gap: the work module has a back edge.
    let cm = translate(&work_module(4), Tier::Optimized).unwrap();
    let cert = &cm.analysis.cost;
    let main = &cert.funcs[0];
    assert!(main.max_loop_gap > 0, "loop body must report a loop gap");
    assert!(main.max_loop_gap <= main.max_gap);
    assert_eq!(main.max_host_gap, 0, "no host calls in the work module");

    // Host gap: a module whose only heavy segment contains a host call.
    let mut mb = ModuleBuilder::new("hosty");
    let ping = mb.import_func("env", "ping", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(call(ping, vec![i32c(1)]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    let cm = translate(&m, Tier::Optimized).unwrap();
    let cert = &cm.analysis.cost;
    assert!(
        cert.funcs[0].max_host_gap > 0,
        "host call gap must be flagged"
    );
}

// ------------------------------------------------ runtime interaction

struct PingHost;
impl Host for PingHost {
    fn call(
        &mut self,
        _idx: u32,
        _import: &HostImport,
        args: &[u64],
        _memory: &mut LinearMemory,
    ) -> HostOutcome {
        HostOutcome::Value(args[0] + 1)
    }
}

#[test]
fn host_calls_cost_the_same_in_both_tiers() {
    let mut mb = ModuleBuilder::new("hosty");
    mb.memory(1, Some(1));
    let ping = mb.import_func("env", "ping", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let acc = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    f.extend([
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(5)),
            1,
            vec![set(acc, add(local(acc), call(ping, vec![local(i)])))],
        ),
        ret(Some(local(acc))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let mut totals = Vec::new();
    for tier in [Tier::Optimized, Tier::Naive] {
        let cm = Arc::new(translate(&m, tier).unwrap());
        let mut inst = Instance::new(
            cm,
            EngineConfig {
                tier,
                ..Default::default()
            },
        )
        .unwrap();
        let v = inst.call_complete("main", &[], &mut PingHost).unwrap();
        assert_eq!(v, Some(1 + 2 + 3 + 4 + 5));
        totals.push(inst.fuel_used());
    }
    assert_eq!(totals[0], totals[1], "host-call fuel differs across tiers");
}

#[test]
fn fuel_used_is_exact_across_pauses() {
    // fuel_used after completion must be independent of quantum size even
    // when every quantum ends in debt (quantum 1 against charges > 1).
    let m = work_module(6);
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.invoke_export("main", &[Value::I32(2)]).unwrap();
    let mut quanta = 0u64;
    loop {
        match inst.run(&mut NullHost, 1) {
            StepResult::Complete(_) => break,
            StepResult::OutOfFuel => quanta += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    let (_, ref_fuel) = run_metered(
        &m,
        Tier::Optimized,
        with_gap(512),
        &[Value::I32(2)],
        u64::MAX,
    );
    assert_eq!(inst.fuel_used(), ref_fuel);
    // Paying one unit per call means the pause count equals total cost
    // minus what the final completing call consumed.
    assert!(quanta >= ref_fuel - 1, "quantum=1 must pause per unit");
}

// ------------------------------------------------------ shipped guests

/// The fuel each shipped guest burns on its reference input, in both tiers.
/// These are the counts the one-body-per-function change had to hold to the
/// unit (they were read with the translate-time optimizer on and off and
/// agreed); a row that moves means a body changed meaning or a weight
/// changed, and the benchmark's `awsm.fuel_per_req.*` rows move with it.
#[test]
fn shipped_guests_burn_pinned_fuel() {
    use sledge_apps::testutil::BufferHost;
    let pinned: [(&str, u64); 7] = [
        ("ping", 20),
        ("echo", 98_430),
        ("gps_ekf", 85_715),
        ("gocr", 1_027_260),
        ("cifar10", 5_141_977),
        ("resize", 7_154_956),
        ("lpd", 9_177_941),
    ];
    let apps = sledge_apps::all_apps();
    assert_eq!(
        apps.len(),
        pinned.len(),
        "a shipped guest has no pinned row"
    );
    for (name, fuel) in pinned {
        let app = apps.iter().find(|a| a.name == name).expect("shipped guest");
        let body = match name {
            "echo" => sledge_apps::echo::payload(64 << 10),
            _ => (app.sample_input)(),
        };
        for tier in [Tier::Optimized, Tier::Naive] {
            let cm = Arc::new(translate(&(app.module)(), tier).unwrap());
            let config = EngineConfig {
                tier,
                ..Default::default()
            };
            let mut inst = Instance::new(cm, config).unwrap();
            let mut host = BufferHost::new(body.clone());
            inst.call_complete("main", &[], &mut host).unwrap();
            assert_eq!(host.response, (app.native)(&body), "{name} under {tier:?}");
            assert_eq!(inst.fuel_used(), fuel, "{name} under {tier:?}");
        }
    }
}

// --------------------------------------------------- seeded random programs

/// A loop with branching and memory traffic around the expression, so
/// bodies exercise back edges, stores/loads, and fused compare-branches.
fn arith_module(e: &Arith, iters: i32) -> Module {
    let mut mb = ModuleBuilder::new("prop-cost");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let y = f.arg(1);
    let acc = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    f.extend([
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(iters)),
            1,
            vec![
                set(acc, xor(local(acc), e.to_expr(x, y))),
                if_(
                    gt_s(local(acc), i32c(0)),
                    vec![set(acc, sub(i32c(0), local(acc)))],
                ),
                store_i32(and(mul(local(i), i32c(4)), i32c(0xfff)), local(acc)),
                set(
                    acc,
                    add(
                        local(acc),
                        load_i32(and(mul(local(i), i32c(4)), i32c(0xfff))),
                    ),
                ),
            ],
        ),
        ret(Some(local(acc))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("generated module must validate")
}

/// Both tiers consume identical total fuel for the same execution, and
/// chopping at any quantum neither changes the result nor the total.
#[test]
fn tiers_agree_on_total_fuel() {
    cases(64, 0xF0E1_0001, |rng| {
        let e = Arith::gen(rng, 4);
        let args = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let m = arith_module(&e, rng.range(1, 20) as i32);
        let quantum = rng.range(1, 200);
        let options = with_gap(rng.range(8, 1024) as u32);
        let run = |tier, quantum| run_metered(&m, tier, options, &args, quantum);
        let reference = run(Tier::Optimized, u64::MAX);
        assert!(reference.1 > 0, "a loop iteration must cost something");
        let got = run(Tier::Naive, u64::MAX);
        assert_eq!(got, reference, "tier={:?} e={e:?}", Tier::Naive);
        // Chopped runs pay exactly the same total (debt accounting is exact).
        for &tier in ALL_TIERS {
            let got = run(tier, quantum);
            assert_eq!(
                got, reference,
                "chopped at {quantum}, tier={tier:?} e={e:?}"
            );
        }
    });
}

/// The shipped instrumentation obeys its certificate: every `Op::Fuel`
/// charge is at most the certified max gap, the certificate respects the
/// requested budget whenever no single opcode outweighs it, and recomputing
/// each check-free segment's cost from the instrumented body reproduces the
/// charge at its head.
#[test]
fn observed_gaps_within_certificate() {
    cases(64, 0x6A95_CE27, |rng| {
        let m = arith_module(&Arith::gen(rng, 4), rng.range(1, 10) as i32);
        let gap = rng.range(4, 256) as u32;
        let cm = translate_with(&m, Tier::Optimized, with_gap(gap)).unwrap();
        let cert = &cm.analysis.cost;
        assert_eq!(cert.max_check_gap, gap);
        // No opcode in this generator weighs more than a memory store (3)
        // or i32 division (4), so the certificate must meet any budget >= 4.
        assert!(
            cert.max_gap <= gap.max(op_cost(&Op::MemoryGrow)),
            "certified gap {} exceeds budget {gap}",
            cert.max_gap
        );
        for func in &cm.funcs {
            verify_partition(&func.code, cert.max_gap);
        }
    });
}
