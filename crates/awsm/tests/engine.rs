//! End-to-end engine tests: guest programs written in the `sledge-guestc`
//! DSL (and some hand-assembled Wasm), executed on the engine and on the
//! reference interpreter — fixed programs first, then seeded random
//! expressions checked against native Rust evaluation and random
//! memory-access scripts checked against the reference.

mod common;

use awsm::{
    translate, EngineConfig, Host, HostImport, HostOutcome, Instance, LinearMemory, NullHost,
    StepResult, Tier, Trap, Value,
};
use common::{any_i32, Arith};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_testkit::{cases, Rng};
use sledge_wasm::instr::{BlockType, Instr};
use sledge_wasm::module::{Export, FuncBody, Module};
use sledge_wasm::types::{FuncType, Limits, MemoryType, ValType};
use std::sync::Arc;

/// `entry(args)`, which must complete.
fn run_ok(m: &Module, entry: &str, args: &[Value]) -> Option<u64> {
    single(m, entry, args).unwrap_or_else(|trap| panic!("{entry}: {trap}"))
}

fn assert_returns(m: &Module, entry: &str, args: &[Value], expect: u64) {
    assert_eq!(run_ok(m, entry, args), Some(expect));
}

/// `entry(args)` on a fresh instance, which the reference interpreter must
/// end the same way.
fn single(m: &Module, entry: &str, args: &[Value]) -> Result<Option<u64>, Trap> {
    let cm = Arc::new(translate(m, Tier::Optimized).expect("translate"));
    let mut inst = Instance::new(cm, EngineConfig::default()).expect("instantiate");
    inst.invoke_export(entry, args).expect("invoke");
    let result = loop {
        match inst.run(&mut NullHost, u64::MAX) {
            StepResult::Complete(v) => break Ok(v),
            StepResult::Trapped(t) => break Err(t),
            StepResult::OutOfFuel | StepResult::Preempted => continue,
            StepResult::Blocked => panic!("unexpected block"),
        }
    };
    common::same_as_reference(m, &inst, entry, args, result);
    result
}

// ---------------------------------------------------------------- control

#[test]
fn triangle_sum_loop() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = f.arg(0);
    let acc = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    f.extend([
        for_loop(
            i,
            i32c(1),
            le_s(local(i), local(n)),
            1,
            vec![set(acc, add(local(acc), local(i)))],
        ),
        ret(Some(local(acc))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_returns(&m, "main", &[Value::I32(100)], 5050);
}

#[test]
fn nested_loops_with_break_continue() {
    // Count pairs (i, j) with i*j odd, for i, j in 0..20, but stop counting
    // a row at the first j > 15.
    let mut mb = ModuleBuilder::new("t");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let count = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    let j = f.local(ValType::I32);
    f.extend([
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(20)),
            1,
            vec![
                set(j, i32c(0)),
                while_(
                    lt_s(local(j), i32c(20)),
                    vec![
                        if_(gt_s(local(j), i32c(15)), vec![brk()]),
                        set(j, add(local(j), i32c(1))),
                        if_(
                            eq(rem(mul(local(i), sub(local(j), i32c(1))), i32c(2)), i32c(0)),
                            vec![cont()],
                        ),
                        set(count, add(local(count), i32c(1))),
                    ],
                ),
            ],
        ),
        ret(Some(local(count))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    // Native reference.
    let mut expect = 0u32;
    for i in 0..20i32 {
        let mut j = 0i32;
        while j < 20 {
            if j > 15 {
                break;
            }
            j += 1;
            if (i * (j - 1)) % 2 == 0 {
                continue;
            }
            expect += 1;
        }
    }
    assert_returns(&m, "main", &[], expect as u64);
}

#[test]
fn recursion_factorial_and_fib() {
    let mut mb = ModuleBuilder::new("t");
    let fact = mb.declare("fact", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = f.arg(0);
    f.push(if_else(
        le_s(local(n), i32c(1)),
        vec![ret(Some(i32c(1)))],
        vec![ret(Some(mul(
            local(n),
            call(fact, vec![sub(local(n), i32c(1))]),
        )))],
    ));
    mb.define(fact, f);

    let fib = mb.declare("fib", &[ValType::I32], Some(ValType::I32));
    let mut g = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = g.arg(0);
    g.push(if_else(
        lt_s(local(n), i32c(2)),
        vec![ret(Some(local(n)))],
        vec![ret(Some(add(
            call(fib, vec![sub(local(n), i32c(1))]),
            call(fib, vec![sub(local(n), i32c(2))]),
        )))],
    ));
    mb.define(fib, g);
    mb.export_func(fact, "fact");
    mb.export_func(fib, "fib");
    let m = mb.build().unwrap();
    assert_returns(&m, "fact", &[Value::I32(10)], 3628800);
    assert_returns(&m, "fib", &[Value::I32(20)], 6765);
}

#[test]
fn if_else_value_select_and_early_return() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    f.extend([
        if_(lt_s(local(x), i32c(0)), vec![ret(Some(i32c(-1)))]),
        ret(Some(select(gt_s(local(x), i32c(100)), i32c(2), local(x)))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_returns(&m, "main", &[Value::I32(-5)], (-1i32) as u32 as u64);
    assert_returns(&m, "main", &[Value::I32(7)], 7);
    assert_returns(&m, "main", &[Value::I32(101)], 2);
}

#[test]
fn br_table_dispatch_hand_assembled() {
    // switch (x) { case 0 -> 10; case 1 -> 20; default -> 99 }
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    use Instr::*;
    let f = m.push_function(
        t,
        FuncBody::new(
            vec![],
            vec![
                Block(BlockType::Value(ValType::I32)), // result
                Block(BlockType::Empty),               // case 1
                Block(BlockType::Empty),               // case 0
                LocalGet(0),
                BrTable(vec![0, 1], 2),
                End,
                I32Const(10),
                Br(1),
                End,
                I32Const(20),
                Br(0),
                End,
                End,
            ],
        ),
    );
    // default: fall out of the inner blocks and push 99 — but our layout
    // routes default to the *outermost* (depth 2) which is the result block
    // and needs a value. Rework: default jumps past everything with 99.
    // Simplest: wrap: use a distinct default case block.
    m.exports.push(Export::func("main", f));
    // The code above: br_table default=2 targets the value block and would
    // need a value, which validation rejects; check that it *is* rejected.
    assert!(sledge_wasm::validate::validate_module(&m).is_err());

    // Correct version with an explicit default arm.
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let f = m.push_function(
        t,
        FuncBody::new(
            vec![],
            vec![
                Block(BlockType::Empty), // default
                Block(BlockType::Empty), // case 1
                Block(BlockType::Empty), // case 0
                LocalGet(0),
                BrTable(vec![0, 1], 2),
                End,
                I32Const(10),
                Return,
                End,
                I32Const(20),
                Return,
                End,
                I32Const(99),
                Return,
                End,
            ],
        ),
    );
    m.exports.push(Export::func("main", f));
    assert_returns(&m, "main", &[Value::I32(0)], 10);
    assert_returns(&m, "main", &[Value::I32(1)], 20);
    assert_returns(&m, "main", &[Value::I32(2)], 99);
    assert_returns(&m, "main", &[Value::I32(-1)], 99);
}

#[test]
fn block_result_values_flow_through_branches() {
    // block (result i32): if x then br with 5 else fall through with 9.
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    use Instr::*;
    let f = m.push_function(
        t,
        FuncBody::new(
            vec![],
            vec![
                Block(BlockType::Value(ValType::I32)),
                I32Const(5),
                LocalGet(0),
                BrIf(0),
                Drop,
                I32Const(9),
                End,
                End,
            ],
        ),
    );
    m.exports.push(Export::func("main", f));
    assert_returns(&m, "main", &[Value::I32(1)], 5);
    assert_returns(&m, "main", &[Value::I32(0)], 9);
}

// ---------------------------------------------------------------- memory

#[test]
fn memory_fill_and_sum() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(4));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I64));
    let n = f.arg(0);
    let i = f.local(ValType::I32);
    let acc = f.local(ValType::I64);
    f.extend([
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![store(
                Scalar::I32,
                mul(local(i), i32c(4)),
                0,
                mul(local(i), local(i)),
            )],
        ),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![set(
                acc,
                add(
                    local(acc),
                    i2l(load(Scalar::I32, mul(local(i), i32c(4)), 0)),
                ),
            )],
        ),
        ret(Some(local(acc))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    let expect: u64 = (0..100u64).map(|i| i * i).sum();
    assert_returns(&m, "main", &[Value::I32(100)], expect);
}

#[test]
fn data_segments_initialize_memory() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    mb.data(128, b"sledge".to_vec());
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(load(Scalar::U8, i32c(128), 3)))); // 'd'
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_returns(&m, "main", &[], b'd' as u64);
}

#[test]
fn memory_grow_and_size() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(3));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let old = f.local(ValType::I32);
    let r = f.local(ValType::I32);
    f.extend([
        set(old, Expr::MemorySize),
        set(r, Expr::MemoryGrow(Box::new(i32c(1)))),
        // store into the fresh page
        store(Scalar::I32, i32c(65536 + 16), 0, i32c(77)),
        // failed grow returns -1
        if_(
            ne(Expr::MemoryGrow(Box::new(i32c(10))), i32c(-1)),
            vec![ret(Some(i32c(-100)))],
        ),
        ret(Some(add(
            add(mul(local(old), i32c(100)), mul(local(r), i32c(10))),
            load(Scalar::I32, i32c(65536 + 16), 0),
        ))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    // old=1, r=1, load=77 → 100 + 10 + 77 = 187
    assert_returns(&m, "main", &[], 187);
}

use sledge_guestc::Expr;

#[test]
fn out_of_bounds_traps_under_software_checks() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let a = f.arg(0);
    f.push(ret(Some(load(Scalar::I32, local(a), 0))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_eq!(
        single(&m, "main", &[Value::I32(65533)]),
        Err(Trap::OutOfBounds)
    );
    assert!(single(&m, "main", &[Value::I32(65532)]).is_ok());
    // Negative address = huge unsigned address.
    assert_eq!(
        single(&m, "main", &[Value::I32(-4)]),
        Err(Trap::OutOfBounds)
    );
}

#[test]
fn out_of_bounds_traps_on_every_config() {
    // A load and a store at `a + 16`: past the end, straddling it, and
    // negative (a huge unsigned address, which a mask would have wrapped
    // back into the memory).
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let a = f.arg(0);
    f.push(ret(Some(load(Scalar::I32, local(a), 16))));
    let ld = mb.add_func("ld", f);
    mb.export_func(ld, "ld");
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let a = f.arg(0);
    f.extend([
        store(Scalar::I64, local(a), 16, i64c(-1)),
        ret(Some(i32c(0))),
    ]);
    let st = mb.add_func("st", f);
    mb.export_func(st, "st");
    let m = mb.build().unwrap();
    for addr in [65536 - 16, 65536 - 18, -64, -16] {
        for entry in ["ld", "st"] {
            assert_eq!(
                single(&m, entry, &[Value::I32(addr)]),
                Err(Trap::OutOfBounds),
                "{entry}({addr})"
            );
        }
    }
}

// ---------------------------------------------------------------- traps

#[test]
fn arithmetic_traps() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    let (a, b2) = (f.arg(0), f.arg(1));
    f.push(ret(Some(div(local(a), local(b2)))));
    let d = mb.add_func("div", f);
    mb.export_func(d, "div");
    let mut g = FuncBuilder::new(&[ValType::F64], Some(ValType::I32));
    let x = g.arg(0);
    g.push(ret(Some(d2i(local(x)))));
    let c = mb.add_func("conv", g);
    mb.export_func(c, "conv");
    let mut h = FuncBuilder::new(&[], None);
    h.push(Stmt::Unreachable);
    let u = mb.add_func("die", h);
    mb.export_func(u, "die");
    let m = mb.build().unwrap();

    assert_eq!(
        single(&m, "div", &[Value::I32(1), Value::I32(0)]),
        Err(Trap::DivByZero)
    );
    assert_eq!(
        single(&m, "div", &[Value::I32(i32::MIN), Value::I32(-1)]),
        Err(Trap::IntOverflow)
    );
    assert_eq!(
        single(&m, "conv", &[Value::F64(1e300)]),
        Err(Trap::InvalidConversion)
    );
    assert_eq!(single(&m, "die", &[]), Err(Trap::Unreachable));
}

use sledge_guestc::Stmt;

#[test]
fn infinite_recursion_exhausts_stack() {
    let mut mb = ModuleBuilder::new("t");
    let f = mb.declare("loop_forever", &[], Some(ValType::I32));
    let mut fb = FuncBuilder::new(&[], Some(ValType::I32));
    fb.push(ret(Some(call(f, vec![]))));
    mb.define(f, fb);
    mb.export_func(f, "loop_forever");
    let m = mb.build().unwrap();
    assert_eq!(single(&m, "loop_forever", &[]), Err(Trap::StackExhausted));
}

#[test]
fn dead_instance_rejects_reuse() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = FuncBuilder::new(&[], None);
    f.push(Stmt::Unreachable);
    let u = mb.add_func("die", f);
    mb.export_func(u, "die");
    let m = mb.build().unwrap();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.invoke_export("die", &[]).unwrap();
    assert!(matches!(
        inst.run(&mut NullHost, u64::MAX),
        StepResult::Trapped(Trap::Unreachable)
    ));
    assert!(inst.invoke_export("die", &[]).is_err());
}

// ---------------------------------------------------------- preempt/fuel

fn spin_module() -> Module {
    let mut mb = ModuleBuilder::new("spin");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let i = f.local(ValType::I32);
    f.extend([
        while_(i32c(1), vec![set(i, add(local(i), i32c(1)))]),
        ret(Some(local(i))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

#[test]
fn fuel_exhaustion_pauses_infinite_loop() {
    let m = spin_module();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.invoke_export("main", &[]).unwrap();
    for _ in 0..10 {
        assert_eq!(inst.run(&mut NullHost, 1000), StepResult::OutOfFuel);
    }
    assert!(inst.is_running());
}

#[test]
fn external_preempt_flag_stops_spin() {
    let m = spin_module();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    inst.invoke_export("main", &[]).unwrap();
    let flag = inst.preempt_flag();
    let t = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(inst.run(&mut NullHost, u64::MAX), StepResult::Preempted);
    t.join().unwrap();
    // The flag is consumed; the next quantum runs again.
    assert_eq!(inst.run(&mut NullHost, 100), StepResult::OutOfFuel);
}

#[test]
fn chopped_execution_equals_uninterrupted() {
    // Run fib(18) with fuel 1-at-a-time vs all-at-once: identical results.
    let mut mb = ModuleBuilder::new("t");
    let fib = mb.declare("fib", &[ValType::I32], Some(ValType::I32));
    let mut g = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = g.arg(0);
    g.push(if_else(
        lt_s(local(n), i32c(2)),
        vec![ret(Some(local(n)))],
        vec![ret(Some(add(
            call(fib, vec![sub(local(n), i32c(1))]),
            call(fib, vec![sub(local(n), i32c(2))]),
        )))],
    ));
    mb.define(fib, g);
    mb.export_func(fib, "fib");
    let m = mb.build().unwrap();
    let direct = single(&m, "fib", &[Value::I32(18)]).unwrap();

    for fuel in [1u64, 7, 64, 1023] {
        let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
        let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
        inst.invoke_export("fib", &[Value::I32(18)]).unwrap();
        let mut steps = 0u64;
        let got = loop {
            match inst.run(&mut NullHost, fuel) {
                StepResult::Complete(v) => break v,
                StepResult::OutOfFuel => steps += 1,
                other => panic!("unexpected {other:?}"),
            }
            assert!(steps < 100_000_000, "no progress");
        };
        assert_eq!(got, direct, "fuel={fuel}");
        if fuel == 1 {
            assert!(steps > 1000, "fuel=1 must pause many times");
        }
    }
}

// ---------------------------------------------------------------- host

struct EchoHost {
    /// Calls before an `io_delay` completes.
    pending_left: u32,
    calls: u32,
}

impl Host for EchoHost {
    fn call(
        &mut self,
        _idx: u32,
        import: &HostImport,
        args: &[u64],
        memory: &mut LinearMemory,
    ) -> HostOutcome {
        self.calls += 1;
        match import.name.as_str() {
            "add_seven" => HostOutcome::Value((args[0] as u32 as u64) + 7),
            "poke" => {
                memory.write_bytes(args[0] as u32, &[args[1] as u8]).ok();
                HostOutcome::Unit
            }
            "io_delay" => {
                if self.pending_left > 0 {
                    self.pending_left -= 1;
                    HostOutcome::Pending
                } else {
                    HostOutcome::Value(1)
                }
            }
            _ => HostOutcome::Trap(Trap::Unreachable),
        }
    }
}

#[test]
fn host_calls_value_unit_and_memory() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let add7 = mb.import_func("env", "add_seven", &[ValType::I32], Some(ValType::I32));
    let poke = mb.import_func("env", "poke", &[ValType::I32, ValType::I32], None);
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    f.extend([
        exec(call(poke, vec![i32c(10), i32c(42)])),
        ret(Some(add(
            call(add7, vec![local(x)]),
            load(Scalar::U8, i32c(10), 0),
        ))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let mut host = EchoHost {
        pending_left: 0,
        calls: 0,
    };
    let v = inst
        .call_complete("main", &[Value::I32(1)], &mut host)
        .unwrap();
    assert_eq!(v, Some(1 + 7 + 42));
    assert_eq!(host.calls, 2);
}

#[test]
fn pending_host_call_blocks_and_resumes() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let delay = mb.import_func("env", "io_delay", &[ValType::I32], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.push(ret(Some(add(call(delay, vec![i32c(5)]), i32c(100)))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let mut host = EchoHost {
        pending_left: 3,
        calls: 0,
    };
    inst.invoke_export("main", &[]).unwrap();
    assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
    assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
    assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
    assert_eq!(
        inst.run(&mut host, u64::MAX),
        StepResult::Complete(Some(101))
    );
    assert_eq!(host.calls, 4);
}

// --------------------------------------------------------- call_indirect

#[test]
fn indirect_calls_dispatch_and_check_types() {
    let mut mb = ModuleBuilder::new("t");
    let mut f1 = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f1.arg(0);
    f1.push(ret(Some(mul(local(x), i32c(2)))));
    let double = mb.add_func("double", f1);
    let mut f2 = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f2.arg(0);
    f2.push(ret(Some(mul(local(x), local(x)))));
    let square = mb.add_func("square", f2);
    // A function of a *different* signature in slot 2.
    let mut f3 = FuncBuilder::new(&[], Some(ValType::I32));
    f3.push(ret(Some(i32c(1))));
    let nullary = mb.add_func("nullary", f3);
    mb.table(&[double, square, nullary]);
    mb.export_func(double, "double");
    let m = mb.build().unwrap();

    // Hand-assemble a dispatcher since the DSL has no indirect-call surface
    // (kept minimal deliberately). dispatcher(sel, x) = table[sel](x).
    let mut m2 = m.clone();
    let sig = m2.push_type(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let t2 = m2.push_type(FuncType::new(
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
    ));
    use Instr::*;
    let disp = m2.push_function(
        t2,
        FuncBody::new(
            vec![],
            vec![LocalGet(1), LocalGet(0), CallIndirect(sig), End],
        ),
    );
    m2.exports.push(Export::func("dispatch", disp));
    m2.memories.push(MemoryType {
        limits: Limits::at_least(0),
    });

    assert_returns(&m2, "dispatch", &[Value::I32(0), Value::I32(21)], 42);
    assert_returns(&m2, "dispatch", &[Value::I32(1), Value::I32(9)], 81);
    // Slot 2 has the wrong signature.
    assert_eq!(
        single(&m2, "dispatch", &[Value::I32(2), Value::I32(1)]),
        Err(Trap::IndirectTypeMismatch)
    );
    // Out of table bounds.
    assert_eq!(
        single(&m2, "dispatch", &[Value::I32(40), Value::I32(1)]),
        Err(Trap::TableOutOfBounds)
    );
}

// --------------------------------------------------------------- globals

#[test]
fn globals_read_write() {
    let mut mb = ModuleBuilder::new("t");
    let g = mb.global_i32(5);
    let gf = mb.global_f64(1.5);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    f.extend([
        set_global(g, add(global(g, ValType::I32), i32c(10))),
        set_global(gf, mul(global(gf, ValType::F64), f64c(4.0))),
        ret(Some(add(
            global(g, ValType::I32),
            d2i(global(gf, ValType::F64)),
        ))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    assert_returns(&m, "main", &[], 15 + 6);
}

// ------------------------------------------------------------ float math

#[test]
fn float_kernel_matches_native() {
    // A dot-product-with-sqrt kernel against a native Rust reference.
    let n_items = 64usize;
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::F64));
    let n = f.arg(0);
    let i = f.local(ValType::I32);
    let acc = f.local(ValType::F64);
    f.extend([
        // a[i] = sqrt(i), b[i] = i/2 at fixed offsets.
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![
                store(Scalar::F64, mul(local(i), i32c(8)), 0, sqrt(i2d(local(i)))),
                store(
                    Scalar::F64,
                    mul(local(i), i32c(8)),
                    4096,
                    div(i2d(local(i)), f64c(2.0)),
                ),
            ],
        ),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![set(
                acc,
                add(
                    local(acc),
                    mul(
                        load(Scalar::F64, mul(local(i), i32c(8)), 0),
                        load(Scalar::F64, mul(local(i), i32c(8)), 4096),
                    ),
                ),
            )],
        ),
        ret(Some(local(acc))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let mut expect = 0.0f64;
    for i in 0..n_items {
        expect += (i as f64).sqrt() * (i as f64 / 2.0);
    }
    let r = run_ok(&m, "main", &[Value::I32(n_items as i32)]);
    assert_eq!(f64::from_bits(r.unwrap()), expect);
}

#[test]
fn footprint_is_small() {
    let m = spin_module();
    let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
    let inst = Instance::new(cm.clone(), EngineConfig::default()).unwrap();
    // A no-memory module's sandbox should be well under a typical container
    // footprint (tens of MB); here it is dominated by the 64 KiB page.
    assert!(inst.footprint_bytes() < 256 * 1024);
    assert!(cm.code_size_bytes() < 64 * 1024);
}

#[test]
fn f32_arithmetic_matches_native() {
    // The apps are f64/int heavy; exercise the f32 lane explicitly.
    let mut mb = ModuleBuilder::new("f32");
    let mut f = FuncBuilder::new(&[ValType::F32, ValType::F32], Some(ValType::F32));
    let (a, b2) = (f.arg(0), f.arg(1));
    f.push(ret(Some(add(
        mul(local(a), local(b2)),
        sqrt(abs(sub(local(a), local(b2)))),
    ))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    for (x, y) in [(1.5f32, 2.25f32), (-3.5, 0.125), (0.0, -0.0), (1e30, 1e-30)] {
        let want = x * y + (x - y).abs().sqrt();
        let r = run_ok(&m, "main", &[Value::F32(x), Value::F32(y)]);
        assert_eq!(f32::from_bits(r.unwrap() as u32).to_bits(), want.to_bits());
    }
}

#[test]
fn f32_min_max_copysign_semantics() {
    let mut mb = ModuleBuilder::new("f32mm");
    let mut f = FuncBuilder::new(&[ValType::F32, ValType::F32], Some(ValType::F32));
    let (a, b2) = (f.arg(0), f.arg(1));
    f.push(ret(Some(fmin(
        fmax(local(a), local(b2)),
        Expr::Bin(
            sledge_guestc::BinOp::Copysign,
            Box::new(local(a)),
            Box::new(local(b2)),
        ),
    ))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    // max(-0, 0) must be +0; min with copysign(−0 sign) must be -2.
    let r = single(&m, "main", &[Value::F32(2.0), Value::F32(-1.0)]).unwrap();
    assert_eq!(f32::from_bits(r.unwrap() as u32), -2.0);
}

// ------------------------------------- seeded: expressions against native

fn expr_module(e: &Arith) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    let y = f.arg(1);
    f.push(ret(Some(e.to_expr(x, y))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("generated module must validate")
}

#[test]
fn random_expressions_match_native_all_configs() {
    cases(96, 0x5E3A_471C, |rng| {
        let e = Arith::gen(rng, 5);
        let (x, y) = (any_i32(rng), any_i32(rng));
        let expect = e.eval(x, y) as u32 as u64;
        let got = run_ok(&expr_module(&e), "main", &[Value::I32(x), Value::I32(y)]);
        assert_eq!(got, Some(expect), "x={x} y={y} e={e:?}");
    });
}

#[test]
fn chopped_execution_is_deterministic() {
    cases(96, 0xC40B_BED0, |rng| {
        let e = Arith::gen(rng, 5);
        let args = [Value::I32(any_i32(rng)), Value::I32(any_i32(rng))];
        let fuel = rng.range(1, 50);
        // A loop around the expression so there is something to chop.
        let mut mb = ModuleBuilder::new("prop");
        let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
        let xv = f.arg(0);
        let yv = f.arg(1);
        let acc = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        f.extend([
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), i32c(50)),
                1,
                vec![
                    set(acc, xor(local(acc), e.to_expr(xv, yv))),
                    set(acc, add(local(acc), local(i))),
                ],
            ),
            ret(Some(local(acc))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = mb.build().unwrap();

        let cm = Arc::new(translate(&m, Tier::Optimized).unwrap());
        let mut direct = Instance::new(cm.clone(), EngineConfig::default()).unwrap();
        let want = direct.call_complete("main", &args, &mut NullHost).unwrap();

        let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
        inst.invoke_export("main", &args).unwrap();
        let got = loop {
            match inst.run(&mut NullHost, fuel) {
                StepResult::Complete(v) => break v,
                StepResult::OutOfFuel => continue,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(got, want, "fuel={fuel} e={e:?}");
    });
}

// ------------------------------ seeded: memory against the reference

/// Build a guest that performs a scripted sequence of stores then sums a
/// scripted sequence of loads, all at the given (address, value) pairs.
fn access_module(stores: &[(u32, u32)], loads: &[u32]) -> Module {
    let mut mb = ModuleBuilder::new("mem");
    mb.memory(2, Some(4));
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let acc = f.local(ValType::I32);
    let mut body = Vec::new();
    for (addr, val) in stores {
        body.push(store(Scalar::I32, i32c(*addr as i32), 0, i32c(*val as i32)));
    }
    for addr in loads {
        body.push(set(
            acc,
            add(local(acc), load(Scalar::I32, i32c(*addr as i32), 0)),
        ));
    }
    body.push(ret(Some(local(acc))));
    f.extend(body);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("valid module")
}

fn run_access(m: &Module) -> Result<u32, Trap> {
    single(m, "main", &[]).map(|v| v.expect("result") as u32)
}

/// 2 pages committed = 131072 bytes; the last address an i32 access fits at.
const LIMIT: u64 = 2 * 65536 - 4;

/// Up to 11 stores and 1 to 11 loads, all at addresses below `addr_end`.
fn access_script(rng: &mut Rng, addr_end: u64) -> (Vec<(u32, u32)>, Vec<u32>) {
    let stores = rng.vec(0, 12, |r| {
        (r.range(0, addr_end) as u32, r.next_u64() as u32)
    });
    let loads = rng.vec(1, 12, |r| r.range(0, addr_end) as u32);
    (stores, loads)
}

/// In-bounds scripts complete, and leave what the reference leaves.
#[test]
fn in_bounds_programs_agree_across_all_strategies() {
    cases(64, 0x1B0D_D500, |rng| {
        let (stores, loads) = access_script(rng, LIMIT + 1);
        let m = access_module(&stores, &loads);
        run_access(&m).expect("in bounds");
    });
}

#[test]
fn out_of_bounds_loads_trap_under_checking_strategies() {
    cases(64, 0x00B5_72A9, |rng| {
        let m = access_module(&[], &[rng.range(LIMIT + 1, u64::from(u32::MAX) - 4) as u32]);
        assert_eq!(run_access(&m), Err(Trap::OutOfBounds));
    });
}

#[test]
fn stores_then_loads_roundtrip_values() {
    cases(64, 0x2007_D721, |rng| {
        // Non-overlapping 4-byte slots: scale addresses by 8.
        let mut slots = rng.vec(1, 8, |r| r.range(0, LIMIT / 8 + 1) as u32 * 8);
        slots.sort_unstable();
        slots.dedup();
        let stores: Vec<(u32, u32)> = slots.iter().map(|a| (*a, rng.next_u64() as u32)).collect();
        let expect = stores.iter().fold(0u32, |sum, (_, v)| sum.wrapping_add(*v));
        let m = access_module(&stores, &slots);
        let got = run_access(&m).expect("in bounds");
        assert_eq!(got, expect);
    });
}
