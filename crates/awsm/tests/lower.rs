//! Lowering hazards: every way the register form could diverge from the
//! stack body it was derived from, each checked against what the program
//! means — natively evaluated Rust — and against the reference interpreter
//! (`sledge-reference`), which runs the Wasm itself and shares no code with
//! the translator, the lowering or the executor: the two must agree on the
//! result or trap, the memory, the globals and the fuel.
//!
//! Fixed programs first (one per hazard the lowering pass handles
//! specially), then seeded random straight-line-and-loop programs run
//! whole, chopped at small quanta and preempted at random.
//! Tests named `miri_*` are small enough for the Miri leg.

mod common;

use awsm::{
    translate, translate_with, CompiledModule, EngineConfig, Host, HostImport, HostOutcome,
    Instance, Limits, LinearMemory, NullHost, Op, StepResult, Tier, TranslateOptions, Trap, Value,
};
use common::{any_i32, Arith};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Stmt};
use sledge_testkit::{cases, Rng};
use sledge_wasm::instr::{BlockType, Instr};
use sledge_wasm::module::{Export, FuncBody, Module};
use sledge_wasm::types::{FuncType, ValType};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn instance(m: &Module, limits: Limits) -> Instance {
    let cm = Arc::new(translate(m, Tier::Optimized).expect("translate"));
    let config = EngineConfig {
        limits,
        ..Default::default()
    };
    Instance::new(cm, config).expect("instantiate")
}

/// `main(args)` must return `expect`, as on the reference.
fn assert_returns(m: &Module, args: &[i32], expect: i32) {
    let args: Vec<Value> = args.iter().map(|&a| Value::I32(a)).collect();
    let mut inst = instance(m, Limits::default());
    let seen = common::agree(m, &mut inst, "main", &args, u64::MAX);
    assert_eq!(seen.result, Ok(Some(expect as u32 as u64)));
}

/// A module whose `main(i32 × nparams) -> i32` is the given raw body.
fn raw_main(nparams: usize, locals: Vec<ValType>, body: Vec<Instr>) -> Module {
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(
        vec![ValType::I32; nparams],
        vec![ValType::I32],
    ));
    let f = m.push_function(t, FuncBody::new(locals, body));
    m.exports.push(Export::func("main", f));
    m
}

/// A module whose `main` is built by `build` from its two i32 arguments.
fn dsl_main(build: impl FnOnce(&mut ModuleBuilder, &mut FuncBuilder)) -> Module {
    let mut mb = ModuleBuilder::new("lower");
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    build(&mut mb, &mut f);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("module validates")
}

// ------------------------------------------------ pending local.get hazards

#[test]
fn miri_local_get_pending_across_set_tee_and_inc() {
    use Instr::*;
    // x - (x = y): the first read of x must see the old value.
    let set = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(1),
            LocalSet(0),
            LocalGet(0),
            I32Sub,
            End,
        ],
    );
    // x * (x = x + y), through a tee.
    let tee = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(0),
            LocalGet(1),
            I32Add,
            LocalTee(0),
            I32Mul,
            End,
        ],
    );
    // x + (x += 1; x): the increment writes x in place, under a pending x.
    let inc = raw_main(
        1,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(0),
            I32Const(1),
            I32Add,
            LocalSet(0),
            LocalGet(0),
            I32Add,
            End,
        ],
    );
    for (x, y) in [(10, 3), (-7, 7), (i32::MAX, 1)] {
        assert_returns(&set, &[x, y], x.wrapping_sub(y));
        assert_returns(&tee, &[x, y], x.wrapping_mul(x.wrapping_add(y)));
        assert_returns(&inc, &[x], x.wrapping_add(x.wrapping_add(1)));
    }
}

#[test]
fn tee_of_a_computed_value_is_read_back_from_the_local() {
    // ((t = x + y) - (t = 1)) + t: the sum is teed straight into t, and is
    // still pending as an operand when t is overwritten.
    let m = dsl_main(|_, f| {
        let (x, y) = (f.arg(0), f.arg(1));
        let t = f.local(ValType::I32);
        f.push(ret(Some(add(
            sub(tee(t, add(local(x), local(y))), tee(t, i32c(1))),
            local(t),
        ))));
    });
    for (x, y) in [(3, 4), (-1, 1), (1 << 20, 1 << 12)] {
        assert_returns(&m, &[x, y], x + y);
    }
}

#[test]
fn miri_local_set_and_tee_under_pending_readers() {
    use Instr::*;
    // Each writes local 0 with a computed value while earlier reads of it
    // are still pending below: they must see the old value.
    // x * (x = x + 1; x)
    let inc = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(0),
            I32Const(1),
            I32Add,
            LocalSet(0),
            LocalGet(0),
            I32Mul,
            End,
        ],
    );
    // x - y * (x = x + 1, teed) + x
    let tee = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(1),
            LocalGet(0),
            I32Const(1),
            I32Add,
            LocalTee(0),
            I32Mul,
            I32Sub,
            LocalGet(0),
            I32Add,
            End,
        ],
    );
    // x * (x = y - x; x), the new value computed from the pending x
    let sub = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(1),
            LocalGet(0),
            I32Sub,
            LocalSet(0),
            LocalGet(0),
            I32Mul,
            End,
        ],
    );
    // x - (x = popcnt x, teed): a unary producer
    let un = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            LocalGet(0),
            I32Popcnt,
            LocalTee(0),
            I32Sub,
            End,
        ],
    );
    for (x, y) in [(10, 3), (-7, 7), (i32::MAX, 1), (0, -1)] {
        let x1 = x.wrapping_add(1);
        assert_returns(&inc, &[x, y], x.wrapping_mul(x1));
        let teed = x.wrapping_sub(y.wrapping_mul(x1)).wrapping_add(x1);
        assert_returns(&tee, &[x, y], teed);
        assert_returns(&sub, &[x, y], x.wrapping_mul(y.wrapping_sub(x)));
        assert_returns(&un, &[x, y], x - x.count_ones() as i32);
    }
}

// ------------------------------------------- select / br_if on folded operands

#[test]
fn miri_select_and_br_if_on_folded_operands() {
    // All three select operands straight from locals and constants, and a
    // conditional branch whose condition is a bare local.
    let m = dsl_main(|_, f| {
        let (x, y) = (f.arg(0), f.arg(1));
        let r = f.local(ValType::I32);
        f.extend([
            set(r, select(local(y), local(x), i32c(-5))),
            if_(local(x), vec![set(r, add(local(r), i32c(100)))]),
            ret(Some(add(local(r), select(local(x), i32c(1), local(y))))),
        ]);
    });
    for (x, y) in [(0, 0), (0, 9), (4, 0), (4, 9)] {
        let r = if y != 0 { x } else { -5 } + if x != 0 { 100 } else { 0 };
        assert_returns(&m, &[x, y], r + if x != 0 { 1 } else { y });
    }
}

// -------------------------------- kept values carried out to a lower height

/// `7 + block { (100 + x) ; <exit> ; drop ; 5 }` where `<exit>` leaves the
/// *outer* block with `100 + x` from above a pending 7: the kept value has
/// to move down one slot on the taken path only.
fn carry_out(exit: Vec<Instr>) -> Module {
    use Instr::*;
    let mut body = vec![
        Block(BlockType::Value(ValType::I32)),
        I32Const(7),
        Block(BlockType::Value(ValType::I32)),
        I32Const(100),
        LocalGet(0),
        I32Add,
    ];
    body.extend(exit);
    body.extend([Drop, I32Const(5), End, I32Add, End, End]);
    raw_main(2, vec![], body)
}

#[test]
fn miri_br_if_carries_a_kept_value_to_a_lower_height() {
    use Instr::*;
    let m = carry_out(vec![LocalGet(1), BrIf(1)]);
    for x in [0, 1, -100] {
        assert_returns(&m, &[x, 1], 100 + x);
        assert_returns(&m, &[x, 0], 12);
    }
    // The same exit on a fused compare.
    let m = carry_out(vec![LocalGet(1), I32Const(3), I32LtS, BrIf(1)]);
    assert_returns(&m, &[1, 2], 101);
    assert_returns(&m, &[1, 3], 12);
}

#[test]
fn miri_eqz_folds_into_the_branch_that_tests_it() {
    use Instr::*;
    // `block (result i32) 5; <cond>; i32.eqz; br_if 0; drop; 7 end`: 5
    // when the condition is 0, else 7.
    let br_if = |cond: Vec<Instr>| {
        let mut body = vec![Block(BlockType::Value(ValType::I32)), I32Const(5)];
        body.extend(cond);
        body.extend([I32Eqz, BrIf(0), Drop, I32Const(7), End, End]);
        raw_main(2, vec![], body)
    };
    // `<cond>; i32.eqz; if (result i32) 10 else 20 end`
    let if_ = |cond: Vec<Instr>| {
        let mut body = cond;
        body.extend([I32Eqz, If(BlockType::Value(ValType::I32))]);
        body.extend([I32Const(10), Else, I32Const(20), End, End]);
        raw_main(2, vec![], body)
    };
    // A local, a computed slot no compare can fuse with, a compare, a
    // constant, and a second `eqz` under the first.
    let conds = [
        (vec![LocalGet(0)], (|x, _| x) as fn(i32, i32) -> i32),
        (vec![LocalGet(0), I32Popcnt], |x, _| x.count_ones() as i32),
        (vec![LocalGet(0), LocalGet(1), I32Sub], |x, y| {
            x.wrapping_sub(y)
        }),
        (vec![I32Const(0)], |_, _| 0),
        (vec![LocalGet(0), I32Eqz], |x, _| (x == 0) as i32),
    ];
    for (cond, eval) in conds {
        let (br, iff) = (br_if(cond.clone()), if_(cond));
        for (x, y) in [(0, 0), (3, 3), (1, 0), (-1, 2)] {
            let zero = eval(x, y) == 0;
            assert_returns(&br, &[x, y], if zero { 5 } else { 7 });
            assert_returns(&iff, &[x, y], if zero { 10 } else { 20 });
        }
    }
    // A conditional return on an `eqz`: 3 when x is 0, else 4.
    let ret = raw_main(
        2,
        vec![],
        vec![
            I32Const(3),
            LocalGet(0),
            I32Eqz,
            BrIf(0),
            Drop,
            I32Const(4),
            End,
        ],
    );
    // The trampoline path: the taken branch moves a kept value down.
    let carried = carry_out(vec![LocalGet(1), I32Eqz, BrIf(1)]);
    let computed = carry_out(vec![LocalGet(1), I32Const(3), I32Sub, I32Eqz, BrIf(1)]);
    for x in [0, 1, -100] {
        assert_returns(&ret, &[x, 0], if x == 0 { 3 } else { 4 });
        assert_returns(&carried, &[x, 0], 100 + x);
        assert_returns(&carried, &[x, 1], 12);
        assert_returns(&computed, &[x, 3], 100 + x);
        assert_returns(&computed, &[x, 4], 12);
    }
}

#[test]
fn br_table_carries_a_kept_value_to_different_heights() {
    use Instr::*;
    // Index 0 leaves the inner block (same height: 7 + v), index 1 the
    // outer one (v alone, moved down), anything else the inner one.
    let m = carry_out(vec![LocalGet(1), BrTable(vec![0, 1], 0)]);
    for x in [0, 5] {
        assert_returns(&m, &[x, 0], 7 + 100 + x);
        assert_returns(&m, &[x, 1], 100 + x);
        assert_returns(&m, &[x, 2], 7 + 100 + x);
        assert_returns(&m, &[x, -1], 7 + 100 + x);
    }
    // Unconditional `br` out of both blocks at once.
    let m = carry_out(vec![Br(1)]);
    assert_returns(&m, &[1, 0], 101);
}

// ------------------------------------------------ loop-carried operand slots

#[test]
fn miri_operands_below_a_loop_survive_its_iterations() {
    use Instr::*;
    // x (pending) ; loop { x += 1 ; y -= 1 ; br_if y } ; sub — the operand
    // read before the loop must be the x from before it.
    let m = raw_main(
        2,
        vec![],
        vec![
            LocalGet(0),
            Loop(BlockType::Empty),
            LocalGet(0),
            I32Const(1),
            I32Add,
            LocalSet(0),
            LocalGet(1),
            I32Const(1),
            I32Sub,
            LocalTee(1),
            BrIf(0),
            End,
            LocalGet(0),
            I32Sub,
            End,
        ],
    );
    for (x, n) in [(10, 1), (10, 6), (-3, 100)] {
        assert_returns(&m, &[x, n], -n);
    }
}

// ----------------------------------------------------------------- calls

#[test]
fn miri_call_arguments_mix_locals_constants_and_slots() {
    let m = dsl_main(|mb, f| {
        let mut g = FuncBuilder::new(&[ValType::I32; 4], Some(ValType::I32));
        let (a, b, c, d) = (g.arg(0), g.arg(1), g.arg(2), g.arg(3));
        let t = g.local(ValType::I32); // a fresh local must read 0
        g.push(ret(Some(add(
            add(
                mul(local(a), i32c(1000)),
                add(mul(local(b), i32c(100)), mul(local(c), i32c(10))),
            ),
            add(local(d), local(t)),
        ))));
        let g = mb.add_func("g", g);
        let (x, y) = (f.arg(0), f.arg(1));
        // A pending operand under the call, and a nested call as argument.
        f.push(ret(Some(sub(
            local(x),
            call(
                g,
                vec![
                    local(y),
                    i32c(2),
                    add(local(x), local(y)),
                    call(g, vec![i32c(0), i32c(0), i32c(0), local(x)]),
                ],
            ),
        ))));
    });
    for (x, y) in [(1, 2), (3, -4), (0, 0)] {
        let inner = x;
        let outer = y * 1000 + 200 + (x + y) * 10 + inner;
        assert_returns(&m, &[x, y], x - outer);
    }
}

#[derive(Default)]
struct SlowHost {
    pending_left: u32,
    calls: u32,
}

/// `x * y + 1`, what `SlowHost` answers once it stops pending.
fn io(args: &[u64]) -> u64 {
    (args[0] as u32)
        .wrapping_mul(args[1] as u32)
        .wrapping_add(1) as u64
}

impl sledge_reference::Host for SlowHost {
    fn call(&mut self, _: &str, args: &[u64], _: &mut [u8]) -> Result<u64, sledge_reference::Trap> {
        Ok(io(args))
    }
}

impl Host for SlowHost {
    fn call(&mut self, _: u32, _: &HostImport, args: &[u64], _: &mut LinearMemory) -> HostOutcome {
        self.calls += 1;
        if self.pending_left > 0 {
            self.pending_left -= 1;
            return HostOutcome::Pending;
        }
        HostOutcome::Value(io(args))
    }
}

#[test]
fn miri_host_call_pending_twice_then_a_value() {
    let mut mb = ModuleBuilder::new("lower");
    let io = mb.import_func("env", "io", &[ValType::I32; 2], Some(ValType::I32));
    let mut f = FuncBuilder::new(&[ValType::I32, ValType::I32], Some(ValType::I32));
    let (x, y) = (f.arg(0), f.arg(1));
    f.push(ret(Some(add(
        local(x),
        call(io, vec![add(local(x), i32c(1)), local(y)]),
    ))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();

    let mut inst = instance(&m, Limits::default());
    let mut host = SlowHost {
        pending_left: 2,
        calls: 0,
    };
    let args = [Value::I32(6), Value::I32(5)];
    inst.invoke_export("main", &args).unwrap();
    assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
    assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
    // The third issue sees the same arguments and completes.
    assert_eq!(
        inst.run(&mut host, u64::MAX),
        StepResult::Complete(Some(6 + 7 * 5 + 1))
    );
    assert_eq!(host.calls, 3);
    // Re-issuing is free: the call was charged once, as on the reference,
    // whose host answers at once.
    let seen = common::reference(&m, "main", &args, &mut SlowHost::default());
    assert_eq!(seen.result, Ok(Some(6 + 7 * 5 + 1)));
    assert_eq!(seen.fuel, Some(inst.fuel_used()));
}

// ------------------------------------------------- the stack limit (bugfix)

#[test]
fn stack_limit_bounds_locals_as_well_as_operands() {
    // f(n) = f(n + 1) with 100 000 locals per frame: before the slab, only
    // the operand stack counted against `max_stack` and this allocated
    // `max_frames` × 800 kB before trapping on depth.
    let mut mb = ModuleBuilder::new("fat");
    let f = mb.declare("main", &[ValType::I32], Some(ValType::I32));
    let mut fb = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = fb.arg(0);
    fb.locals(ValType::I64, 100_000);
    fb.push(ret(Some(call(f, vec![add(local(n), i32c(1))]))));
    mb.define(f, fb);
    mb.export_func(f, "main");
    let m = mb.build().unwrap();

    let limits = Limits::default();
    let mut inst = instance(&m, limits);
    let idle = inst.footprint_bytes();
    let seen = common::agree(&m, &mut inst, "main", &[Value::I32(0)], u64::MAX);
    assert_eq!(seen.result, Err(common::kind(Trap::StackExhausted)));
    // The slab never outgrew the limit (plus the frame records).
    let grown = inst.footprint_bytes() - idle;
    assert!(grown <= limits.max_stack * 8 + 4096, "slab grew {grown} B");
}

#[test]
fn each_limit_stops_runaway_recursion_on_its_own() {
    // f(n) = f(n + 1): one parameter, so every frame advances the slab.
    let mut mb = ModuleBuilder::new("thin");
    let f = mb.declare("main", &[ValType::I32], Some(ValType::I32));
    let mut fb = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let n = fb.arg(0);
    fb.push(ret(Some(call(f, vec![add(local(n), i32c(1))]))));
    mb.define(f, fb);
    mb.export_func(f, "main");
    let m = mb.build().unwrap();
    let huge = usize::MAX / 16;
    for limits in [
        Limits {
            max_frames: huge,
            max_stack: 4096,
        },
        Limits {
            max_frames: 64,
            max_stack: huge,
        },
    ] {
        let mut inst = instance(&m, limits);
        inst.invoke_export("main", &[Value::I32(0)]).unwrap();
        assert_eq!(
            inst.run(&mut NullHost, u64::MAX),
            StepResult::Trapped(Trap::StackExhausted)
        );
    }
}

#[test]
fn miri_lowered_ops_are_sixteen_bytes() {
    assert_eq!(awsm::LOWERED_OP_BYTES, 16);
}

// ------------------------------------------ range tests and rotated loops

/// `main(args)`, translated once: for every input, `expect(args)`, and what
/// the reference does, fuel included.
fn assert_each_returns(m: &Module, inputs: &[[i32; 2]], expect: impl Fn([i32; 2]) -> i32) {
    let cm = Arc::new(translate(m, Tier::Optimized).expect("translate"));
    for &args in inputs {
        let mut inst = Instance::new(Arc::clone(&cm), EngineConfig::default()).unwrap();
        let seen = common::agree(m, &mut inst, "main", &args.map(Value::I32), u64::MAX);
        let want = Some(expect(args) as u32 as u64);
        assert_eq!(seen.result, Ok(want), "main{args:?}");
    }
}

/// `0 <= x < n`, compared signed: what every range test below means.
fn in_range(x: i32, n: i32) -> bool {
    0 <= x && x < n
}

/// `main(x, n)`: 1 if `x >= 0 && x < n` (the bound is `n`, or the constant
/// `bound`), else 0, tested by an `if`.
fn range_if(bound: Option<i32>) -> Module {
    dsl_main(|_, f| {
        let (x, n) = (f.arg(0), f.arg(1));
        let n = bound.map_or(local(n), i32c);
        let test = and(ge_s(local(x), i32c(0)), lt_s(local(x), n));
        f.extend([if_(test, vec![ret(Some(i32c(1)))]), ret(Some(i32c(0)))]);
    })
}

/// As [`range_if`], tested by a `br_if`, with the two compares in either
/// order.
fn range_br_if(bound: Option<i32>, lt_first: bool) -> Module {
    use Instr::*;
    let n = bound.map_or(LocalGet(1), I32Const);
    let (ge, lt) = ([LocalGet(0), I32Const(0), I32GeS], [LocalGet(0), n, I32LtS]);
    let (p, q) = if lt_first { (lt, ge) } else { (ge, lt) };
    let mut body = vec![Block(BlockType::Empty)];
    body.extend(p.into_iter().chain(q));
    body.extend([I32And, BrIf(0), I32Const(0), Return, End, I32Const(1), End]);
    raw_main(2, vec![], body)
}

/// The two-sided range test is one lowered op (the lowering
/// folds `and(ge_s(x, 0), lt_s(x, n))` under a branch): it must mean
/// exactly `0 <= x < n` for every `x` and `n`, negative, zero and extreme
/// bounds included, in the slot and the immediate form, under `if` and
/// `br_if`; and the shapes it must not fold must still mean what they say.
#[test]
fn miri_range_test_matches_native_in_every_form() {
    let edges = [i32::MIN, -2, -1, 0, 1, 2, 1000, i32::MAX];
    let mut inputs: Vec<[i32; 2]> = edges
        .iter()
        .flat_map(|&x| edges.iter().map(move |&n| [x, n]))
        .collect();
    cases(1, 0x4A46_0066, |rng| {
        inputs.extend((0..16).map(|_| [any_i32(rng), any_i32(rng)]));
        inputs.extend((0..16).map(|_| [rng.range(0, 9) as i32 - 4, rng.range(0, 9) as i32 - 4]));
    });
    let slot = |[x, n]: [i32; 2]| in_range(x, n) as i32;
    assert_each_returns(&range_if(None), &inputs, slot);
    assert_each_returns(&range_br_if(None, false), &inputs, slot);
    assert_each_returns(&range_br_if(None, true), &inputs, slot);
    for n in [i32::MIN, -1, 0, 1, 1000, i32::MAX] {
        let imm = |[x, _]: [i32; 2]| in_range(x, n) as i32;
        assert_each_returns(&range_if(Some(n)), &inputs[..16], imm);
        assert_each_returns(&range_br_if(Some(n), true), &inputs[..16], imm);
    }

    // Two different operands: `x >= 0 && n < 5`.
    let two = dsl_main(|_, f| {
        let (x, n) = (f.arg(0), f.arg(1));
        let test = and(ge_s(local(x), i32c(0)), lt_s(local(n), i32c(5)));
        f.extend([if_(test, vec![ret(Some(i32c(1)))]), ret(Some(i32c(0)))]);
    });
    assert_each_returns(&two, &inputs, |[x, n]| (x >= 0 && n < 5) as i32);
    // A lower bound other than 0: `x >= 1 && x < n`.
    let from_one = dsl_main(|_, f| {
        let (x, n) = (f.arg(0), f.arg(1));
        let test = and(ge_s(local(x), i32c(1)), lt_s(local(x), local(n)));
        f.extend([if_(test, vec![ret(Some(i32c(1)))]), ret(Some(i32c(0)))]);
    });
    assert_each_returns(&from_one, &inputs, |[x, n]| (x >= 1 && x < n) as i32);
    // A compare whose result is read again: `t = x >= 0` survives the test.
    let reread = dsl_main(|_, f| {
        let (x, n) = (f.arg(0), f.arg(1));
        let t = f.local(ValType::I32);
        let test = and(tee(t, ge_s(local(x), i32c(0))), lt_s(local(x), local(n)));
        let twice = add(local(t), local(t));
        f.extend([
            if_(test, vec![ret(Some(add(twice.clone(), i32c(1))))]),
            ret(Some(twice)),
        ]);
    });
    assert_each_returns(&reread, &inputs, |[x, n]| {
        let t = (x >= 0) as i32;
        2 * t + (t == 1 && x < n) as i32
    });
}

/// `main(n, m)`: an outer loop to `n` (a local bound) around an inner one
/// to 3 (a constant bound), then a `while` counting to `m`: each loop's
/// latch takes over its head's test.
fn loops_main() -> Module {
    dsl_main(|_, f| {
        let (n, m) = (f.arg(0), f.arg(1));
        let (i, j, k, acc) = (
            f.local(ValType::I32),
            f.local(ValType::I32),
            f.local(ValType::I32),
            f.local(ValType::I32),
        );
        f.extend([
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), local(n)),
                1,
                vec![
                    // A segment heavier than every latch and head together,
                    // so that the certified loop gap lets them rotate.
                    set(
                        acc,
                        add(
                            mul(mul(local(acc), local(acc)), mul(local(i), local(acc))),
                            mul(local(i), i32c(7)),
                        ),
                    ),
                    for_loop(
                        j,
                        i32c(0),
                        lt_s(local(j), i32c(3)),
                        1,
                        vec![set(
                            acc,
                            add(local(acc), add(mul(local(i), local(j)), i32c(1))),
                        )],
                    ),
                    set(acc, xor(local(acc), local(i))),
                ],
            ),
            set(k, i32c(0)),
            while_(
                lt_s(local(k), local(m)),
                vec![
                    set(k, add(local(k), i32c(1))),
                    set(acc, add(mul(local(acc), i32c(3)), local(k))),
                ],
            ),
            ret(Some(local(acc))),
        ]);
    })
}

fn loops_native([n, m]: [i32; 2]) -> i32 {
    let mut acc = 0i32;
    for i in 0..n.max(0) {
        acc = acc
            .wrapping_mul(acc)
            .wrapping_mul(i.wrapping_mul(acc))
            .wrapping_add(i.wrapping_mul(7));
        for j in 0..3 {
            acc = acc.wrapping_add(i.wrapping_mul(j).wrapping_add(1));
        }
        acc ^= i;
    }
    for k in 1..=m.max(0) {
        acc = acc.wrapping_mul(3).wrapping_add(k);
    }
    acc
}

/// Rotated loops run zero, one and many times, with local and constant
/// bounds, and mean what they meant: the result matches native Rust and
/// the fuel the reference's; and a pause at every point of a small run
/// (the latch now charges the head's units too) changes neither.
#[test]
fn miri_rotated_loops_match_native_and_survive_a_pause_at_every_point() {
    let inputs = [
        [-3, -1],
        [0, 0],
        [1, 1],
        [2, 0],
        [0, 3],
        [5, 4],
        [i32::MIN, 2],
    ];
    assert_each_returns(&loops_main(), &inputs, loops_native);

    let m = Arc::new(translate(&loops_main(), Tier::Optimized).unwrap());
    let args = [Value::I32(2), Value::I32(2)];
    let run_at = |quantum: u64| {
        let mut inst = Instance::new(Arc::clone(&m), EngineConfig::default()).unwrap();
        inst.invoke_export("main", &args).unwrap();
        loop {
            match inst.run(&mut NullHost, quantum) {
                StepResult::Complete(v) => return (v, inst.fuel_used()),
                StepResult::OutOfFuel => continue,
                other => panic!("quantum {quantum}: {other:?}"),
            }
        }
    };
    let whole = run_at(u64::MAX);
    assert_eq!(whole.0, Some(loops_native([2, 2]) as u32 as u64));
    let seen = common::reference(&loops_main(), "main", &args, &mut common::NoHost);
    assert_eq!((seen.result, seen.fuel), (Ok(whole.0), Some(whole.1)));
    for quantum in 1..=whole.1 {
        assert_eq!(run_at(quantum), whole, "quantum {quantum}");
    }
}

/// An optimized run of `main(args)` with the preempt flag raised before
/// every grant: its result, its fuel and how many times it was preempted,
/// which is once per `Fuel` charge it executed.
fn polls(m: &Arc<CompiledModule>, args: &[Value]) -> (Option<u64>, u64, u32) {
    let mut inst = Instance::new(Arc::clone(m), EngineConfig::default()).unwrap();
    inst.invoke_export("main", args).unwrap();
    let flag = inst.preempt_flag();
    let mut preempted = 0;
    loop {
        flag.store(true, Ordering::Relaxed);
        match inst.run(&mut NullHost, u64::MAX) {
            StepResult::Complete(v) => return (v, inst.fuel_used(), preempted),
            StepResult::Preempted => preempted += 1,
            other => panic!("{other:?}"),
        }
    }
}

/// A loop whose latch segment plus head test would outweigh its function's
/// certified loop gap keeps its head, under any gap budget: the
/// certificate is what a node admits a module by, and a rotated latch
/// charging both would be a check-free path longer than it. Each
/// iteration runs the head's charge again: each one more polls twice.
#[test]
fn miri_loop_over_the_certified_gap_keeps_its_head() {
    let module = dsl_main(|_, f| {
        let n = f.arg(0);
        let (i, acc) = (f.local(ValType::I32), f.local(ValType::I32));
        f.extend([
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), local(n)),
                1,
                vec![set(acc, add(local(acc), mul(local(i), local(i))))],
            ),
            ret(Some(local(acc))),
        ]);
    });
    for max_check_gap in [awsm::DEFAULT_MAX_CHECK_GAP, u32::MAX] {
        let opts = TranslateOptions { max_check_gap };
        let m = Arc::new(translate_with(&module, Tier::Optimized, opts).unwrap());
        let charges: Vec<u32> = m.funcs[0]
            .code
            .iter()
            .filter_map(|op| match op {
                Op::Fuel(w) => Some(*w),
                _ => None,
            })
            .collect();
        // The head's charge, the latch's, then the exit's.
        let [head, latch, ..] = charges[..] else {
            panic!("charges {charges:?}")
        };
        let cert = &m.analysis.cost.funcs[0];
        assert!(
            latch <= cert.max_loop_gap && head + latch > cert.max_loop_gap,
            "{charges:?} / {cert:?}"
        );
        let (_, fuel, preempted) = polls(&m, &[Value::I32(0), Value::I32(0)]);
        for n in [-1, 0, 1, 2, 7] {
            let args = [Value::I32(n), Value::I32(0)];
            let expect = (0..n.max(0)).map(|i| i * i).sum::<i32>();
            let trips = n.max(0) as u32;
            assert_eq!(
                polls(&m, &args),
                (
                    Some(expect as u32 as u64),
                    fuel + (trips * (head + latch)) as u64,
                    preempted + 2 * trips
                ),
                "n = {n}"
            );
        }
    }
}

// --------------------------------------------------- seeded random programs

/// One statement of a tiny imperative language over two i32 variables and
/// 4 KiB of memory, with native semantics ([`St::run`]) and a guest
/// compilation ([`St::emit`]).
#[derive(Debug, Clone)]
enum St {
    SetX(Arith),
    SetY(Arith),
    /// `mem32[a & 0xffc] = v`
    Store(Arith, Arith),
    /// `x ^= mem32[a & 0xffc]`
    LoadX(Arith),
    /// `if c != 0 { .. }`
    If(Arith, Vec<St>),
    /// `repeat n { .. }` on its own counter.
    Repeat(u8, Vec<St>),
}

struct Machine {
    x: i32,
    y: i32,
    mem: Vec<u8>,
}

impl St {
    fn gen(rng: &mut Rng, depth: u32) -> St {
        let e = |rng: &mut Rng| Arith::gen(rng, 3);
        match rng.range(0, if depth == 0 { 4 } else { 6 }) {
            0 => St::SetX(e(rng)),
            1 => St::SetY(e(rng)),
            2 => St::Store(e(rng), e(rng)),
            3 => St::LoadX(e(rng)),
            4 => St::If(e(rng), rng.vec(1, 3, |r| St::gen(r, depth - 1))),
            _ => St::Repeat(
                rng.range(1, 5) as u8,
                rng.vec(1, 3, |r| St::gen(r, depth - 1)),
            ),
        }
    }

    fn run(&self, m: &mut Machine) {
        let at = |a: i32| (a & 0xffc) as usize;
        match self {
            St::SetX(e) => m.x = e.eval(m.x, m.y),
            St::SetY(e) => m.y = e.eval(m.x, m.y),
            St::Store(a, v) => {
                let (a, v) = (at(a.eval(m.x, m.y)), v.eval(m.x, m.y));
                m.mem[a..a + 4].copy_from_slice(&v.to_le_bytes());
            }
            St::LoadX(a) => {
                let a = at(a.eval(m.x, m.y));
                m.x ^= i32::from_le_bytes(m.mem[a..a + 4].try_into().unwrap());
            }
            St::If(c, body) => {
                if c.eval(m.x, m.y) != 0 {
                    body.iter().for_each(|s| s.run(m));
                }
            }
            St::Repeat(n, body) => {
                for _ in 0..*n {
                    body.iter().for_each(|s| s.run(m));
                }
            }
        }
    }

    fn emit(&self, f: &mut FuncBuilder) -> Stmt {
        let (x, y) = (f.arg(0), f.arg(1));
        let at = |a: &Arith| and(a.to_expr(x, y), i32c(0xffc));
        let block = |f: &mut FuncBuilder, body: &[St]| body.iter().map(|s| s.emit(f)).collect();
        match self {
            St::SetX(e) => set(x, e.to_expr(x, y)),
            St::SetY(e) => set(y, e.to_expr(x, y)),
            St::Store(a, v) => store_i32(at(a), v.to_expr(x, y)),
            St::LoadX(a) => set(x, xor(local(x), load_i32(at(a)))),
            St::If(c, body) => if_(c.to_expr(x, y), block(f, body)),
            St::Repeat(n, body) => {
                let i = f.local(ValType::I32);
                let body = block(f, body);
                for_loop(i, i32c(0), lt_s(local(i), i32c(*n as i32)), 1, body)
            }
        }
    }
}

/// Drive `inst` to completion in `quantum`-sized grants, raising the preempt
/// flag before a random half of them.
fn run_chopped(inst: &mut Instance, quantum: u64, rng: &mut Rng) -> Option<u64> {
    let flag = inst.preempt_flag();
    loop {
        flag.store(rng.flip(), Ordering::Relaxed);
        match inst.run(&mut NullHost, quantum) {
            StepResult::Complete(v) => return v,
            StepResult::OutOfFuel | StepResult::Preempted => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn random_programs_match_native_whole_chopped_and_preempted() {
    cases(48, 0x10E5_0001, |rng| {
        let prog = rng.vec(2, 6, |r| St::gen(r, 2));
        let m = dsl_main(|mb, f| {
            mb.memory(1, Some(1));
            let body: Vec<Stmt> = prog.iter().map(|s| s.emit(f)).collect();
            f.extend(body);
            let (x, y) = (f.arg(0), f.arg(1));
            f.push(ret(Some(xor(local(x), mul(local(y), i32c(31))))));
        });
        let (x, y) = (any_i32(rng), any_i32(rng));
        let mut native = Machine {
            x,
            y,
            mem: vec![0; 65536],
        };
        prog.iter().for_each(|s| s.run(&mut native));
        let expect = (native.x ^ native.y.wrapping_mul(31)) as u32 as u64;

        let args = [Value::I32(x), Value::I32(y)];
        let reference = common::reference(&m, "main", &args, &mut common::NoHost);
        for quantum in [u64::MAX, 1, 2, 3, 7, 64] {
            let mut inst = instance(&m, Limits::default());
            inst.invoke_export("main", &args).unwrap();
            let got = run_chopped(&mut inst, quantum, rng);
            let at = format!("quantum {quantum}: {prog:?}");
            assert_eq!(got, Some(expect), "{at}");
            let image = inst.memory().read_bytes(0, 65536).unwrap();
            assert!(image == &native.mem[..], "memory image differs, {at}");
            let seen = common::Outcome::engine(&inst, Ok(got));
            assert_eq!(seen, reference, "engine vs reference, {at}");
        }
    });
}
