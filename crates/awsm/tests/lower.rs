//! Lowering hazards: every way the register form could diverge from the
//! stack body it was derived from, each checked against what the program
//! means — natively evaluated Rust — rather than against another tier.
//!
//! Fixed programs first (one per hazard the lowering pass handles
//! specially), then seeded random straight-line-and-loop programs run
//! whole, chopped at small quanta and preempted at random, on every tier and
//! bounds strategy. Tests named `miri_*` are small enough for the Miri leg.

mod common;

use awsm::{
    decode_artifact, encode_artifact, translate, verify_body, BoundsStrategy, CompiledModule,
    EngineConfig, Host, HostImport, HostOutcome, Instance, InstanceError, Limits, LinearMemory,
    NullHost, Op, StepResult, Tier, Trap, Value,
};
use common::{any_i32, Arith, ALL_CONFIGS};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Stmt};
use sledge_testkit::{cases, Rng};
use sledge_wasm::instr::{BlockType, Instr};
use sledge_wasm::module::{Export, FuncBody, Module};
use sledge_wasm::types::{FuncType, ValType};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn instance(m: &Module, tier: Tier, bounds: BoundsStrategy, limits: Limits) -> Instance {
    let cm = Arc::new(translate(m, tier).expect("translate"));
    let config = EngineConfig {
        bounds,
        tier,
        limits,
    };
    Instance::new(cm, config).expect("instantiate")
}

/// `main(args)` must return `expect` on every tier and bounds strategy.
fn assert_returns(m: &Module, args: &[i32], expect: i32) {
    let args: Vec<Value> = args.iter().map(|&a| Value::I32(a)).collect();
    for &(tier, bounds) in ALL_CONFIGS {
        let mut inst = instance(m, tier, bounds, Limits::default());
        let got = inst.call_complete("main", &args, &mut NullHost);
        let got = got.unwrap_or_else(|e| panic!("{tier:?}/{bounds:?}: {e}"));
        assert_eq!(got, Some(expect as u32 as u64), "{tier:?}/{bounds:?}");
    }
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
    // x + (x += 1; x): the increment fuses to `IncI32 x` under a pending x.
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

struct SlowHost {
    pending_left: u32,
    calls: u32,
}

impl Host for SlowHost {
    fn call(&mut self, _: u32, _: &HostImport, args: &[u64], _: &mut LinearMemory) -> HostOutcome {
        self.calls += 1;
        if self.pending_left > 0 {
            self.pending_left -= 1;
            return HostOutcome::Pending;
        }
        HostOutcome::Value(
            (args[0] as u32)
                .wrapping_mul(args[1] as u32)
                .wrapping_add(1) as u64,
        )
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

    let mut fuel = None;
    for &(tier, bounds) in ALL_CONFIGS {
        let mut inst = instance(&m, tier, bounds, Limits::default());
        let mut host = SlowHost {
            pending_left: 2,
            calls: 0,
        };
        inst.invoke_export("main", &[Value::I32(6), Value::I32(5)])
            .unwrap();
        assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
        assert_eq!(inst.run(&mut host, u64::MAX), StepResult::Blocked);
        // The third issue sees the same arguments and completes.
        assert_eq!(
            inst.run(&mut host, u64::MAX),
            StepResult::Complete(Some(6 + 7 * 5 + 1))
        );
        assert_eq!(host.calls, 3);
        // Re-issuing is free: the call was charged once, in both tiers.
        assert_eq!(*fuel.get_or_insert(inst.fuel_used()), inst.fuel_used());
    }
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

    for &(tier, bounds) in ALL_CONFIGS {
        let limits = Limits::default();
        let mut inst = instance(&m, tier, bounds, limits);
        let idle = inst.footprint_bytes();
        let got = inst.call_complete("main", &[Value::I32(0)], &mut NullHost);
        let trap = got.expect_err("unbounded recursion").downcast::<Trap>();
        assert_eq!(*trap.unwrap(), Trap::StackExhausted, "{tier:?}/{bounds:?}");
        // The slab never outgrew the limit (plus the frame records).
        let grown = inst.footprint_bytes() - idle;
        assert!(grown <= limits.max_stack * 8 + 4096, "slab grew {grown} B");
    }
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
        let mut inst = instance(&m, Tier::Optimized, BoundsStrategy::Software, limits);
        inst.invoke_export("main", &[Value::I32(0)]).unwrap();
        assert_eq!(
            inst.run(&mut NullHost, u64::MAX),
            StepResult::Trapped(Trap::StackExhausted)
        );
    }
}

// ---------------------------------------------- lowering inside artifact decode

#[test]
fn tampered_artifacts_decode_but_never_run_or_panic() {
    let mut mb = ModuleBuilder::new("lower");
    let poke = mb.import_func("env", "poke", &[ValType::I32], None);
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    f.extend([
        exec(call(poke, vec![local(x)])),
        ret(Some(add(local(x), i32c(1)))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let honest = translate(&mb.build().unwrap(), Tier::Optimized).unwrap();
    let honest = encode_artifact(&honest);

    // Each edit leaves a structurally valid artifact with a correct
    // checksum — what a peer that fixes the checksum up could send — whose
    // body the executor must never see. (what is edited, what is wrong)
    type Edit = fn(&mut CompiledModule);
    let edits: [(Edit, &str); 5] = [
        (|m| m.funcs[0].code.insert(1, Op::Drop), "operand underflow"),
        (
            |m| {
                drop(
                    m.funcs[0]
                        .code
                        .splice(1..1, [Op::LocalGet(1 << 20), Op::Drop]),
                )
            },
            "local index out of range",
        ),
        (
            |m| m.funcs[0].code.insert(1, Op::Call(99)),
            "unknown function",
        ),
        (|m| m.funcs[0].code.truncate(2), "past the end"),
        // The import claims more arguments than its call sites push.
        (|m| m.host_funcs[0].nparams = 1000, "operand underflow"),
    ];
    for (edit, why) in edits {
        let mut m = decode_artifact(&honest).unwrap();
        edit(&mut m);
        let m = decode_artifact(&encode_artifact(&m)).expect("checksum and structure hold");
        let refused = verify_body(&m).expect_err(why);
        assert!(refused.contains(why), "{refused} (wanted: {why})");
        assert_eq!(m.lowered_ops(0), None, "{why}: must not have been lowered");
        let config = EngineConfig::default();
        match Instance::new(Arc::new(m), config) {
            Err(InstanceError::NotExecutable(e)) => assert!(e.contains(why), "{e}"),
            other => panic!("{why}: instantiated or failed otherwise: {other:?}"),
        }
    }
    // The honest artifact still lowers, verifies and serves.
    let m = decode_artifact(&honest).unwrap();
    verify_body(&m).unwrap();
    assert!(m.lowered_ops(0).is_some());
}

#[test]
fn miri_lowered_ops_are_sixteen_bytes() {
    assert_eq!(awsm::LOWERED_OP_BYTES, 16);
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

        let mut fuel = None;
        for &(tier, bounds) in ALL_CONFIGS {
            for quantum in [u64::MAX, 1, 2, 3, 7, 64] {
                let mut inst = instance(&m, tier, bounds, Limits::default());
                inst.invoke_export("main", &[Value::I32(x), Value::I32(y)])
                    .unwrap();
                let got = run_chopped(&mut inst, quantum, rng);
                let at = format!("{tier:?}/{bounds:?} quantum {quantum}: {prog:?}");
                assert_eq!(got, Some(expect), "{at}");
                let image = inst.memory().read_bytes(0, 65536).unwrap();
                assert!(image == &native.mem[..], "memory image differs, {at}");
                assert_eq!(
                    *fuel.get_or_insert(inst.fuel_used()),
                    inst.fuel_used(),
                    "{at}"
                );
            }
        }
    });
}
