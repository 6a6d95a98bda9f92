//! White-box tests of the AoT translator: control-flow resolution, dead
//! code and imports. Programs that run are checked against the reference
//! interpreter. What the lowering folds
//! is checked on the lowered body, in `lower.rs`'s unit tests.

mod common;

use awsm::code::Op;
use awsm::{translate, Tier};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

fn module_of(f: FuncBuilder) -> Module {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap()
}

#[test]
fn fusion_respects_loop_head_barriers() {
    // The last op before a loop head and the first op inside it must not be
    // folded together by the lowering: branch targets must stay
    // addressable. Construct: set x; loop { x = x * 2; br_if } — the
    // local.get at the loop head is a branch target.
    let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
    let x = f.arg(0);
    f.extend([
        set(x, i32c(5)),
        while_(
            lt_s(local(x), i32c(100)),
            vec![set(x, mul(local(x), i32c(2)))],
        ),
        ret(Some(local(x))),
    ]);
    let m = module_of(f);
    // Correctness is the real check: run it, and on the reference.
    use awsm::{EngineConfig, Instance, Value};
    let cm = std::sync::Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let seen = common::agree(&m, &mut inst, "main", &[Value::I32(0)], u64::MAX);
    assert_eq!(seen.result, Ok(Some(160))); // 5 -> 10 -> ... -> 160
}

#[test]
fn code_size_reporting_is_sane() {
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let i = f.local(ValType::I32);
    f.extend([
        for_loop(i, i32c(0), lt_s(local(i), i32c(10)), 1, vec![]),
        ret(Some(local(i))),
    ]);
    let m = module_of(f);
    let cm = translate(&m, Tier::Optimized).unwrap();
    let size = cm.code_size_bytes();
    assert!(size > 0 && size < 16 * 1024, "size = {size}");
}

#[test]
fn imported_function_calls_become_call_host() {
    let mut mb = ModuleBuilder::new("t");
    mb.memory(1, Some(1));
    let clock = mb.import_func("env", "clock_ns", &[], Some(ValType::I64));
    let mut f = FuncBuilder::new(&[], Some(ValType::I64));
    f.push(ret(Some(call(clock, vec![]))));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    let m = mb.build().unwrap();
    let cm = translate(&m, Tier::Optimized).unwrap();
    assert_eq!(cm.host_funcs.len(), 1);
    assert_eq!(cm.host_funcs[0].name, "clock_ns");
    assert!(cm.funcs[0]
        .code
        .iter()
        .any(|o| matches!(o, Op::CallHost(0))));
}

#[test]
fn start_functions_are_rejected_with_a_clear_error() {
    use sledge_wasm::module::FuncBody;
    use sledge_wasm::types::FuncType;
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![], vec![]));
    let f = m.push_function(
        t,
        FuncBody::new(vec![], vec![sledge_wasm::instr::Instr::End]),
    );
    m.start = Some(f);
    match translate(&m, Tier::Optimized) {
        Err(awsm::TranslateError::Unsupported(msg)) => {
            assert!(msg.contains("start function"), "{msg}")
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn statically_dead_code_is_skipped_without_miscompiling() {
    // Hand-assembled: a block whose tail is unreachable junk after `br`,
    // including nested dead blocks — exercises the translator's skip logic.
    use sledge_wasm::instr::{BlockType, Instr};
    use sledge_wasm::module::{Export, FuncBody};
    use sledge_wasm::types::FuncType;
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![], vec![ValType::I32]));
    use Instr::*;
    let f = m.push_function(
        t,
        FuncBody::new(
            vec![],
            vec![
                Block(BlockType::Value(ValType::I32)),
                I32Const(7),
                Br(0),
                // Dead code follows, with nested structure:
                Block(BlockType::Empty),
                I32Const(1),
                Drop,
                Loop(BlockType::Empty),
                Br(0),
                End,
                End,
                I32Const(99),
                I32Add,
                End,
                End,
            ],
        ),
    );
    m.exports.push(Export::func("main", f));
    use awsm::{EngineConfig, Instance};
    let cm = std::sync::Arc::new(translate(&m, Tier::Optimized).unwrap());
    let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
    let seen = common::agree(&m, &mut inst, "main", &[], u64::MAX);
    assert_eq!(seen.result, Ok(Some(7)));
}

#[test]
fn if_with_unreachable_then_arm_reaches_else() {
    use sledge_wasm::instr::{BlockType, Instr};
    use sledge_wasm::module::{Export, FuncBody};
    use sledge_wasm::types::FuncType;
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    use Instr::*;
    let f = m.push_function(
        t,
        FuncBody::new(
            vec![],
            vec![
                LocalGet(0),
                If(BlockType::Empty),
                I32Const(10),
                Return, // then-arm ends unreachable
                Else,
                I32Const(20),
                Return,
                End,
                Unreachable,
                End,
            ],
        ),
    );
    m.exports.push(Export::func("main", f));
    use awsm::{EngineConfig, Instance, Value};
    let cm = std::sync::Arc::new(translate(&m, Tier::Optimized).unwrap());
    for (arg, want) in [(1, 10), (0, 20)] {
        let mut inst = Instance::new(std::sync::Arc::clone(&cm), EngineConfig::default()).unwrap();
        let seen = common::agree(&m, &mut inst, "main", &[Value::I32(arg)], u64::MAX);
        assert_eq!(seen.result, Ok(Some(want)), "main({arg})");
    }
}
