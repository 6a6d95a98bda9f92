//! White-box tests of the AoT translator: control-flow resolution, dead
//! code, imports, and one translation whatever the tier. What the lowering
//! folds is checked on the lowered body, in `lower.rs`'s unit tests.

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
    // Correctness is the real check: run both tiers and compare.
    use awsm::{EngineConfig, Instance, NullHost, Value};
    for tier in [Tier::Optimized, Tier::Naive] {
        let cm = std::sync::Arc::new(translate(&m, tier).unwrap());
        let mut inst = Instance::new(
            cm,
            EngineConfig {
                tier,
                ..Default::default()
            },
        )
        .unwrap();
        let v = inst
            .call_complete("main", &[Value::I32(0)], &mut NullHost)
            .unwrap();
        assert_eq!(v, Some(160), "{tier:?}"); // 5 -> 10 -> ... -> 160
    }
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
    // The tier does not change the translation.
    let naive = translate(&m, Tier::Naive).unwrap();
    assert_eq!(cm.funcs[0].code, naive.funcs[0].code);
    assert_eq!(naive.code_size_bytes(), size);
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
    use awsm::{EngineConfig, Instance, NullHost};
    for tier in [Tier::Optimized, Tier::Naive] {
        let cm = std::sync::Arc::new(translate(&m, tier).unwrap());
        let mut inst = Instance::new(
            cm,
            EngineConfig {
                tier,
                ..Default::default()
            },
        )
        .unwrap();
        let v = inst.call_complete("main", &[], &mut NullHost).unwrap();
        assert_eq!(v, Some(7), "{tier:?}");
    }
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
    use awsm::{EngineConfig, Instance, NullHost, Value};
    for tier in [Tier::Optimized, Tier::Naive] {
        let cm = std::sync::Arc::new(translate(&m, tier).unwrap());
        let mut inst = Instance::new(
            cm,
            EngineConfig {
                tier,
                ..Default::default()
            },
        )
        .unwrap();
        let v = inst
            .call_complete("main", &[Value::I32(1)], &mut NullHost)
            .unwrap();
        assert_eq!(v, Some(10), "{tier:?} taken");
        let cm = std::sync::Arc::new(translate(&m, tier).unwrap());
        let mut inst = Instance::new(
            cm,
            EngineConfig {
                tier,
                ..Default::default()
            },
        )
        .unwrap();
        let v = inst
            .call_complete("main", &[Value::I32(0)], &mut NullHost)
            .unwrap();
        assert_eq!(v, Some(20), "{tier:?} not taken");
    }
}
