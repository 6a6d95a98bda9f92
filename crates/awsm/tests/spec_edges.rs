//! First slice of the spec-edge corpus (ROADMAP 5a): the MVP corners where
//! from-scratch runtimes diverge, each checked against *native Rust
//! semantics* — an oracle that shares no code with the engine — after a trip
//! through encode → decode → validate → translate, and on the reference
//! interpreter, which must end every run as the engine does.
//!
//! Covered here: `div`/`rem` by zero and `MIN / -1`; shift and rotate count
//! masking; trapping float→int conversions; NaN and signed-zero results of
//! `min`/`max`; every extending load and narrowing store at the last
//! in-bounds and the first out-of-bounds byte; every access width at every
//! byte straddling the end of memory, with and without offset carries into
//! bit 32; the limit moving with `memory.grow` and back with a reset;
//! `br_table` defaults; `call_indirect` through a null, an out-of-range and
//! a mistyped entry; `memory.grow` past `max_pages`.

mod common;

use awsm::{translate, EngineConfig, Instance, NullHost, Tier, Trap, Value};
use sledge_reference::Machine;
use sledge_wasm::instr::{BlockType, Instr, MemArg};
use sledge_wasm::module::{ConstExpr, DataSegment, ElementSegment, Export, FuncBody, Module};
use sledge_wasm::types::{FuncType, Limits, MemoryType, TableType, ValType};
use std::sync::Arc;
use Instr::*;
use ValType::{F32, F64, I32, I64};

/// `main(params) -> result` with body `body`, a 1..=2-page memory whose last
/// 16 bytes are `TAIL`, shipped through the binary format and back.
fn module(params: &[ValType], result: ValType, body: Vec<Instr>) -> Module {
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(params.to_vec(), vec![result]));
    let mut body = body;
    body.push(End);
    let f = m.push_function(t, FuncBody::new(vec![], body));
    m.exports.push(Export::func("main", f));
    m.memories.push(MemoryType {
        limits: Limits::bounded(1, 2),
    });
    m.data.push(DataSegment {
        offset: ConstExpr::I32(PAGE as i32 - 16),
        bytes: TAIL.to_vec(),
    });
    roundtrip(&m)
}

fn roundtrip(m: &Module) -> Module {
    let bytes = sledge_wasm::encode::encode_module(m);
    let m = sledge_wasm::decode::decode_module(&bytes).expect("decodes");
    sledge_wasm::validate::validate_module(&m).expect("validates");
    m
}

const PAGE: u32 = 65536;
/// High bits set in every lane, so sign- and zero-extension differ.
const TAIL: [u8; 16] = [
    0x80, 0x91, 0xa2, 0xb3, 0xc4, 0xd5, 0xe6, 0xf7, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
];

fn instance(m: &Module) -> Instance {
    let cm = Arc::new(translate(m, Tier::Optimized).expect("translates"));
    Instance::new(cm, EngineConfig::default()).expect("instantiates")
}

/// One call of `main` on an existing instance.
fn call(inst: &mut Instance, args: &[Value]) -> Result<u64, Trap> {
    match inst.call_complete("main", args, &mut NullHost) {
        Ok(v) => Ok(v.expect("main returns a value")),
        Err(e) => Err(*e.downcast::<Trap>().expect("a trap")),
    }
}

fn run_on(m: &Module, args: &[Value]) -> (Result<u64, Trap>, Instance) {
    let mut inst = instance(m);
    let got = call(&mut inst, args);
    common::same_as_reference(m, &inst, "main", args, got.map(Some));
    (got, inst)
}

/// One call of `main` on the engine's `inst` and on the reference machine
/// `r`, which have seen the same calls since they were fresh: the two must
/// end it the same way.
fn call_both(inst: &mut Instance, r: &mut Machine, args: &[Value]) -> Result<u64, Trap> {
    let got = call(inst, args);
    let argv: Vec<u64> = args.iter().map(common::slot).collect();
    let want = r.invoke("main", &argv, &mut common::NoHost);
    assert_eq!(
        common::Outcome::engine(inst, got.map(Some)),
        common::Outcome::reference(r, want),
        "main{args:?}"
    );
    got
}

/// `main(args)` yields `expect` (a slot value or a trap).
fn expect_all(what: &str, m: &Module, args: &[Value], expect: Result<u64, Trap>) {
    assert_eq!(run_on(m, args).0, expect, "{what} {args:?}");
}

// ------------------------------------------------------------- integer ops

const I32_EDGES: [i32; 12] = [0, 1, -1, 2, -2, 7, 31, 32, 33, 65, i32::MIN, i32::MAX];
const I64_EDGES: [i64; 12] = [0, 1, -1, 2, -2, 7, 63, 64, 65, 129, i64::MIN, i64::MAX];

fn div_trap<T: PartialEq + Default>(b: T, quotient: Option<T>) -> Result<T, Trap> {
    match quotient {
        Some(q) => Ok(q),
        None if b == T::default() => Err(Trap::DivByZero),
        None => Err(Trap::IntOverflow),
    }
}

#[test]
fn i32_division_shifts_and_rotates() {
    type Native = fn(i32, i32) -> Result<i32, Trap>;
    let ops: [(Instr, Native); 9] = [
        (I32DivS, |a, b| div_trap(b, a.checked_div(b))),
        (I32DivU, |a, b| {
            div_trap(b, (a as u32).checked_div(b as u32).map(|q| q as i32))
        }),
        // `MIN % -1` is 0, not a trap: only the zero divisor traps.
        (I32RemS, |a, b| {
            div_trap(b, (b != 0).then(|| a.wrapping_rem(b)))
        }),
        (I32RemU, |a, b| {
            div_trap(b, (a as u32).checked_rem(b as u32).map(|q| q as i32))
        }),
        (I32Shl, |a, b| Ok(a.wrapping_shl(b as u32))),
        (I32ShrS, |a, b| Ok(a.wrapping_shr(b as u32))),
        (I32ShrU, |a, b| Ok((a as u32).wrapping_shr(b as u32) as i32)),
        (I32Rotl, |a, b| Ok(a.rotate_left(b as u32 % 32))),
        (I32Rotr, |a, b| Ok(a.rotate_right(b as u32 % 32))),
    ];
    for (op, native) in ops {
        let m = module(&[I32, I32], I32, vec![LocalGet(0), LocalGet(1), op.clone()]);
        for a in I32_EDGES {
            for b in I32_EDGES {
                let expect = native(a, b).map(|v| v as u32 as u64);
                expect_all(
                    &format!("{op:?}"),
                    &m,
                    &[Value::I32(a), Value::I32(b)],
                    expect,
                );
            }
        }
    }
}

#[test]
fn i64_division_shifts_and_rotates() {
    type Native = fn(i64, i64) -> Result<i64, Trap>;
    let ops: [(Instr, Native); 9] = [
        (I64DivS, |a, b| div_trap(b, a.checked_div(b))),
        (I64DivU, |a, b| {
            div_trap(b, (a as u64).checked_div(b as u64).map(|q| q as i64))
        }),
        (I64RemS, |a, b| {
            div_trap(b, (b != 0).then(|| a.wrapping_rem(b)))
        }),
        (I64RemU, |a, b| {
            div_trap(b, (a as u64).checked_rem(b as u64).map(|q| q as i64))
        }),
        (I64Shl, |a, b| Ok(a.wrapping_shl(b as u32))),
        (I64ShrS, |a, b| Ok(a.wrapping_shr(b as u32))),
        (I64ShrU, |a, b| Ok((a as u64).wrapping_shr(b as u32) as i64)),
        (I64Rotl, |a, b| Ok(a.rotate_left((b as u64 % 64) as u32))),
        (I64Rotr, |a, b| Ok(a.rotate_right((b as u64 % 64) as u32))),
    ];
    for (op, native) in ops {
        let m = module(&[I64, I64], I64, vec![LocalGet(0), LocalGet(1), op.clone()]);
        for a in I64_EDGES {
            for b in I64_EDGES {
                let expect = native(a, b).map(|v| v as u64);
                expect_all(
                    &format!("{op:?}"),
                    &m,
                    &[Value::I64(a), Value::I64(b)],
                    expect,
                );
            }
        }
    }
}

#[test]
fn constant_operands_take_the_same_edges() {
    // The same traps through the immediate forms the lowering picks for a
    // constant right operand (32-bit immediate, and a pooled 64-bit one).
    let m = module(&[I32], I32, vec![LocalGet(0), I32Const(0), I32DivS]);
    expect_all("x / 0", &m, &[Value::I32(5)], Err(Trap::DivByZero));
    let m = module(&[I32], I32, vec![LocalGet(0), I32Const(-1), I32DivS]);
    expect_all(
        "x / -1",
        &m,
        &[Value::I32(i32::MIN)],
        Err(Trap::IntOverflow),
    );
    expect_all("x / -1", &m, &[Value::I32(9)], Ok(-9i32 as u32 as u64));
    let m = module(&[I64], I64, vec![LocalGet(0), I64Const(-1), I64DivS]);
    expect_all(
        "x / -1L",
        &m,
        &[Value::I64(i64::MIN)],
        Err(Trap::IntOverflow),
    );
    let m = module(&[I64], I64, vec![LocalGet(0), I64Const(-1), I64RemS]);
    expect_all("x % -1L", &m, &[Value::I64(i64::MIN)], Ok(0));
    let m = module(&[I64], I64, vec![LocalGet(0), I64Const(65), I64Shl]);
    expect_all("x << 65", &m, &[Value::I64(3)], Ok(6));
}

// --------------------------------------------------------------- float ops

/// Wasm `trunc`: NaN traps as an invalid conversion, and anything whose
/// truncation falls outside `[lo, hi)` as integer overflow; `lo`/`hi` are
/// exact in f64 for every target type.
fn trunc(x: f64, lo: f64, hi: f64) -> Result<f64, Trap> {
    if x.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = x.trunc();
    if !(t >= lo && t < hi) {
        return Err(Trap::IntOverflow);
    }
    Ok(t)
}

const TWO31: f64 = 2147483648.0;
const TWO32: f64 = 4294967296.0;
const TWO63: f64 = 9223372036854775808.0;
const TWO64: f64 = 18446744073709551616.0;

#[test]
fn float_to_int_conversions_trap_outside_their_range() {
    let f64s = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        0.9,
        -0.9,
        -1.0,
        1.5,
        TWO31 - 1.0,
        TWO31,
        -TWO31,
        -TWO31 - 1.0,
        -TWO31 - 0.9,
        TWO32 - 1.0,
        TWO32 - 0.1,
        TWO32,
        TWO63,
        -TWO63,
        TWO63 - 1024.0,
        -TWO63 - 2048.0,
        TWO64,
        TWO64 - 2048.0,
        1e300,
        -1e300,
    ];
    type Native = fn(f64) -> Result<u64, Trap>;
    let ops: [(Instr, Instr, Native); 4] = [
        (I32TruncF64S, I32TruncF32S, |x| {
            trunc(x, -TWO31, TWO31).map(|t| t as i32 as u32 as u64)
        }),
        (I32TruncF64U, I32TruncF32U, |x| {
            trunc(x, 0.0, TWO32).map(|t| t as u32 as u64)
        }),
        (I64TruncF64S, I64TruncF32S, |x| {
            trunc(x, -TWO63, TWO63).map(|t| t as i64 as u64)
        }),
        (I64TruncF64U, I64TruncF32U, |x| {
            trunc(x, 0.0, TWO64).map(|t| t as u64)
        }),
    ];
    for (from64, from32, native) in ops {
        let result = if matches!(from64, I32TruncF64S | I32TruncF64U) {
            I32
        } else {
            I64
        };
        let m64 = module(&[F64], result, vec![LocalGet(0), from64.clone()]);
        let m32 = module(&[F32], result, vec![LocalGet(0), from32.clone()]);
        for x in f64s {
            expect_all(&format!("{from64:?}"), &m64, &[Value::F64(x)], native(x));
            // The f32 nearest to x, widened exactly, is its own edge case.
            let x = x as f32;
            expect_all(
                &format!("{from32:?}"),
                &m32,
                &[Value::F32(x)],
                native(x as f64),
            );
        }
    }
}

/// IEEE 754-2019 `minimum`/`maximum`, which is what Wasm asks for and what
/// `f64::min`/`max` (which drop a NaN operand) are not.
fn minimum(a: f64, b: f64, max: bool) -> f64 {
    if a.is_nan() || b.is_nan() {
        return f64::NAN;
    }
    if a == b {
        // Only ±0 compare equal with different bits.
        let negative = if max {
            a.is_sign_negative() && b.is_sign_negative()
        } else {
            a.is_sign_negative() || b.is_sign_negative()
        };
        return if a != 0.0 {
            a
        } else if negative {
            -0.0
        } else {
            0.0
        };
    }
    if (a < b) != max {
        a
    } else {
        b
    }
}

#[test]
fn min_and_max_propagate_nan_and_order_signed_zeros() {
    let xs = [
        f64::NAN,
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-310,
    ];
    for (op64, op32, max) in [(F64Min, F32Min, false), (F64Max, F32Max, true)] {
        let m64 = module(
            &[F64, F64],
            F64,
            vec![LocalGet(0), LocalGet(1), op64.clone()],
        );
        let m32 = module(
            &[F32, F32],
            F32,
            vec![LocalGet(0), LocalGet(1), op32.clone()],
        );
        for a in xs {
            for b in xs {
                let want = minimum(a, b, max);
                let got = run_on(&m64, &[Value::F64(a), Value::F64(b)]).0.unwrap();
                let got = f64::from_bits(got);
                assert!(
                    (got.is_nan() && want.is_nan()) || got.to_bits() == want.to_bits(),
                    "{op64:?}({a}, {b}) = {got}, want {want}"
                );
                let (a, b) = (a as f32, b as f32);
                let want = minimum(a as f64, b as f64, max) as f32;
                let got = run_on(&m32, &[Value::F32(a), Value::F32(b)]).0.unwrap();
                let got = f32::from_bits(got as u32);
                assert!(
                    (got.is_nan() && want.is_nan()) || got.to_bits() == want.to_bits(),
                    "{op32:?}({a}, {b}) = {got}, want {want}"
                );
            }
        }
    }
}

// ------------------------------------------------------------------ memory

/// Little-endian value of the first `w` bytes of `bytes`, sign-extended
/// from `w` bytes to 64 bits if `signed`.
fn extend(bytes: &[u8], w: usize, signed: bool) -> u64 {
    let mut le = [0u8; 8];
    le[..w].copy_from_slice(&bytes[..w]);
    let v = u64::from_le_bytes(le);
    let shift = 64 - 8 * w as u32;
    if signed {
        ((v << shift) as i64 >> shift) as u64
    } else {
        v
    }
}

#[test]
fn every_load_at_the_last_in_bounds_and_first_out_of_bounds_byte() {
    type Load = fn(MemArg) -> Instr;
    // (load, result type, width, sign-extends)
    let loads: [(Load, ValType, usize, bool); 14] = [
        (I32Load, I32, 4, false),
        (I64Load, I64, 8, false),
        (F32Load, F32, 4, false),
        (F64Load, F64, 8, false),
        (I32Load8S, I32, 1, true),
        (I32Load8U, I32, 1, false),
        (I32Load16S, I32, 2, true),
        (I32Load16U, I32, 2, false),
        (I64Load8S, I64, 1, true),
        (I64Load8U, I64, 1, false),
        (I64Load16S, I64, 2, true),
        (I64Load16U, I64, 2, false),
        (I64Load32S, I64, 4, true),
        (I64Load32U, I64, 4, false),
    ];
    for (load, ty, w, signed) in loads {
        let last = PAGE - w as u32;
        let want = extend(&TAIL[16 - w..], w, signed);
        // i32 results live zero-extended in their slot.
        let want = if ty == I32 { want as u32 as u64 } else { want };
        for offset in [0, 3] {
            let m = module(&[I32], ty, vec![LocalGet(0), load(MemArg::offset(offset))]);
            let what = format!("{:?}", load(MemArg::offset(offset)));
            let at = |addr: u32| [Value::I32(addr.wrapping_sub(offset) as i32)];
            expect_all(&what, &m, &at(last), Ok(want));
            for addr in [last + 1, PAGE, u32::MAX] {
                let got = run_on(&m, &at(addr)).0;
                assert_eq!(got, Err(Trap::OutOfBounds), "{what} at {addr}");
            }
        }
        // `address + offset` is a 33-bit sum: it must not wrap into bounds.
        let m = module(
            &[I32],
            ty,
            vec![LocalGet(0), load(MemArg::offset(u32::MAX))],
        );
        let got = run_on(&m, &[Value::I32(2)]).0;
        assert_eq!(got, Err(Trap::OutOfBounds), "wrapping effective address");
    }
}

#[test]
fn every_store_at_the_last_in_bounds_and_first_out_of_bounds_byte() {
    type Store = fn(MemArg) -> Instr;
    const V: u64 = 0x0123_4567_89ab_cdef;
    let stores: [(Store, ValType, usize); 9] = [
        (I32Store, I32, 4),
        (I64Store, I64, 8),
        (F32Store, F32, 4),
        (F64Store, F64, 8),
        (I32Store8, I32, 1),
        (I32Store16, I32, 2),
        (I64Store8, I64, 1),
        (I64Store16, I64, 2),
        (I64Store32, I64, 4),
    ];
    for (store, ty, w) in stores {
        let value = match ty {
            I32 => Value::I32(V as i32),
            I64 => Value::I64(V as i64),
            F32 => Value::F32(f32::from_bits(V as u32)),
            F64 => Value::F64(f64::from_bits(V)),
        };
        let body = vec![
            LocalGet(0),
            LocalGet(1),
            store(MemArg::offset(1)),
            I32Const(1),
        ];
        let m = module(&[I32, ty], I32, body);
        let what = format!("{:?}", store(MemArg::offset(1)));
        let last = PAGE - w as u32;
        let (got, inst) = run_on(&m, &[Value::I32(last as i32 - 1), value]);
        assert_eq!(got, Ok(1), "{what}");
        // Exactly the low `w` bytes landed, and nothing before them.
        let mut want = TAIL.to_vec();
        want[16 - w..].copy_from_slice(&V.to_le_bytes()[..w]);
        assert_eq!(
            inst.memory().read_bytes(PAGE - 16, 16).unwrap(),
            &want[..],
            "{what}"
        );
        let (got, inst) = run_on(&m, &[Value::I32(last as i32), value]);
        assert_eq!(got, Err(Trap::OutOfBounds), "{what} one past");
        assert_eq!(
            inst.memory().read_bytes(PAGE - 16, 16).unwrap(),
            &TAIL[..],
            "{what}"
        );
    }
}

#[test]
fn every_width_at_every_byte_straddling_the_end_of_memory() {
    type Access = fn(MemArg) -> Instr;
    // (load, store, width), each through an i64 so no width truncates.
    let widths: [(Access, Access, usize); 4] = [
        (I64Load8U, I64Store8, 1),
        (I64Load16U, I64Store16, 2),
        (I64Load32U, I64Store32, 4),
        (I64Load, I64Store, 8),
    ];
    const V: u64 = 0xfedc_ba98_7654_3210;
    // The native model: the last 16 bytes of the one-page memory are TAIL.
    let mut image = vec![0u8; PAGE as usize];
    image[PAGE as usize - 16..].copy_from_slice(&TAIL);
    for (load, store, w) in widths {
        // No offset, an unaligned one, a page, and one that carries every
        // address but 0 past bit 32.
        for offset in [0, 3, PAGE, u32::MAX] {
            let lm = module(&[I32], I64, vec![LocalGet(0), load(MemArg::offset(offset))]);
            let body = vec![
                LocalGet(0),
                I64Const(V as i64),
                store(MemArg::offset(offset)),
                I32Const(1),
            ];
            let sm = module(&[I32], I32, body);
            for ea in PAGE - 9..=PAGE + 1 {
                // When `offset` alone overshoots `ea`, this address wraps the
                // 32-bit sum to `ea`: the true, 33-bit sum lies 4 GiB past it.
                let addr = ea.wrapping_sub(offset);
                let true_ea = addr as u64 + offset as u64;
                let fits = true_ea + w as u64 <= PAGE as u64;
                let what = format!("{w}-byte access at {addr}+{offset}");
                let want = if fits {
                    let at = true_ea as usize;
                    Ok(extend(&image[at..at + w], w, false))
                } else {
                    Err(Trap::OutOfBounds)
                };
                let mut after = image.clone();
                if fits {
                    let at = true_ea as usize;
                    after[at..at + w].copy_from_slice(&V.to_le_bytes()[..w]);
                }
                let args = [Value::I32(addr as i32)];
                assert_eq!(run_on(&lm, &args).0, want, "load {what}");
                let (got, inst) = run_on(&sm, &args);
                assert_eq!(got.is_ok(), fits, "store {what}");
                assert_eq!(
                    inst.memory().read_bytes(PAGE - 32, 32).unwrap(),
                    &after[PAGE as usize - 32..],
                    "store {what}"
                );
            }
        }
    }
}

#[test]
fn the_limit_moves_with_grow_and_back_with_reset() {
    // main(delta, addr): grow by `delta`, load the i64 at `addr`, then
    // overwrite it with all ones; returns what it loaded.
    let body = vec![
        LocalGet(0),
        MemoryGrow,
        Drop,
        LocalGet(1),
        I64Load(MemArg::offset(0)),
        LocalGet(1),
        I64Const(-1),
        I64Store(MemArg::offset(0)),
    ];
    let m = module(&[I32, I32], I64, body);
    // Inside the second page: out of bounds until the memory grows.
    let addr = Value::I32(PAGE as i32 + 8);
    let (stay, grow) = ([Value::I32(0), addr], [Value::I32(1), addr]);
    let mut inst = instance(&m);
    let policy = inst.module().reset_policy("main");
    // A reset instance is a fresh one: so is the reference's.
    let reset = |inst: &mut Instance| {
        inst.reset_with(policy)
            .expect("idle or dead instances reset");
        Machine::new(&m).expect("instantiates")
    };
    let mut r = Machine::new(&m).expect("instantiates");
    assert_eq!(call_both(&mut inst, &mut r, &stay), Err(Trap::OutOfBounds));
    r = reset(&mut inst);
    // Grown: in bounds, and fresh pages read zero.
    assert_eq!(call_both(&mut inst, &mut r, &grow), Ok(0));
    assert_eq!(call_both(&mut inst, &mut r, &stay), Ok(u64::MAX));
    // Reset: back to one page, so the address traps again ...
    r = reset(&mut inst);
    assert_eq!(inst.memory().pages(), 1);
    assert_eq!(call_both(&mut inst, &mut r, &stay), Err(Trap::OutOfBounds));
    // ... and growing again never shows the previous invocation's bytes.
    r = reset(&mut inst);
    assert_eq!(call_both(&mut inst, &mut r, &grow), Ok(0));
}

#[test]
fn memory_grow_stops_at_max_pages() {
    // grow(a) then grow(b): (first result) * 1000 + (second) * 100 + size.
    let body = vec![
        LocalGet(0),
        MemoryGrow,
        I32Const(1000),
        I32Mul,
        LocalGet(1),
        MemoryGrow,
        I32Const(100),
        I32Mul,
        I32Add,
        MemorySize,
        I32Add,
    ];
    let m = module(&[I32, I32], I32, body);
    let pack =
        |first: i32, second: i32, size: i32| Ok((first * 1000 + second * 100 + size) as u32 as u64);
    let grow = |a, b| [Value::I32(a), Value::I32(b)];
    expect_all("grow 1, 1", &m, &grow(1, 1), pack(1, -1, 2));
    expect_all("grow 0, 2", &m, &grow(0, 2), pack(1, -1, 1));
    expect_all("grow 2, 1", &m, &grow(2, 1), pack(-1, 1, 2));
    expect_all("grow 65536, 0", &m, &grow(65536, 0), pack(-1, 1, 1));
    expect_all("grow -1, -1", &m, &grow(-1, -1), pack(-1, -1, 1));
}

// ----------------------------------------------------------------- control

#[test]
fn br_table_takes_the_default_for_every_out_of_range_index() {
    let body = vec![
        Block(BlockType::Empty),
        Block(BlockType::Empty),
        Block(BlockType::Empty),
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
    ];
    let m = module(&[I32], I32, body);
    for (index, want) in [
        (0, 10),
        (1, 20),
        (2, 99),
        (3, 99),
        (-1, 99),
        (i32::MIN, 99),
        (i32::MAX, 99),
    ] {
        expect_all("br_table", &m, &[Value::I32(index)], Ok(want));
    }
    // A table with no entries at all is all default.
    let body = vec![
        Block(BlockType::Empty),
        LocalGet(0),
        BrTable(vec![], 0),
        End,
        I32Const(7),
    ];
    let m = module(&[I32], I32, body);
    expect_all("empty br_table", &m, &[Value::I32(0)], Ok(7));
}

#[test]
fn call_indirect_null_out_of_range_and_mistyped() {
    // table = [double, <null>, nullary]; main(sel, x) = table[sel](x).
    let mut m = Module::new();
    let unary = m.push_type(FuncType::new(vec![I32], vec![I32]));
    let nullary = m.push_type(FuncType::new(vec![], vec![I32]));
    let binary = m.push_type(FuncType::new(vec![I32, I32], vec![I32]));
    let double = m.push_function(
        unary,
        FuncBody::new(vec![], vec![LocalGet(0), I32Const(2), I32Mul, End]),
    );
    let one = m.push_function(nullary, FuncBody::new(vec![], vec![I32Const(1), End]));
    let body = vec![LocalGet(1), LocalGet(0), CallIndirect(unary), End];
    let main = m.push_function(binary, FuncBody::new(vec![], body));
    m.exports.push(Export::func("main", main));
    m.tables.push(TableType {
        limits: Limits::at_least(3),
    });
    for (slot, f) in [(0, double), (2, one)] {
        m.elements.push(ElementSegment {
            offset: ConstExpr::I32(slot),
            funcs: vec![f],
        });
    }
    let m = roundtrip(&m);
    let call = |sel: i32| [Value::I32(sel), Value::I32(21)];
    expect_all("table[0]", &m, &call(0), Ok(42));
    expect_all("table[1]", &m, &call(1), Err(Trap::UndefinedElement));
    expect_all("table[2]", &m, &call(2), Err(Trap::IndirectTypeMismatch));
    expect_all("table[3]", &m, &call(3), Err(Trap::TableOutOfBounds));
    expect_all("table[-1]", &m, &call(-1), Err(Trap::TableOutOfBounds));
}
