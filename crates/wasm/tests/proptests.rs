//! Seeded property tests: LEB128 and module encode/decode roundtrips over
//! randomly generated inputs, and decoder robustness against garbage.

use sledge_testkit::cases;
use sledge_wasm::instr::Instr;
use sledge_wasm::module::{ConstExpr, DataSegment, Export, FuncBody, Module};
use sledge_wasm::types::{FuncType, Limits, MemoryType, ValType};
use sledge_wasm::{decode, encode, leb128};

/// `write` then `read` gives the value back and consumes exactly what was
/// written, for 256 random values of the integer type.
macro_rules! leb_roundtrip {
    ($name:ident, $ty:ty, $write:ident, $read:ident, $seed:expr, $max_len:expr) => {
        #[test]
        fn $name() {
            cases(256, $seed, |rng| {
                // A random arithmetic shift, so every encoded length occurs.
                let v = (rng.next_u64() as i64 >> rng.range(0, 64)) as $ty;
                let mut buf = Vec::new();
                leb128::$write(&mut buf, v);
                let (back, n) = leb128::$read(&buf, 0).unwrap();
                assert_eq!(back, v);
                assert_eq!(n, buf.len());
                assert!(buf.len() <= $max_len);
            });
        }
    };
}

leb_roundtrip!(leb_u32_roundtrip, u32, write_u32, read_u32, 0x1EB0_0032, 5);
leb_roundtrip!(leb_i32_roundtrip, i32, write_i32, read_i32, 0x1EB1_0032, 5);
leb_roundtrip!(leb_i64_roundtrip, i64, write_i64, read_i64, 0x1EB1_0064, 10);
leb_roundtrip!(leb_u64_roundtrip, u64, write_u64, read_u64, 0x1EB0_0064, 10);

#[test]
fn leb_decoding_random_bytes_never_panics() {
    cases(256, 0x1EB0_BAD0, |rng| {
        let bytes = rng.bytes(0, 12);
        let _ = leb128::read_u32(&bytes, 0);
        let _ = leb128::read_i32(&bytes, 0);
        let _ = leb128::read_u64(&bytes, 0);
        let _ = leb128::read_i64(&bytes, 0);
    });
}

#[test]
fn decoder_survives_random_input() {
    cases(256, 0xDEC0_DE00, |rng| {
        // Never panics; random bytes are (almost) never a valid module.
        let _ = decode::decode_module(&rng.bytes(0, 256));
    });
}

#[test]
fn decoder_survives_corrupted_valid_module() {
    cases(256, 0xC022_0975, |rng| {
        let mut bytes = encode::encode_module(&sample_module(3, 7));
        let (flip_at, flip_bits) = (rng.index(0, 200), rng.range(1, 256) as u8);
        if flip_at < bytes.len() {
            bytes[flip_at] ^= flip_bits;
        }
        let _ = decode::decode_module(&bytes); // must not panic
    });
}

fn sample_module(consts: i32, locals: usize) -> Module {
    let mut m = Module::new();
    let t = m.push_type(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let mut instrs = Vec::new();
    for c in 0..consts {
        instrs.push(Instr::I32Const(c));
        instrs.push(Instr::Drop);
    }
    instrs.push(Instr::LocalGet(0));
    instrs.push(Instr::End);
    let f = m.push_function(t, FuncBody::new(vec![ValType::I64; locals], instrs));
    m.exports.push(Export::func("main", f));
    m.memories.push(MemoryType {
        limits: Limits::bounded(1, 2),
    });
    m.data.push(DataSegment {
        offset: ConstExpr::I32(0),
        bytes: vec![7; 16],
    });
    m
}

#[test]
fn module_roundtrip_with_random_shapes() {
    cases(256, 0x5A4B_E500, |rng| {
        let val_types = [ValType::I32, ValType::I64, ValType::F32, ValType::F64];
        let param_tys = rng.vec(0, 4, |r| *r.pick(&val_types));
        let consts = rng.vec(0, 20, |r| r.next_u64() as i32);
        let nlocals = rng.index(0, 10);
        let mut m = Module::new();
        let t = m.push_type(FuncType::new(param_tys, vec![ValType::I32]));
        for i in 0..rng.index(1, 5) {
            let mut instrs = Vec::new();
            for c in &consts {
                instrs.push(Instr::I32Const(*c));
                instrs.push(Instr::Drop);
            }
            instrs.push(Instr::I32Const(i as i32));
            instrs.push(Instr::End);
            let f = m.push_function(t, FuncBody::new(vec![ValType::F64; nlocals], instrs));
            m.exports.push(Export::func(format!("f{i}"), f));
        }
        m.memories.push(MemoryType {
            limits: Limits::bounded(1, 4),
        });
        let bytes = rng.bytes(0, 64);
        if !bytes.is_empty() {
            m.data.push(DataSegment {
                offset: ConstExpr::I32(8),
                bytes,
            });
        }
        m.name = Some("prop".into());

        let bytes = encode::encode_module(&m);
        let back = decode::decode_module(&bytes).unwrap();
        assert_eq!(m, back);
        // And the roundtripped module still validates.
        sledge_wasm::validate::validate_module(&back).unwrap();
    });
}
