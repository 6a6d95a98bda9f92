//! Serialize a [`Module`] into the WebAssembly binary format.

use crate::instr::{BlockType, Instr, MemArg};
use crate::leb128;
use crate::module::{
    ConstExpr, DataSegment, ElementSegment, Export, ExportKind, FuncBody, Import, ImportKind,
    Module,
};
use crate::types::{GlobalType, Limits, ValType};

const MAGIC: &[u8; 4] = b"\0asm";
const VERSION: &[u8; 4] = &[1, 0, 0, 0];

/// Encode a whole module to `.wasm` bytes.
///
/// The module is encoded as-is; call
/// [`validate_module`](crate::validate::validate_module) first if you need a
/// well-formedness guarantee.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(VERSION);

    if !m.types.is_empty() {
        section(&mut out, 1, |b| {
            leb128::write_u32(b, m.types.len() as u32);
            for t in &m.types {
                b.push(0x60);
                write_valtypes(b, &t.params);
                write_valtypes(b, &t.results);
            }
        });
    }
    if !m.imports.is_empty() {
        section(&mut out, 2, |b| {
            leb128::write_u32(b, m.imports.len() as u32);
            for i in &m.imports {
                write_import(b, i);
            }
        });
    }
    if !m.functions.is_empty() {
        section(&mut out, 3, |b| {
            leb128::write_u32(b, m.functions.len() as u32);
            for t in &m.functions {
                leb128::write_u32(b, *t);
            }
        });
    }
    if !m.tables.is_empty() {
        section(&mut out, 4, |b| {
            leb128::write_u32(b, m.tables.len() as u32);
            for t in &m.tables {
                b.push(0x70); // funcref
                write_limits(b, &t.limits);
            }
        });
    }
    if !m.memories.is_empty() {
        section(&mut out, 5, |b| {
            leb128::write_u32(b, m.memories.len() as u32);
            for mem in &m.memories {
                write_limits(b, &mem.limits);
            }
        });
    }
    if !m.globals.is_empty() {
        section(&mut out, 6, |b| {
            leb128::write_u32(b, m.globals.len() as u32);
            for g in &m.globals {
                write_global_type(b, &g.ty);
                write_const_expr(b, &g.init);
            }
        });
    }
    if !m.exports.is_empty() {
        section(&mut out, 7, |b| {
            leb128::write_u32(b, m.exports.len() as u32);
            for e in &m.exports {
                write_export(b, e);
            }
        });
    }
    if let Some(start) = m.start {
        section(&mut out, 8, |b| leb128::write_u32(b, start));
    }
    if !m.elements.is_empty() {
        section(&mut out, 9, |b| {
            leb128::write_u32(b, m.elements.len() as u32);
            for e in &m.elements {
                write_element(b, e);
            }
        });
    }
    if !m.code.is_empty() {
        section(&mut out, 10, |b| {
            leb128::write_u32(b, m.code.len() as u32);
            for body in &m.code {
                write_func_body(b, body);
            }
        });
    }
    if !m.data.is_empty() {
        section(&mut out, 11, |b| {
            leb128::write_u32(b, m.data.len() as u32);
            for d in &m.data {
                write_data(b, d);
            }
        });
    }
    if let Some(name) = &m.name {
        // Custom "name" section, module-name subsection only.
        section(&mut out, 0, |b| {
            write_name(b, "name");
            let mut sub = Vec::new();
            write_name(&mut sub, name);
            b.push(0); // module-name subsection id
            leb128::write_u32(b, sub.len() as u32);
            b.extend_from_slice(&sub);
        });
    }
    out
}

fn section(out: &mut Vec<u8>, id: u8, f: impl FnOnce(&mut Vec<u8>)) {
    let mut body = Vec::new();
    f(&mut body);
    out.push(id);
    leb128::write_u32(out, body.len() as u32);
    out.extend_from_slice(&body);
}

fn write_name(out: &mut Vec<u8>, s: &str) {
    leb128::write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn write_valtypes(out: &mut Vec<u8>, tys: &[ValType]) {
    leb128::write_u32(out, tys.len() as u32);
    for t in tys {
        out.push(t.to_byte());
    }
}

fn write_limits(out: &mut Vec<u8>, l: &Limits) {
    match l.max {
        None => {
            out.push(0x00);
            leb128::write_u32(out, l.min);
        }
        Some(max) => {
            out.push(0x01);
            leb128::write_u32(out, l.min);
            leb128::write_u32(out, max);
        }
    }
}

fn write_global_type(out: &mut Vec<u8>, g: &GlobalType) {
    out.push(g.value.to_byte());
    out.push(u8::from(g.mutable));
}

fn write_import(out: &mut Vec<u8>, i: &Import) {
    write_name(out, &i.module);
    write_name(out, &i.name);
    match &i.kind {
        ImportKind::Func(t) => {
            out.push(0x00);
            leb128::write_u32(out, *t);
        }
        ImportKind::Table(t) => {
            out.push(0x01);
            out.push(0x70);
            write_limits(out, &t.limits);
        }
        ImportKind::Memory(m) => {
            out.push(0x02);
            write_limits(out, &m.limits);
        }
        ImportKind::Global(g) => {
            out.push(0x03);
            write_global_type(out, g);
        }
    }
}

fn write_export(out: &mut Vec<u8>, e: &Export) {
    write_name(out, &e.name);
    let (tag, idx) = match e.kind {
        ExportKind::Func(i) => (0x00, i),
        ExportKind::Table(i) => (0x01, i),
        ExportKind::Memory(i) => (0x02, i),
        ExportKind::Global(i) => (0x03, i),
    };
    out.push(tag);
    leb128::write_u32(out, idx);
}

fn write_const_expr(out: &mut Vec<u8>, e: &ConstExpr) {
    match e {
        ConstExpr::I32(v) => {
            out.push(0x41);
            leb128::write_i32(out, *v);
        }
        ConstExpr::I64(v) => {
            out.push(0x42);
            leb128::write_i64(out, *v);
        }
        ConstExpr::F32(v) => {
            out.push(0x43);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ConstExpr::F64(v) => {
            out.push(0x44);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ConstExpr::GlobalGet(i) => {
            out.push(0x23);
            leb128::write_u32(out, *i);
        }
    }
    out.push(0x0B); // end
}

fn write_element(out: &mut Vec<u8>, e: &ElementSegment) {
    leb128::write_u32(out, 0); // table index
    write_const_expr(out, &e.offset);
    leb128::write_u32(out, e.funcs.len() as u32);
    for f in &e.funcs {
        leb128::write_u32(out, *f);
    }
}

fn write_data(out: &mut Vec<u8>, d: &DataSegment) {
    leb128::write_u32(out, 0); // memory index
    write_const_expr(out, &d.offset);
    leb128::write_u32(out, d.bytes.len() as u32);
    out.extend_from_slice(&d.bytes);
}

fn write_func_body(out: &mut Vec<u8>, body: &FuncBody) {
    let mut b = Vec::new();
    // Run-length encode the locals.
    let mut runs: Vec<(u32, ValType)> = Vec::new();
    for l in &body.locals {
        match runs.last_mut() {
            Some((n, t)) if *t == *l => *n += 1,
            _ => runs.push((1, *l)),
        }
    }
    leb128::write_u32(&mut b, runs.len() as u32);
    for (n, t) in runs {
        leb128::write_u32(&mut b, n);
        b.push(t.to_byte());
    }
    for ins in &body.instrs {
        write_instr(&mut b, ins);
    }
    leb128::write_u32(out, b.len() as u32);
    out.extend_from_slice(&b);
}

fn write_block_type(out: &mut Vec<u8>, bt: BlockType) {
    match bt {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(t) => out.push(t.to_byte()),
    }
}

fn write_memarg(out: &mut Vec<u8>, m: &MemArg) {
    leb128::write_u32(out, m.align);
    leb128::write_u32(out, m.offset);
}

/// Encode a single instruction.
pub(crate) fn write_instr(out: &mut Vec<u8>, ins: &Instr) {
    use Instr::*;
    match ins {
        Unreachable => out.push(0x00),
        Nop => out.push(0x01),
        Block(bt) => {
            out.push(0x02);
            write_block_type(out, *bt);
        }
        Loop(bt) => {
            out.push(0x03);
            write_block_type(out, *bt);
        }
        If(bt) => {
            out.push(0x04);
            write_block_type(out, *bt);
        }
        Else => out.push(0x05),
        End => out.push(0x0B),
        Br(l) => {
            out.push(0x0C);
            leb128::write_u32(out, *l);
        }
        BrIf(l) => {
            out.push(0x0D);
            leb128::write_u32(out, *l);
        }
        BrTable(ls, d) => {
            out.push(0x0E);
            leb128::write_u32(out, ls.len() as u32);
            for l in ls {
                leb128::write_u32(out, *l);
            }
            leb128::write_u32(out, *d);
        }
        Return => out.push(0x0F),
        Call(f) => {
            out.push(0x10);
            leb128::write_u32(out, *f);
        }
        CallIndirect(t) => {
            out.push(0x11);
            leb128::write_u32(out, *t);
            out.push(0x00);
        }
        Drop => out.push(0x1A),
        Select => out.push(0x1B),
        LocalGet(i) => {
            out.push(0x20);
            leb128::write_u32(out, *i);
        }
        LocalSet(i) => {
            out.push(0x21);
            leb128::write_u32(out, *i);
        }
        LocalTee(i) => {
            out.push(0x22);
            leb128::write_u32(out, *i);
        }
        GlobalGet(i) => {
            out.push(0x23);
            leb128::write_u32(out, *i);
        }
        GlobalSet(i) => {
            out.push(0x24);
            leb128::write_u32(out, *i);
        }
        I32Load(m) => memop(out, 0x28, m),
        I64Load(m) => memop(out, 0x29, m),
        F32Load(m) => memop(out, 0x2A, m),
        F64Load(m) => memop(out, 0x2B, m),
        I32Load8S(m) => memop(out, 0x2C, m),
        I32Load8U(m) => memop(out, 0x2D, m),
        I32Load16S(m) => memop(out, 0x2E, m),
        I32Load16U(m) => memop(out, 0x2F, m),
        I64Load8S(m) => memop(out, 0x30, m),
        I64Load8U(m) => memop(out, 0x31, m),
        I64Load16S(m) => memop(out, 0x32, m),
        I64Load16U(m) => memop(out, 0x33, m),
        I64Load32S(m) => memop(out, 0x34, m),
        I64Load32U(m) => memop(out, 0x35, m),
        I32Store(m) => memop(out, 0x36, m),
        I64Store(m) => memop(out, 0x37, m),
        F32Store(m) => memop(out, 0x38, m),
        F64Store(m) => memop(out, 0x39, m),
        I32Store8(m) => memop(out, 0x3A, m),
        I32Store16(m) => memop(out, 0x3B, m),
        I64Store8(m) => memop(out, 0x3C, m),
        I64Store16(m) => memop(out, 0x3D, m),
        I64Store32(m) => memop(out, 0x3E, m),
        MemorySize => {
            out.push(0x3F);
            out.push(0x00);
        }
        MemoryGrow => {
            out.push(0x40);
            out.push(0x00);
        }
        I32Const(v) => {
            out.push(0x41);
            leb128::write_i32(out, *v);
        }
        I64Const(v) => {
            out.push(0x42);
            leb128::write_i64(out, *v);
        }
        F32Const(v) => {
            out.push(0x43);
            out.extend_from_slice(&v.to_le_bytes());
        }
        F64Const(v) => {
            out.push(0x44);
            out.extend_from_slice(&v.to_le_bytes());
        }
        I32Eqz => out.push(0x45),
        I32Eq => out.push(0x46),
        I32Ne => out.push(0x47),
        I32LtS => out.push(0x48),
        I32LtU => out.push(0x49),
        I32GtS => out.push(0x4A),
        I32GtU => out.push(0x4B),
        I32LeS => out.push(0x4C),
        I32LeU => out.push(0x4D),
        I32GeS => out.push(0x4E),
        I32GeU => out.push(0x4F),
        I64Eqz => out.push(0x50),
        I64Eq => out.push(0x51),
        I64Ne => out.push(0x52),
        I64LtS => out.push(0x53),
        I64LtU => out.push(0x54),
        I64GtS => out.push(0x55),
        I64GtU => out.push(0x56),
        I64LeS => out.push(0x57),
        I64LeU => out.push(0x58),
        I64GeS => out.push(0x59),
        I64GeU => out.push(0x5A),
        F32Eq => out.push(0x5B),
        F32Ne => out.push(0x5C),
        F32Lt => out.push(0x5D),
        F32Gt => out.push(0x5E),
        F32Le => out.push(0x5F),
        F32Ge => out.push(0x60),
        F64Eq => out.push(0x61),
        F64Ne => out.push(0x62),
        F64Lt => out.push(0x63),
        F64Gt => out.push(0x64),
        F64Le => out.push(0x65),
        F64Ge => out.push(0x66),
        I32Clz => out.push(0x67),
        I32Ctz => out.push(0x68),
        I32Popcnt => out.push(0x69),
        I32Add => out.push(0x6A),
        I32Sub => out.push(0x6B),
        I32Mul => out.push(0x6C),
        I32DivS => out.push(0x6D),
        I32DivU => out.push(0x6E),
        I32RemS => out.push(0x6F),
        I32RemU => out.push(0x70),
        I32And => out.push(0x71),
        I32Or => out.push(0x72),
        I32Xor => out.push(0x73),
        I32Shl => out.push(0x74),
        I32ShrS => out.push(0x75),
        I32ShrU => out.push(0x76),
        I32Rotl => out.push(0x77),
        I32Rotr => out.push(0x78),
        I64Clz => out.push(0x79),
        I64Ctz => out.push(0x7A),
        I64Popcnt => out.push(0x7B),
        I64Add => out.push(0x7C),
        I64Sub => out.push(0x7D),
        I64Mul => out.push(0x7E),
        I64DivS => out.push(0x7F),
        I64DivU => out.push(0x80),
        I64RemS => out.push(0x81),
        I64RemU => out.push(0x82),
        I64And => out.push(0x83),
        I64Or => out.push(0x84),
        I64Xor => out.push(0x85),
        I64Shl => out.push(0x86),
        I64ShrS => out.push(0x87),
        I64ShrU => out.push(0x88),
        I64Rotl => out.push(0x89),
        I64Rotr => out.push(0x8A),
        F32Abs => out.push(0x8B),
        F32Neg => out.push(0x8C),
        F32Ceil => out.push(0x8D),
        F32Floor => out.push(0x8E),
        F32Trunc => out.push(0x8F),
        F32Nearest => out.push(0x90),
        F32Sqrt => out.push(0x91),
        F32Add => out.push(0x92),
        F32Sub => out.push(0x93),
        F32Mul => out.push(0x94),
        F32Div => out.push(0x95),
        F32Min => out.push(0x96),
        F32Max => out.push(0x97),
        F32Copysign => out.push(0x98),
        F64Abs => out.push(0x99),
        F64Neg => out.push(0x9A),
        F64Ceil => out.push(0x9B),
        F64Floor => out.push(0x9C),
        F64Trunc => out.push(0x9D),
        F64Nearest => out.push(0x9E),
        F64Sqrt => out.push(0x9F),
        F64Add => out.push(0xA0),
        F64Sub => out.push(0xA1),
        F64Mul => out.push(0xA2),
        F64Div => out.push(0xA3),
        F64Min => out.push(0xA4),
        F64Max => out.push(0xA5),
        F64Copysign => out.push(0xA6),
        I32WrapI64 => out.push(0xA7),
        I32TruncF32S => out.push(0xA8),
        I32TruncF32U => out.push(0xA9),
        I32TruncF64S => out.push(0xAA),
        I32TruncF64U => out.push(0xAB),
        I64ExtendI32S => out.push(0xAC),
        I64ExtendI32U => out.push(0xAD),
        I64TruncF32S => out.push(0xAE),
        I64TruncF32U => out.push(0xAF),
        I64TruncF64S => out.push(0xB0),
        I64TruncF64U => out.push(0xB1),
        F32ConvertI32S => out.push(0xB2),
        F32ConvertI32U => out.push(0xB3),
        F32ConvertI64S => out.push(0xB4),
        F32ConvertI64U => out.push(0xB5),
        F32DemoteF64 => out.push(0xB6),
        F64ConvertI32S => out.push(0xB7),
        F64ConvertI32U => out.push(0xB8),
        F64ConvertI64S => out.push(0xB9),
        F64ConvertI64U => out.push(0xBA),
        F64PromoteF32 => out.push(0xBB),
        I32ReinterpretF32 => out.push(0xBC),
        I64ReinterpretF64 => out.push(0xBD),
        F32ReinterpretI32 => out.push(0xBE),
        F64ReinterpretI64 => out.push(0xBF),
        I32Extend8S => out.push(0xC0),
        I32Extend16S => out.push(0xC1),
        I64Extend8S => out.push(0xC2),
        I64Extend16S => out.push(0xC3),
        I64Extend32S => out.push(0xC4),
    }
}

fn memop(out: &mut Vec<u8>, opcode: u8, m: &MemArg) {
    out.push(opcode);
    write_memarg(out, m);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::FuncBody;
    use crate::types::FuncType;

    #[test]
    fn header_is_standard() {
        let m = Module::new();
        let bytes = encode_module(&m);
        assert_eq!(&bytes[0..4], b"\0asm");
        assert_eq!(&bytes[4..8], &[1, 0, 0, 0]);
        assert_eq!(bytes.len(), 8);
    }

    #[test]
    fn locals_are_run_length_encoded() {
        let mut m = Module::new();
        let t = m.push_type(FuncType::default());
        m.push_function(
            t,
            FuncBody::new(
                vec![ValType::I32, ValType::I32, ValType::F64],
                vec![Instr::End],
            ),
        );
        let bytes = encode_module(&m);
        // The code body should contain 2 local runs: (2 x i32), (1 x f64).
        let decoded = crate::decode::decode_module(&bytes).unwrap();
        assert_eq!(
            decoded.code[0].locals,
            vec![ValType::I32, ValType::I32, ValType::F64]
        );
    }
}
