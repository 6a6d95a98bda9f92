//! The WebAssembly MVP instruction set, plus the sign-extension operators.
//!
//! Function bodies are represented as *flat* instruction sequences, exactly
//! as in the binary format: structured constructs (`block`/`loop`/`if`) are
//! opened by their instruction and closed by an explicit [`Instr::End`], with
//! [`Instr::Else`] separating `if` arms. The `awsm` engine later resolves
//! this structure into direct jumps.

use crate::types::ValType;

/// The result type annotation of a `block`, `loop`, or `if`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockType {
    /// No result value.
    Empty,
    /// A single result value.
    Value(ValType),
}

impl BlockType {
    /// The single result type, if any.
    pub fn result(self) -> Option<ValType> {
        match self {
            BlockType::Empty => None,
            BlockType::Value(v) => Some(v),
        }
    }
}

/// Alignment/offset immediate of a memory access instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemArg {
    /// Expected alignment, as log2 of the byte alignment (a hint only).
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// A memarg with the given constant offset and natural alignment hint.
    pub fn offset(offset: u32) -> Self {
        MemArg { align: 0, offset }
    }
}

/// One WebAssembly instruction.
///
/// Variant order follows the numeric opcode space of the spec.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // Control.
    Unreachable,
    Nop,
    Block(BlockType),
    Loop(BlockType),
    If(BlockType),
    Else,
    End,
    Br(u32),
    BrIf(u32),
    /// Targets followed by the default target.
    BrTable(Vec<u32>, u32),
    Return,
    Call(u32),
    /// Type index of the callee signature (table index is always 0 in MVP).
    CallIndirect(u32),

    // Parametric.
    Drop,
    Select,

    // Variables.
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),

    // Memory loads.
    I32Load(MemArg),
    I64Load(MemArg),
    F32Load(MemArg),
    F64Load(MemArg),
    I32Load8S(MemArg),
    I32Load8U(MemArg),
    I32Load16S(MemArg),
    I32Load16U(MemArg),
    I64Load8S(MemArg),
    I64Load8U(MemArg),
    I64Load16S(MemArg),
    I64Load16U(MemArg),
    I64Load32S(MemArg),
    I64Load32U(MemArg),

    // Memory stores.
    I32Store(MemArg),
    I64Store(MemArg),
    F32Store(MemArg),
    F64Store(MemArg),
    I32Store8(MemArg),
    I32Store16(MemArg),
    I64Store8(MemArg),
    I64Store16(MemArg),
    I64Store32(MemArg),

    MemorySize,
    MemoryGrow,

    // Constants.
    I32Const(i32),
    I64Const(i64),
    F32Const(f32),
    F64Const(f64),

    // i32 comparisons.
    I32Eqz,
    I32Eq,
    I32Ne,
    I32LtS,
    I32LtU,
    I32GtS,
    I32GtU,
    I32LeS,
    I32LeU,
    I32GeS,
    I32GeU,

    // i64 comparisons.
    I64Eqz,
    I64Eq,
    I64Ne,
    I64LtS,
    I64LtU,
    I64GtS,
    I64GtU,
    I64LeS,
    I64LeU,
    I64GeS,
    I64GeU,

    // f32 comparisons.
    F32Eq,
    F32Ne,
    F32Lt,
    F32Gt,
    F32Le,
    F32Ge,

    // f64 comparisons.
    F64Eq,
    F64Ne,
    F64Lt,
    F64Gt,
    F64Le,
    F64Ge,

    // i32 arithmetic.
    I32Clz,
    I32Ctz,
    I32Popcnt,
    I32Add,
    I32Sub,
    I32Mul,
    I32DivS,
    I32DivU,
    I32RemS,
    I32RemU,
    I32And,
    I32Or,
    I32Xor,
    I32Shl,
    I32ShrS,
    I32ShrU,
    I32Rotl,
    I32Rotr,

    // i64 arithmetic.
    I64Clz,
    I64Ctz,
    I64Popcnt,
    I64Add,
    I64Sub,
    I64Mul,
    I64DivS,
    I64DivU,
    I64RemS,
    I64RemU,
    I64And,
    I64Or,
    I64Xor,
    I64Shl,
    I64ShrS,
    I64ShrU,
    I64Rotl,
    I64Rotr,

    // f32 arithmetic.
    F32Abs,
    F32Neg,
    F32Ceil,
    F32Floor,
    F32Trunc,
    F32Nearest,
    F32Sqrt,
    F32Add,
    F32Sub,
    F32Mul,
    F32Div,
    F32Min,
    F32Max,
    F32Copysign,

    // f64 arithmetic.
    F64Abs,
    F64Neg,
    F64Ceil,
    F64Floor,
    F64Trunc,
    F64Nearest,
    F64Sqrt,
    F64Add,
    F64Sub,
    F64Mul,
    F64Div,
    F64Min,
    F64Max,
    F64Copysign,

    // Conversions.
    I32WrapI64,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64ExtendI32S,
    I64ExtendI32U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F32DemoteF64,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F64PromoteF32,
    I32ReinterpretF32,
    I64ReinterpretF64,
    F32ReinterpretI32,
    F64ReinterpretI64,

    // Sign-extension operators (post-MVP but universally supported).
    I32Extend8S,
    I32Extend16S,
    I64Extend8S,
    I64Extend16S,
    I64Extend32S,
}

impl Instr {
    /// `true` for instructions that open a new structured control frame.
    pub(crate) fn opens_block(&self) -> bool {
        matches!(self, Instr::Block(_) | Instr::Loop(_) | Instr::If(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_type_result() {
        assert_eq!(BlockType::Empty.result(), None);
        assert_eq!(BlockType::Value(ValType::F64).result(), Some(ValType::F64));
    }

    #[test]
    fn opens_block_classification() {
        assert!(Instr::Block(BlockType::Empty).opens_block());
        assert!(Instr::Loop(BlockType::Empty).opens_block());
        assert!(Instr::If(BlockType::Empty).opens_block());
        assert!(!Instr::End.opens_block());
        assert!(!Instr::I32Add.opens_block());
    }
}
