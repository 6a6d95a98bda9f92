//! Typed expression trees for the guest DSL.

use sledge_wasm::types::ValType;

/// A function-local variable (parameter or declared local).
///
/// Carries its type so expression types can be inferred bottom-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Local {
    pub(crate) idx: u32,
    /// Value type of the local.
    pub ty: ValType,
}

impl Local {
    /// Raw Wasm local index (parameters first).
    pub fn index(self) -> u32 {
        self.idx
    }
}

/// A function-signature handle for indirect calls, interned on the module
/// builder (see `ModuleBuilder::signature`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigRef {
    pub(crate) idx: u32,
    pub(crate) params: Vec<ValType>,
    pub(crate) result: Option<ValType>,
}

impl SigRef {
    /// Type index in the module's type section.
    pub fn index(&self) -> u32 {
        self.idx
    }
}

/// A reference to a declared or imported function, usable in [`Expr::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef {
    pub(crate) idx: u32,
    pub(crate) nparams: u32,
    pub(crate) result: Option<ValType>,
}

impl FnRef {
    /// Function index in the module's function index space.
    pub fn index(self) -> u32 {
        self.idx
    }

    /// The function's result type, if any.
    pub fn result(self) -> Option<ValType> {
        self.result
    }
}

/// The width/signedness of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// Unsigned byte, widened to `i32`.
    U8,
    /// Signed byte, widened to `i32`.
    I8,
    /// Unsigned 16-bit, widened to `i32`.
    U16,
    /// Signed 16-bit, widened to `i32`.
    I16,
}

impl Scalar {
    /// The value type this scalar loads as / stores from.
    pub fn val_type(self) -> ValType {
        match self {
            Scalar::I32 | Scalar::U8 | Scalar::I8 | Scalar::U16 | Scalar::I16 => ValType::I32,
            Scalar::I64 => ValType::I64,
            Scalar::F32 => ValType::F32,
            Scalar::F64 => ValType::F64,
        }
    }

    /// Size of the access in bytes.
    pub fn size(self) -> u32 {
        match self {
            Scalar::U8 | Scalar::I8 => 1,
            Scalar::U16 | Scalar::I16 => 2,
            Scalar::I32 | Scalar::F32 => 4,
            Scalar::I64 | Scalar::F64 => 8,
        }
    }
}

/// Binary arithmetic/bitwise operators. Integer-only operators panic when
/// applied to floats and vice versa (at emit time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division (float division for float operands).
    DivS,
    /// Unsigned division (integers only).
    DivU,
    /// Signed remainder (integers only).
    RemS,
    /// Unsigned remainder (integers only).
    RemU,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    Rotl,
    Rotr,
    /// Float minimum (floats only).
    Min,
    /// Float maximum (floats only).
    Max,
    /// IEEE copysign (floats only).
    Copysign,
}

/// Comparison operators; all yield `i32` 0/1. For float operands the
/// signed/unsigned distinction collapses (`LtS`/`LtU` both mean `lt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    LtS,
    LtU,
    GtS,
    GtU,
    LeS,
    LeU,
    GeS,
    GeU,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Float negation.
    Neg,
    /// Float absolute value.
    Abs,
    /// Float square root.
    Sqrt,
    /// Float ceiling.
    Ceil,
    /// Float floor.
    Floor,
    /// Float truncation toward zero.
    Trunc,
    /// Float round-to-nearest-even.
    Nearest,
    /// Count leading zeros (integers).
    Clz,
    /// Count trailing zeros (integers).
    Ctz,
    /// Population count (integers).
    Popcnt,
    /// `== 0`, yields `i32` (integers).
    Eqz,
}

/// Explicit numeric conversions, named `<src>_to_<dst>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cast {
    I32ToI64S,
    I32ToI64U,
    I64ToI32,
    I32ToF32S,
    I32ToF32U,
    I32ToF64S,
    I32ToF64U,
    I64ToF32S,
    I64ToF64S,
    I64ToF64U,
    F32ToF64,
    F64ToF32,
    F32ToI32S,
    F32ToI32U,
    F64ToI32S,
    F64ToI32U,
    F64ToI64S,
    F64ToI64U,
    F64BitsToI64,
    I64BitsToF64,
    F32BitsToI32,
    I32BitsToF32,
}

impl Cast {
    /// `(source type, destination type)` of the conversion.
    pub fn signature(self) -> (ValType, ValType) {
        use Cast::*;
        use ValType::*;
        match self {
            I32ToI64S | I32ToI64U => (I32, I64),
            I64ToI32 => (I64, I32),
            I32ToF32S | I32ToF32U => (I32, F32),
            I32ToF64S | I32ToF64U => (I32, F64),
            I64ToF32S => (I64, F32),
            I64ToF64S | I64ToF64U => (I64, F64),
            F32ToF64 => (F32, F64),
            F64ToF32 => (F64, F32),
            F32ToI32S | F32ToI32U => (F32, I32),
            F64ToI32S | F64ToI32U => (F64, I32),
            F64ToI64S | F64ToI64U => (F64, I64),
            F64BitsToI64 => (F64, I64),
            I64BitsToF64 => (I64, F64),
            F32BitsToI32 => (F32, I32),
            I32BitsToF32 => (I32, F32),
        }
    }
}

/// A typed expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    ConstI32(i32),
    ConstI64(i64),
    ConstF32(f32),
    ConstF64(f64),
    /// Read a local.
    Local(Local),
    /// Read a global (type recorded at construction).
    GlobalGet(u32, ValType),
    /// Binary operation; both operands must have the same type.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison; yields `i32`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Numeric conversion.
    Cast(Cast, Box<Expr>),
    /// Load `scalar` from `addr + offset`.
    Load(Scalar, Box<Expr>, u32),
    /// Direct call.
    Call(FnRef, Vec<Expr>),
    /// Indirect call through the module's function table: the last operand
    /// is the table index.
    CallIndirect(SigRef, Box<Expr>, Vec<Expr>),
    /// `cond ? then : else` — both arms always evaluated (wasm `select`).
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Current memory size in pages.
    MemorySize,
    /// Grow memory by N pages; yields previous size or -1.
    MemoryGrow(Box<Expr>),
    /// Assign to a local and yield the value (wasm `local.tee`).
    Tee(Local, Box<Expr>),
}

impl Expr {
    /// The expression's value type, or `None` for a call to a void function.
    ///
    /// # Panics
    ///
    /// Panics on ill-typed trees (e.g. `i32 + f64`); this is the DSL's
    /// compile-time diagnostic.
    pub fn ty(&self) -> Option<ValType> {
        match self {
            Expr::ConstI32(_) => Some(ValType::I32),
            Expr::ConstI64(_) => Some(ValType::I64),
            Expr::ConstF32(_) => Some(ValType::F32),
            Expr::ConstF64(_) => Some(ValType::F64),
            Expr::Local(l) => Some(l.ty),
            Expr::GlobalGet(_, t) => Some(*t),
            Expr::Bin(op, a, b) => {
                let ta = a.ty().unwrap_or_else(|| panic!("void operand of {op:?}"));
                let tb = b.ty().unwrap_or_else(|| panic!("void operand of {op:?}"));
                assert_eq!(ta, tb, "operand type mismatch in {op:?}: {ta} vs {tb}");
                Some(ta)
            }
            Expr::Cmp(op, a, b) => {
                let ta = a.ty().unwrap_or_else(|| panic!("void operand of {op:?}"));
                let tb = b.ty().unwrap_or_else(|| panic!("void operand of {op:?}"));
                assert_eq!(ta, tb, "operand type mismatch in {op:?}: {ta} vs {tb}");
                Some(ValType::I32)
            }
            Expr::Un(op, a) => {
                let t = a.ty().unwrap_or_else(|| panic!("void operand of {op:?}"));
                if *op == UnOp::Eqz {
                    Some(ValType::I32)
                } else {
                    Some(t)
                }
            }
            Expr::Cast(c, a) => {
                let (src, dst) = c.signature();
                let t = a.ty().unwrap_or_else(|| panic!("void operand of {c:?}"));
                assert_eq!(t, src, "cast {c:?} applied to {t}");
                Some(dst)
            }
            Expr::Load(s, addr, _) => {
                assert_eq!(addr.ty(), Some(ValType::I32), "load address must be i32");
                Some(s.val_type())
            }
            Expr::Call(f, args) => {
                assert_eq!(
                    args.len() as u32,
                    f.nparams,
                    "call to fn #{} expects {} args, got {}",
                    f.idx,
                    f.nparams,
                    args.len()
                );
                f.result
            }
            Expr::CallIndirect(sig, index, args) => {
                assert_eq!(
                    index.ty(),
                    Some(ValType::I32),
                    "indirect call table index must be i32"
                );
                assert_eq!(
                    args.len(),
                    sig.params.len(),
                    "indirect call signature expects {} args, got {}",
                    sig.params.len(),
                    args.len()
                );
                for (i, (a, p)) in args.iter().zip(&sig.params).enumerate() {
                    assert_eq!(a.ty(), Some(*p), "indirect call arg {i} type");
                }
                sig.result
            }
            Expr::Select(c, a, b) => {
                assert_eq!(c.ty(), Some(ValType::I32), "select condition must be i32");
                let ta = a.ty().expect("void select arm");
                let tb = b.ty().expect("void select arm");
                assert_eq!(ta, tb, "select arm type mismatch: {ta} vs {tb}");
                Some(ta)
            }
            Expr::MemorySize => Some(ValType::I32),
            Expr::MemoryGrow(n) => {
                assert_eq!(n.ty(), Some(ValType::I32), "memory.grow takes i32");
                Some(ValType::I32)
            }
            Expr::Tee(l, v) => {
                assert_eq!(v.ty(), Some(l.ty), "tee type mismatch");
                Some(l.ty)
            }
        }
    }
}

/// Free-function constructors for expressions.
pub(crate) mod helpers {
    use super::*;

    /// `i32` constant.
    pub fn i32c(v: i32) -> Expr {
        Expr::ConstI32(v)
    }
    /// `i64` constant.
    pub fn i64c(v: i64) -> Expr {
        Expr::ConstI64(v)
    }
    /// `f32` constant.
    pub fn f32c(v: f32) -> Expr {
        Expr::ConstF32(v)
    }
    /// `f64` constant.
    pub fn f64c(v: f64) -> Expr {
        Expr::ConstF64(v)
    }
    /// Read a local.
    pub fn local(l: Local) -> Expr {
        Expr::Local(l)
    }
    /// Read a global.
    pub fn global(idx: u32, ty: ValType) -> Expr {
        Expr::GlobalGet(idx, ty)
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    /// Addition.
    pub fn add(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Add, a, b)
    }
    /// Subtraction.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Sub, a, b)
    }
    /// Multiplication.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Mul, a, b)
    }
    /// Signed / float division.
    pub fn div(a: Expr, b: Expr) -> Expr {
        bin(BinOp::DivS, a, b)
    }
    /// Unsigned division.
    pub fn div_u(a: Expr, b: Expr) -> Expr {
        bin(BinOp::DivU, a, b)
    }
    /// Signed remainder.
    pub fn rem(a: Expr, b: Expr) -> Expr {
        bin(BinOp::RemS, a, b)
    }
    /// Unsigned remainder.
    pub fn rem_u(a: Expr, b: Expr) -> Expr {
        bin(BinOp::RemU, a, b)
    }
    /// Bitwise and.
    pub fn and(a: Expr, b: Expr) -> Expr {
        bin(BinOp::And, a, b)
    }
    /// Bitwise or.
    pub fn or(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Or, a, b)
    }
    /// Bitwise xor.
    pub fn xor(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Xor, a, b)
    }
    /// Shift left.
    pub fn shl(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Shl, a, b)
    }
    /// Arithmetic shift right.
    pub fn shr_s(a: Expr, b: Expr) -> Expr {
        bin(BinOp::ShrS, a, b)
    }
    /// Logical shift right.
    pub fn shr_u(a: Expr, b: Expr) -> Expr {
        bin(BinOp::ShrU, a, b)
    }
    /// Float minimum.
    pub fn fmin(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Min, a, b)
    }
    /// Float maximum.
    pub fn fmax(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Max, a, b)
    }

    fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }
    /// Equality.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::Eq, a, b)
    }
    /// Inequality.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::Ne, a, b)
    }
    /// Signed / float less-than.
    pub fn lt_s(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::LtS, a, b)
    }
    /// Unsigned less-than.
    pub fn lt_u(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::LtU, a, b)
    }
    /// Signed / float greater-than.
    pub fn gt_s(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::GtS, a, b)
    }
    /// Unsigned greater-than.
    pub fn gt_u(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::GtU, a, b)
    }
    /// Signed / float less-or-equal.
    pub fn le_s(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::LeS, a, b)
    }
    /// Unsigned less-or-equal.
    pub fn le_u(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::LeU, a, b)
    }
    /// Signed / float greater-or-equal.
    pub fn ge_s(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::GeS, a, b)
    }
    /// Unsigned greater-or-equal.
    pub fn ge_u(a: Expr, b: Expr) -> Expr {
        cmp(CmpOp::GeU, a, b)
    }

    fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Un(op, Box::new(a))
    }
    /// Float negation.
    pub fn neg(a: Expr) -> Expr {
        un(UnOp::Neg, a)
    }
    /// Float absolute value.
    pub fn abs(a: Expr) -> Expr {
        un(UnOp::Abs, a)
    }
    /// Float square root.
    pub fn sqrt(a: Expr) -> Expr {
        un(UnOp::Sqrt, a)
    }
    /// Float floor.
    pub fn floor(a: Expr) -> Expr {
        un(UnOp::Floor, a)
    }
    /// Logical not: `a == 0`.
    pub fn eqz(a: Expr) -> Expr {
        un(UnOp::Eqz, a)
    }

    /// Numeric conversion.
    pub fn cast(c: Cast, a: Expr) -> Expr {
        Expr::Cast(c, Box::new(a))
    }
    /// `i32` → `f64` (signed).
    pub fn i2d(a: Expr) -> Expr {
        cast(Cast::I32ToF64S, a)
    }
    /// `f64` → `i32` (signed truncation).
    pub fn d2i(a: Expr) -> Expr {
        cast(Cast::F64ToI32S, a)
    }
    /// `i32` → `f32` (signed).
    pub fn i2f(a: Expr) -> Expr {
        cast(Cast::I32ToF32S, a)
    }
    /// `f32` → `f64`.
    pub fn f2d(a: Expr) -> Expr {
        cast(Cast::F32ToF64, a)
    }
    /// `f64` → `f32`.
    pub fn d2f(a: Expr) -> Expr {
        cast(Cast::F64ToF32, a)
    }
    /// `i32` → `i64` (signed).
    pub fn i2l(a: Expr) -> Expr {
        cast(Cast::I32ToI64S, a)
    }
    /// `i64` → `i32` (wrap).
    pub fn l2i(a: Expr) -> Expr {
        cast(Cast::I64ToI32, a)
    }

    /// Load a scalar from `addr` (+ constant `offset` bytes).
    pub fn load(s: Scalar, addr: Expr, offset: u32) -> Expr {
        Expr::Load(s, Box::new(addr), offset)
    }
    /// Load an `i32` from `addr`.
    pub fn load_i32(addr: Expr) -> Expr {
        load(Scalar::I32, addr, 0)
    }
    /// Load an `f64` from `addr`.
    pub fn load_f64(addr: Expr) -> Expr {
        load(Scalar::F64, addr, 0)
    }
    /// Load an unsigned byte from `addr` as `i32`.
    pub fn load_u8(addr: Expr) -> Expr {
        load(Scalar::U8, addr, 0)
    }

    /// Call a function.
    pub fn call(f: FnRef, args: Vec<Expr>) -> Expr {
        Expr::Call(f, args)
    }
    /// Indirect call through the function table (`table[index](args…)`).
    pub fn call_indirect(sig: &SigRef, index: Expr, args: Vec<Expr>) -> Expr {
        Expr::CallIndirect(sig.clone(), Box::new(index), args)
    }
    /// `cond ? a : b` (both arms evaluated).
    pub fn select(cond: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Select(Box::new(cond), Box::new(a), Box::new(b))
    }
    /// Assign and yield (wasm `local.tee`).
    pub fn tee(l: Local, v: Expr) -> Expr {
        Expr::Tee(l, Box::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::helpers::*;
    use super::*;

    #[test]
    fn type_inference_bottom_up() {
        let l = Local {
            idx: 0,
            ty: ValType::F64,
        };
        let e = add(local(l), f64c(1.0));
        assert_eq!(e.ty(), Some(ValType::F64));
        assert_eq!(lt_s(local(l), f64c(0.0)).ty(), Some(ValType::I32));
        assert_eq!(d2i(local(l)).ty(), Some(ValType::I32));
    }

    #[test]
    #[should_panic(expected = "operand type mismatch")]
    fn mixed_type_addition_panics() {
        let _ = add(i32c(1), f64c(2.0)).ty();
    }

    #[test]
    #[should_panic(expected = "expects 2 args")]
    fn wrong_arity_call_panics() {
        let f = FnRef {
            idx: 0,
            nparams: 2,
            result: Some(ValType::I32),
        };
        let _ = call(f, vec![i32c(1)]).ty();
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(Scalar::U8.size(), 1);
        assert_eq!(Scalar::I16.size(), 2);
        assert_eq!(Scalar::F32.size(), 4);
        assert_eq!(Scalar::F64.size(), 8);
        assert_eq!(Scalar::U8.val_type(), ValType::I32);
    }
}
