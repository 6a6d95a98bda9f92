//! Statements of the guest DSL.

use crate::expr::{Expr, Local, Scalar};

/// One statement of the guest language.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `local = expr;`
    Set(Local, Expr),
    /// `global[idx] = expr;`
    SetGlobal(u32, Expr),
    /// `*(scalar*)(addr + offset) = value;`
    Store(Scalar, Expr, u32, Expr),
    /// `if (cond) { then } else { else }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { body }`
    While(Expr, Vec<Stmt>),
    /// Infinite loop; exit with [`Stmt::Break`].
    Loop(Vec<Stmt>),
    /// Break out of the innermost `while`/`loop`.
    Break,
    /// Continue to the condition check / head of the innermost loop.
    Continue,
    /// `return expr?;`
    Return(Option<Expr>),
    /// Evaluate for side effects; a non-void result is dropped.
    Exec(Expr),
    /// No-op.
    Nop,
    /// Trap unconditionally (`unreachable`).
    Unreachable,
    /// Statement grouping without any control-flow label.
    Seq(Vec<Stmt>),
}

/// Free-function constructors for statements.
pub(crate) mod helpers {
    use super::*;
    use crate::expr::helpers::{add, local};

    /// `l = e;`
    pub fn set(l: Local, e: Expr) -> Stmt {
        Stmt::Set(l, e)
    }
    /// `global[idx] = e;`
    pub fn set_global(idx: u32, e: Expr) -> Stmt {
        Stmt::SetGlobal(idx, e)
    }
    /// Store `value` at `addr` (+ constant `offset`).
    pub fn store(s: Scalar, addr: Expr, offset: u32, value: Expr) -> Stmt {
        Stmt::Store(s, addr, offset, value)
    }
    /// Store an `i32` at `addr`.
    pub fn store_i32(addr: Expr, value: Expr) -> Stmt {
        Stmt::Store(Scalar::I32, addr, 0, value)
    }
    /// Store an `f64` at `addr`.
    pub fn store_f64(addr: Expr, value: Expr) -> Stmt {
        Stmt::Store(Scalar::F64, addr, 0, value)
    }
    /// Store the low byte of an `i32` at `addr`.
    pub fn store_u8(addr: Expr, value: Expr) -> Stmt {
        Stmt::Store(Scalar::U8, addr, 0, value)
    }
    /// `if (cond) { then }`
    pub fn if_(cond: Expr, then: Vec<Stmt>) -> Stmt {
        Stmt::If(cond, then, Vec::new())
    }
    /// `if (cond) { then } else { els }`
    pub fn if_else(cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
        Stmt::If(cond, then, els)
    }
    /// `while (cond) { body }`
    pub fn while_(cond: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::While(cond, body)
    }
    /// `for (i = init; cond; i += step) { body }`
    ///
    /// `cond` is an arbitrary i32 expression re-evaluated each iteration; the
    /// induction variable is advanced by the constant `step` after the body.
    pub fn for_loop(i: Local, init: Expr, cond: Expr, step: i32, mut body: Vec<Stmt>) -> Stmt {
        let inc = set(i, add(local(i), Expr::ConstI32(step)));
        body.push(inc);
        Stmt::Seq(vec![set(i, init), Stmt::While(cond, body)])
    }
    /// `return e?;`
    pub fn ret(e: Option<Expr>) -> Stmt {
        Stmt::Return(e)
    }
    /// Evaluate for side effects.
    pub fn exec(e: Expr) -> Stmt {
        Stmt::Exec(e)
    }
    /// Break the innermost loop.
    pub fn brk() -> Stmt {
        Stmt::Break
    }
    /// Continue the innermost loop.
    pub fn cont() -> Stmt {
        Stmt::Continue
    }
}
