//! A typed, tree-structured guest-language front end that compiles to
//! WebAssembly.
//!
//! In the Sledge paper, tenants write functions in C/C++ and compile them to
//! Wasm with clang/LLVM. This crate plays that role for the reproduction: it
//! provides a small structured language — expressions, statements, loops,
//! functions — that compiles down to `sledge-wasm` modules. Every guest
//! application and every PolyBench kernel in the `sledge-apps` crate is
//! written in this DSL.
//!
//! The DSL is deliberately C-shaped: explicit scalar types, flat linear
//! memory addressed in bytes, `while`/`for` loops with `break`/`continue`,
//! and calls to imported host functions (the runtime's POSIX-ish layer).
//!
//! # Examples
//!
//! A function computing `n * (n + 1) / 2` with a loop:
//!
//! ```
//! use sledge_guestc::dsl::*;
//! use sledge_guestc::{FuncBuilder, ModuleBuilder};
//! use sledge_wasm::types::ValType;
//!
//! let mut mb = ModuleBuilder::new("triangle");
//! let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
//! let n = f.arg(0);
//! let acc = f.local(ValType::I32);
//! let i = f.local(ValType::I32);
//! f.extend([
//!     set(acc, i32c(0)),
//!     for_loop(i, i32c(1), le_s(local(i), local(n)), 1, vec![
//!         set(acc, add(local(acc), local(i))),
//!     ]),
//!     ret(Some(local(acc))),
//! ]);
//! let main = mb.add_func("main", f);
//! mb.export_func(main, "main");
//! let module = mb.build()?;
//! assert!(module.exported_func("main").is_some());
//! # Ok::<(), sledge_guestc::BuildError>(())
//! ```
//!
//! # Panics
//!
//! DSL *type errors* (adding an `i32` to an `f64`, passing the wrong number
//! of call arguments, …) panic at module-construction time with a message
//! naming the offending construct — they are programming errors in the guest
//! source, the analogue of a C compiler diagnostic. Structural problems that
//! can only be detected whole-module (bad exports, missing memory) are
//! reported as [`BuildError`] from [`ModuleBuilder::build`].

#![warn(unreachable_pub)]

mod builder;
mod emit;
mod expr;
mod stmt;

pub use builder::{BuildError, FuncBuilder, ModuleBuilder};
pub use expr::{BinOp, Cast, CmpOp, Expr, FnRef, Local, Scalar, SigRef, UnOp};
pub use stmt::Stmt;

/// Convenience constructors for the whole DSL; intended for glob import.
pub mod dsl {
    pub use crate::expr::helpers::*;
    pub use crate::stmt::helpers::*;
}
