//! From-scratch WebAssembly 1.0 (MVP) binary toolkit.
//!
//! This crate implements the parts of the WebAssembly specification that the
//! Sledge reproduction needs, with no external dependencies:
//!
//! * [`leb128`] — LEB128 integer coding used throughout the binary format.
//! * [`types`] — value/function/limit types.
//! * [`instr`] — the full MVP instruction set (plus sign-extension ops).
//! * [`module`] — an in-memory module representation.
//! * [`encode`] — serialize a [`module::Module`] to `.wasm` bytes.
//! * [`decode`] — parse `.wasm` bytes back into a [`module::Module`].
//! * [`validate`] — the spec's type-checking validator for whole modules.
//!
//! The typical pipeline mirrors the paper's: a front end (see the
//! `sledge-guestc` crate) builds a [`module::Module`], [`encode`] produces the
//! `.wasm` binary a tenant would upload, the runtime [`decode`]s and
//! [`validate`]s it, and the `awsm` engine translates the validated module
//! for execution.
//!
//! # Examples
//!
//! ```
//! use sledge_wasm::module::{Module, FuncBody, Export};
//! use sledge_wasm::types::{FuncType, ValType};
//! use sledge_wasm::instr::Instr;
//!
//! // (module (func (export "answer") (result i32) i32.const 42))
//! let mut m = Module::new();
//! let ty = m.push_type(FuncType::new(vec![], vec![ValType::I32]));
//! let f = m.push_function(ty, FuncBody::new(vec![], vec![
//!     Instr::I32Const(42),
//!     Instr::End,
//! ]));
//! m.exports.push(Export::func("answer", f));
//!
//! let bytes = sledge_wasm::encode::encode_module(&m);
//! let back = sledge_wasm::decode::decode_module(&bytes)?;
//! sledge_wasm::validate::validate_module(&back)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(unreachable_pub)]

pub mod decode;
pub mod encode;
pub mod instr;
pub mod leb128;
pub mod module;
pub mod types;
pub mod validate;

mod error;

pub use error::{DecodeError, ValidateError};

/// Number of bytes in one WebAssembly linear-memory page (64 KiB).
pub const PAGE_SIZE: usize = 65536;
