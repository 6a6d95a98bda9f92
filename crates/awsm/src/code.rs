//! The flat, pre-resolved code representation produced by translation —
//! the engine's analogue of the paper's AoT-compiled `.so` text.

use std::collections::HashMap;
use std::sync::Arc;

/// The engine's four fieldless op enums as name lists, handed to a callback
/// macro as `$args.. [docs Type: names..]..`. [`op_enums`] declares the enums
/// from it; the executor generates one flat dispatch arm per name from the
/// same list, so the two cannot drift apart. Declaration order is the
/// artifact's discriminant.
macro_rules! op_lists {
    ($with:ident $($args:tt)*) => { $with! { $($args)*
        [/// Width/signedness of a load, after type resolution.
         LoadKind: I32 I64 F32 F64 I32U8 I32S8 I32U16 I32S16
            I64U8 I64S8 I64U16 I64S16 I64U32 I64S32]
        [/// Width of a store.
         StoreKind: I32 I64 F32 F64 B8From32 B16From32 B8From64 B16From64 B32From64]
        [/// Binary numeric operations (including comparisons, which yield i32 0/1).
         NumBin:
            I32Add I32Sub I32Mul I32DivS I32DivU I32RemS I32RemU I32And I32Or I32Xor
            I32Shl I32ShrS I32ShrU I32Rotl I32Rotr
            I32Eq I32Ne I32LtS I32LtU I32GtS I32GtU I32LeS I32LeU I32GeS I32GeU
            I64Add I64Sub I64Mul I64DivS I64DivU I64RemS I64RemU I64And I64Or I64Xor
            I64Shl I64ShrS I64ShrU I64Rotl I64Rotr
            I64Eq I64Ne I64LtS I64LtU I64GtS I64GtU I64LeS I64LeU I64GeS I64GeU
            F32Add F32Sub F32Mul F32Div F32Min F32Max F32Copysign
            F32Eq F32Ne F32Lt F32Gt F32Le F32Ge
            F64Add F64Sub F64Mul F64Div F64Min F64Max F64Copysign
            F64Eq F64Ne F64Lt F64Gt F64Le F64Ge]
        [/// Unary numeric operations, conversions, and tests.
         NumUn:
            I32Eqz I64Eqz I32Clz I32Ctz I32Popcnt I64Clz I64Ctz I64Popcnt
            F32Abs F32Neg F32Ceil F32Floor F32Trunc F32Nearest F32Sqrt
            F64Abs F64Neg F64Ceil F64Floor F64Trunc F64Nearest F64Sqrt
            I32WrapI64 I32TruncF32S I32TruncF32U I32TruncF64S I32TruncF64U
            I64ExtendI32S I64ExtendI32U I64TruncF32S I64TruncF32U I64TruncF64S I64TruncF64U
            F32ConvertI32S F32ConvertI32U F32ConvertI64S F32ConvertI64U F32DemoteF64
            F64ConvertI32S F64ConvertI32U F64ConvertI64S F64ConvertI64U F64PromoteF32
            I32ReinterpretF32 I64ReinterpretF64 F32ReinterpretI32 F64ReinterpretI64
            I32Extend8S I32Extend16S I64Extend8S I64Extend16S I64Extend32S]
    } };
}
pub(crate) use op_lists;

macro_rules! op_enums {
    ($([$(#[$doc:meta])* $ty:ident: $($name:ident)*])*) => { $(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum $ty { $($name),* }
        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$name),*];
        }
    )* };
}
op_lists!(op_enums);

/// A resolved branch: jump target plus the operand-stack adjustment.
///
/// `height` is the operand-stack height (relative to the frame's base) that
/// the target label expects; `keep` is whether the branch carries the top
/// value across the unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branch {
    pub target: u32,
    pub height: u32,
    pub keep: bool,
}

/// Payload of a `br_table`.
#[derive(Debug, Clone, PartialEq)]
pub struct BrTablePayload {
    pub targets: Vec<Branch>,
    pub default: Branch,
}

/// One flat stack instruction. Structured control has been resolved to
/// direct jumps. Fused "super-instructions" are emitted by the optimized-tier
/// translator only. This is the form the analyses certify and artifacts
/// ship; what runs is the register form derived from it (`lower.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Unreachable,
    Br(Branch),
    /// Pop an i32; branch if non-zero.
    BrIf(Branch),
    /// Pop an i32; branch if zero (fusion of `i32.eqz` + `br_if`, also used
    /// to lower `if`).
    BrIfZ(Branch),
    BrTable(Box<BrTablePayload>),
    Return,
    /// Call a locally-defined function (index into `CompiledModule::funcs`).
    Call(u32),
    /// Call a host import (index into `CompiledModule::host_funcs`).
    CallHost(u32),
    /// Indirect call through the table; operand is the canonical type id.
    CallIndirect(u32),
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),
    /// Load with constant offset.
    Load(LoadKind, u32),
    Store(StoreKind, u32),
    MemorySize,
    MemoryGrow,
    /// Constant, already encoded in slot representation.
    Const(u64),
    Bin(NumBin),
    Un(NumUn),
    // ---- fused super-instructions ----
    /// `local.get a; local.get b; bin`
    Bin2L(NumBin, u32, u32),
    /// `…; local.get b; bin` (left operand on stack)
    BinRL(NumBin, u32),
    /// `…; const c; bin`
    BinRC(NumBin, u64),
    /// `local.get a; local.get b; bin; local.set d`
    Bin2LS(NumBin, u32, u32, u32),
    /// `local += c` for i32 loop counters.
    IncI32(u32, i32),
    /// `local.get a; load`
    LoadL(LoadKind, u32, u32),
    // ---- cost-model instrumentation (inserted by analysis) ----
    /// Budget check charging the exact summed cost (in cost units) of the
    /// check-free segment it heads, and polling the preempt flag. Inserted
    /// by the cost analysis at basic-block heads and budget-driven split
    /// points; the optimized tier charges fuel *only* here, the naive tier
    /// (which charges per instruction) skips it.
    Fuel(u32),
}

/// Signature of a host import, pre-resolved at translation time.
#[derive(Debug, Clone, PartialEq)]
pub struct HostImport {
    /// Import module namespace (e.g. `"env"`).
    pub module: String,
    /// Import field name (e.g. `"request_read"`).
    pub name: String,
    /// Number of parameters.
    pub nparams: u32,
    /// Whether the import returns a value.
    pub has_result: bool,
    /// Canonical type id (shared space with local functions).
    pub type_id: u32,
}

impl HostImport {
    /// The `module::name` form used by effect certificates and capability
    /// policies.
    pub fn qualified_name(&self) -> String {
        format!("{}::{}", self.module, self.name)
    }
}

/// One translated function.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// Flat code; ends with `Return`. The one body every analysis reads and
    /// every tier and bounds strategy executes (in lowered form).
    pub code: Vec<Op>,
    /// Parameter count.
    pub nparams: u32,
    /// Total local slot count (params + declared locals).
    pub nlocals: u32,
    /// Whether the function returns a value.
    pub has_result: bool,
    /// Canonical type id.
    pub type_id: u32,
    /// Export/debug name if known.
    pub name: Option<String>,
}

/// Linear memory requirements of a module.
#[derive(Debug, Clone, Copy)]
pub struct MemorySpec {
    /// Initial pages.
    pub min_pages: u32,
    /// Maximum pages the instance may grow to.
    pub max_pages: u32,
}

/// A fully translated ("linked and loaded") module, shared immutably among
/// all of its sandboxes via `Arc`.
#[derive(Debug)]
pub struct CompiledModule {
    /// Locally-defined functions.
    pub funcs: Vec<CompiledFunc>,
    /// Host imports, in import order.
    pub host_funcs: Vec<HostImport>,
    /// Initial global values (slot-encoded).
    pub globals: Vec<u64>,
    /// Memory requirements, if the module has a memory.
    pub memory: Option<MemorySpec>,
    /// Data segments: `(offset, bytes)`.
    pub data: Vec<(u32, Arc<[u8]>)>,
    /// Precomputed initialized-memory image (all data segments replayed in
    /// order), shared by every instance for cold instantiation and in-place
    /// reset of recycled sandboxes.
    pub template: crate::memory::MemoryTemplate,
    /// Function table (module-space function indices).
    pub table: Vec<Option<u32>>,
    /// Exported functions: name → module-space function index.
    pub exports: HashMap<String, u32>,
    /// Optional start function (module-space index).
    pub start: Option<u32>,
    /// Module name.
    pub name: Option<String>,
    /// Load-time static-analysis report (stack bound, cost and effect
    /// certificates, lints), computed once at translation.
    pub analysis: crate::analysis::AnalysisReport,
    /// The register-form bodies the executor runs, derived from `funcs` once
    /// (end of analysis, or of artifact decode) and never serialized. `Err`
    /// only for a decoded artifact whose bodies [`crate::verify_body`] would
    /// reject: such a module cannot be instantiated.
    pub(crate) lowered: Result<crate::lower::Lowered, String>,
}

impl CompiledModule {
    /// Number of imported (host) functions; module-space indices below this
    /// refer to imports.
    pub fn num_imports(&self) -> u32 {
        self.host_funcs.len() as u32
    }

    /// Find an exported function's module-space index.
    pub fn export(&self, name: &str) -> Option<u32> {
        self.exports.get(name).copied()
    }

    /// Cheapest sound reset strategy for sandboxes recycled after running
    /// `entry`, derived from the effect certificate:
    ///
    /// * `Elide` — the entry provably performs no store and cannot grow
    ///   memory: a recycled memory is byte-identical to a fresh one, so the
    ///   pool skips the memory reset entirely (globals are still restored).
    /// * `StaticSpan { lo, hi }` — every store lands in `[lo, hi)`; the
    ///   reset zeroes only from `lo` up instead of from the template end.
    ///   Armed only when `hi` fits inside the initial memory (`min_pages`):
    ///   masked bounds strategies wrap effective addresses only at or past
    ///   the capacity, which is at least the initial size, so a footprint
    ///   inside it can never alias below `lo`. Also requires `lo` past the
    ///   template image, otherwise the span saves nothing over a full
    ///   reset.
    /// * `HighWater` — everything else, including any module with a start
    ///   function (whose one-time effects a partial reset cannot preserve)
    ///   and any entry that may grow memory.
    ///
    /// Runtime guards in `Instance::reset_with` re-check the dynamic side
    /// (page count, host writes, high-water mark) and fall back to a full
    /// reset, so a stale or optimistic policy degrades to correct-but-slow.
    pub fn reset_policy(&self, entry: &str) -> crate::ResetPolicy {
        use crate::analysis::effects::WriteFootprint;
        let Some(effects) = &self.analysis.effects else {
            return crate::ResetPolicy::HighWater;
        };
        let Some(idx) = self.export(entry) else {
            return crate::ResetPolicy::HighWater;
        };
        if self.start.is_some() {
            return crate::ResetPolicy::HighWater;
        }
        let Some((_, footprint, may_grow)) = effects.entry_effect(idx) else {
            return crate::ResetPolicy::HighWater;
        };
        if may_grow {
            return crate::ResetPolicy::HighWater;
        }
        let min_bytes = self
            .memory
            .map(|s| s.min_pages as u64 * sledge_wasm::PAGE_SIZE as u64)
            .unwrap_or(0);
        let template_len = self.template.image().len() as u64;
        match footprint {
            WriteFootprint::Empty => crate::ResetPolicy::Elide,
            WriteFootprint::Span { lo, hi } if hi <= min_bytes && lo > template_len => {
                crate::ResetPolicy::StaticSpan { lo, hi }
            }
            _ => crate::ResetPolicy::HighWater,
        }
    }

    /// Number of ops in the lowered (executed) body of local function
    /// `func`; `None` if there is no such function or the module failed
    /// lowering.
    pub fn lowered_ops(&self, func: usize) -> Option<usize> {
        let bodies = &self.lowered.as_ref().ok()?.bodies;
        bodies.get(func).map(|b| b.ops.len())
    }

    /// Approximate byte size of the translated code (both forms) and static
    /// data — the analogue of the paper's per-module `.so` footprint.
    pub fn code_size_bytes(&self) -> usize {
        let ops = self.funcs.iter().enumerate().map(|(i, f)| {
            let lowered = self.lowered_ops(i).unwrap_or(0) * (crate::LOWERED_OP_BYTES + 1);
            f.code.len() * std::mem::size_of::<Op>() + lowered
        });
        let data: usize = self.data.iter().map(|(_, b)| b.len()).sum();
        ops.sum::<usize>() + data + self.table.len() * 8 + self.globals.len() * 8
    }
}
