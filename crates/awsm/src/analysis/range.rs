//! Intra-procedural interval analysis over the flat IR, used for static
//! write footprints and value lints (constant div-by-zero, constant
//! out-of-bounds access, doomed `call_indirect`).
//!
//! # Abstract domain
//!
//! Values are untyped 64-bit slots, so the domain is type-free:
//! `R(lo, hi)` claims the *full slot value* lies in `[lo, hi]` with
//! `hi ≤ u32::MAX`; everything else is `Top`. Under this invariant i32 and
//! i64 arithmetic share transfer functions whenever the result provably
//! stays ≤ `u32::MAX` (no wrapping in either width).
//!
//! # Branch refinement
//!
//! Comparison results carry *provenance* — which local was compared against
//! which constant — so `br_if`/`br_if_z` can refine that local's interval on
//! each outgoing edge. Signed comparisons refine only when both the constant
//! and the incoming interval are provably non-negative (`≤ i32::MAX`), where
//! signed and unsigned order coincide.
//!
//! # Widening
//!
//! Plain interval iteration on a `for i in 0..N` loop grows the head join by
//! one per round and widening straight to `Top` destroys the signed
//! refinement that makes loop bodies provable. Instead, after a few joins an
//! interval is widened to the nearest *landmark* — a constant appearing in
//! the function — which lands loop heads exactly on `[0, N]`. A hard-`Top`
//! backstop and a global step budget bound the analysis on adversarial
//! control flow; the budget bails out to "no findings, unbounded footprint"
//! without affecting the stack verifier.

use super::effects::WriteFootprint;
use super::stack::ArityMap;
use super::{Diagnostic, Severity};
use crate::code::{CompiledFunc, CompiledModule, LoadKind, NumBin, NumUn, Op, StoreKind};
use std::collections::VecDeque;

const U32MAX: u32 = u32::MAX;
/// Joins at one branch target before landmark widening kicks in.
const WIDEN_AFTER: u32 = 8;
/// Joins at one branch target before widening hard to `Top`.
const TOP_AFTER: u32 = 24;

/// Result of analyzing one function.
pub(super) struct FuncRange {
    /// Syntactic load/store sites in the function.
    pub mem_sites: u32,
    /// Interval over-approximation of every store this function performs
    /// directly (before call-graph closure). Whenever the interval analysis
    /// bails out, this degrades soundly to `Unbounded` if the function
    /// contains any store, `Empty` otherwise.
    pub footprint: WriteFootprint,
}

/// Abstract slot value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    Top,
    /// Full slot value in `[lo, hi]`, `hi ≤ u32::MAX`.
    R(u32, u32),
}

impl AVal {
    fn from_const(c: u64) -> AVal {
        if c <= U32MAX as u64 {
            AVal::R(c as u32, c as u32)
        } else {
            AVal::Top
        }
    }

    fn exact(self) -> Option<u32> {
        match self {
            AVal::R(lo, hi) if lo == hi => Some(lo),
            _ => None,
        }
    }

    fn join(self, other: AVal) -> AVal {
        match (self, other) {
            (AVal::R(al, ah), AVal::R(bl, bh)) => AVal::R(al.min(bl), ah.max(bh)),
            _ => AVal::Top,
        }
    }
}

/// Where a stack value came from, for branch refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prov {
    None,
    /// A copy of a local's current value.
    Local(u32),
    /// The 0/1 result of comparing a local against a constant.
    /// `swapped` means the constant was the *left* operand (`k op local`).
    Cmp {
        op: NumBin,
        local: u32,
        swapped: bool,
        k: u32,
    },
}

impl Prov {
    fn mentions(self, l: u32) -> bool {
        match self {
            Prov::None => false,
            Prov::Local(x) => x == l,
            Prov::Cmp { local, .. } => local == l,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    val: AVal,
    prov: Prov,
}

impl Slot {
    fn anon(val: AVal) -> Slot {
        Slot {
            val,
            prov: Prov::None,
        }
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
struct State {
    stack: Vec<Slot>,
    locals: Vec<AVal>,
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            stack: self.stack.clone(),
            locals: self.locals.clone(),
        }
    }

    /// Reuses both buffers: the fixpoint copies a state at every segment
    /// entry and every conditional branch, and allocates for neither.
    fn clone_from(&mut self, src: &Self) {
        self.stack.clone_from(&src.stack);
        self.locals.clone_from(&src.locals);
    }
}

/// Comparison relation, normalized so refinement only handles "true".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rel {
    Eq,
    Ne,
    LtU,
    LeU,
    GtU,
    GeU,
    LtS,
    LeS,
    GtS,
    GeS,
}

/// `(relation, is-32-bit)` for integer comparisons; `None` for everything
/// else (float comparisons yield 0/1 but never refine).
fn rel_of(op: NumBin) -> Option<(Rel, bool)> {
    use NumBin::*;
    Some(match op {
        I32Eq => (Rel::Eq, true),
        I32Ne => (Rel::Ne, true),
        I32LtU => (Rel::LtU, true),
        I32LeU => (Rel::LeU, true),
        I32GtU => (Rel::GtU, true),
        I32GeU => (Rel::GeU, true),
        I32LtS => (Rel::LtS, true),
        I32LeS => (Rel::LeS, true),
        I32GtS => (Rel::GtS, true),
        I32GeS => (Rel::GeS, true),
        I64Eq => (Rel::Eq, false),
        I64Ne => (Rel::Ne, false),
        I64LtU => (Rel::LtU, false),
        I64LeU => (Rel::LeU, false),
        I64GtU => (Rel::GtU, false),
        I64GeU => (Rel::GeU, false),
        I64LtS => (Rel::LtS, false),
        I64LeS => (Rel::LeS, false),
        I64GtS => (Rel::GtS, false),
        I64GeS => (Rel::GeS, false),
        _ => return None,
    })
}

/// Does the op produce an i32 0/1 comparison result?
fn is_cmp(op: NumBin) -> bool {
    use NumBin::*;
    rel_of(op).is_some()
        || matches!(
            op,
            F32Eq
                | F32Ne
                | F32Lt
                | F32Gt
                | F32Le
                | F32Ge
                | F64Eq
                | F64Ne
                | F64Lt
                | F64Gt
                | F64Le
                | F64Ge
        )
}

fn is_div_rem(op: NumBin) -> bool {
    use NumBin::*;
    matches!(
        op,
        I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU
    )
}

/// Mirror the relation for `k op local` → `local op' k`.
fn rel_swap(r: Rel) -> Rel {
    match r {
        Rel::LtU => Rel::GtU,
        Rel::GtU => Rel::LtU,
        Rel::LeU => Rel::GeU,
        Rel::GeU => Rel::LeU,
        Rel::LtS => Rel::GtS,
        Rel::GtS => Rel::LtS,
        Rel::LeS => Rel::GeS,
        Rel::GeS => Rel::LeS,
        r => r,
    }
}

/// Logical negation, for the not-taken edge.
fn rel_negate(r: Rel) -> Rel {
    match r {
        Rel::Eq => Rel::Ne,
        Rel::Ne => Rel::Eq,
        Rel::LtU => Rel::GeU,
        Rel::GeU => Rel::LtU,
        Rel::GtU => Rel::LeU,
        Rel::LeU => Rel::GtU,
        Rel::LtS => Rel::GeS,
        Rel::GeS => Rel::LtS,
        Rel::GtS => Rel::LeS,
        Rel::LeS => Rel::GtS,
    }
}

/// Refine `val` under `val REL k == true`. `None` means the edge is
/// infeasible. Unsound refinements are skipped, not guessed:
///
/// * signed relations apply only when `k` and the incoming interval are both
///   provably non-negative (then signed order == unsigned order); `Top`
///   never refines under a signed relation (slots ≥ 2³¹ are negative i32s);
/// * a `Top` operand of a *64-bit* comparison may exceed `u32::MAX`, so only
///   refinements that impose a real upper bound ≤ `u32::MAX` apply; a `Top`
///   operand of a *32-bit* comparison is a validated i32 slot and can be
///   treated as `[0, u32::MAX]`.
fn refine_true(val: AVal, rel: Rel, k: u32, is32: bool) -> Option<AVal> {
    let rel = match rel {
        Rel::LtS | Rel::LeS | Rel::GtS | Rel::GeS => {
            let in_range = match val {
                AVal::R(_, hi) => hi <= i32::MAX as u32,
                AVal::Top => false,
            };
            if k <= i32::MAX as u32 && in_range {
                match rel {
                    Rel::LtS => Rel::LtU,
                    Rel::LeS => Rel::LeU,
                    Rel::GtS => Rel::GtU,
                    Rel::GeS => Rel::GeU,
                    _ => unreachable!(),
                }
            } else {
                return Some(val);
            }
        }
        r => r,
    };

    if val == AVal::Top && !is32 {
        return Some(match rel {
            Rel::Eq => AVal::R(k, k),
            Rel::LtU => {
                if k == 0 {
                    return None;
                }
                AVal::R(0, k - 1)
            }
            Rel::LeU => AVal::R(0, k),
            _ => AVal::Top,
        });
    }

    let (lo, hi) = match val {
        AVal::R(lo, hi) => (lo, hi),
        AVal::Top => (0, U32MAX),
    };
    let (mut nlo, mut nhi) = (lo, hi);
    match rel {
        Rel::Eq => {
            nlo = nlo.max(k);
            nhi = nhi.min(k);
        }
        Rel::Ne => {
            if lo == hi && lo == k {
                return None;
            }
            if lo == k {
                nlo = k + 1;
            } else if hi == k {
                nhi = k - 1;
            }
        }
        Rel::LtU => {
            if k == 0 {
                return None;
            }
            nhi = nhi.min(k - 1);
        }
        Rel::LeU => nhi = nhi.min(k),
        Rel::GtU => {
            if k == U32MAX {
                return None;
            }
            nlo = nlo.max(k + 1);
        }
        Rel::GeU => nlo = nlo.max(k),
        _ => unreachable!("signed handled above"),
    }
    if nlo > nhi {
        return None;
    }
    Some(AVal::R(nlo, nhi))
}

/// Access width in bytes.
pub(super) fn load_len(k: LoadKind) -> u64 {
    use LoadKind::*;
    match k {
        I32U8 | I32S8 | I64U8 | I64S8 => 1,
        I32U16 | I32S16 | I64U16 | I64S16 => 2,
        I32 | F32 | I64U32 | I64S32 => 4,
        I64 | F64 => 8,
    }
}

pub(super) fn store_len(k: StoreKind) -> u64 {
    use StoreKind::*;
    match k {
        B8From32 | B8From64 => 1,
        B16From32 | B16From64 => 2,
        I32 | F32 | B32From64 => 4,
        I64 | F64 => 8,
    }
}

/// Abstract result of a load, by width/signedness.
fn load_result(k: LoadKind) -> AVal {
    use LoadKind::*;
    match k {
        I32U8 | I64U8 => AVal::R(0, 255),
        I32U16 | I64U16 => AVal::R(0, 65535),
        I32 | F32 | I32S8 | I32S16 | I64U32 => AVal::R(0, U32MAX),
        I64 | F64 | I64S8 | I64S16 | I64S32 => AVal::Top,
    }
}

/// Sound fallback for a binary op: 32-bit-slot results are at worst
/// `[0, u32::MAX]`; 64-bit results are `Top`.
fn bin_default(op: NumBin) -> AVal {
    use NumBin::*;
    match op {
        I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU | I32And | I32Or
        | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr | F32Add | F32Sub | F32Mul
        | F32Div | F32Min | F32Max | F32Copysign => AVal::R(0, U32MAX),
        _ => AVal::Top,
    }
}

fn bound_of(v: AVal, is32: bool) -> Option<u64> {
    match v {
        AVal::R(_, hi) => Some(hi as u64),
        AVal::Top if is32 => Some(U32MAX as u64),
        AVal::Top => None,
    }
}

/// Transfer function for binary numeric ops (comparisons yield `[0, 1]`).
fn bin_transfer(op: NumBin, x: AVal, y: AVal) -> AVal {
    use NumBin::*;
    if is_cmp(op) {
        return AVal::R(0, 1);
    }
    match op {
        I32Add | I64Add => {
            if let (AVal::R(lx, hx), AVal::R(ly, hy)) = (x, y) {
                let lo = lx as u64 + ly as u64;
                let hi = hx as u64 + hy as u64;
                if hi <= U32MAX as u64 {
                    return AVal::R(lo as u32, hi as u32);
                }
                // i32 add wraps mod 2^32; if the whole interval wraps it
                // stays an interval.
                if op == I32Add && lo >= 1 << 32 {
                    return AVal::R((lo - (1 << 32)) as u32, (hi - (1 << 32)) as u32);
                }
            }
            bin_default(op)
        }
        I32Sub | I64Sub => {
            if let (AVal::R(lx, hx), AVal::R(ly, hy)) = (x, y) {
                let lo = lx as i64 - hy as i64;
                let hi = hx as i64 - ly as i64;
                if lo >= 0 {
                    return AVal::R(lo as u32, hi as u32);
                }
                if op == I32Sub && hi < 0 {
                    return AVal::R((lo + (1 << 32)) as u32, (hi + (1 << 32)) as u32);
                }
            }
            bin_default(op)
        }
        I32Mul | I64Mul => {
            if let (AVal::R(lx, hx), AVal::R(ly, hy)) = (x, y) {
                let hi = hx as u64 * hy as u64;
                if hi <= U32MAX as u64 {
                    return AVal::R((lx as u64 * ly as u64) as u32, hi as u32);
                }
            }
            bin_default(op)
        }
        I32And | I64And => {
            // x & y ≤ min(x, y) for unsigned values of any width.
            let is32 = op == I32And;
            match (bound_of(x, is32), bound_of(y, is32)) {
                (Some(a), Some(b)) => AVal::R(0, a.min(b) as u32),
                (Some(a), None) | (None, Some(a)) => AVal::R(0, a as u32),
                (None, None) => AVal::Top,
            }
        }
        I32Or | I32Xor | I64Or | I64Xor => {
            // x | y and x ^ y are both ≤ x + y.
            if let (AVal::R(_, hx), AVal::R(_, hy)) = (x, y) {
                let s = hx as u64 + hy as u64;
                if s <= U32MAX as u64 {
                    return AVal::R(0, s as u32);
                }
            }
            bin_default(op)
        }
        I32Shl | I64Shl => {
            let mask = if op == I32Shl { 31 } else { 63 };
            if let (AVal::R(lx, hx), Some(k)) = (x, y.exact()) {
                let k = k & mask;
                let hi = (hx as u64) << k;
                if hi <= U32MAX as u64 {
                    return AVal::R(((lx as u64) << k) as u32, hi as u32);
                }
            }
            bin_default(op)
        }
        I32ShrU | I64ShrU => {
            let mask = if op == I32ShrU { 31 } else { 63 };
            match (x, y.exact()) {
                (AVal::R(lx, hx), Some(k)) => {
                    let k = k & mask;
                    AVal::R(lx >> k, hx >> k)
                }
                // Shifting right never grows an unsigned value.
                (AVal::R(_, hx), None) => AVal::R(0, hx),
                _ => bin_default(op),
            }
        }
        I32ShrS | I64ShrS => {
            // Non-negative values shift like unsigned. An i32 slot is
            // non-negative iff ≤ i32::MAX; an i64 slot ≤ u32::MAX always is.
            let nonneg = match (op, x) {
                (I32ShrS, AVal::R(_, hx)) => hx <= i32::MAX as u32,
                (I64ShrS, AVal::R(_, _)) => true,
                _ => false,
            };
            if nonneg {
                return bin_transfer(if op == I32ShrS { I32ShrU } else { I64ShrU }, x, y);
            }
            bin_default(op)
        }
        I32DivU | I64DivU => match (x, y.exact()) {
            (AVal::R(lx, hx), Some(k)) if k >= 1 => AVal::R(lx / k, hx / k),
            // Divisor 0 traps, so any flowing value had divisor ≥ 1.
            (AVal::R(_, hx), _) => AVal::R(0, hx),
            _ => bin_default(op),
        },
        I32RemU | I64RemU => {
            let xb = bound_of(x, op == I32RemU);
            let yb = match y {
                AVal::R(ly, hy) if ly >= 1 => Some(hy as u64 - 1),
                _ => None,
            };
            match (xb, yb) {
                (Some(a), Some(b)) => AVal::R(0, a.min(b) as u32),
                (Some(a), None) => AVal::R(0, a as u32),
                (None, Some(b)) => AVal::R(0, b as u32),
                (None, None) => bin_default(op),
            }
        }
        _ => bin_default(op),
    }
}

/// Transfer function for unary ops.
fn un_transfer(op: NumUn, x: AVal) -> AVal {
    use NumUn::*;
    let r32 = AVal::R(0, U32MAX);
    match op {
        I32Eqz | I64Eqz => AVal::R(0, 1),
        I32Clz | I32Ctz | I32Popcnt => AVal::R(0, 32),
        I64Clz | I64Ctz | I64Popcnt => AVal::R(0, 64),
        // The operand of a wrap is an i64 slot; the result keeps only the
        // low 32 bits, which for an in-range interval is the identity.
        I32WrapI64 | I64ExtendI32U => match x {
            AVal::R(lo, hi) => AVal::R(lo, hi),
            AVal::Top => r32,
        },
        I64ExtendI32S | I64Extend32S => match x {
            AVal::R(_, hi) if hi <= i32::MAX as u32 => x,
            _ => AVal::Top,
        },
        I32Extend8S => match x {
            AVal::R(_, hi) if hi <= 127 => x,
            _ => r32,
        },
        I32Extend16S => match x {
            AVal::R(_, hi) if hi <= 32767 => x,
            _ => r32,
        },
        I64Extend8S => match x {
            AVal::R(_, hi) if hi <= 127 => x,
            _ => AVal::Top,
        },
        I64Extend16S => match x {
            AVal::R(_, hi) if hi <= 32767 => x,
            _ => AVal::Top,
        },
        // Reinterpretations do not change the slot bits.
        I32ReinterpretF32 | F32ReinterpretI32 => match x {
            AVal::R(lo, hi) => AVal::R(lo, hi),
            AVal::Top => r32,
        },
        I64ReinterpretF64 | F64ReinterpretI64 => x,
        F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt | F32ConvertI32S
        | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F32DemoteF64 | I32TruncF32S
        | I32TruncF32U | I32TruncF64S | I32TruncF64U => r32,
        _ => AVal::Top,
    }
}

/// Immutable per-function context.
struct Ctx<'a> {
    m: &'a CompiledModule,
    code: &'a [Op],
    fidx: u32,
    /// Whether each pc (up to one past the end) is a branch target: the
    /// segment boundaries of the fixpoint.
    targets: Vec<bool>,
    /// Sorted constants in the function, for landmark widening.
    landmarks: Vec<u32>,
    /// `max_pages * PAGE_SIZE`: accesses at/after this always trap.
    max_bytes: u64,
    /// Canonical type id → `(nparams, has_result)`, built once per module.
    arity: &'a ArityMap,
    /// Step budget for the whole fixpoint.
    budget: usize,
}

/// Accumulates the store footprint and value lints during the collection
/// pass.
struct Collector<'a> {
    footprint: WriteFootprint,
    diags: &'a mut Vec<Diagnostic>,
}

impl Collector<'_> {
    fn lint(&mut self, ctx: &Ctx<'_>, pc: usize, severity: Severity, message: String) {
        self.diags.push(Diagnostic {
            severity,
            func: Some(ctx.fidx),
            pc: Some(pc as u32),
            message,
        });
    }

    /// Judge one memory-access site: flag it if it is a guaranteed trap.
    fn site(&mut self, ctx: &Ctx<'_>, pc: usize, addr: AVal, off: u32, len: u64) {
        let lo = match addr {
            AVal::R(lo, _) => lo as u64,
            AVal::Top => 0,
        };
        if lo + off as u64 + len > ctx.max_bytes {
            self.lint(
                ctx,
                pc,
                Severity::Error,
                format!(
                    "memory access at address ≥ {} (+{off} offset, {len} bytes) is \
                     out of bounds for every memory size (max {} bytes)",
                    lo, ctx.max_bytes
                ),
            );
        }
    }

    /// A store site: judged like any access, plus joined into the function's
    /// static write footprint.
    fn store_site(&mut self, ctx: &Ctx<'_>, pc: usize, addr: AVal, off: u32, len: u64) {
        self.site(ctx, pc, addr, off, len);
        let span = match addr {
            AVal::R(lo, hi) => WriteFootprint::Span {
                lo: lo as u64 + off as u64,
                hi: hi as u64 + off as u64 + len,
            },
            AVal::Top => WriteFootprint::Unbounded,
        };
        self.footprint = self.footprint.join(span);
    }
}

/// Apply the branch's stack adjustment (truncate to the label height,
/// re-pushing the carried top if any).
fn branch_adjust(st: &mut State, b: &crate::code::Branch) {
    let kept = st.stack.last().copied();
    st.stack.truncate(b.height as usize);
    if b.keep {
        st.stack.push(kept.expect("kept value"));
    }
}

/// Refine `st` under "the condition slot is truthy/falsy". Returns `false`
/// when the edge is statically infeasible.
fn apply_cond(st: &mut State, cond: Slot, truth: bool) -> bool {
    if let AVal::R(lo, hi) = cond.val {
        if truth && lo == 0 && hi == 0 {
            return false;
        }
        if !truth && lo >= 1 {
            return false;
        }
    }
    let (local, rel, k, is32) = match cond.prov {
        // A raw local as condition: truthy means ≠ 0 (an i32 slot).
        Prov::Local(l) => (l, Rel::Ne, 0, true),
        Prov::Cmp {
            op,
            local,
            swapped,
            k,
        } => match rel_of(op) {
            Some((r, is32)) => (local, if swapped { rel_swap(r) } else { r }, k, is32),
            None => return true,
        },
        Prov::None => return true,
    };
    let rel = if truth { rel } else { rel_negate(rel) };
    match refine_true(st.locals[local as usize], rel, k, is32) {
        Some(v) => {
            st.locals[local as usize] = v;
            true
        }
        None => false,
    }
}

/// Invalidate stack provenance that refers to local `l` (it was reassigned).
fn kill_local(st: &mut State, l: u32) {
    for s in &mut st.stack {
        if s.prov.mentions(l) {
            s.prov = Prov::None;
        }
    }
}

/// Comparison provenance for a binary op, if one side is a local and the
/// other an exact constant.
fn cmp_prov(op: NumBin, x: &Slot, y: &Slot) -> Prov {
    if rel_of(op).is_none() {
        return Prov::None;
    }
    if let (Prov::Local(l), Some(k)) = (x.prov, y.val.exact()) {
        return Prov::Cmp {
            op,
            local: l,
            swapped: false,
            k,
        };
    }
    if let (Some(k), Prov::Local(l)) = (x.val.exact(), y.prov) {
        return Prov::Cmp {
            op,
            local: l,
            swapped: true,
            k,
        };
    }
    Prov::None
}

/// Interpret one linear segment starting at `start` until a terminator or
/// until control falls into another branch target. `st` is the entry state
/// and ends as the exit state; `taken` is scratch for conditional edges.
/// Each branch edge (with its refined state) goes to `edge`, in program
/// order; when `col` is set, per-site proofs and value lints are recorded.
/// Returns `false` iff the step budget ran out.
fn run_segment(
    ctx: &Ctx<'_>,
    start: u32,
    st: &mut State,
    taken: &mut State,
    steps: &mut usize,
    mut col: Option<&mut Collector<'_>>,
    edge: &mut impl FnMut(u32, &State),
) -> bool {
    let mut pc = start as usize;
    loop {
        *steps += 1;
        if *steps > ctx.budget {
            return false;
        }
        match &ctx.code[pc] {
            Op::Unreachable | Op::Return => return true,
            Op::Br(b) => {
                branch_adjust(st, b);
                edge(b.target, st);
                return true;
            }
            op @ (Op::BrIf(b) | Op::BrIfZ(b)) => {
                let cond = st.stack.pop().expect("cond");
                let taken_truth = matches!(op, Op::BrIf(_));
                taken.clone_from(st);
                if apply_cond(taken, cond, taken_truth) {
                    branch_adjust(taken, b);
                    edge(b.target, taken);
                }
                if !apply_cond(st, cond, !taken_truth) {
                    return true; // fallthrough infeasible
                }
            }
            Op::BrTable(payload) => {
                st.stack.pop().expect("index");
                for b in payload
                    .targets
                    .iter()
                    .chain(std::iter::once(&payload.default))
                {
                    taken.clone_from(st);
                    branch_adjust(taken, b);
                    edge(b.target, taken);
                }
                return true;
            }
            Op::Call(f) => {
                let callee = &ctx.m.funcs[*f as usize];
                for _ in 0..callee.nparams {
                    st.stack.pop().expect("arg");
                }
                if callee.has_result {
                    st.stack.push(Slot::anon(AVal::Top));
                }
            }
            Op::CallHost(h) => {
                let imp = &ctx.m.host_funcs[*h as usize];
                for _ in 0..imp.nparams {
                    st.stack.pop().expect("arg");
                }
                if imp.has_result {
                    st.stack.push(Slot::anon(AVal::Top));
                }
            }
            Op::CallIndirect(tid) => {
                let index = st.stack.pop().expect("indirect index");
                if let (Some(c), Some(k)) = (col.as_deref_mut(), index.val.exact()) {
                    lint_call_indirect(ctx, c, pc, k, *tid);
                }
                match ctx.arity.get(tid) {
                    Some(&(np, res)) => {
                        for _ in 0..np {
                            st.stack.pop().expect("arg");
                        }
                        if res {
                            st.stack.push(Slot::anon(AVal::Top));
                        }
                    }
                    None => {
                        // No function of this type exists anywhere: the call
                        // can only trap.
                        if let Some(c) = col.as_deref_mut() {
                            c.lint(
                                ctx,
                                pc,
                                Severity::Warn,
                                "call_indirect type matches no function in the module — \
                                 guaranteed trap"
                                    .to_string(),
                            );
                        }
                        return true;
                    }
                }
            }
            Op::Drop => {
                st.stack.pop();
            }
            Op::Select => {
                st.stack.pop().expect("cond");
                let b2 = st.stack.pop().expect("select rhs");
                let a = st.stack.pop().expect("select lhs");
                st.stack.push(Slot::anon(a.val.join(b2.val)));
            }
            Op::LocalGet(i) => st.stack.push(Slot {
                val: st.locals[*i as usize],
                prov: Prov::Local(*i),
            }),
            Op::LocalSet(i) => {
                let v = st.stack.pop().expect("set value");
                st.locals[*i as usize] = v.val;
                kill_local(st, *i);
            }
            Op::LocalTee(i) => {
                let v = *st.stack.last().expect("tee value");
                st.locals[*i as usize] = v.val;
                kill_local(st, *i);
                st.stack.last_mut().expect("tee value").prov = Prov::Local(*i);
            }
            Op::GlobalGet(_) => st.stack.push(Slot::anon(AVal::Top)),
            Op::GlobalSet(_) => {
                st.stack.pop();
            }
            Op::Load(kind, off) => {
                let addr = st.stack.pop().expect("load addr");
                if let Some(c) = col.as_deref_mut() {
                    c.site(ctx, pc, addr.val, *off, load_len(*kind));
                }
                st.stack.push(Slot::anon(load_result(*kind)));
            }
            Op::LoadL(kind, local, off) => {
                let addr = st.locals[*local as usize];
                if let Some(c) = col.as_deref_mut() {
                    c.site(ctx, pc, addr, *off, load_len(*kind));
                }
                st.stack.push(Slot::anon(load_result(*kind)));
            }
            Op::Store(kind, off) => {
                st.stack.pop().expect("store value");
                let addr = st.stack.pop().expect("store addr");
                if let Some(c) = col.as_deref_mut() {
                    c.store_site(ctx, pc, addr.val, *off, store_len(*kind));
                }
            }
            Op::MemorySize => {
                let spec = ctx.m.memory.expect("memory op without memory");
                st.stack
                    .push(Slot::anon(AVal::R(spec.min_pages, spec.max_pages)));
            }
            Op::MemoryGrow => {
                st.stack.pop().expect("grow pages");
                // Result is the old page count or u32::MAX on failure.
                st.stack.push(Slot::anon(AVal::R(0, U32MAX)));
            }
            Op::Const(c) => st.stack.push(Slot::anon(AVal::from_const(*c))),
            Op::Bin(op) => {
                let y = st.stack.pop().expect("bin rhs");
                let x = st.stack.pop().expect("bin lhs");
                if let Some(c) = col.as_deref_mut() {
                    lint_div(ctx, c, pc, *op, y.val);
                }
                st.stack.push(Slot {
                    val: bin_transfer(*op, x.val, y.val),
                    prov: cmp_prov(*op, &x, &y),
                });
            }
            Op::Un(op) => {
                let x = st.stack.pop().expect("un operand");
                let prov = match (op, x.prov) {
                    (NumUn::I32Eqz, Prov::Local(l)) => Prov::Cmp {
                        op: NumBin::I32Eq,
                        local: l,
                        swapped: false,
                        k: 0,
                    },
                    (NumUn::I64Eqz, Prov::Local(l)) => Prov::Cmp {
                        op: NumBin::I64Eq,
                        local: l,
                        swapped: false,
                        k: 0,
                    },
                    _ => Prov::None,
                };
                st.stack.push(Slot {
                    val: un_transfer(*op, x.val),
                    prov,
                });
            }
            Op::Bin2L(op, a, b2) => {
                let x = Slot {
                    val: st.locals[*a as usize],
                    prov: Prov::Local(*a),
                };
                let y = Slot {
                    val: st.locals[*b2 as usize],
                    prov: Prov::Local(*b2),
                };
                if let Some(c) = col.as_deref_mut() {
                    lint_div(ctx, c, pc, *op, y.val);
                }
                st.stack.push(Slot {
                    val: bin_transfer(*op, x.val, y.val),
                    prov: cmp_prov(*op, &x, &y),
                });
            }
            Op::BinRL(op, l) => {
                let y = Slot {
                    val: st.locals[*l as usize],
                    prov: Prov::Local(*l),
                };
                let x = st.stack.pop().expect("binrl lhs");
                if let Some(c) = col.as_deref_mut() {
                    lint_div(ctx, c, pc, *op, y.val);
                }
                st.stack.push(Slot {
                    val: bin_transfer(*op, x.val, y.val),
                    prov: cmp_prov(*op, &x, &y),
                });
            }
            Op::BinRC(op, k) => {
                let x = st.stack.pop().expect("binrc lhs");
                let y = Slot::anon(AVal::from_const(*k));
                if let Some(c) = col.as_deref_mut() {
                    lint_div(ctx, c, pc, *op, y.val);
                }
                st.stack.push(Slot {
                    val: bin_transfer(*op, x.val, y.val),
                    prov: cmp_prov(*op, &x, &y),
                });
            }
            Op::Bin2LS(op, a, b2, d) => {
                let x = st.locals[*a as usize];
                let y = st.locals[*b2 as usize];
                if let Some(c) = col.as_deref_mut() {
                    lint_div(ctx, c, pc, *op, y);
                }
                st.locals[*d as usize] = bin_transfer(*op, x, y);
                kill_local(st, *d);
            }
            Op::IncI32(i, delta) => {
                let k = AVal::from_const(*delta as u32 as u64);
                st.locals[*i as usize] = bin_transfer(NumBin::I32Add, st.locals[*i as usize], k);
                kill_local(st, *i);
            }
            // Fuel is inserted by the cost pass, which runs after this
            // analysis; it has no stack or value effect.
            Op::Fuel(_) => {}
        }
        pc += 1;
        if ctx.targets[pc] {
            edge(pc as u32, st);
            return true;
        }
    }
}

fn lint_div(ctx: &Ctx<'_>, col: &mut Collector<'_>, pc: usize, op: NumBin, divisor: AVal) {
    if is_div_rem(op) && divisor == AVal::R(0, 0) {
        col.lint(
            ctx,
            pc,
            Severity::Warn,
            "constant division by zero — guaranteed trap if executed".to_string(),
        );
    }
}

fn lint_call_indirect(ctx: &Ctx<'_>, col: &mut Collector<'_>, pc: usize, k: u32, tid: u32) {
    let table = &ctx.m.table;
    match table.get(k as usize) {
        None => col.lint(
            ctx,
            pc,
            Severity::Warn,
            format!(
                "call_indirect with constant index {k} outside the table \
                 (len {}) — guaranteed trap",
                table.len()
            ),
        ),
        Some(None) => col.lint(
            ctx,
            pc,
            Severity::Warn,
            format!("call_indirect into uninitialized table slot {k} — guaranteed trap"),
        ),
        Some(Some(target)) => {
            let ni = ctx.m.num_imports();
            let actual = if *target < ni {
                ctx.m.host_funcs[*target as usize].type_id
            } else {
                ctx.m.funcs[(*target - ni) as usize].type_id
            };
            if actual != tid {
                col.lint(
                    ctx,
                    pc,
                    Severity::Warn,
                    format!(
                        "call_indirect into table slot {k} always mismatches the \
                         expected signature — guaranteed trap"
                    ),
                );
            }
        }
    }
}

/// Join `src` into `dst` slot-wise. `Err(())` on an abstract-shape mismatch
/// (should not happen on validated code); `Ok(changed)` otherwise. With
/// `widen = Some(hard)`, every slot value the join grew is then widened
/// against its value before the join (see [`widen_val`]); a slot the join
/// left alone stays as it is, so widening never hides a change.
fn join_into(
    dst: &mut State,
    src: &State,
    widen: Option<bool>,
    landmarks: &[u32],
) -> Result<bool, ()> {
    if dst.stack.len() != src.stack.len() || dst.locals.len() != src.locals.len() {
        return Err(());
    }
    let join = |d: AVal, s: AVal| -> AVal {
        let val = d.join(s);
        match widen {
            Some(hard) if val != d => widen_val(d, val, landmarks, hard),
            _ => val,
        }
    };
    let mut changed = false;
    for (d, s) in dst.stack.iter_mut().zip(&src.stack) {
        let val = join(d.val, s.val);
        let prov = if d.prov == s.prov { d.prov } else { Prov::None };
        if val != d.val || prov != d.prov {
            changed = true;
        }
        d.val = val;
        d.prov = prov;
    }
    for (d, s) in dst.locals.iter_mut().zip(&src.locals) {
        let val = join(*d, *s);
        if val != *d {
            changed = true;
        }
        *d = val;
    }
    Ok(changed)
}

/// Widen a slot value that grew from `old` to `new`: bounds snap outward to
/// the nearest landmark (`hard` snaps straight to `Top`). The result always
/// contains `new`, so it differs from `old` exactly when `new` does.
fn widen_val(old: AVal, new: AVal, landmarks: &[u32], hard: bool) -> AVal {
    if old == new {
        return new;
    }
    if hard {
        return AVal::Top;
    }
    match (old, new) {
        (AVal::R(ol, oh), AVal::R(nl, nh)) => {
            let mut lo = nl;
            let mut hi = nh;
            if nh > oh {
                let i = landmarks.partition_point(|&x| x < nh);
                hi = landmarks.get(i).copied().unwrap_or(U32MAX);
            }
            if nl < ol {
                let i = landmarks.partition_point(|&x| x <= nl);
                lo = if i == 0 { 0 } else { landmarks[i - 1] };
            }
            AVal::R(lo, hi)
        }
        _ => new,
    }
}

/// Run the interval analysis over one function: fixpoint over branch-target
/// states, then a single deterministic collection pass that records the
/// store footprint and value lints.
pub(super) fn analyze_func(
    m: &CompiledModule,
    arity: &ArityMap,
    fidx: u32,
    func: &CompiledFunc,
    diags: &mut Vec<Diagnostic>,
) -> FuncRange {
    let code = &func.code[..];
    let mem_sites = code
        .iter()
        .filter(|op| matches!(op, Op::Load(..) | Op::LoadL(..) | Op::Store(..)))
        .count() as u32;
    // Whenever the analysis bails out before the collection pass completes,
    // the footprint must stay sound: any store means "anywhere".
    let has_stores = code.iter().any(|op| matches!(op, Op::Store(..)));
    let bail_footprint = if has_stores {
        WriteFootprint::Unbounded
    } else {
        WriteFootprint::Empty
    };
    // Nothing to prove or lint in functions that never touch memory, divide,
    // or call through the table.
    let interesting = mem_sites > 0
        || code.iter().any(|op| {
            matches!(op, Op::CallIndirect(_))
                || matches!(op, Op::Bin(o) | Op::BinRC(o, _) | Op::BinRL(o, _)
                    | Op::Bin2L(o, _, _) | Op::Bin2LS(o, _, _, _) if is_div_rem(*o))
        });
    if !interesting {
        return FuncRange {
            mem_sites,
            footprint: bail_footprint,
        };
    }

    // Branch targets partition the code into linear segments.
    let mut targets = vec![false; code.len() + 1];
    // Constants appearing in the code: the widening landmarks. `k + 1` is
    // included so `i <= N`-style loop heads stabilize one past the bound.
    let mut landmarks: Vec<u32> = vec![0, U32MAX];
    let mark = |c: u64, landmarks: &mut Vec<u32>| {
        if c <= U32MAX as u64 {
            landmarks.push(c as u32);
            landmarks.push((c as u32).saturating_add(1));
        }
    };
    for op in code {
        match op {
            Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => targets[b.target as usize] = true,
            Op::BrTable(p) => {
                for b in p.targets.iter().chain(std::iter::once(&p.default)) {
                    targets[b.target as usize] = true;
                }
            }
            Op::Const(c) | Op::BinRC(_, c) => mark(*c, &mut landmarks),
            Op::IncI32(_, d) => mark(*d as u32 as u64, &mut landmarks),
            _ => {}
        }
    }
    landmarks.sort_unstable();
    landmarks.dedup();

    let max_bytes = m.memory.map_or(0, |spec| spec.max_pages as u64 * 65536);
    let ctx = Ctx {
        m,
        code,
        fidx,
        targets,
        landmarks,
        max_bytes,
        arity,
        budget: 500 * code.len() + 50_000,
    };

    // Entry state: parameters unknown, declared locals zero.
    let mut entry_locals = vec![AVal::Top; func.nparams as usize];
    entry_locals.resize(func.nlocals as usize, AVal::R(0, 0));
    let entry = State {
        stack: Vec::new(),
        locals: entry_locals,
    };

    // Fixpoint: chaotic iteration over segment-entry states, in FIFO order.
    // The bookkeeping is indexed by pc; the visit order and the widening
    // schedule are part of what the results mean.
    let mut states: Vec<Option<State>> = vec![None; code.len() + 1];
    let mut joins = vec![0u32; code.len() + 1];
    let mut queued = vec![false; code.len() + 1];
    let mut work: VecDeque<u32> = VecDeque::new();
    states[0] = Some(entry);
    queued[0] = true;
    work.push_back(0);
    let mut steps = 0usize;
    let (mut st, mut taken) = (State::default(), State::default());
    let mut mismatch = false;

    while let Some(pc) = work.pop_front() {
        queued[pc as usize] = false;
        st.clone_from(states[pc as usize].as_ref().expect("queued state"));
        // Join each edge into its target's entry state as the segment emits
        // it; a target whose state changed joins the back of the queue.
        let mut edge = |target: u32, src: &State| {
            let t = target as usize;
            let changed = match &mut states[t] {
                slot @ None => {
                    *slot = Some(src.clone());
                    true
                }
                Some(dst) => {
                    joins[t] += 1;
                    let widen = (joins[t] > WIDEN_AFTER).then_some(joins[t] > TOP_AFTER);
                    join_into(dst, src, widen, &ctx.landmarks).unwrap_or_else(|()| {
                        mismatch = true;
                        false
                    })
                }
            };
            if changed && !queued[t] {
                queued[t] = true;
                work.push_back(target);
            }
        };
        let within_budget = run_segment(&ctx, pc, &mut st, &mut taken, &mut steps, None, &mut edge);
        if !within_budget || mismatch {
            // Step budget exhausted (or an abstract-shape mismatch): give up
            // on footprints and value lints for this function (the stack
            // verifier is a separate pass).
            return FuncRange {
                mem_sites,
                footprint: bail_footprint,
            };
        }
    }

    // Collection: each reachable segment exactly once, in pc order, against
    // its post-fixpoint entry state.
    let mut col = Collector {
        footprint: WriteFootprint::Empty,
        diags,
    };
    let mut col_steps = 0usize;
    for (pc, st) in states.iter_mut().enumerate() {
        let Some(st) = st else { continue };
        let col = Some(&mut col);
        if !run_segment(
            &ctx,
            pc as u32,
            st,
            &mut taken,
            &mut col_steps,
            col,
            &mut |_, _| {},
        ) {
            return FuncRange {
                mem_sites,
                footprint: bail_footprint,
            };
        }
    }
    FuncRange {
        mem_sites,
        footprint: col.footprint,
    }
}
