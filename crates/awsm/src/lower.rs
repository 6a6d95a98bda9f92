//! Lowering: certified stack bodies → the register form the executor runs
//! (DESIGN.md §3 has the long version).
//!
//! A function's stack body ([`CompiledFunc::code`]) is what the analyses
//! certify; it is never executed. This pass derives
//! from it, once per module, a three-address body over one *frame*:
//! `[params | locals | operand slots]`. Operand heights are static, so the
//! value at stack height `h` lives in slot `nlocals + h` — once it is
//! *materialised*. Until then the pass tracks it as a [`Desc`]: `local.get`
//! and `const` emit nothing and are read in place (or as an immediate) by
//! the op that pops them, `local.set` re-targets the op that produced its
//! value, and a branch on an `i32.eqz` just produced tests the `eqz`'s
//! operand instead, and one on `x >=s 0 && x <s n` just computed becomes
//! one range test. A pending `Local(i)` is spilled before `i` is
//! overwritten; every entry is materialised at a branch (all paths into a
//! label agree) and, for arguments, before a call — the callee's frame
//! starts at the caller's first argument slot, so a call copies nothing.
//! This is the one place operands fold: the translator emits one stack op
//! per Wasm instruction.
//!
//! Two last passes move each loop's exit test onto its back-edge where the
//! function's certified loop gap allows ([`rotate_loops`]) and give each
//! adjacent pair listed in [`pair_list`] one dispatch, leaving the second
//! op in place.
//!
//! [`Op::Fuel`] is carried one-to-one at the same segment heads (a rotated
//! latch's also carries its loop head's charge), so the fuel a run burns is
//! unchanged.
//!
//! The executor indexes the frame without bounds checks. What it relies on
//! is re-checked here, on the output, by [`Body::check`]: a body that fails
//! it is never built, whatever the input was.

use crate::analysis::cost::{for_each_target, FuncCost};
use crate::analysis::stack::ArityMap;
use crate::code::{Branch, CompiledFunc, CompiledModule, LoadKind, NumBin, NumUn, Op, StoreKind};

/// Index of a slot within the current frame.
pub(crate) type Slot = u32;

/// One register-form instruction: an opcode from [`opc`] and three operands
/// whose meaning the opcode fixes. The opcode space is flat — a numeric op
/// *is* its opcode (`opc::BIN_RR + NumBin::I32Add`) — so the executor
/// dispatches once per op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LOp {
    pub code: u16,
    pub a: u32,
    pub b: u32,
    pub c: u32,
}

/// Opcodes, and what `a`, `b`, `c` hold for each (slots unless said
/// otherwise). A destination is always `a`; a jump target is always `c`.
#[rustfmt::skip]
pub(crate) mod opc {
    pub(crate) const FUEL: u16 = 0;          // a = cost units: segment charge + preemption poll
    pub(crate) const UNREACHABLE: u16 = 1;
    pub(crate) const BR: u16 = 2;
    pub(crate) const BR_IF: u16 = 3;         // a = condition
    pub(crate) const BR_IFZ: u16 = 4;
    pub(crate) const BR_TABLE: u16 = 5;      // a = index, b = which of `Body::tables` (last entry: default)
    pub(crate) const RETURN: u16 = 6;
    pub(crate) const RETURN_VAL: u16 = 7;    // copy a to slot 0, the caller's result slot, and return
    pub(crate) const CALL: u16 = 8;          // a = local function, b = first argument: the callee's
                                             // frame starts there and its result replaces it
    pub(crate) const CALL_HOST: u16 = 9;     // a = host import, b = first argument
    pub(crate) const CALL_INDIRECT: u16 = 10; // a = type id, b = first argument, c = table index
    pub(crate) const SELECT: u16 = 11;       // if c == 0 { a = b }; a already holds the first operand
    pub(crate) const MOV: u16 = 12;
    pub(crate) const CONST: u16 = 13;        // a = the 64-bit value c:b
    pub(crate) const GLOBAL_GET: u16 = 14;   // b = global index
    pub(crate) const GLOBAL_SET: u16 = 15;   // a = global index, b = source
    pub(crate) const MEMORY_SIZE: u16 = 16;
    pub(crate) const MEMORY_GROW: u16 = 17;
    pub(crate) const BR_RANGE_RR: u16 = 18;  // jump if 0 <= a < b, both signed i32 (one op for
                                             // `and(ge_s(x, 0), lt_s(x, n))` + br_if)
    pub(crate) const BR_RANGE_RI: u16 = 19;  // as BR_RANGE_RR with b an immediate
    pub(crate) const BRZ_RANGE_RR: u16 = 20; // jump unless 0 <= a < b
    pub(crate) const BRZ_RANGE_RI: u16 = 21; // as BRZ_RANGE_RR with b an immediate
    pub(crate) const LOAD: u16 = 32;         // + LoadKind: a = load(b + offset c)
    pub(crate) const STORE: u16 = 48;        // + StoreKind: store b at address a + offset c
    pub(crate) const UN: u16 = 64;           // + NumUn: a = op(b)
    pub(crate) const BIN_RR: u16 = 128;      // + NumBin: a = op(b, c)
    pub(crate) const BIN_RI: u16 = 256;      // + NumBin: a = op(b, zero-extended immediate c)
    pub(crate) const BIN_RK: u16 = 384;      // + NumBin: a = op(b, consts[c]), c too wide for BIN_RI
    pub(crate) const BR_RR: u16 = 512;       // + NumBin: jump if op(a, b) != 0 (fused op + br_if)
    pub(crate) const BR_RI: u16 = 640;       // + NumBin: as BR_RR with b an immediate
    pub(crate) const BRZ_RR: u16 = 768;      // + NumBin: jump if op(a, b) == 0
    pub(crate) const BRZ_RI: u16 = 896;      // + NumBin: as BRZ_RR with b an immediate
    pub(crate) const FUSED: u16 = 1024;      // + index into `PAIRS`: run this op as the pair's first op,
                                             // then op k+1, which is the pair's second, and step past it
    /// Opcodes from here up to `FUSED` are `family + member`, families 128
    /// apart.
    pub(crate) const FAMILIES: u16 = BIN_RR;
}
use opc::*;

/// The fused pairs, `Name: [first] [second]`, each op an opcode (`FUEL`) or
/// a family and member (`BIN_RI I32Mul`). Pair `i` is opcode `FUSED + i`.
/// The list is handed to a callback macro like [`op_lists`]: it declares
/// [`PAIRS`] and the [`fused`] opcodes here and the executor's arms there,
/// so the two cannot drift apart.
///
/// A pair's first op never jumps (the assertion after [`is_jump`] holds
/// the list to that), so a fused arm always runs the second op after it.
/// Neither op is a call, a return, `br_table` or `unreachable`: the
/// executor's per-op rules that build the fused arms have none of those.
///
/// Chosen from the guests' per-op dispatch profile with no pair fused
/// (`exec::tests::shipped_guests_dispatch_pinned_counts` prints what is
/// left after fusing): the range tests folded and the loops rotated, a pair
/// qualifies with ≥ 1 % of dispatches averaged over the 37 shipped guests,
/// or ≥ 3 % of one app's (`ping`'s 10 dispatches excluded). 43 qualify.
/// Starting from the previous choice plus the rotated latch's and the
/// range test's pairs, single swaps were taken while they cut the guests'
/// geomean dispatch count and raised no app's; one did (`LoadU8_AddR` for
/// `MulF64_AddF64`). The two range-test pairs fall short of the rule and
/// are kept because each holds `cifar10` 3-4 % lower (2 186 608 dispatches
/// with both, 2 258 032 and 2 278 768 without one). `AddI_Br`,
/// `Fuel_BrzLtSI` and `Fuel_BrzLtSR` are the unrotated loops' latch and
/// head: most loops keep their head (see [`rotate_loops`]), and dropping
/// the three raises every app but `ping` (`cifar10` to 2 292 368).
/// Shares: mean over the 37 guests; the largest in one app.
macro_rules! pair_list {
    ($with:ident $($args:tt)*) => { $with! { $($args)*
        MulI_AddI: [BIN_RI I32Mul] [BIN_RI I32Add]         // 11.86 %; 0.88 % lpd
        MulI_AddR: [BIN_RI I32Mul] [BIN_RR I32Add]         // 10.12 %; 12.83 % cifar10
        AddR_MulI: [BIN_RR I32Add] [BIN_RI I32Mul]         //  9.92 %; 10.98 % gps_ekf
        AddI_LoadF64: [BIN_RI I32Add] [LOAD F64]           //  8.84 %; 0.37 % gps_ekf
        AddI_Br: [BIN_RI I32Add] [BR]                      //  1.57 %; 11.11 % echo
        Fuel_MulI: [FUEL] [BIN_RI I32Mul]                  //  3.72 %; 5.27 % gocr
        LoadF64_MulI: [LOAD F64] [BIN_RI I32Mul]           //  3.62 %; 0.11 % gps_ekf
        Fuel_BrzLtSI: [FUEL] [BRZ_RI I32LtS]               //  1.07 %; 6.16 % gocr
        AddI_MulI: [BIN_RI I32Add] [BIN_RI I32Mul]         //  2.69 %; 0.81 % gps_ekf
        LoadF64_MulF64: [LOAD F64] [BIN_RR F64Mul]         //  2.52 %; 4.77 % gps_ekf
        LoadU8_AddR: [LOAD I32U8] [BIN_RR I32Add]          //  0.30 %; 7.07 % lpd
        AddR_AddI: [BIN_RR I32Add] [BIN_RI I32Add]         //  1.94 %; 16.71 % lpd
        LoadF64_AddF64: [LOAD F64] [BIN_RR F64Add]         //  1.37 %; 0.01 % gps_ekf
        AddF64_StoreF64: [BIN_RR F64Add] [STORE F64]       //  1.40 %; 0.01 % gps_ekf
        AddF64_AddI: [BIN_RR F64Add] [BIN_RI I32Add]       //  1.30 %; 4.61 % gps_ekf
        Const_MulF64: [CONST] [BIN_RR F64Mul]              //  1.09 %; 0 in the apps
        Fuel_BrzLtSR: [FUEL] [BRZ_RR I32LtS]               //  0.74 %; 11.11 % echo
        MulR_AddR: [BIN_RR I32Mul] [BIN_RR I32Add]         //  1.02 %; 9.64 % gps_ekf
        AddI_LoadU8: [BIN_RI I32Add] [LOAD I32U8]          //  0.82 %; 10.54 % gocr
        Fuel_AddR: [FUEL] [BIN_RR I32Add]                  //  0.58 %; 11.11 % echo
        AddI_LoadI64: [BIN_RI I32Add] [LOAD I64]           //  0.30 %; 11.11 % echo
        MulR_AddI: [BIN_RR I32Mul] [BIN_RI I32Add]         //  0.17 %; 4.11 % resize
        Xor_Popcnt: [BIN_RR I32Xor] [UN I32Popcnt]         //  0.14 %; 5.27 % gocr
        AddI_BrLtSI: [BIN_RI I32Add] [BR_RI I32LtS]        //  2.38 %; 5.93 % lpd
        SubI_BrzRangeR: [BIN_RI I32Sub] [BRZ_RANGE_RR]     //  0.07 %; 2.56 % cifar10
        SubI_BrzRangeI: [BIN_RI I32Sub] [BRZ_RANGE_RI]     //  0.05 %; 1.98 % cifar10
    } };
}
pub(crate) use pair_list;

/// The opcode an op name in [`pair_list`] stands for.
#[rustfmt::skip]
macro_rules! code_of {
    (LOAD $m:ident) => { opc::LOAD + LoadKind::$m as u16 };
    (STORE $m:ident) => { opc::STORE + StoreKind::$m as u16 };
    (UN $m:ident) => { opc::UN + NumUn::$m as u16 };
    ($family:ident $m:ident) => { opc::$family + NumBin::$m as u16 };
    ($op:ident) => { opc::$op };
}

macro_rules! pairs {
    ($($name:ident: [$($x:tt)+] [$($y:tt)+])*) => {
        /// Each fused opcode's `(first, second)` opcodes, by `code - FUSED`.
        pub(crate) const PAIRS: &[(u16, u16)] = &[$((code_of!($($x)+), code_of!($($y)+))),*];

        #[allow(non_camel_case_types)]
        enum Pair { $($name),* }

        /// The fused opcodes by name, as match patterns.
        #[allow(non_upper_case_globals)]
        pub(crate) mod fused {
            $(pub(crate) const $name: u16 = super::FUSED + super::Pair::$name as u16;)*
        }
    };
}
pair_list!(pairs);

/// The opcode of a fused op's first op; any other opcode unchanged.
#[cfg(test)]
fn first_of(code: u16) -> u16 {
    match code.checked_sub(FUSED).and_then(|i| PAIRS.get(i as usize)) {
        Some(&(first, _)) => first,
        None => code,
    }
}

/// Bytes per lowered op; the tests hold it at 16.
pub const LOWERED_OP_BYTES: usize = std::mem::size_of::<LOp>();

fn lop(code: u16, a: u32, b: u32, c: u32) -> LOp {
    LOp { code, a, b, c }
}

/// One function in register form. Immutable once built: the executor's
/// unchecked frame accesses rest on [`Body::check`] having passed for
/// exactly these values.
#[derive(Debug)]
pub(crate) struct Body {
    pub ops: Box<[LOp]>,
    pub consts: Box<[u64]>,
    pub tables: Box<[Box<[u32]>]>,
    pub nparams: u32,
    pub nlocals: u32,
    /// `nlocals` + the operand slots the body's ops name: the frame the
    /// executor reserves for it.
    pub frame_slots: u32,
    pub type_id: u32,
}

/// Arity of a host import as the lowered bodies assume it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostSig {
    pub nparams: u32,
    pub has_result: bool,
    pub type_id: u32,
}

/// A module's executable form: built once at the end of analysis, never
/// serialized. The empty default is what a module
/// holds only while it is being built.
#[derive(Debug, Default)]
pub(crate) struct Lowered {
    pub bodies: Box<[Body]>,
    pub hosts: Box<[HostSig]>,
}

/// Lower every function of `m`, given each body's operand heights (as
/// [`heights`](crate::analysis::stack::heights) found them) and its
/// certificate (which bounds the charges loop rotation may merge).
///
/// # Errors
///
/// Returns the first reason a body cannot be run safely, naming the
/// function. Translator output never fails.
pub(crate) fn lower_module(
    m: &CompiledModule,
    arities: &ArityMap,
    heights: &[Vec<Option<u32>>],
    certs: &[FuncCost],
) -> Result<Lowered, String> {
    let hosts: Box<[HostSig]> = m
        .host_funcs
        .iter()
        .map(|h| HostSig {
            nparams: h.nparams,
            has_result: h.has_result,
            type_id: h.type_id,
        })
        .collect();
    // Indirect calls are lowered from the arity of their type id, and at run
    // time trust any table entry carrying that id: the two must agree.
    let funcs = m
        .funcs
        .iter()
        .map(|f| (f.type_id, (f.nparams, f.has_result)));
    let imports = hosts.iter().map(|h| (h.type_id, (h.nparams, h.has_result)));
    if let Some((tid, _)) = funcs
        .chain(imports)
        .find(|(t, a)| arities.get(t) != Some(a))
    {
        return Err(format!("type id {tid} names two different arities"));
    }
    let lower = |(fidx, func): (usize, &CompiledFunc)| {
        let named = |e: String| match &func.name {
            Some(n) => format!("{n}: {e}"),
            None => format!("func[{fidx}]: {e}"),
        };
        let body = lower_func(
            m,
            func,
            &heights[fidx],
            &hosts,
            arities,
            certs[fidx].max_loop_gap,
        );
        let body = body.map_err(named)?;
        body.check(m, &hosts, arities).map_err(named)?;
        Ok(body)
    };
    let bodies = m.funcs.iter().enumerate().map(lower);
    let bodies = bodies.collect::<Result<_, String>>()?;
    Ok(Lowered { bodies, hosts })
}

/// Where the value at one operand-stack position currently lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Desc {
    /// Still in local `i`, which has not been written since the `local.get`.
    Local(u32),
    /// A constant no op has consumed yet.
    Const(u64),
    /// In its own operand slot.
    Slot,
}

#[derive(Default)]
struct Lowerer {
    nlocals: u32,
    stack: Vec<Desc>,
    ops: Vec<LOp>,
    consts: Vec<u64>,
    tables: Vec<Box<[u32]>>,
    /// Label → lowered pc. Labels `0..n` are the stack body's pcs; the rest
    /// are synthetic (trampolines). Every target is a label until the end.
    labels: Vec<u32>,
    /// Ops before this index are on the far side of a label: re-targeting
    /// and fusion must not reach across it.
    barrier: usize,
}

impl Lowerer {
    fn slot(&self, pos: usize) -> Slot {
        self.nlocals + pos as u32
    }

    fn emit(&mut self, op: LOp) {
        self.ops.push(op);
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as u32
    }

    fn place(&mut self, label: u32) {
        self.labels[label as usize] = self.ops.len() as u32;
        self.barrier = self.ops.len();
    }

    /// Write entry `d` to slot `dst` (a no-op for an entry already in it).
    fn write(&mut self, dst: Slot, d: Desc, pos: usize) {
        match d {
            Desc::Local(src) if src == dst => {}
            Desc::Local(src) => self.emit(lop(MOV, dst, src, 0)),
            Desc::Const(v) => self.emit(lop(CONST, dst, v as u32, (v >> 32) as u32)),
            Desc::Slot if self.slot(pos) == dst => {}
            Desc::Slot => self.emit(lop(MOV, dst, self.slot(pos), 0)),
        }
    }

    /// The slot holding `d`, which sits (or sat) at position `pos`; a
    /// constant is written to the position's own slot first.
    fn resolve(&mut self, d: Desc, pos: usize) -> Slot {
        match d {
            Desc::Local(i) => i,
            _ => {
                self.write(self.slot(pos), d, pos);
                self.slot(pos)
            }
        }
    }

    fn pop_desc(&mut self) -> (Desc, usize) {
        let d = self.stack.pop().expect("heights verified");
        (d, self.stack.len())
    }

    fn pop(&mut self) -> Slot {
        let (d, pos) = self.pop_desc();
        self.resolve(d, pos)
    }

    /// Push a value an op is about to write; returns its slot.
    fn push(&mut self) -> Slot {
        self.stack.push(Desc::Slot);
        self.slot(self.stack.len() - 1)
    }

    /// Force every entry from position `from` up into its own slot.
    fn materialise(&mut self, from: usize) {
        for pos in from..self.stack.len() {
            self.write(self.slot(pos), self.stack[pos], pos);
            self.stack[pos] = Desc::Slot;
        }
    }

    /// Local `l` is about to be written: entries still reading it move to
    /// their slots first.
    fn spill(&mut self, l: u32) {
        for pos in 0..self.stack.len() {
            if self.stack[pos] == Desc::Local(l) {
                self.write(self.slot(pos), Desc::Local(l), pos);
                self.stack[pos] = Desc::Slot;
            }
        }
    }

    /// The op just emitted, if no label lies between it and here and it
    /// wrote entry `d`, at position `pos`, into its slot.
    fn producer(&self, d: Desc, pos: usize) -> Option<LOp> {
        let last = *self.ops.last().filter(|_| self.ops.len() > self.barrier)?;
        let writes_a = matches!(last.code, MOV..=GLOBAL_GET | MEMORY_SIZE..=MEMORY_GROW)
            || (LOAD..STORE).contains(&last.code)
            || (UN..BR_RR).contains(&last.code);
        (writes_a && d == Desc::Slot && last.a == self.slot(pos)).then_some(last)
    }

    /// Take back the op just emitted.
    fn unemit(&mut self) {
        self.ops.pop();
    }

    /// Pop the top entry into local `l`. If the op just emitted produced it,
    /// that op writes `l` directly instead, re-emitted after the moves that
    /// spill `l`'s pending readers. Returns where the value can be read from
    /// afterwards (for `local.tee`).
    fn pop_into(&mut self, l: u32) -> Desc {
        let (d, pos) = self.pop_desc();
        if let Some(p) = self.producer(d, pos) {
            self.unemit();
            self.spill(l);
            self.emit(LOp { a: l, ..p });
            return Desc::Local(l);
        }
        self.spill(l);
        self.write(l, d, pos);
        d
    }

    /// Push the result of op `code` (second operand `b`).
    fn nullary(&mut self, code: u16, b: u32) {
        let dst = self.push();
        self.emit(lop(code, dst, b, 0));
    }

    /// Pop one operand and push the result of op `code` (third operand `c`).
    fn un(&mut self, code: u16, c: u32) {
        let src = self.pop();
        let dst = self.push();
        self.emit(lop(code, dst, src, c));
    }

    /// Pop two operands and push `op` of them; a constant right operand
    /// becomes an immediate (or a pool entry, if too wide for one).
    fn bin(&mut self, op: NumBin) {
        let (mut y, mut ypos) = self.pop_desc();
        let (mut x, mut xpos) = self.pop_desc();
        // A constant left operand of a commutative integer op becomes the
        // immediate too. Not for floats: a NaN's payload depends on the
        // operands' order.
        if matches!(x, Desc::Const(_)) && !matches!(y, Desc::Const(_)) && commutes(op) {
            (x, xpos, y, ypos) = (y, ypos, x, xpos);
        }
        let a = self.resolve(x, xpos);
        let dst = self.push();
        let op = op as u16;
        let Desc::Const(c) = y else {
            let y = self.resolve(y, ypos);
            return self.emit(lop(BIN_RR + op, dst, a, y));
        };
        if let Ok(imm) = u32::try_from(c) {
            return self.emit(lop(BIN_RI + op, dst, a, imm));
        }
        let known = self.consts.iter().position(|&v| v == c);
        let k = known.unwrap_or_else(|| {
            self.consts.push(c);
            self.consts.len() - 1
        });
        self.emit(lop(BIN_RK + op, dst, a, k as u32));
    }

    /// Pop a branch condition and emit the conditional jump to `label`,
    /// taken when the condition is zero iff `zero`. If the op just emitted
    /// produced the condition, an `i32.eqz` is taken back and the branch
    /// tests its operand the other way; a binary op is fused in.
    fn cond_branch(&mut self, mut zero: bool, label: u32) {
        let (mut d, pos) = self.pop_desc();
        let eqz = UN + NumUn::I32Eqz as u16;
        if let Some(p) = self.producer(d, pos).filter(|p| p.code == eqz) {
            self.unemit();
            zero = !zero;
            // `un` read the operand in place from a local, or from this slot.
            d = if p.b == self.slot(pos) {
                Desc::Slot
            } else {
                Desc::Local(p.b)
            };
        }
        if let Some((x, n, imm)) = self.range_test(d, pos) {
            self.ops.truncate(self.ops.len() - 3);
            // `x` and `n` are locals or an immediate: no move touches them.
            self.materialise(0);
            let code = match (zero, imm) {
                (false, false) => BR_RANGE_RR,
                (false, true) => BR_RANGE_RI,
                (true, false) => BRZ_RANGE_RR,
                (true, true) => BRZ_RANGE_RI,
            };
            return self.emit(lop(code, x, n, label));
        }
        let producer = self.producer(d, pos);
        let Some(p) = producer.filter(|p| (BIN_RR..BIN_RK).contains(&p.code)) else {
            let cond = self.resolve(d, pos);
            // What a taken branch leaves on the stack must be in its slot.
            self.materialise(0);
            let code = if zero { BR_IFZ } else { BR_IF };
            return self.emit(lop(code, cond, 0, label));
        };
        self.unemit();
        // These moves touch no operand of the fused op.
        self.materialise(0);
        let family = if zero { BRZ_RR } else { BR_RR };
        self.emit(lop(p.code - BIN_RR + family, p.b, p.c, label));
    }

    /// The two-sided test `0 <=s x <s n` behind condition `d` at `pos`, if
    /// the last three ops emitted compute it and nothing else: `x >=s 0` and
    /// `x <s n`, in either order, into the operand slots at `pos` and
    /// `pos + 1`, then their `and` into `pos`. Both compares read the same
    /// `x`, and neither reads the other's result. Returns `(x, n, whether n
    /// is an immediate)`.
    fn range_test(&self, d: Desc, pos: usize) -> Option<(Slot, u32, bool)> {
        let (lo, hi) = (self.slot(pos), self.slot(pos + 1));
        let and = self.producer(d, pos)?;
        let k = self
            .ops
            .len()
            .checked_sub(3)
            .filter(|&k| k >= self.barrier)?;
        if and != lop(BIN_RR + NumBin::I32And as u16, lo, lo, hi) {
            return None;
        }
        let (p, q) = (self.ops[k], self.ops[k + 1]);
        if (p.a, q.a) != (lo, hi) {
            return None;
        }
        let is_ge0 = |op: LOp| (op.code, op.c) == (BIN_RI + NumBin::I32GeS as u16, 0);
        let (ge, lt) = if is_ge0(p) { (p, q) } else { (q, p) };
        let lt_s = NumBin::I32LtS as u16;
        let imm = match lt.code {
            c if c == BIN_RR + lt_s => false,
            c if c == BIN_RI + lt_s => true,
            _ => return None,
        };
        let fresh = |s: Slot| s != lo && s != hi;
        let ok = is_ge0(ge) && lt.b == ge.b && fresh(ge.b) && (imm || fresh(lt.c));
        ok.then_some((ge.b, lt.c, imm))
    }

    /// Whether a branch to `b` taken with `len` entries on the stack (the
    /// top one kept, if any is) must move the kept value down to the
    /// target's height.
    fn needs_move(&self, b: &Branch, len: usize) -> bool {
        b.keep && len as u32 != b.height + 1
    }

    /// `Mov` the kept value (top of stack) to `b`'s height and jump there.
    fn move_and_jump(&mut self, b: &Branch) {
        let src = self.slot(self.stack.len() - 1);
        self.emit(lop(MOV, self.nlocals + b.height, src, 0));
        self.emit(lop(BR, 0, 0, b.target));
    }

    /// Materialise the top `n` entries as call arguments, replace them with
    /// the result (if any), and return the first argument's slot.
    fn args(&mut self, n: u32, has_result: bool) -> Slot {
        let from = self.stack.len() - n as usize;
        self.materialise(from);
        self.stack.truncate(from);
        if has_result {
            self.stack.push(Desc::Slot);
        }
        self.slot(from)
    }
}

/// Whether `op(x, y) == op(y, x)` for every pair of integer operands.
fn commutes(op: NumBin) -> bool {
    use NumBin::*;
    let ops = [I32Add, I32Mul, I32And, I32Or, I32Xor, I32Eq, I32Ne];
    let wide = [I64Add, I64Mul, I64And, I64Or, I64Xor, I64Eq, I64Ne];
    ops.contains(&op) || wide.contains(&op)
}

fn lower_func(
    m: &CompiledModule,
    func: &CompiledFunc,
    heights: &[Option<u32>],
    hosts: &[HostSig],
    arities: &ArityMap,
    loop_gap: u32,
) -> Result<Body, String> {
    let code = &func.code;
    if heights.len() != code.len() {
        return Err("operand heights do not match the body".into());
    }
    // Every slot the lowering names lies below `nlocals` + the top height.
    let max_height = heights.iter().flatten().max().copied().unwrap_or(0);
    if func.nlocals.checked_add(max_height).is_none() {
        return Err("frame size overflows".into());
    }
    if func.nparams > func.nlocals {
        return Err("more parameters than locals".into());
    }

    let mut is_target = vec![false; code.len()];
    for op in code {
        for_each_target(op, |t| is_target[t as usize] = true);
    }

    let mut lw = Lowerer {
        nlocals: func.nlocals,
        ops: Vec::with_capacity(code.len()),
        labels: vec![u32::MAX; code.len()],
        ..Default::default()
    };
    // Whether control can fall into the current pc from the one before.
    let mut falls_in = false;

    for (pc, op) in code.iter().enumerate() {
        let Some(h) = heights[pc] else {
            // Dead code: nothing reaches it, nothing is emitted for it.
            falls_in = false;
            continue;
        };
        if is_target[pc] || !falls_in {
            if falls_in {
                lw.materialise(0);
            }
            lw.stack.clear();
            lw.stack.resize(h as usize, Desc::Slot);
            lw.place(pc as u32);
        }
        if lw.stack.len() != h as usize {
            return Err(format!("lowering lost track of the stack at pc {pc}"));
        }
        falls_in = true;

        match *op {
            Op::Fuel(n) => lw.emit(lop(FUEL, n, 0, 0)),
            Op::Unreachable => {
                lw.emit(lop(UNREACHABLE, 0, 0, 0));
                falls_in = false;
            }
            Op::Const(c) => lw.stack.push(Desc::Const(c)),
            Op::LocalGet(i) => lw.stack.push(Desc::Local(i)),
            Op::LocalSet(i) => {
                lw.pop_into(i);
            }
            Op::LocalTee(i) => {
                let kept = lw.pop_into(i);
                lw.stack.push(kept);
            }
            Op::Drop => {
                lw.stack.pop();
            }
            Op::Select => {
                let cond = lw.pop();
                let b = lw.pop();
                let pos = lw.stack.len() - 1;
                lw.materialise(pos);
                lw.emit(lop(SELECT, lw.slot(pos), b, cond));
            }
            Op::GlobalGet(g) => lw.nullary(GLOBAL_GET, g),
            Op::MemorySize => lw.nullary(MEMORY_SIZE, 0),
            Op::GlobalSet(g) => {
                let src = lw.pop();
                lw.emit(lop(GLOBAL_SET, g, src, 0));
            }
            Op::Store(kind, off) => {
                let val = lw.pop();
                let addr = lw.pop();
                lw.emit(lop(STORE + kind as u16, addr, val, off));
            }
            Op::Load(kind, off) => lw.un(LOAD + kind as u16, off),
            Op::MemoryGrow => lw.un(MEMORY_GROW, 0),
            Op::Un(u) => lw.un(UN + u as u16, 0),
            Op::Bin(b) => lw.bin(b),
            Op::Br(b) => {
                lw.materialise(0);
                if lw.needs_move(&b, lw.stack.len()) {
                    lw.move_and_jump(&b);
                } else {
                    lw.emit(lop(BR, 0, 0, b.target));
                }
                falls_in = false;
            }
            Op::BrIf(b) | Op::BrIfZ(b) => {
                let zero = matches!(op, Op::BrIfZ(_));
                if lw.needs_move(&b, lw.stack.len() - 1) {
                    // The taken path moves the kept value: jump around a
                    // trampoline on the opposite condition.
                    let skip = lw.new_label();
                    lw.cond_branch(!zero, skip);
                    lw.move_and_jump(&b);
                    lw.place(skip);
                } else {
                    lw.cond_branch(zero, b.target);
                }
            }
            Op::BrTable(ref p) => {
                let idx = lw.pop();
                lw.materialise(0);
                let mut entries = Vec::with_capacity(p.targets.len() + 1);
                let mut trampolines = Vec::new();
                for b in p.targets.iter().chain(std::iter::once(&p.default)) {
                    if lw.needs_move(b, lw.stack.len()) {
                        let l = lw.new_label();
                        trampolines.push((l, *b));
                        entries.push(l);
                    } else {
                        entries.push(b.target);
                    }
                }
                lw.emit(lop(BR_TABLE, idx, lw.tables.len() as u32, 0));
                lw.tables.push(entries.into());
                for (l, b) in trampolines {
                    lw.place(l);
                    lw.move_and_jump(&b);
                }
                falls_in = false;
            }
            Op::Return => {
                if func.has_result {
                    let src = lw.pop();
                    lw.emit(lop(RETURN_VAL, src, 0, 0));
                } else {
                    lw.emit(lop(RETURN, 0, 0, 0));
                }
                falls_in = false;
            }
            Op::Call(f) => {
                let callee = &m.funcs[f as usize];
                let args = lw.args(callee.nparams, callee.has_result);
                lw.emit(lop(CALL, f, args, 0));
            }
            Op::CallHost(h) => {
                let imp = &m.host_funcs[h as usize];
                let args = lw.args(imp.nparams, imp.has_result);
                lw.emit(lop(CALL_HOST, h, args, 0));
            }
            Op::CallIndirect(tid) => {
                let idx = lw.pop();
                let (np, res) = arities.get(&tid).copied().unwrap_or((0, false));
                let args = lw.args(np, res);
                lw.emit(lop(CALL_INDIRECT, tid, args, idx));
                // No function of an unknown type exists: the call can only
                // trap, and nothing after it is reachable.
                if !arities.contains_key(&tid) {
                    lw.emit(lop(UNREACHABLE, 0, 0, 0));
                    falls_in = false;
                }
            }
        }
    }

    let Lowerer {
        mut ops,
        mut tables,
        labels,
        ..
    } = lw;
    for op in ops.iter_mut().filter(|op| is_jump(op.code)) {
        op.c = labels[op.c as usize];
    }
    for t in tables.iter_mut().flat_map(|t| t.iter_mut()) {
        *t = labels[*t as usize];
    }
    rotate_loops(&mut ops, &tables, loop_gap);
    fuse(&mut ops);
    let mut body = Body {
        ops: ops.into(),
        consts: lw.consts.into(),
        tables: tables.into(),
        nparams: func.nparams,
        nlocals: func.nlocals,
        frame_slots: 0,
        type_id: func.type_id,
    };
    // The frame holds the locals and every slot an op names.
    let need = (0..body.ops.len()).try_fold(func.nlocals as u64, |n, pc| {
        Ok::<_, String>(n.max(body.frame_need(pc, m, hosts, arities)?))
    })?;
    body.frame_slots = u32::try_from(need).map_err(|_| "frame size overflows")?;
    Ok(body)
}

/// Move each loop's exit test onto its back-edge, where that keeps every
/// charge exact and the function's certificate true of the code that runs.
///
/// A loop lowers to a head `h: FUEL w; test → exit` whose segment is the
/// test alone (`h + 2` is a `FUEL`), a body, and a latch segment `l: FUEL
/// v; …; BR h` with `exit` right after it. The latch's `BR h` becomes the
/// inverted test, jumping to `h + 2`, and its `FUEL` charges `v + w`: an
/// iteration runs the same ops and pays the same units, with one dispatch
/// fewer, and `h` runs only on entry (and for any other jump to it).
/// Applied only where the latch segment is entered at its `FUEL` alone and
/// `v + w` is within
/// `loop_gap`, the function's certified
/// [`max_loop_gap`](FuncCost::max_loop_gap) (so within its `max_gap`
/// too). A call ends its segment, so a latch never calls the host and its
/// merged charge leaves `max_host_gap` true as well. The certificate is
/// computed on the stack body, and a node admits a module by that
/// certificate alone: a merged charge past it would be a check-free path
/// the certificate does not cover.
fn rotate_loops(ops: &mut [LOp], tables: &[Box<[u32]>], loop_gap: u32) {
    let mut target = vec![false; ops.len() + 1];
    for op in ops.iter().filter(|op| is_jump(op.code)) {
        target[(op.c as usize).min(ops.len())] = true;
    }
    for &t in tables.iter().flat_map(|t| t.iter()) {
        target[(t as usize).min(ops.len())] = true;
    }
    for k in 0..ops.len() {
        let LOp { code: BR, c: h, .. } = ops[k] else {
            continue;
        };
        let h = h as usize;
        let Some(l) = ops[..k].iter().rposition(|op| op.code == FUEL) else {
            continue;
        };
        let (Some(&head), Some(&test), Some(&first)) = (ops.get(h), ops.get(h + 1), ops.get(h + 2))
        else {
            continue;
        };
        let (Some(flip), true) = (inverted(test.code), h + 2 <= l) else {
            continue;
        };
        let fits = head.code == FUEL
            && first.code == FUEL
            && test.c as usize == k + 1
            && !target[l + 1..=k].contains(&true)
            && ops[l].a as u64 + head.a as u64 <= loop_gap as u64;
        if fits {
            ops[l].a += head.a;
            ops[k] = lop(flip, test.a, test.b, h as u32 + 2);
        }
    }
}

/// Give each listed pair `(ops[k], ops[k + 1])` one dispatch, left to
/// right, no op in two pairs: only `ops[k].code` changes, to its pair's
/// fused opcode. Op `k + 1` keeps its place and its opcode, so a jump that
/// lands on it, and a pause after op `k`, run it as a plain op.
fn fuse(ops: &mut [LOp]) {
    let mut k = 0;
    while k + 1 < ops.len() {
        let pair = (ops[k].code, ops[k + 1].code);
        match PAIRS.iter().position(|&p| p == pair) {
            Some(i) => {
                ops[k].code = FUSED + i as u16;
                k += 2;
            }
            None => k += 1,
        }
    }
}

/// Whether `c` of an op with this (unfused) opcode is a jump target.
const fn is_jump(code: u16) -> bool {
    matches!(code, BR..=BR_IFZ | BR_RANGE_RR..=BRZ_RANGE_RI) || code >= BR_RR
}

/// The conditional jump taken exactly when one with opcode `code` is not.
fn inverted(code: u16) -> Option<u16> {
    match code {
        BR_IF => Some(BR_IFZ),
        BR_IFZ => Some(BR_IF),
        BR_RANGE_RR..=BR_RANGE_RI => Some(code + 2),
        BRZ_RANGE_RR..=BRZ_RANGE_RI => Some(code - 2),
        BR_RR..BRZ_RR => Some(code + (BRZ_RR - BR_RR)),
        BRZ_RR..FUSED => Some(code - (BRZ_RR - BR_RR)),
        _ => None,
    }
}

// A fused arm runs its second op unconditionally: no pair starts with a
// jump.
const _: () = {
    let mut i = 0;
    while i < PAIRS.len() {
        assert!(!is_jump(PAIRS[i].0), "a fused pair starts with a jump");
        i += 1;
    }
};

impl Body {
    /// Everything the executor takes on trust from a lowered body: each
    /// opcode is one it knows, each frame slot an op names lies inside the
    /// frame, each jump lands inside the body, each side-table, callee and
    /// import index exists, and control cannot run off the end.
    fn check(
        &self,
        m: &CompiledModule,
        hosts: &[HostSig],
        arities: &ArityMap,
    ) -> Result<(), String> {
        let ends = |op: &LOp| matches!(op.code, UNREACHABLE | BR | BR_TABLE | RETURN | RETURN_VAL);
        if !self.ops.last().is_some_and(ends) {
            return Err("control can run off the end of the body".into());
        }
        for (pc, op) in self.ops.iter().enumerate() {
            if self.frame_need(pc, m, hosts, arities)? > self.frame_slots as u64 {
                return Err(format!(
                    "lowered op {pc} ({op:?}) breaks the frame discipline"
                ));
            }
        }
        Ok(())
    }

    /// How many frame slots op `pc` needs: one past each slot it names, and
    /// past a call's argument block. An error if the executor could not run
    /// it whatever the frame: an opcode it does not know, a fused op without
    /// its partner, a jump out of the body, or a side-table, callee or
    /// import that is not there.
    fn frame_need(
        &self,
        pc: usize,
        m: &CompiledModule,
        hosts: &[HostSig],
        arities: &ArityMap,
    ) -> Result<u64, String> {
        let op = self.ops[pc];
        let LOp { code, a, b, c } = op;
        // A fused op is checked as its first op; the executor runs its
        // successor unchecked, so that must be the pair's second.
        let code = match code.checked_sub(FUSED) {
            None => code,
            Some(i) => match (PAIRS.get(i as usize), self.ops.get(pc + 1)) {
                (Some(&(first, second)), Some(next)) if next.code == second => first,
                _ => return Err(format!("fused op {pc} ({op:?}) lacks its partner")),
            },
        };
        let nops = self.ops.len() as u32;
        // The end of a call's `n` argument slots from `args`, the first of
        // which takes a result.
        let mut end = 0;
        let mut call = |args: Slot, n: u32, has_result: bool| {
            end = args as u64 + n.max(has_result as u32) as u64;
            true
        };
        // (frame slots named, everything else the op indexes is there)
        let (family, member) = match code {
            FAMILIES.. => (code & !127, (code & 127) as usize),
            UN.. => (UN, (code - UN) as usize),
            STORE.. => (STORE, (code - STORE) as usize),
            LOAD.. => (LOAD, (code - LOAD) as usize),
            _ => (code, 0),
        };
        let (slots, ok): (&[Slot], bool) = match family {
            FUEL | UNREACHABLE | BR | RETURN => (&[], true),
            BR_IF | BR_IFZ | RETURN_VAL | MEMORY_SIZE | CONST => (&[a], true),
            BR_TABLE => {
                let table = self.tables.get(b as usize).map(|t| &t[..]);
                let ok = |t: &[u32]| !t.is_empty() && t.iter().all(|&t| t < nops);
                (&[a], table.is_some_and(ok))
            }
            CALL => {
                let callee = m.funcs.get(a as usize);
                (&[], callee.is_some_and(|f| call(b, 0, f.has_result)))
            }
            CALL_HOST => {
                let sig = hosts.get(a as usize);
                (&[], sig.is_some_and(|h| call(b, h.nparams, h.has_result)))
            }
            CALL_INDIRECT => {
                let (n, res) = arities.get(&a).copied().unwrap_or((0, false));
                (&[c], call(b, n, res))
            }
            BR_RANGE_RR | BRZ_RANGE_RR => (&[a, b], true),
            BR_RANGE_RI | BRZ_RANGE_RI => (&[a], true),
            SELECT => (&[a, b, c], true),
            MOV | MEMORY_GROW => (&[a, b], true),
            GLOBAL_GET => (&[a], true),
            GLOBAL_SET => (&[b], true),
            LOAD => (&[a, b], member < LoadKind::ALL.len()),
            STORE => (&[a, b], member < StoreKind::ALL.len()),
            UN => (&[a, b], member < NumUn::ALL.len()),
            BIN_RR => (&[a, b, c], member < NumBin::ALL.len()),
            BIN_RI => (&[a, b], member < NumBin::ALL.len()),
            BIN_RK => {
                let ok = member < NumBin::ALL.len() && (c as usize) < self.consts.len();
                (&[a, b], ok)
            }
            BR_RR | BRZ_RR => (&[a, b], member < NumBin::ALL.len()),
            BR_RI | BRZ_RI => (&[a], member < NumBin::ALL.len()),
            _ => (&[], false),
        };
        if !ok || (is_jump(code) && c >= nops) {
            return Err(format!(
                "lowered op {pc} ({op:?}) breaks the frame discipline"
            ));
        }
        Ok(slots.iter().map(|&s| s as u64 + 1).fold(end, u64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, Instance, NullHost, StepResult, Tier, Value};
    use sledge_guestc::{dsl::*, Expr, FuncBuilder, ModuleBuilder, Scalar, UnOp};
    use sledge_wasm::types::ValType::{F64, I32};
    use std::sync::Arc;

    /// `main(n)`: small loops over f64s, bytes and i64s, rotated and not,
    /// with range tests, whose lowered body holds every pair in `PAIRS`.
    #[rustfmt::skip]
    fn every_pair_guest() -> sledge_wasm::module::Module {
        let mut mb = ModuleBuilder::new("pairs");
        mb.memory(1, Some(1));
        let mut f = FuncBuilder::new(&[I32], Some(I32));
        let n = f.arg(0);
        let (i, j, x, k) = (f.local(I32), f.local(I32), f.local(I32), f.local(I32));
        let acc = f.local(F64);
        let f64_at = |base: Expr| load(Scalar::F64, add(base, i32c(64)), 0);
        let popcnt = |v: Expr| Expr::Un(UnOp::Popcnt, Box::new(v));
        f.extend([
            for_loop(i, i32c(0), lt_s(local(i), i32c(8)), 1, vec![
                store_f64(add(mul(local(i), i32c(8)), i32c(64)), mul(f64c(0.5), i2d(local(i)))),
                store_u8(add(local(i), i32c(256)), mul(local(i), i32c(37))),
            ]),
            // A head the latch cannot take over: it computes its bound.
            set(k, i32c(0)),
            while_(lt_s(local(k), add(local(n), i32c(1))), vec![set(k, add(local(k), i32c(1)))]),
            for_loop(i, i32c(0), lt_s(local(i), local(n)), 1, vec![
                set(x, add(local(x), local(i))),
                set(x, add(mul(local(i), local(j)), local(x))),
                for_loop(j, i32c(0), lt_s(local(j), i32c(3)), 1, vec![
                    set(x, add(mul(local(x), i32c(5)), i32c(1))),
                    set(acc, add(local(acc), mul(f64_at(mul(add(local(i), local(j)), i32c(8))), local(acc)))),
                    set(acc, add(f64_at(add(mul(local(j), i32c(8)), local(i))), local(acc))),
                    set(acc, add(local(acc), i2d(mul(local(i), local(j))))),
                    store_f64(add(mul(add(local(j), i32c(1)), i32c(8)), i32c(128)),
                              add(local(acc), f64_at(mul(local(i), i32c(8))))),
                    set(x, add(local(x), popcnt(xor(local(x), load_u8(add(local(j), i32c(256))))))),
                    set(x, add(add(local(x), local(i)), i32c(4))),
                    set(k, sub(local(x), i32c(3))),
                    if_(and(ge_s(local(k), i32c(0)), lt_s(local(k), local(n))), vec![
                        set(x, add(local(x), i32c(2))),
                    ]),
                    set(k, sub(local(j), i32c(1))),
                    if_(and(ge_s(local(k), i32c(0)), lt_s(local(k), i32c(2))), vec![
                        set(x, xor(local(x), i32c(1))),
                    ]),
                    set(x, add(load(Scalar::U8, local(j), 256), local(i))),
                    set(x, add(mul(local(x), local(j)), i32c(3))),
                    set(x, add(local(x), l2i(load(Scalar::I64, add(local(j), i32c(256)), 0)))),
                    set(acc, mul(local(acc), f64_at(mul(local(j), i32c(8))))),
                    set(k, and(local(x), i32c(56))),
                    set(acc, mul(load(Scalar::F64, local(k), 64), local(acc))),
                    set(acc, add(load(Scalar::F64, local(k), 64), i2d(mul(local(j), i32c(8))))),
                    store_f64(add(local(k), i32c(128)), add(local(acc), local(acc))),
                ]),
            ]),
            ret(Some(add(local(x), d2i(local(acc))))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        mb.build().unwrap()
    }

    /// `main(3)`, `quantum` units per `run`: its result, the fuel it used
    /// and a digest of the memory it left.
    fn run_at(m: &Arc<CompiledModule>, quantum: u64) -> (Option<u64>, u64, u64) {
        let mut inst = Instance::new(Arc::clone(m), EngineConfig::default()).unwrap();
        inst.invoke_export("main", &[Value::I32(3)]).unwrap();
        loop {
            match inst.run(&mut NullHost, quantum) {
                StepResult::Complete(v) => {
                    let mem = inst.memory().read_bytes(0, 65536).unwrap();
                    return (v, inst.fuel_used(), fnv1a(0, mem));
                }
                StepResult::OutOfFuel => continue,
                other => panic!("quantum {quantum}: {other:?}"),
            }
        }
    }

    /// Each fused op runs its successor unchecked, and a pause between the
    /// two resumes at the successor as a plain op: every pair, paused at
    /// every point, must compute what one unpaused run and the reference
    /// interpreter (which runs the Wasm, nothing fused) compute, and burn
    /// the same fuel.
    #[test]
    fn fused_pairs_survive_a_pause_at_every_point() {
        let module = every_pair_guest();
        let m = Arc::new(crate::translate(&module, Tier::Optimized).unwrap());
        let ops = &m.lowered.bodies[0].ops;
        let missing: Vec<_> = (0..PAIRS.len() as u16)
            .filter(|&i| !ops.iter().any(|op| op.code == FUSED + i))
            .collect();
        let names: Vec<String> = ops
            .iter()
            .map(|op| crate::exec::count::name(op.code))
            .collect();
        assert!(missing.is_empty(), "pairs {missing:?} not in {names:#?}");

        let whole = run_at(&m, u64::MAX);
        let mut r = sledge_reference::Machine::new(&module).unwrap();
        let v = r.invoke("main", &[3], &mut sledge_reference::Buffers::default());
        assert_eq!(
            (v, r.fuel(), fnv1a(0, r.memory())),
            (Ok(whole.0), whole.1, whole.2)
        );
        for quantum in 1..=whole.1 {
            assert_eq!(run_at(&m, quantum), whole, "quantum {quantum}");
        }
    }

    /// `main` built by `f`, in a module with one page of memory.
    fn main_of(f: FuncBuilder) -> CompiledModule {
        let mut mb = ModuleBuilder::new("t");
        mb.memory(1, Some(1));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        crate::translate(&mb.build().unwrap(), Tier::Optimized).unwrap()
    }

    /// The lowered body of `m`'s first function, each fused op shown as
    /// its first op.
    fn lowered(m: &CompiledModule) -> Vec<LOp> {
        let ops = m.lowered.bodies[0].ops.iter();
        ops.map(|op| lop(first_of(op.code), op.a, op.b, op.c))
            .collect()
    }

    #[test]
    fn local_local_binop_reads_both_locals_in_place() {
        let mut f = FuncBuilder::new(&[I32, I32], Some(I32));
        let (a, b) = (f.arg(0), f.arg(1));
        f.push(ret(Some(add(local(a), local(b)))));
        let ops = lowered(&main_of(f));
        let code = BIN_RR + NumBin::I32Add as u16;
        assert!(
            ops.iter()
                .any(|op| op.code == code && (op.b, op.c) == (0, 1)),
            "{ops:?}"
        );
        assert!(ops.iter().all(|op| op.code != MOV), "{ops:?}");
    }

    #[test]
    fn loop_counter_increment_writes_the_local_in_place() {
        let mut f = FuncBuilder::new(&[], Some(I32));
        let (i, acc) = (f.local(I32), f.local(I32));
        let sum = set(acc, add(local(acc), local(i)));
        f.extend([
            for_loop(i, i32c(0), lt_s(local(i), i32c(10)), 1, vec![sum]),
            ret(Some(local(acc))),
        ]);
        let ops = lowered(&main_of(f));
        // `i += 1` and `acc = acc + i`: one op each, writing the local.
        let inc = lop(BIN_RI + NumBin::I32Add as u16, 0, 0, 1);
        let sum = lop(BIN_RR + NumBin::I32Add as u16, 1, 1, 0);
        assert!(ops.contains(&inc) && ops.contains(&sum), "{ops:?}");
    }

    #[test]
    fn load_reads_its_address_from_the_local() {
        let mut f = FuncBuilder::new(&[I32], Some(I32));
        let p = f.arg(0);
        f.push(ret(Some(load(Scalar::I32, local(p), 16))));
        let ops = lowered(&main_of(f));
        let code = LOAD + LoadKind::I32 as u16;
        let load = ops.iter().find(|op| op.code == code);
        assert!(load.is_some_and(|op| (op.b, op.c) == (0, 16)), "{ops:?}");
    }

    #[test]
    fn eqz_before_br_if_flips_the_branch() {
        // `while n > 0` exits on `n > 0; i32.eqz; br_if`: the stack body
        // keeps the `eqz`, the lowered body branches on `n > 0` being 0.
        let mut f = FuncBuilder::new(&[I32], Some(I32));
        let n = f.arg(0);
        let body = vec![set(n, sub(local(n), i32c(1)))];
        f.extend([while_(gt_s(local(n), i32c(0)), body), ret(Some(local(n)))]);
        let m = main_of(f);
        let eqz = |op: &Op| matches!(op, Op::Un(NumUn::I32Eqz));
        assert!(m.funcs[0].code.iter().any(eqz));
        let ops = lowered(&m);
        let exit = BRZ_RI + NumBin::I32GtS as u16;
        assert!(
            ops.iter()
                .any(|op| op.code == exit && (op.a, op.b) == (0, 0)),
            "{ops:?}"
        );
        let eqz = UN + NumUn::I32Eqz as u16;
        assert!(ops.iter().all(|op| op.code != eqz), "{ops:?}");
    }

    #[test]
    fn dropped_const_or_local_emits_nothing() {
        let mut f = FuncBuilder::new(&[I32], Some(I32));
        f.push(ret(Some(i32c(1))));
        let plain = lowered(&main_of(f));
        let mut f = FuncBuilder::new(&[I32], Some(I32));
        let x = f.arg(0);
        f.extend([exec(i32c(42)), exec(local(x)), ret(Some(i32c(1)))]);
        let m = main_of(f);
        let drops = m.funcs[0].code.iter().filter(|op| matches!(op, Op::Drop));
        assert_eq!(drops.count(), 2);
        assert_eq!(lowered(&m), plain);
    }

    #[test]
    fn range_test_folds_to_one_branch() {
        let range = |n: Option<i32>| {
            let mut f = FuncBuilder::new(&[I32, I32], Some(I32));
            let (x, arg) = (f.arg(0), f.arg(1));
            let n = n.map_or(local(arg), i32c);
            let test = and(ge_s(local(x), i32c(0)), lt_s(local(x), n));
            f.extend([if_(test, vec![ret(Some(i32c(1)))]), ret(Some(i32c(0)))]);
            lowered(&main_of(f))
        };
        let folded = |ops: &[LOp]| {
            ops.iter()
                .filter(|op| (BR_RANGE_RR..=BRZ_RANGE_RI).contains(&op.code))
                .copied()
                .collect::<Vec<_>>()
        };
        let slot = range(None);
        assert!(
            matches!(
                folded(&slot)[..],
                [LOp {
                    code: BRZ_RANGE_RR,
                    a: 0,
                    b: 1,
                    ..
                }]
            ),
            "{slot:?}"
        );
        let imm = range(Some(-7));
        assert!(
            matches!(
                folded(&imm)[..],
                [LOp {
                    code: BRZ_RANGE_RI,
                    a: 0,
                    b: 0xFFFF_FFF9,
                    ..
                }]
            ),
            "{imm:?}"
        );
        let and = BIN_RR + NumBin::I32And as u16;
        assert!(
            slot.iter()
                .chain(&imm)
                .all(|op| op.code != and && op.code < BR_RR),
            "{slot:?}"
        );
    }

    #[test]
    fn loop_latch_takes_over_the_head_test_within_the_certified_gap() {
        // `main(n)`: `for i < n { acc += i * i }`, and with `heavy` a
        // segment in the loop that outweighs the latch and the head
        // together.
        let build = |heavy: bool| {
            let mut f = FuncBuilder::new(&[I32], Some(I32));
            let n = f.arg(0);
            let (i, acc, x) = (f.local(I32), f.local(I32), f.local(I32));
            let cube = |v: Expr| mul(mul(v.clone(), v.clone()), v);
            let mut body = Vec::new();
            if heavy {
                body.push(set(x, add(cube(local(i)), cube(add(local(x), i32c(1))))));
                body.push(if_(lt_s(local(x), i32c(0)), vec![set(x, i32c(0))]));
            }
            body.push(set(acc, add(local(acc), mul(local(i), local(i)))));
            f.extend([
                for_loop(i, i32c(0), lt_s(local(i), local(n)), 1, body),
                ret(Some(add(local(acc), local(x)))),
            ]);
            let mut mb = ModuleBuilder::new("t");
            let main = mb.add_func("main", f);
            mb.export_func(main, "main");
            crate::translate(&mb.build().unwrap(), Tier::Optimized).unwrap()
        };
        let lt = NumBin::I32LtS as u16;
        let m = build(true);
        let ops = lowered(&m);
        // `h: FUEL w; BRZ_RR (i, n) → exit`, and the latch `l: FUEL v + w; …;
        // BR_RR (i, n) → h + 2` right before `exit`.
        let h = ops
            .iter()
            .position(|op| op.code == BRZ_RR + lt)
            .expect("a head test")
            - 1;
        let k = ops
            .iter()
            .position(|op| op.code == BR_RR + lt)
            .expect("a latch test");
        assert_eq!(
            (ops[h].code, ops[h + 1].c, ops[h + 2].code),
            (FUEL, k as u32 + 1, FUEL),
            "{ops:?}"
        );
        assert_eq!(
            (ops[k].a, ops[k].b, ops[k].c),
            (ops[h + 1].a, ops[h + 1].b, h as u32 + 2)
        );
        assert!(ops.iter().all(|op| op.code != BR), "{ops:?}");
        let l = ops[..k].iter().rposition(|op| op.code == FUEL).unwrap();
        // The lowered body's charges are the stack body's, one to one (past
        // the last, which heads the unreachable `return` after `ret` and
        // lowers to nothing), but the latch's, which also carries the
        // head's.
        let stack: Vec<u32> = m.funcs[0]
            .code
            .iter()
            .filter_map(|op| match op {
                Op::Fuel(w) => Some(*w),
                _ => None,
            })
            .collect();
        let charges: Vec<u32> = ops
            .iter()
            .filter(|op| op.code == FUEL)
            .map(|op| op.a)
            .collect();
        let nth = |pc: usize| ops[..pc].iter().filter(|op| op.code == FUEL).count();
        let (head, latch) = (nth(h), nth(l));
        let mut want = stack[..charges.len()].to_vec();
        want[latch] += stack[head];
        assert_eq!(charges, want, "the latch charges its ops and the head's");
        assert!(ops[l].a <= m.analysis.cost.funcs[0].max_loop_gap);
        // With no heavier segment in the loop, the latch and the head
        // together would outweigh the certified loop gap: the loop keeps
        // its head.
        let m = build(false);
        let kept = lowered(&m);
        let charges: Vec<u32> = m.funcs[0]
            .code
            .iter()
            .filter_map(|op| match op {
                Op::Fuel(w) => Some(*w),
                _ => None,
            })
            .collect();
        let [head, latch, ..] = charges[..] else {
            panic!("charges {charges:?}")
        };
        assert!(head + latch > m.analysis.cost.funcs[0].max_loop_gap);
        assert!(
            kept.iter().any(|op| op.code == BR) && kept.iter().all(|op| op.code != BR_RR + lt),
            "{kept:?}"
        );
    }

    /// The certificate is computed on the stack bodies, and a node admits a
    /// module by it alone: no charge in a shipped guest's lowered bodies, a
    /// rotated latch's included, may outweigh its function's certified gap,
    /// nor one that ends in a back-edge its certified loop gap, nor one that
    /// calls the host its certified host gap.
    #[test]
    fn lowered_charges_stay_within_the_certificate() {
        let apps = sledge_apps::all_apps()
            .into_iter()
            .map(|a| (a.name, (a.module)()));
        let kernels = sledge_apps::polybench::kernels()
            .into_iter()
            .map(|k| (k.name, (k.build)()));
        let mut rotated = 0;
        for (name, module) in apps.chain(kernels) {
            let m = crate::translate(&module, Tier::Optimized).unwrap();
            for (body, fc) in m.lowered.bodies.iter().zip(&m.analysis.cost.funcs) {
                let mut charge = 0;
                for (pc, op) in body.ops.iter().enumerate() {
                    let code = first_of(op.code);
                    if code == FUEL {
                        charge = op.a;
                        assert!(charge <= fc.max_gap, "{name} pc {pc}: {charge} > {fc:?}");
                    }
                    if code == CALL_HOST {
                        assert!(
                            charge <= fc.max_host_gap,
                            "{name} pc {pc}: {charge} > {fc:?}"
                        );
                    }
                    if is_jump(code) && code != BR && op.c as usize <= pc {
                        rotated += 1;
                        assert!(
                            charge <= fc.max_loop_gap,
                            "{name} pc {pc}: {charge} > {fc:?}"
                        );
                    }
                }
            }
        }
        assert!(rotated > 0, "no guest has a conditional back-edge");
    }

    /// FNV-1a 64 of `bytes`, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// What every shipped guest lowers to, pinned: per body its op count
    /// and frame size, per guest a digest of every body's ops, constant
    /// pool and jump tables. A change that moves a body
    /// updates its pin and says why.
    #[test]
    fn shipped_guests_lower_to_pinned_bodies() {
        const PINNED: &[&str] = &[
            "ping [(10, 2)] d9e8f1594952f254",
            "echo [(38, 7)] 3317cbd34fd36497",
            "gps_ekf [(38, 17), (38, 17), (133, 12), (297, 13)] 1f2f702084a66150",
            "gocr [(79, 17)] 3f7380c0b5cc29c0",
            "cifar10 [(81, 20), (81, 16), (57, 15), (87, 13)] 9255d1207503fcca",
            "resize [(87, 16)] c9986458176e015a",
            "lpd [(335, 19)] 50061c1d8e734a3c",
            "correlation [(266, 10)] 6841d92162c28f65",
            "covariance [(178, 9)] 8c1bcb9a19435c5b",
            "adi [(360, 10)] e7933eab5c5b7250",
            "gramschmidt [(197, 10)] f32d89ddcf6bbe11",
            "deriche [(172, 15)] 9ab2554322bc12bb",
            "trmm [(117, 9)] df05d8b7ef59c894",
            "seidel-2d [(140, 9)] 5e9a3828eb06ab29",
            "mvt [(149, 8)] 9fc70993d9d4d1f3",
            "symm [(160, 10)] 333568c724c54d10",
            "ludcmp [(244, 11)] 41fe186e38df0fd6",
            "syr2k [(147, 10)] bb782cce551b9168",
            "lu [(182, 10)] 7d705cd57af5bf96",
            "trisolv [(100, 8)] 8037cc8b55955779",
            "nussinov [(143, 12)] 03b48c8ac9cfaab8",
            "doitgen [(159, 10)] 863b4359163b6e0b",
            "2mm [(178, 10)] 4610d10bb23e34ad",
            "gesummv [(135, 8)] 3a4338c5c8528064",
            "bicg [(123, 8)] 119e073256c148c0",
            "gemver [(233, 9)] f785fab453505aad",
            "cholesky [(187, 10)] 94095c4f20ff45f3",
            "3mm [(196, 9)] 359511dfcc511d0f",
            "atax [(114, 9)] 7133e7c35d70a34d",
            "syrk [(123, 9)] 92b8473fa12cc928",
            "floyd-warshall [(110, 10)] 04cb5788f1e35548",
            "durbin [(117, 11)] 9dd37f47e3327aa3",
            "heat-3d [(330, 12)] 9cc667584e8193c7",
            "fdtd-2d [(225, 11)] fc2f342530cb9273",
            "jacobi-2d [(170, 10)] 572ff49f5c345cfc",
            "jacobi-1d [(92, 8)] bf8542e9185748af",
            "gemm [(130, 9)] 8a164814cd428aa1",
        ];
        let apps = sledge_apps::all_apps()
            .into_iter()
            .map(|a| (a.name, (a.module)()));
        let kernels = sledge_apps::polybench::kernels()
            .into_iter()
            .map(|k| (k.name, (k.build)()));
        let got: Vec<String> = apps
            .chain(kernels)
            .map(|(name, module)| {
                let m = crate::translate(&module, Tier::Optimized).unwrap();
                let mut h = 0xcbf2_9ce4_8422_2325;
                let mut shape = Vec::new();
                for b in m.lowered.bodies.iter() {
                    h = fnv1a(h, &(b.ops.len() as u32).to_le_bytes());
                    for op in b.ops.iter() {
                        h = fnv1a(h, &op.code.to_le_bytes());
                        for w in [op.a, op.b, op.c] {
                            h = fnv1a(h, &w.to_le_bytes());
                        }
                    }
                    h = fnv1a(h, &(b.consts.len() as u32).to_le_bytes());
                    for k in b.consts.iter() {
                        h = fnv1a(h, &k.to_le_bytes());
                    }
                    for t in b.tables.iter() {
                        h = fnv1a(h, &(t.len() as u32).to_le_bytes());
                        for e in t.iter() {
                            h = fnv1a(h, &e.to_le_bytes());
                        }
                    }
                    shape.push((b.ops.len(), b.frame_slots));
                }
                format!("{name} {shape:?} {h:016x}")
            })
            .collect();
        for row in &got {
            println!("{row:?},");
        }
        assert_eq!(got, PINNED);
    }

    #[test]
    #[rustfmt::skip]
    fn check_rejects_what_the_executor_could_not_survive() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = FuncBuilder::new(&[sledge_wasm::types::ValType::I32], None);
        let x = f.arg(0);
        f.push(set(x, add(local(x), i32c(1))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let m = crate::translate(&mb.build().unwrap(), crate::Tier::Optimized).unwrap();

        let arities = crate::analysis::stack::arity_map(&m);
        let lowered = &m.lowered;
        let good = &lowered.bodies[0];
        good.check(&m, &lowered.hosts, &arities).unwrap();
        let edits: [fn(&mut Vec<LOp>); 8] = [
            |ops| ops[1].a = 1 << 20,                        // slot outside the frame
            |ops| ops.insert(1, lop(BR_RANGE_RR, 0, 1 << 20, 0)), // range bound outside it
            |ops| ops.insert(1, lop(BRZ_RANGE_RI, 1 << 20, 7, 0)), // range operand outside it
            |ops| ops.insert(1, lop(BR, 0, 0, 99)),          // jump outside the body
            |ops| ops.insert(1, lop(BIN_RR + 127, 0, 0, 0)), // no such opcode
            |ops| ops.truncate(ops.len() - 1),               // runs off the end
            |ops| ops.insert(ops.len() - 1, lop(FUSED, 0, 0, 0)), // not before its partner
            |ops| ops.push(lop(FUSED, 0, 0, 0)),             // fused, and last
        ];
        for edit in edits {
            let mut ops = good.ops.to_vec();
            edit(&mut ops);
            let (consts, tables) = Default::default();
            let bad = Body { ops: ops.into(), consts, tables, ..*good };
            assert!(bad.check(&m, &lowered.hosts, &arities).is_err());
        }
    }
}
