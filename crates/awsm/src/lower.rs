//! Lowering: certified stack bodies → the register form the executor runs
//! (DESIGN.md §3 has the long version).
//!
//! A function's stack body ([`CompiledFunc::code`]) is what the analyses
//! certify and the artifact ships; it is never executed. This pass derives
//! from it, once per module, a three-address body over one *frame*:
//! `[params | locals | operand slots]`. Operand heights are static, so the
//! value at stack height `h` lives in slot `nlocals + h` — once it is
//! *materialised*. Until then the pass tracks it as a [`Desc`]: `local.get`
//! and `const` emit nothing and are read in place (or as an immediate) by
//! the op that pops them, and `local.set` re-targets the op that produced
//! its value. A pending `Local(i)` is spilled before `i` is overwritten;
//! every entry is materialised at a branch (all paths into a label agree)
//! and, for arguments, before a call — the callee's frame starts at the
//! caller's first argument slot, so a call copies nothing.
//!
//! [`Op::Fuel`] is carried one-to-one at the same segment heads, and every
//! lowered op records the summed [`op_cost`] of the stack ops folded into it
//! (what the naive tier charges), so both accountings are unchanged.
//!
//! The executor indexes the frame without bounds checks. What it relies on
//! is re-checked here, on the output, by [`Body::check`]: a body that fails
//! it is never built, whatever the input was.

use crate::analysis::cost::{for_each_target, op_cost};
use crate::analysis::stack::{self, ArityMap};
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
    /// Opcodes from here up are `family + member`, families 128 apart.
    pub(crate) const FAMILIES: u16 = BIN_RR;
}
use opc::*;

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
    /// Per-op fuel weight, parallel to `ops` (charged by the naive tier).
    pub costs: Box<[u8]>,
    pub consts: Box<[u64]>,
    pub tables: Box<[Box<[u32]>]>,
    pub nparams: u32,
    pub nlocals: u32,
    /// `nlocals` + the body's maximum operand height.
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

/// A module's executable form: built once at the end of analysis (or of
/// artifact decode), never serialized. The empty default is what a module
/// holds only while it is being built.
#[derive(Debug, Default)]
pub(crate) struct Lowered {
    pub bodies: Box<[Body]>,
    pub hosts: Box<[HostSig]>,
}

/// Lower every function of `m`.
///
/// # Errors
///
/// Returns the first reason a body cannot be run safely (see
/// [`stack::heights`]), naming the function. Translator output never fails.
pub(crate) fn lower_module(m: &CompiledModule, arities: &ArityMap) -> Result<Lowered, String> {
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
        let body = lower_func(m, func, arities).map_err(named)?;
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
    costs: Vec<u8>,
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

    fn emit(&mut self, op: LOp, cost: u32) {
        self.ops.push(op);
        // The heaviest op weighs 64 and a fused pair at most 7.
        self.costs.push(cost as u8);
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
            Desc::Local(src) => self.emit(lop(MOV, dst, src, 0), 0),
            Desc::Const(v) => self.emit(lop(CONST, dst, v as u32, (v >> 32) as u32), 0),
            Desc::Slot if self.slot(pos) == dst => {}
            Desc::Slot => self.emit(lop(MOV, dst, self.slot(pos), 0), 0),
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

    /// Pop the top entry into local `l`. If the op just emitted produced it,
    /// that op writes `l` directly instead. Returns where the value can be
    /// read from afterwards (for `local.tee`).
    fn pop_into(&mut self, l: u32) -> Desc {
        let (d, pos) = self.pop_desc();
        self.spill(l);
        if d == Desc::Slot && self.ops.len() > self.barrier {
            let last = self.ops.last_mut().expect("past the barrier");
            let writes_a = matches!(last.code, MOV..=GLOBAL_GET | MEMORY_SIZE..=MEMORY_GROW)
                || (LOAD..STORE).contains(&last.code)
                || (UN..BR_RR).contains(&last.code);
            if writes_a && last.a == self.nlocals + pos as u32 {
                last.a = l;
                return Desc::Local(l);
            }
        }
        self.write(l, d, pos);
        d
    }

    /// Push the result of op `code` (second operand `b`).
    fn nullary(&mut self, code: u16, b: u32, cost: u32) {
        let dst = self.push();
        self.emit(lop(code, dst, b, 0), cost);
    }

    /// Pop one operand and push the result of op `code` (third operand `c`).
    fn un(&mut self, code: u16, c: u32, cost: u32) {
        let src = self.pop();
        let dst = self.push();
        self.emit(lop(code, dst, src, c), cost);
    }

    /// Pop two operands and push `op` of them; a constant right operand
    /// becomes an immediate (or a pool entry, if too wide for one).
    fn bin(&mut self, op: NumBin, cost: u32) {
        let (y, ypos) = self.pop_desc();
        let a = self.pop();
        let dst = self.push();
        let op = op as u16;
        let Desc::Const(c) = y else {
            let y = self.resolve(y, ypos);
            return self.emit(lop(BIN_RR + op, dst, a, y), cost);
        };
        if let Ok(imm) = u32::try_from(c) {
            return self.emit(lop(BIN_RI + op, dst, a, imm), cost);
        }
        let known = self.consts.iter().position(|&v| v == c);
        let k = known.unwrap_or_else(|| {
            self.consts.push(c);
            self.consts.len() - 1
        });
        self.emit(lop(BIN_RK + op, dst, a, k as u32), cost);
    }

    /// Pop a branch condition and emit the conditional jump to `label`,
    /// taken when the condition is zero iff `zero`. A binary op that
    /// produced the condition as the last emitted op is fused in.
    fn cond_branch(&mut self, zero: bool, label: u32, cost: u32) {
        let (d, pos) = self.pop_desc();
        let producer = match self.ops.last() {
            Some(p)
                if d == Desc::Slot && p.a == self.slot(pos) && self.ops.len() > self.barrier =>
            {
                (BIN_RR..BIN_RK).contains(&p.code).then_some(*p)
            }
            _ => None,
        };
        let Some(p) = producer else {
            let cond = self.resolve(d, pos);
            // What a taken branch leaves on the stack must be in its slot.
            self.materialise(0);
            let code = if zero { BR_IFZ } else { BR_IF };
            return self.emit(lop(code, cond, 0, label), cost);
        };
        self.ops.pop();
        let paid = self.costs.pop().expect("parallel to ops") as u32;
        // These moves touch no operand of the fused op.
        self.materialise(0);
        let family = if zero { BRZ_RR } else { BR_RR };
        self.emit(lop(p.code - BIN_RR + family, p.b, p.c, label), cost + paid);
    }

    /// Whether a branch to `b` taken with `len` entries on the stack (the
    /// top one kept, if any is) must move the kept value down to the
    /// target's height.
    fn needs_move(&self, b: &Branch, len: usize) -> bool {
        b.keep && len as u32 != b.height + 1
    }

    /// `Mov` the kept value (top of stack) to `b`'s height and jump there.
    fn move_and_jump(&mut self, b: &Branch, cost: u32) {
        let src = self.slot(self.stack.len() - 1);
        self.emit(lop(MOV, self.nlocals + b.height, src, 0), 0);
        self.emit(lop(BR, 0, 0, b.target), cost);
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

fn lower_func(m: &CompiledModule, func: &CompiledFunc, arities: &ArityMap) -> Result<Body, String> {
    let code = &func.code;
    let heights = stack::heights(m, func, arities)?;
    let max_height = heights.iter().flatten().max().copied().unwrap_or(0);
    let frame_slots = func.nlocals.checked_add(max_height);
    let frame_slots = frame_slots.ok_or("frame size overflows")?;
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
        costs: Vec::with_capacity(code.len()),
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
        let cost = op_cost(op);

        // The translator's six fusions are the general case here: unfold
        // each into the pushes it folded away. The two that also set a
        // local spill its pending readers first, so that their result is
        // always re-targeted to the local and never needs a slot above the
        // certified operand height.
        match *op {
            Op::Bin2L(_, x, y) => lw.stack.extend([Desc::Local(x), Desc::Local(y)]),
            Op::Bin2LS(_, x, y, d) => {
                lw.spill(d);
                lw.stack.extend([Desc::Local(x), Desc::Local(y)]);
            }
            Op::IncI32(l, delta) => {
                lw.spill(l);
                let delta = Desc::Const(delta as u32 as u64);
                lw.stack.extend([Desc::Local(l), delta]);
            }
            Op::BinRL(_, l) | Op::LoadL(_, l, _) => lw.stack.push(Desc::Local(l)),
            Op::BinRC(_, c) => lw.stack.push(Desc::Const(c)),
            _ => {}
        }
        match *op {
            Op::Fuel(n) => lw.emit(lop(FUEL, n, 0, 0), cost),
            Op::Unreachable => {
                lw.emit(lop(UNREACHABLE, 0, 0, 0), cost);
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
                lw.emit(lop(SELECT, lw.slot(pos), b, cond), cost);
            }
            Op::GlobalGet(g) => lw.nullary(GLOBAL_GET, g, cost),
            Op::MemorySize => lw.nullary(MEMORY_SIZE, 0, cost),
            Op::GlobalSet(g) => {
                let src = lw.pop();
                lw.emit(lop(GLOBAL_SET, g, src, 0), cost);
            }
            Op::Store(kind, off) => {
                let val = lw.pop();
                let addr = lw.pop();
                lw.emit(lop(STORE + kind as u16, addr, val, off), cost);
            }
            Op::Load(kind, off) | Op::LoadL(kind, _, off) => lw.un(LOAD + kind as u16, off, cost),
            Op::MemoryGrow => lw.un(MEMORY_GROW, 0, cost),
            Op::Un(u) => lw.un(UN + u as u16, 0, cost),
            Op::Bin(b) | Op::Bin2L(b, ..) | Op::BinRL(b, _) | Op::BinRC(b, _) => lw.bin(b, cost),
            Op::Bin2LS(b, _, _, d) => {
                lw.bin(b, cost);
                lw.pop_into(d);
            }
            Op::IncI32(l, _) => {
                lw.bin(NumBin::I32Add, cost);
                lw.pop_into(l);
            }
            Op::Br(b) => {
                lw.materialise(0);
                if lw.needs_move(&b, lw.stack.len()) {
                    lw.move_and_jump(&b, cost);
                } else {
                    lw.emit(lop(BR, 0, 0, b.target), cost);
                }
                falls_in = false;
            }
            Op::BrIf(b) | Op::BrIfZ(b) => {
                let zero = matches!(op, Op::BrIfZ(_));
                if lw.needs_move(&b, lw.stack.len() - 1) {
                    // The taken path moves the kept value: jump around a
                    // trampoline on the opposite condition.
                    let skip = lw.new_label();
                    lw.cond_branch(!zero, skip, cost);
                    lw.move_and_jump(&b, 0);
                    lw.place(skip);
                } else {
                    lw.cond_branch(zero, b.target, cost);
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
                lw.emit(lop(BR_TABLE, idx, lw.tables.len() as u32, 0), cost);
                lw.tables.push(entries.into());
                for (l, b) in trampolines {
                    lw.place(l);
                    lw.move_and_jump(&b, 0);
                }
                falls_in = false;
            }
            Op::Return => {
                if func.has_result {
                    let src = lw.pop();
                    lw.emit(lop(RETURN_VAL, src, 0, 0), cost);
                } else {
                    lw.emit(lop(RETURN, 0, 0, 0), cost);
                }
                falls_in = false;
            }
            Op::Call(f) => {
                let callee = &m.funcs[f as usize];
                let args = lw.args(callee.nparams, callee.has_result);
                lw.emit(lop(CALL, f, args, 0), cost);
            }
            Op::CallHost(h) => {
                let imp = &m.host_funcs[h as usize];
                let args = lw.args(imp.nparams, imp.has_result);
                lw.emit(lop(CALL_HOST, h, args, 0), cost);
            }
            Op::CallIndirect(tid) => {
                let idx = lw.pop();
                let (np, res) = arities.get(&tid).copied().unwrap_or((0, false));
                let args = lw.args(np, res);
                lw.emit(lop(CALL_INDIRECT, tid, args, idx), cost);
                // No function of an unknown type exists: the call can only
                // trap, and nothing after it is reachable.
                if !arities.contains_key(&tid) {
                    lw.emit(lop(UNREACHABLE, 0, 0, 0), 0);
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
    Ok(Body {
        ops: ops.into(),
        costs: lw.costs.into(),
        consts: lw.consts.into(),
        tables: tables.into(),
        nparams: func.nparams,
        nlocals: func.nlocals,
        frame_slots,
        type_id: func.type_id,
    })
}

/// Whether `c` of an op with this opcode is a jump target.
fn is_jump(code: u16) -> bool {
    matches!(code, BR..=BR_IFZ) || code >= BR_RR
}

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
        if self.costs.len() != self.ops.len() {
            return Err("cost table does not match the body".into());
        }
        let ends = |op: &LOp| matches!(op.code, UNREACHABLE | BR | BR_TABLE | RETURN | RETURN_VAL);
        if !self.ops.last().is_some_and(ends) {
            return Err("control can run off the end of the body".into());
        }
        let nops = self.ops.len() as u32;
        // `n` argument slots from `args`, the first of which takes a result.
        let call = |args: Slot, n: u32, has_result: bool| {
            args.checked_add(n.max(has_result as u32))
                .is_some_and(|end| end <= self.frame_slots)
        };
        for (pc, op) in self.ops.iter().enumerate() {
            let LOp { code, a, b, c, .. } = *op;
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
            if !ok || slots.iter().any(|&s| s >= self.frame_slots) || (is_jump(code) && c >= nops) {
                return Err(format!(
                    "lowered op {pc} ({op:?}) breaks the frame discipline"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sledge_guestc::{dsl::*, FuncBuilder, ModuleBuilder};

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

        let arities = stack::arity_map(&m);
        let lowered = lower_module(&m, &arities).unwrap();
        let good = &lowered.bodies[0];
        good.check(&m, &lowered.hosts, &arities).unwrap();
        let edits: [fn(&mut Vec<LOp>); 4] = [
            |ops| ops[1].a = 1 << 20,                        // slot outside the frame
            |ops| ops.insert(1, lop(BR, 0, 0, 99)),          // jump outside the body
            |ops| ops.insert(1, lop(BIN_RR + 127, 0, 0, 0)), // no such opcode
            |ops| ops.truncate(ops.len() - 1),               // runs off the end
        ];
        for edit in edits {
            let mut ops = good.ops.to_vec();
            edit(&mut ops);
            let costs = vec![0; ops.len()].into();
            let (consts, tables) = Default::default();
            let bad = Body { ops: ops.into(), costs, consts, tables, ..*good };
            assert!(bad.check(&m, &lowered.hosts, &arities).is_err());
        }
    }
}
