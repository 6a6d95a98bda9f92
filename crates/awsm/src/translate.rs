//! Ahead-of-time translation: validated Wasm modules → the flat, resolved
//! code of [`CompiledModule`].
//!
//! This is the paper's "heavyweight linking and loading" stage: it runs once
//! per module, resolves all structured control flow to direct jumps and
//! pre-resolves imports, types, and the function table. It emits one [`Op`]
//! per Wasm instruction it keeps and folds nothing: operands fold in one
//! place, the lowering to register form (`lower.rs`). The result is
//! immutable and shared by every sandbox of the function.

use crate::code::{
    BrTablePayload, Branch, CompiledFunc, CompiledModule, HostImport, LoadKind, MemorySpec, NumBin,
    NumUn, Op, StoreKind,
};
use sledge_wasm::instr::Instr;
use sledge_wasm::module::{ConstExpr, ImportKind, Module};
use sledge_wasm::types::FuncType;
use sledge_wasm::ValidateError;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The execution tier. There is one: the one executor runs every lowered
/// body (see DESIGN.md §3). The type stays, as `BoundsStrategy` did,
/// because the benchmark harness (`benchmark/src`) names `Tier::Optimized`,
/// `RuntimeConfig::tier`, [`EngineConfig::tier`](crate::EngineConfig::tier)
/// and [`translate_with`]'s parameter. Nothing branches on any of them;
/// they go with the harness half of ROADMAP 36(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Fused pairs in one dispatch, fuel charged only at the cost pass's
    /// `Fuel` sites. Stands in for the LLVM-class engines (aWsm, WAVM).
    #[default]
    Optimized,
}

/// The most entries a module's table may declare. The table is allocated
/// whole at translation, so a declared size is refused before it becomes a
/// multi-gigabyte allocation.
const MAX_TABLE_ENTRIES: u32 = 1 << 20;

/// Error produced by [`translate`].
#[derive(Debug)]
pub enum TranslateError {
    /// The module failed validation.
    Validate(ValidateError),
    /// The module uses a feature this engine does not support (imported
    /// memories/tables/globals).
    Unsupported(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Validate(e) => write!(f, "{e}"),
            TranslateError::Unsupported(s) => write!(f, "unsupported module feature: {s}"),
        }
    }
}

impl Error for TranslateError {}

impl From<ValidateError> for TranslateError {
    fn from(e: ValidateError) -> Self {
        TranslateError::Validate(e)
    }
}

/// Options controlling translate-time analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslateOptions {
    /// Preemption-latency budget in cost units: the cost analysis inserts
    /// extra budget checks so no check-free path exceeds this (up to the
    /// weight of a single heaviest op). See
    /// [`DEFAULT_MAX_CHECK_GAP`](crate::analysis::cost::DEFAULT_MAX_CHECK_GAP).
    pub max_check_gap: u32,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            max_check_gap: crate::analysis::cost::DEFAULT_MAX_CHECK_GAP,
        }
    }
}

/// Translate a module with default [`TranslateOptions`]. Validates first.
/// The tier is ignored (there is one).
///
/// # Errors
///
/// Returns [`TranslateError::Validate`] for invalid modules and
/// [`TranslateError::Unsupported`] for imported memories, tables, globals,
/// or global-relative segment offsets.
pub fn translate(m: &Module, tier: Tier) -> Result<CompiledModule, TranslateError> {
    translate_with(m, tier, TranslateOptions::default())
}

/// [`translate`] with explicit analysis options (the tier is ignored
/// here too).
///
/// # Errors
///
/// Same as [`translate`].
pub fn translate_with(
    m: &Module,
    _tier: Tier,
    opts: TranslateOptions,
) -> Result<CompiledModule, TranslateError> {
    sledge_wasm::validate::validate_module(m)?;

    // Start functions would have to run inside `Instance::new`, which is the
    // runtime's µs-level, non-preemptible path; guests initialize through
    // data segments or their exported entry instead.
    if m.start.is_some() {
        return Err(TranslateError::Unsupported(
            "start function (initialize via data segments or the exported entry)".into(),
        ));
    }

    // Canonical type ids: equal signatures share an id, so indirect-call
    // checks are a single integer compare.
    let mut canon: Vec<FuncType> = Vec::new();
    let mut type_canon: Vec<u32> = Vec::with_capacity(m.types.len());
    for t in &m.types {
        let id = match canon.iter().position(|c| c == t) {
            Some(i) => i as u32,
            None => {
                canon.push(t.clone());
                (canon.len() - 1) as u32
            }
        };
        type_canon.push(id);
    }

    let mut host_funcs = Vec::new();
    for imp in &m.imports {
        match &imp.kind {
            ImportKind::Func(t) => {
                let ty = &m.types[*t as usize];
                host_funcs.push(HostImport {
                    module: imp.module.clone(),
                    name: imp.name.clone(),
                    nparams: ty.params.len() as u32,
                    has_result: !ty.results.is_empty(),
                    type_id: type_canon[*t as usize],
                });
            }
            other => {
                return Err(TranslateError::Unsupported(format!(
                    "import {}.{} of kind {other:?}",
                    imp.module, imp.name
                )))
            }
        }
    }

    let memory = m.memory().map(|mt| MemorySpec {
        min_pages: mt.limits.min,
        max_pages: mt.limits.max.unwrap_or(65536),
    });

    let mut globals = Vec::with_capacity(m.globals.len());
    for g in &m.globals {
        let v = match g.init {
            ConstExpr::I32(v) => v as u32 as u64,
            ConstExpr::I64(v) => v as u64,
            ConstExpr::F32(v) => v.to_bits() as u64,
            ConstExpr::F64(v) => v.to_bits(),
            ConstExpr::GlobalGet(_) => {
                return Err(TranslateError::Unsupported(
                    "global initialized from imported global".into(),
                ))
            }
        };
        globals.push(v);
    }

    let mut data = Vec::with_capacity(m.data.len());
    for d in &m.data {
        let off = match d.offset {
            ConstExpr::I32(v) => v as u32,
            _ => {
                return Err(TranslateError::Unsupported(
                    "non-constant data segment offset".into(),
                ))
            }
        };
        data.push((off, Arc::from(d.bytes.as_slice())));
    }

    let mut table: Vec<Option<u32>> = match m.table() {
        Some(t) if t.limits.min > MAX_TABLE_ENTRIES => {
            return Err(TranslateError::Unsupported(format!(
                "table of {} entries (at most {MAX_TABLE_ENTRIES})",
                t.limits.min
            )))
        }
        Some(t) => vec![None; t.limits.min as usize],
        None => Vec::new(),
    };
    for e in &m.elements {
        let off = match e.offset {
            ConstExpr::I32(v) => v as usize,
            _ => {
                return Err(TranslateError::Unsupported(
                    "non-constant element segment offset".into(),
                ))
            }
        };
        if off + e.funcs.len() > table.len() {
            return Err(TranslateError::Unsupported(
                "element segment exceeds table size".into(),
            ));
        }
        for (i, f) in e.funcs.iter().enumerate() {
            table[off + i] = Some(*f);
        }
    }

    let mut exports = HashMap::new();
    for e in &m.exports {
        if let sledge_wasm::module::ExportKind::Func(i) = e.kind {
            exports.insert(e.name.clone(), i);
        }
    }

    let num_imports = host_funcs.len() as u32;
    let mut funcs = Vec::with_capacity(m.functions.len());
    for (i, (ty_idx, body)) in m.functions.iter().zip(&m.code).enumerate() {
        let ty = &m.types[*ty_idx as usize];
        let func_idx = num_imports + i as u32;
        let name = m.exports.iter().find_map(|e| match e.kind {
            sledge_wasm::module::ExportKind::Func(f) if f == func_idx => Some(e.name.clone()),
            _ => None,
        });
        let mut tr = FnTranslator::new(m, &type_canon, num_imports);
        let code = tr.translate_body(ty, body);
        funcs.push(CompiledFunc {
            code,
            nparams: ty.params.len() as u32,
            nlocals: (ty.params.len() + body.locals.len()) as u32,
            has_result: !ty.results.is_empty(),
            type_id: type_canon[*ty_idx as usize],
            name,
        });
    }

    let template = crate::memory::MemoryTemplate::build(&data);
    let mut module = CompiledModule {
        funcs,
        host_funcs,
        globals,
        memory,
        data,
        template,
        table,
        exports,
        start: m.start,
        name: m.name.clone(),
        analysis: crate::analysis::AnalysisReport::pending(),
        lowered: Default::default(),
        wasm: sledge_wasm::encode::encode_module(m).into(),
    };
    // Static analysis runs once here, at load time: stack-bound
    // verification, lints, the effect certificate, the cost-model
    // instrumentation that certifies the preemption-latency gap, and last
    // the lowering of the certified bodies to the form that runs.
    crate::analysis::analyze(&mut module, opts.max_check_gap)
        .expect("translator emitted a verifiable module");
    Ok(module)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Block,
    Loop,
    If,
}

#[derive(Debug)]
enum Fixup {
    /// `ops[i]` is a Br/BrIf/BrIfZ whose `target` awaits this frame's end.
    Br(usize),
    /// `ops[i]`'s br_table entry `j` awaits this frame's end.
    TableEntry(usize, usize),
    /// `ops[i]`'s br_table default awaits this frame's end.
    TableDefault(usize),
}

#[derive(Debug)]
struct Ctrl {
    kind: CtrlKind,
    /// Operand-stack height at frame entry (after popping the `if` condition).
    height: u32,
    has_result: bool,
    fixups: Vec<Fixup>,
    /// Loop head position.
    head: u32,
    /// Index of the `BrIfZ` emitted at `if` open, awaiting else/end.
    else_fixup: Option<usize>,
    /// The rest of this frame is statically unreachable.
    unreachable: bool,
    /// Frame opened inside unreachable code: nothing is emitted for it.
    skipped: bool,
}

struct FnTranslator<'m> {
    module: &'m Module,
    type_canon: &'m [u32],
    num_imports: u32,
    ops: Vec<Op>,
    ctrl: Vec<Ctrl>,
    height: u32,
}

impl<'m> FnTranslator<'m> {
    fn new(module: &'m Module, type_canon: &'m [u32], num_imports: u32) -> Self {
        FnTranslator {
            module,
            type_canon,
            num_imports,
            ops: Vec::new(),
            ctrl: Vec::new(),
            height: 0,
        }
    }

    fn unreachable_now(&self) -> bool {
        self.ctrl.last().is_some_and(|c| c.unreachable)
    }

    fn branch_for(&self, depth: u32) -> (Branch, bool) {
        // Returns the branch descriptor and whether the target is a loop
        // head (already resolved) — otherwise the target needs a fixup.
        let idx = self.ctrl.len() - 1 - depth as usize;
        let c = &self.ctrl[idx];
        match c.kind {
            CtrlKind::Loop => (
                Branch {
                    target: c.head,
                    height: c.height,
                    keep: false,
                },
                true,
            ),
            _ => (
                Branch {
                    target: u32::MAX, // patched at End
                    height: c.height,
                    keep: c.has_result,
                },
                false,
            ),
        }
    }

    fn ctrl_index(&self, depth: u32) -> usize {
        self.ctrl.len() - 1 - depth as usize
    }

    fn func_type_of(&self, f: u32) -> &FuncType {
        self.module.func_type(f).expect("validated")
    }

    fn patch(&mut self, fixups: Vec<Fixup>, target: u32) {
        for f in fixups {
            match f {
                Fixup::Br(i) => match &mut self.ops[i] {
                    Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => b.target = target,
                    other => unreachable!("fixup on non-branch {other:?}"),
                },
                Fixup::TableEntry(i, j) => match &mut self.ops[i] {
                    Op::BrTable(p) => p.targets[j].target = target,
                    other => unreachable!("fixup on non-table {other:?}"),
                },
                Fixup::TableDefault(i) => match &mut self.ops[i] {
                    Op::BrTable(p) => p.default.target = target,
                    other => unreachable!("fixup on non-table {other:?}"),
                },
            }
        }
    }

    fn translate_body(&mut self, ty: &FuncType, body: &sledge_wasm::module::FuncBody) -> Vec<Op> {
        // The function body is an implicit outermost frame; branching to it
        // returns from the function.
        self.ctrl.push(Ctrl {
            kind: CtrlKind::Block,
            height: 0,
            has_result: !ty.results.is_empty(),
            fixups: Vec::new(),
            head: 0,
            else_fixup: None,
            unreachable: false,
            skipped: false,
        });

        for ins in &body.instrs {
            self.step(ins);
            if self.ctrl.is_empty() {
                break; // function-level End processed
            }
        }
        debug_assert!(self.ctrl.is_empty(), "unbalanced control in validated body");
        std::mem::take(&mut self.ops)
    }

    fn step(&mut self, ins: &Instr) {
        use Instr::*;

        // Skip statically unreachable code, but keep frame structure.
        if self.unreachable_now() {
            match ins {
                Block(_) | Loop(_) | If(_) => {
                    self.ctrl.push(Ctrl {
                        kind: CtrlKind::Block,
                        height: self.height,
                        has_result: false,
                        fixups: Vec::new(),
                        head: 0,
                        else_fixup: None,
                        unreachable: true,
                        skipped: true,
                    });
                    return;
                }
                Else => {
                    let c = self.ctrl.last_mut().expect("in frame");
                    if c.skipped {
                        return; // else of a skipped if: stay skipped
                    }
                    // Real `if` whose then-arm ended unreachable: the else
                    // arm is reachable via the BrIfZ.
                    self.begin_else();
                    return;
                }
                End => {
                    let c = self.ctrl.last().expect("in frame");
                    if c.skipped {
                        self.ctrl.pop();
                        return;
                    }
                    self.end_frame();
                    return;
                }
                _ => return, // dead code: emit nothing
            }
        }

        match ins {
            Unreachable => {
                self.ops.push(Op::Unreachable);
                self.mark_unreachable();
            }
            Nop => {}
            Block(bt) => {
                self.ctrl.push(Ctrl {
                    kind: CtrlKind::Block,
                    height: self.height,
                    has_result: bt.result().is_some(),
                    fixups: Vec::new(),
                    head: 0,
                    else_fixup: None,
                    unreachable: false,
                    skipped: false,
                });
            }
            Loop(bt) => {
                self.ctrl.push(Ctrl {
                    kind: CtrlKind::Loop,
                    height: self.height,
                    has_result: bt.result().is_some(),
                    fixups: Vec::new(),
                    head: self.ops.len() as u32,
                    else_fixup: None,
                    unreachable: false,
                    skipped: false,
                });
            }
            If(bt) => {
                self.height -= 1; // condition
                let br = Branch {
                    target: u32::MAX,
                    height: self.height,
                    keep: false,
                };
                self.ops.push(Op::BrIfZ(br));
                let pos = self.ops.len() - 1;
                self.ctrl.push(Ctrl {
                    kind: CtrlKind::If,
                    height: self.height,
                    has_result: bt.result().is_some(),
                    fixups: Vec::new(),
                    head: 0,
                    else_fixup: Some(pos),
                    unreachable: false,
                    skipped: false,
                });
            }
            Else => self.begin_else(),
            End => self.end_frame(),
            Br(depth) => {
                let (br, _) = self.branch_for(*depth);
                let ci = self.ctrl_index(*depth);
                if ci == 0 {
                    // Branch to the function frame == return.
                    self.ops.push(Op::Return);
                } else {
                    self.ops.push(Op::Br(br));
                    if self.ctrl[ci].kind != CtrlKind::Loop {
                        let pos = self.ops.len() - 1;
                        self.ctrl[ci].fixups.push(Fixup::Br(pos));
                    }
                }
                self.mark_unreachable();
            }
            BrIf(depth) => {
                self.height -= 1; // condition
                let (br, resolved) = self.branch_for(*depth);
                let ci = self.ctrl_index(*depth);
                if ci == 0 {
                    // Conditional return: lower to BrIfZ over a Return. The
                    // skip branch targets the very next position at the
                    // *current* height, so its unwind is a no-op.
                    let skip = Branch {
                        target: self.ops.len() as u32 + 2,
                        height: self.height,
                        keep: false,
                    };
                    self.ops.push(Op::BrIfZ(skip));
                    self.ops.push(Op::Return);
                } else {
                    self.ops.push(Op::BrIf(br));
                    let pos = self.ops.len() - 1;
                    if !resolved {
                        self.ctrl[ci].fixups.push(Fixup::Br(pos));
                    }
                }
            }
            BrTable(targets, default) => {
                self.height -= 1; // index
                let mut payload = BrTablePayload {
                    targets: Vec::with_capacity(targets.len()),
                    default: Branch {
                        target: u32::MAX,
                        height: 0,
                        keep: false,
                    },
                };
                let pos = self.ops.len();
                let mut fixups: Vec<(usize, Fixup)> = Vec::new();
                for (j, d) in targets.iter().enumerate() {
                    let (br, resolved) = self.branch_for(*d);
                    payload.targets.push(br);
                    if !resolved {
                        let ci = self.ctrl_index(*d);
                        if ci == 0 {
                            // br_table to the function label: lower as a
                            // branch to an emitted Return trampoline; for
                            // simplicity route through fixups on frame 0 and
                            // let end_frame patch to the final Return.
                        }
                        fixups.push((ci, Fixup::TableEntry(pos, j)));
                    }
                }
                let (br, resolved) = self.branch_for(*default);
                payload.default = br;
                if !resolved {
                    let ci = self.ctrl_index(*default);
                    fixups.push((ci, Fixup::TableDefault(pos)));
                }
                self.ops.push(Op::BrTable(Box::new(payload)));
                for (ci, f) in fixups {
                    self.ctrl[ci].fixups.push(f);
                }
                self.mark_unreachable();
            }
            Return => {
                self.ops.push(Op::Return);
                self.mark_unreachable();
            }
            Call(f) => {
                let ty = self.func_type_of(*f).clone();
                self.height -= ty.params.len() as u32;
                if *f < self.num_imports {
                    self.ops.push(Op::CallHost(*f));
                } else {
                    self.ops.push(Op::Call(*f - self.num_imports));
                }
                if ty.result().is_some() {
                    self.height += 1;
                }
            }
            CallIndirect(t) => {
                let ty = self.module.types[*t as usize].clone();
                self.height -= 1 + ty.params.len() as u32;
                self.ops
                    .push(Op::CallIndirect(self.type_canon[*t as usize]));
                if ty.result().is_some() {
                    self.height += 1;
                }
            }
            Drop => {
                self.height -= 1;
                self.ops.push(Op::Drop);
            }
            Select => {
                self.height -= 2;
                self.ops.push(Op::Select);
            }
            LocalGet(i) => {
                self.height += 1;
                self.ops.push(Op::LocalGet(*i));
            }
            LocalSet(i) => {
                self.height -= 1;
                self.ops.push(Op::LocalSet(*i));
            }
            LocalTee(i) => {
                self.ops.push(Op::LocalTee(*i));
            }
            GlobalGet(i) => {
                self.height += 1;
                self.ops.push(Op::GlobalGet(*i));
            }
            GlobalSet(i) => {
                self.height -= 1;
                self.ops.push(Op::GlobalSet(*i));
            }
            I32Const(v) => {
                self.height += 1;
                self.ops.push(Op::Const(*v as u32 as u64));
            }
            I64Const(v) => {
                self.height += 1;
                self.ops.push(Op::Const(*v as u64));
            }
            F32Const(v) => {
                self.height += 1;
                self.ops.push(Op::Const(v.to_bits() as u64));
            }
            F64Const(v) => {
                self.height += 1;
                self.ops.push(Op::Const(v.to_bits()));
            }
            MemorySize => {
                self.height += 1;
                self.ops.push(Op::MemorySize);
            }
            MemoryGrow => {
                self.ops.push(Op::MemoryGrow);
            }
            other => {
                // Loads, stores, and pure numeric instructions.
                if let Some((kind, off)) = load_kind(other) {
                    self.ops.push(Op::Load(kind, off));
                } else if let Some((kind, off)) = store_kind(other) {
                    self.height -= 2;
                    self.ops.push(Op::Store(kind, off));
                } else if let Some(nb) = num_bin(other) {
                    self.height -= 1;
                    self.ops.push(Op::Bin(nb));
                } else if let Some(nu) = num_un(other) {
                    self.ops.push(Op::Un(nu));
                } else {
                    unreachable!("unhandled instruction {other:?}");
                }
            }
        }
    }

    fn begin_else(&mut self) {
        let (else_fixup, was_unreachable, height, has_result) = {
            let c = self.ctrl.last_mut().expect("else inside if");
            debug_assert_eq!(c.kind, CtrlKind::If);
            let ef = c.else_fixup.take().expect("if has pending else fixup");
            let wu = c.unreachable;
            c.unreachable = false;
            (ef, wu, c.height, c.has_result)
        };
        // Terminate the then-arm with a jump to the end (skipped if the arm
        // already ended unreachable).
        if !was_unreachable {
            let br = Branch {
                target: u32::MAX,
                height,
                keep: has_result,
            };
            self.ops.push(Op::Br(br));
            let pos = self.ops.len() - 1;
            self.ctrl
                .last_mut()
                .expect("if frame")
                .fixups
                .push(Fixup::Br(pos));
        }
        // The BrIfZ lands here: start of the else arm.
        let target = self.ops.len() as u32;
        self.patch(vec![Fixup::Br(else_fixup)], target);
        self.height = height;
    }

    fn end_frame(&mut self) {
        let c = self.ctrl.pop().expect("end with open frame");
        debug_assert!(!c.skipped);
        let end_pos = self.ops.len() as u32;
        if self.ctrl.is_empty() {
            // Function-level end: fall-through return. Patch any branches
            // to the function label to the Return we emit here.
            self.ops.push(Op::Return);
            self.patch(c.fixups, end_pos);
            self.height = 0;
            return;
        }
        // `if` without `else`: the BrIfZ lands at the end.
        if let Some(pos) = c.else_fixup {
            self.patch(vec![Fixup::Br(pos)], end_pos);
        }
        self.patch(c.fixups, end_pos);
        self.height = c.height + c.has_result as u32;
    }

    fn mark_unreachable(&mut self) {
        let c = self.ctrl.last_mut().expect("frame");
        c.unreachable = true;
        self.height = c.height;
    }
}

fn load_kind(i: &Instr) -> Option<(LoadKind, u32)> {
    use Instr::*;
    Some(match i {
        I32Load(m) => (LoadKind::I32, m.offset),
        I64Load(m) => (LoadKind::I64, m.offset),
        F32Load(m) => (LoadKind::F32, m.offset),
        F64Load(m) => (LoadKind::F64, m.offset),
        I32Load8S(m) => (LoadKind::I32S8, m.offset),
        I32Load8U(m) => (LoadKind::I32U8, m.offset),
        I32Load16S(m) => (LoadKind::I32S16, m.offset),
        I32Load16U(m) => (LoadKind::I32U16, m.offset),
        I64Load8S(m) => (LoadKind::I64S8, m.offset),
        I64Load8U(m) => (LoadKind::I64U8, m.offset),
        I64Load16S(m) => (LoadKind::I64S16, m.offset),
        I64Load16U(m) => (LoadKind::I64U16, m.offset),
        I64Load32S(m) => (LoadKind::I64S32, m.offset),
        I64Load32U(m) => (LoadKind::I64U32, m.offset),
        _ => return None,
    })
}

fn store_kind(i: &Instr) -> Option<(StoreKind, u32)> {
    use Instr::*;
    Some(match i {
        I32Store(m) => (StoreKind::I32, m.offset),
        I64Store(m) => (StoreKind::I64, m.offset),
        F32Store(m) => (StoreKind::F32, m.offset),
        F64Store(m) => (StoreKind::F64, m.offset),
        I32Store8(m) => (StoreKind::B8From32, m.offset),
        I32Store16(m) => (StoreKind::B16From32, m.offset),
        I64Store8(m) => (StoreKind::B8From64, m.offset),
        I64Store16(m) => (StoreKind::B16From64, m.offset),
        I64Store32(m) => (StoreKind::B32From64, m.offset),
        _ => return None,
    })
}

fn num_bin(i: &Instr) -> Option<NumBin> {
    use Instr as I;
    use NumBin as N;
    Some(match i {
        I::I32Add => N::I32Add,
        I::I32Sub => N::I32Sub,
        I::I32Mul => N::I32Mul,
        I::I32DivS => N::I32DivS,
        I::I32DivU => N::I32DivU,
        I::I32RemS => N::I32RemS,
        I::I32RemU => N::I32RemU,
        I::I32And => N::I32And,
        I::I32Or => N::I32Or,
        I::I32Xor => N::I32Xor,
        I::I32Shl => N::I32Shl,
        I::I32ShrS => N::I32ShrS,
        I::I32ShrU => N::I32ShrU,
        I::I32Rotl => N::I32Rotl,
        I::I32Rotr => N::I32Rotr,
        I::I32Eq => N::I32Eq,
        I::I32Ne => N::I32Ne,
        I::I32LtS => N::I32LtS,
        I::I32LtU => N::I32LtU,
        I::I32GtS => N::I32GtS,
        I::I32GtU => N::I32GtU,
        I::I32LeS => N::I32LeS,
        I::I32LeU => N::I32LeU,
        I::I32GeS => N::I32GeS,
        I::I32GeU => N::I32GeU,
        I::I64Add => N::I64Add,
        I::I64Sub => N::I64Sub,
        I::I64Mul => N::I64Mul,
        I::I64DivS => N::I64DivS,
        I::I64DivU => N::I64DivU,
        I::I64RemS => N::I64RemS,
        I::I64RemU => N::I64RemU,
        I::I64And => N::I64And,
        I::I64Or => N::I64Or,
        I::I64Xor => N::I64Xor,
        I::I64Shl => N::I64Shl,
        I::I64ShrS => N::I64ShrS,
        I::I64ShrU => N::I64ShrU,
        I::I64Rotl => N::I64Rotl,
        I::I64Rotr => N::I64Rotr,
        I::I64Eq => N::I64Eq,
        I::I64Ne => N::I64Ne,
        I::I64LtS => N::I64LtS,
        I::I64LtU => N::I64LtU,
        I::I64GtS => N::I64GtS,
        I::I64GtU => N::I64GtU,
        I::I64LeS => N::I64LeS,
        I::I64LeU => N::I64LeU,
        I::I64GeS => N::I64GeS,
        I::I64GeU => N::I64GeU,
        I::F32Eq => N::F32Eq,
        I::F32Ne => N::F32Ne,
        I::F32Lt => N::F32Lt,
        I::F32Gt => N::F32Gt,
        I::F32Le => N::F32Le,
        I::F32Ge => N::F32Ge,
        I::F64Eq => N::F64Eq,
        I::F64Ne => N::F64Ne,
        I::F64Lt => N::F64Lt,
        I::F64Gt => N::F64Gt,
        I::F64Le => N::F64Le,
        I::F64Ge => N::F64Ge,
        I::F32Add => N::F32Add,
        I::F32Sub => N::F32Sub,
        I::F32Mul => N::F32Mul,
        I::F32Div => N::F32Div,
        I::F32Min => N::F32Min,
        I::F32Max => N::F32Max,
        I::F32Copysign => N::F32Copysign,
        I::F64Add => N::F64Add,
        I::F64Sub => N::F64Sub,
        I::F64Mul => N::F64Mul,
        I::F64Div => N::F64Div,
        I::F64Min => N::F64Min,
        I::F64Max => N::F64Max,
        I::F64Copysign => N::F64Copysign,
        _ => return None,
    })
}

fn num_un(i: &Instr) -> Option<NumUn> {
    use Instr as I;
    use NumUn as N;
    Some(match i {
        I::I32Eqz => N::I32Eqz,
        I::I64Eqz => N::I64Eqz,
        I::I32Clz => N::I32Clz,
        I::I32Ctz => N::I32Ctz,
        I::I32Popcnt => N::I32Popcnt,
        I::I64Clz => N::I64Clz,
        I::I64Ctz => N::I64Ctz,
        I::I64Popcnt => N::I64Popcnt,
        I::F32Abs => N::F32Abs,
        I::F32Neg => N::F32Neg,
        I::F32Ceil => N::F32Ceil,
        I::F32Floor => N::F32Floor,
        I::F32Trunc => N::F32Trunc,
        I::F32Nearest => N::F32Nearest,
        I::F32Sqrt => N::F32Sqrt,
        I::F64Abs => N::F64Abs,
        I::F64Neg => N::F64Neg,
        I::F64Ceil => N::F64Ceil,
        I::F64Floor => N::F64Floor,
        I::F64Trunc => N::F64Trunc,
        I::F64Nearest => N::F64Nearest,
        I::F64Sqrt => N::F64Sqrt,
        I::I32WrapI64 => N::I32WrapI64,
        I::I32TruncF32S => N::I32TruncF32S,
        I::I32TruncF32U => N::I32TruncF32U,
        I::I32TruncF64S => N::I32TruncF64S,
        I::I32TruncF64U => N::I32TruncF64U,
        I::I64ExtendI32S => N::I64ExtendI32S,
        I::I64ExtendI32U => N::I64ExtendI32U,
        I::I64TruncF32S => N::I64TruncF32S,
        I::I64TruncF32U => N::I64TruncF32U,
        I::I64TruncF64S => N::I64TruncF64S,
        I::I64TruncF64U => N::I64TruncF64U,
        I::F32ConvertI32S => N::F32ConvertI32S,
        I::F32ConvertI32U => N::F32ConvertI32U,
        I::F32ConvertI64S => N::F32ConvertI64S,
        I::F32ConvertI64U => N::F32ConvertI64U,
        I::F32DemoteF64 => N::F32DemoteF64,
        I::F64ConvertI32S => N::F64ConvertI32S,
        I::F64ConvertI32U => N::F64ConvertI32U,
        I::F64ConvertI64S => N::F64ConvertI64S,
        I::F64ConvertI64U => N::F64ConvertI64U,
        I::F64PromoteF32 => N::F64PromoteF32,
        I::I32ReinterpretF32 => N::I32ReinterpretF32,
        I::I64ReinterpretF64 => N::I64ReinterpretF64,
        I::F32ReinterpretI32 => N::F32ReinterpretI32,
        I::F64ReinterpretI64 => N::F64ReinterpretI64,
        I::I32Extend8S => N::I32Extend8S,
        I::I32Extend16S => N::I32Extend16S,
        I::I64Extend8S => N::I64Extend8S,
        I::I64Extend16S => N::I64Extend16S,
        I::I64Extend32S => N::I64Extend32S,
        _ => return None,
    })
}
