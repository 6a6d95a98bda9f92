//! Module validation: the WebAssembly type-checking algorithm.
//!
//! Follows the validation algorithm from the spec appendix: an operand stack
//! of (possibly unknown) value types plus a control stack of frames, with
//! stack-polymorphic typing after unconditional control transfers.

use crate::instr::Instr;
use crate::module::{ConstExpr, ImportKind, Module};
use crate::types::{FuncType, ValType};
use crate::ValidateError;

/// Maximum number of linear-memory pages addressable with 32-bit offsets.
pub(crate) const MAX_PAGES: u32 = 65536;

/// Validate a whole module.
///
/// Checks index spaces, limits, constant expressions, export uniqueness, and
/// type-checks every function body.
///
/// # Errors
///
/// Returns the first [`ValidateError`] found.
pub fn validate_module(m: &Module) -> Result<(), ValidateError> {
    // MVP: single-value result types.
    for (i, t) in m.types.iter().enumerate() {
        if t.results.len() > 1 {
            return Err(ValidateError::module(format!(
                "type {i} has {} results; MVP allows at most 1",
                t.results.len()
            )));
        }
    }

    // Import type indices must exist.
    for imp in &m.imports {
        if let ImportKind::Func(t) = imp.kind {
            if t as usize >= m.types.len() {
                return Err(ValidateError::module(format!(
                    "import {}.{} references unknown type {t}",
                    imp.module, imp.name
                )));
            }
        }
    }

    // Function section type indices must exist.
    for (i, t) in m.functions.iter().enumerate() {
        if *t as usize >= m.types.len() {
            return Err(ValidateError::module(format!(
                "function {i} references unknown type {t}"
            )));
        }
    }

    // At most one memory / table; limits well-formed.
    let num_mem = m.memories.len()
        + m.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Memory(_)))
            .count();
    if num_mem > 1 {
        return Err(ValidateError::module("multiple memories"));
    }
    let num_tab = m.tables.len()
        + m.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Table(_)))
            .count();
    if num_tab > 1 {
        return Err(ValidateError::module("multiple tables"));
    }
    if let Some(mem) = m.memory() {
        if !mem.limits.is_well_formed() {
            return Err(ValidateError::module("memory limits min > max"));
        }
        if mem.limits.min > MAX_PAGES || mem.limits.max.is_some_and(|x| x > MAX_PAGES) {
            return Err(ValidateError::module("memory limits exceed 4GiB"));
        }
    }
    if let Some(tab) = m.table() {
        if !tab.limits.is_well_formed() {
            return Err(ValidateError::module("table limits min > max"));
        }
    }

    // Globals: initializers must be const and type-correct, and may only
    // reference imported immutable globals.
    let num_imported_globals = m.num_imported_globals();
    for (i, g) in m.globals.iter().enumerate() {
        let init_ty = match g.init {
            ConstExpr::GlobalGet(idx) => {
                if idx >= num_imported_globals {
                    return Err(ValidateError::module(format!(
                        "global {i} initializer references non-imported global {idx}"
                    )));
                }
                let gt = m.global_type(idx).expect("checked above");
                if gt.mutable {
                    return Err(ValidateError::module(format!(
                        "global {i} initializer references mutable global {idx}"
                    )));
                }
                gt.value
            }
            _ => g.init.ty().expect("non-global-get const has a type"),
        };
        if init_ty != g.ty.value {
            return Err(ValidateError::module(format!(
                "global {i} initializer type {init_ty} != declared {}",
                g.ty.value
            )));
        }
    }

    // Exports: unique names, valid indices.
    let mut names = std::collections::HashSet::new();
    for e in &m.exports {
        if !names.insert(e.name.as_str()) {
            return Err(ValidateError::module(format!(
                "duplicate export name {:?}",
                e.name
            )));
        }
        let ok = match e.kind {
            crate::module::ExportKind::Func(i) => i < m.num_funcs(),
            crate::module::ExportKind::Table(i) => i == 0 && num_tab == 1,
            crate::module::ExportKind::Memory(i) => i == 0 && num_mem == 1,
            crate::module::ExportKind::Global(i) => m.global_type(i).is_some(),
        };
        if !ok {
            return Err(ValidateError::module(format!(
                "export {:?} references unknown entity",
                e.name
            )));
        }
    }

    // Start function: must exist with type [] -> [].
    if let Some(s) = m.start {
        let ty = m
            .func_type(s)
            .ok_or_else(|| ValidateError::module(format!("start function {s} unknown")))?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidateError::module("start function must be [] -> []"));
        }
    }

    // Element segments.
    for (i, e) in m.elements.iter().enumerate() {
        if num_tab == 0 {
            return Err(ValidateError::module(format!(
                "element segment {i} but no table"
            )));
        }
        check_offset_expr(m, &e.offset, num_imported_globals)
            .map_err(|msg| ValidateError::module(format!("element segment {i}: {msg}")))?;
        for f in &e.funcs {
            if *f >= m.num_funcs() {
                return Err(ValidateError::module(format!(
                    "element segment {i} references unknown function {f}"
                )));
            }
        }
    }

    // Data segments.
    for (i, d) in m.data.iter().enumerate() {
        if num_mem == 0 {
            return Err(ValidateError::module(format!(
                "data segment {i} but no memory"
            )));
        }
        check_offset_expr(m, &d.offset, num_imported_globals)
            .map_err(|msg| ValidateError::module(format!("data segment {i}: {msg}")))?;
    }

    // Function bodies.
    if m.functions.len() != m.code.len() {
        return Err(ValidateError::module(
            "function and code section lengths differ",
        ));
    }
    for (local_idx, (ty_idx, body)) in m.functions.iter().zip(&m.code).enumerate() {
        let func_idx = m.num_imported_funcs() + local_idx as u32;
        let ty = &m.types[*ty_idx as usize];
        validate_body(m, func_idx, ty, body)?;
    }
    Ok(())
}

fn check_offset_expr(m: &Module, e: &ConstExpr, num_imported_globals: u32) -> Result<(), String> {
    let ty = match e {
        ConstExpr::GlobalGet(idx) => {
            if *idx >= num_imported_globals {
                return Err(format!("offset references non-imported global {idx}"));
            }
            let gt = m.global_type(*idx).expect("checked above");
            if gt.mutable {
                return Err(format!("offset references mutable global {idx}"));
            }
            gt.value
        }
        _ => e.ty().expect("const has type"),
    };
    if ty != ValType::I32 {
        return Err(format!("offset type {ty} != i32"));
    }
    Ok(())
}

/// One entry of the control stack.
#[derive(Debug)]
struct Frame {
    /// Result type of the frame.
    result: Option<ValType>,
    /// Branch-target type: what a `br` to this label must provide
    /// (the result for blocks/ifs, nothing for loops).
    label_ty: Option<ValType>,
    /// Operand-stack height at frame entry.
    height: usize,
    /// Whether the rest of the frame is unreachable.
    unreachable: bool,
    /// Whether this frame is an `if` awaiting its `else`.
    is_if: bool,
}

/// The type-checker for one function body.
struct Checker<'m> {
    module: &'m Module,
    func: u32,
    /// `None` entries represent the unknown type (after `unreachable`).
    stack: Vec<Option<ValType>>,
    ctrl: Vec<Frame>,
    locals: Vec<ValType>,
}

impl<'m> Checker<'m> {
    fn err(&self, msg: impl Into<String>) -> ValidateError {
        ValidateError::in_func(self.func, msg)
    }

    fn push(&mut self, t: ValType) {
        self.stack.push(Some(t));
    }

    fn push_unknown(&mut self) {
        self.stack.push(None);
    }

    fn pop_any(&mut self) -> Result<Option<ValType>, ValidateError> {
        let frame = self.ctrl.last().expect("control stack never empty");
        if self.stack.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(self.err("operand stack underflow"));
        }
        Ok(self.stack.pop().expect("checked non-empty"))
    }

    fn pop_expect(&mut self, want: ValType) -> Result<(), ValidateError> {
        match self.pop_any()? {
            None => Ok(()),
            Some(got) if got == want => Ok(()),
            Some(got) => Err(self.err(format!("expected {want}, found {got}"))),
        }
    }

    fn set_unreachable(&mut self) {
        let frame = self.ctrl.last_mut().expect("control stack never empty");
        frame.unreachable = true;
        let h = frame.height;
        self.stack.truncate(h);
    }

    fn label_ty(&self, depth: u32) -> Result<Option<ValType>, ValidateError> {
        let idx = self
            .ctrl
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| self.err(format!("branch depth {depth} out of range")))?;
        Ok(self.ctrl[idx].label_ty)
    }

    fn local_ty(&self, idx: u32) -> Result<ValType, ValidateError> {
        self.locals
            .get(idx as usize)
            .copied()
            .ok_or_else(|| self.err(format!("unknown local {idx}")))
    }

    fn branch_to(&mut self, depth: u32) -> Result<(), ValidateError> {
        if let Some(t) = self.label_ty(depth)? {
            self.pop_expect(t)?;
        }
        Ok(())
    }

    fn require_memory(&self) -> Result<(), ValidateError> {
        if self.module.memory().is_none() {
            return Err(self.err("memory instruction without memory"));
        }
        Ok(())
    }
}

fn validate_body(
    m: &Module,
    func: u32,
    ty: &FuncType,
    body: &crate::module::FuncBody,
) -> Result<(), ValidateError> {
    let mut locals = ty.params.clone();
    locals.extend_from_slice(&body.locals);
    let mut c = Checker {
        module: m,
        func,
        stack: Vec::new(),
        ctrl: vec![Frame {
            result: ty.result(),
            label_ty: ty.result(),
            height: 0,
            unreachable: false,
            is_if: false,
        }],
        locals,
    };

    use Instr::*;
    for (pc, ins) in body.instrs.iter().enumerate() {
        match ins {
            Unreachable => c.set_unreachable(),
            Nop => {}
            Block(bt) => {
                let h = c.stack.len();
                c.ctrl.push(Frame {
                    result: bt.result(),
                    label_ty: bt.result(),
                    height: h,
                    unreachable: false,
                    is_if: false,
                });
            }
            Loop(bt) => {
                let h = c.stack.len();
                c.ctrl.push(Frame {
                    result: bt.result(),
                    // Branching to a loop label targets the loop *head*,
                    // which takes no values in the MVP.
                    label_ty: None,
                    height: h,
                    unreachable: false,
                    is_if: false,
                });
            }
            If(bt) => {
                c.pop_expect(ValType::I32)?;
                let h = c.stack.len();
                c.ctrl.push(Frame {
                    result: bt.result(),
                    label_ty: bt.result(),
                    height: h,
                    unreachable: false,
                    is_if: true,
                });
            }
            Else => {
                let frame = c.ctrl.last().ok_or_else(|| c.err("else without if"))?;
                if !frame.is_if {
                    return Err(c.err("else without if"));
                }
                let (result, height) = (frame.result, frame.height);
                // The then-arm must end having produced the result.
                if !frame.unreachable {
                    if let Some(t) = result {
                        c.pop_expect(t)?;
                    }
                    if c.stack.len() != height {
                        return Err(c.err(format!("then-arm leaves extra operands at pc {pc}")));
                    }
                } else {
                    c.stack.truncate(height);
                }
                let frame = c.ctrl.last_mut().expect("just checked");
                frame.unreachable = false;
                frame.is_if = false;
            }
            End => {
                let frame = c.ctrl.last().expect("control stack never empty");
                let (result, height, unreachable, is_if) =
                    (frame.result, frame.height, frame.unreachable, frame.is_if);
                // `if` without `else` must have an empty result type.
                if is_if && result.is_some() {
                    return Err(c.err("if with result type but no else"));
                }
                if !unreachable {
                    if let Some(t) = result {
                        c.pop_expect(t)?;
                    }
                    if c.stack.len() != height {
                        return Err(c.err(format!(
                            "block leaves {} extra operands at pc {pc}",
                            c.stack.len() - height
                        )));
                    }
                } else {
                    c.stack.truncate(height);
                }
                c.ctrl.pop();
                if c.ctrl.is_empty() {
                    // Function-level end: the result (if any) was popped.
                    if pc + 1 != body.instrs.len() {
                        return Err(c.err("instructions after function end"));
                    }
                    return Ok(());
                }
                if let Some(t) = result {
                    c.push(t);
                }
            }
            Br(depth) => {
                c.branch_to(*depth)?;
                c.set_unreachable();
            }
            BrIf(depth) => {
                c.pop_expect(ValType::I32)?;
                if let Some(t) = c.label_ty(*depth)? {
                    c.pop_expect(t)?;
                    c.push(t);
                }
            }
            BrTable(targets, default) => {
                c.pop_expect(ValType::I32)?;
                let want = c.label_ty(*default)?;
                for t in targets {
                    if c.label_ty(*t)? != want {
                        return Err(c.err("br_table arms have mismatched label types"));
                    }
                }
                if let Some(t) = want {
                    c.pop_expect(t)?;
                }
                c.set_unreachable();
            }
            Return => {
                if let Some(t) = ty.result() {
                    c.pop_expect(t)?;
                }
                c.set_unreachable();
            }
            Call(f) => {
                let callee = m
                    .func_type(*f)
                    .ok_or_else(|| c.err(format!("call to unknown function {f}")))?
                    .clone();
                for p in callee.params.iter().rev() {
                    c.pop_expect(*p)?;
                }
                if let Some(r) = callee.result() {
                    c.push(r);
                }
            }
            CallIndirect(t) => {
                if m.table().is_none() {
                    return Err(c.err("call_indirect without table"));
                }
                let callee = m
                    .types
                    .get(*t as usize)
                    .ok_or_else(|| c.err(format!("call_indirect to unknown type {t}")))?
                    .clone();
                c.pop_expect(ValType::I32)?;
                for p in callee.params.iter().rev() {
                    c.pop_expect(*p)?;
                }
                if let Some(r) = callee.result() {
                    c.push(r);
                }
            }
            Drop => {
                c.pop_any()?;
            }
            Select => {
                c.pop_expect(ValType::I32)?;
                let a = c.pop_any()?;
                let b = c.pop_any()?;
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        return Err(c.err("select arms have different types"))
                    }
                    (Some(x), _) | (_, Some(x)) => c.push(x),
                    (None, None) => c.push_unknown(),
                }
            }
            LocalGet(i) => {
                let t = c.local_ty(*i)?;
                c.push(t);
            }
            LocalSet(i) => {
                let t = c.local_ty(*i)?;
                c.pop_expect(t)?;
            }
            LocalTee(i) => {
                let t = c.local_ty(*i)?;
                c.pop_expect(t)?;
                c.push(t);
            }
            GlobalGet(i) => {
                let g = c
                    .module
                    .global_type(*i)
                    .ok_or_else(|| c.err(format!("unknown global {i}")))?;
                c.push(g.value);
            }
            GlobalSet(i) => {
                let g = c
                    .module
                    .global_type(*i)
                    .ok_or_else(|| c.err(format!("unknown global {i}")))?;
                if !g.mutable {
                    return Err(c.err(format!("global.set of immutable global {i}")));
                }
                c.pop_expect(g.value)?;
            }
            I32Load(a) | I32Load8S(a) | I32Load8U(a) | I32Load16S(a) | I32Load16U(a) => {
                c.require_memory()?;
                check_align(&c, a.align, natural_align(ins))?;
                c.pop_expect(ValType::I32)?;
                c.push(ValType::I32);
            }
            I64Load(a) | I64Load8S(a) | I64Load8U(a) | I64Load16S(a) | I64Load16U(a)
            | I64Load32S(a) | I64Load32U(a) => {
                c.require_memory()?;
                check_align(&c, a.align, natural_align(ins))?;
                c.pop_expect(ValType::I32)?;
                c.push(ValType::I64);
            }
            F32Load(a) => {
                c.require_memory()?;
                check_align(&c, a.align, 2)?;
                c.pop_expect(ValType::I32)?;
                c.push(ValType::F32);
            }
            F64Load(a) => {
                c.require_memory()?;
                check_align(&c, a.align, 3)?;
                c.pop_expect(ValType::I32)?;
                c.push(ValType::F64);
            }
            I32Store(a) | I32Store8(a) | I32Store16(a) => {
                c.require_memory()?;
                check_align(&c, a.align, natural_align(ins))?;
                c.pop_expect(ValType::I32)?;
                c.pop_expect(ValType::I32)?;
            }
            I64Store(a) | I64Store8(a) | I64Store16(a) | I64Store32(a) => {
                c.require_memory()?;
                check_align(&c, a.align, natural_align(ins))?;
                c.pop_expect(ValType::I64)?;
                c.pop_expect(ValType::I32)?;
            }
            F32Store(a) => {
                c.require_memory()?;
                check_align(&c, a.align, 2)?;
                c.pop_expect(ValType::F32)?;
                c.pop_expect(ValType::I32)?;
            }
            F64Store(a) => {
                c.require_memory()?;
                check_align(&c, a.align, 3)?;
                c.pop_expect(ValType::F64)?;
                c.pop_expect(ValType::I32)?;
            }
            MemorySize => {
                c.require_memory()?;
                c.push(ValType::I32);
            }
            MemoryGrow => {
                c.require_memory()?;
                c.pop_expect(ValType::I32)?;
                c.push(ValType::I32);
            }
            I32Const(_) => c.push(ValType::I32),
            I64Const(_) => c.push(ValType::I64),
            F32Const(_) => c.push(ValType::F32),
            F64Const(_) => c.push(ValType::F64),
            _ => {
                // Pure numeric instructions, described by signature.
                let (params, result) = numeric_signature(ins)
                    .ok_or_else(|| c.err(format!("unhandled instruction {ins:?}")))?;
                for p in params.iter().rev() {
                    c.pop_expect(*p)?;
                }
                c.push(result);
            }
        }
    }
    Err(ValidateError::in_func(
        func,
        "function body not terminated by end",
    ))
}

fn check_align(c: &Checker<'_>, align: u32, natural: u32) -> Result<(), ValidateError> {
    if align > natural {
        return Err(c.err(format!(
            "alignment 2^{align} exceeds natural alignment 2^{natural}"
        )));
    }
    Ok(())
}

fn natural_align(ins: &Instr) -> u32 {
    use Instr::*;
    match ins {
        I32Load8S(_) | I32Load8U(_) | I64Load8S(_) | I64Load8U(_) | I32Store8(_) | I64Store8(_) => {
            0
        }
        I32Load16S(_) | I32Load16U(_) | I64Load16S(_) | I64Load16U(_) | I32Store16(_)
        | I64Store16(_) => 1,
        I32Load(_) | F32Load(_) | I64Load32S(_) | I64Load32U(_) | I32Store(_) | F32Store(_)
        | I64Store32(_) => 2,
        I64Load(_) | F64Load(_) | I64Store(_) | F64Store(_) => 3,
        _ => 0,
    }
}

/// Signature of a pure numeric instruction: `(params, result)`.
fn numeric_signature(ins: &Instr) -> Option<(Vec<ValType>, ValType)> {
    use Instr::*;
    use ValType::*;
    Some(match ins {
        I32Eqz => (vec![I32], I32),
        I64Eqz => (vec![I64], I32),
        I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS | I32GeU => {
            (vec![I32, I32], I32)
        }
        I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS | I64GeU => {
            (vec![I64, I64], I32)
        }
        F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge => (vec![F32, F32], I32),
        F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge => (vec![F64, F64], I32),
        I32Clz | I32Ctz | I32Popcnt | I32Extend8S | I32Extend16S => (vec![I32], I32),
        I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU | I32And | I32Or
        | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr => (vec![I32, I32], I32),
        I64Clz | I64Ctz | I64Popcnt | I64Extend8S | I64Extend16S | I64Extend32S => (vec![I64], I64),
        I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or
        | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr => (vec![I64, I64], I64),
        F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt => (vec![F32], F32),
        F32Add | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign => (vec![F32, F32], F32),
        F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt => (vec![F64], F64),
        F64Add | F64Sub | F64Mul | F64Div | F64Min | F64Max | F64Copysign => (vec![F64, F64], F64),
        I32WrapI64 => (vec![I64], I32),
        I32TruncF32S | I32TruncF32U | I32ReinterpretF32 => (vec![F32], I32),
        I32TruncF64S | I32TruncF64U => (vec![F64], I32),
        I64ExtendI32S | I64ExtendI32U => (vec![I32], I64),
        I64TruncF32S | I64TruncF32U => (vec![F32], I64),
        I64TruncF64S | I64TruncF64U | I64ReinterpretF64 => (vec![F64], I64),
        F32ConvertI32S | F32ConvertI32U | F32ReinterpretI32 => (vec![I32], F32),
        F32ConvertI64S | F32ConvertI64U => (vec![I64], F32),
        F32DemoteF64 => (vec![F64], F32),
        F64ConvertI32S | F64ConvertI32U => (vec![I32], F64),
        F64ConvertI64S | F64ConvertI64U => (vec![I64], F64),
        F64PromoteF32 => (vec![F32], F64),
        F64ReinterpretI64 => (vec![I64], F64),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MemArg;
    use crate::module::{Export, FuncBody};
    use crate::types::{FuncType, Limits, MemoryType};

    fn module_with_body(
        params: Vec<ValType>,
        results: Vec<ValType>,
        locals: Vec<ValType>,
        instrs: Vec<Instr>,
    ) -> Module {
        let mut m = Module::new();
        m.memories.push(MemoryType {
            limits: Limits::at_least(1),
        });
        let t = m.push_type(FuncType::new(params, results));
        let f = m.push_function(t, FuncBody::new(locals, instrs));
        m.exports.push(Export::func("main", f));
        m
    }

    #[test]
    fn accepts_simple_arithmetic() {
        use Instr::*;
        let m = module_with_body(
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            vec![],
            vec![LocalGet(0), LocalGet(1), I32Add, End],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        use Instr::*;
        let m = module_with_body(vec![], vec![ValType::I32], vec![], vec![F64Const(1.0), End]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_stack_underflow() {
        use Instr::*;
        let m = module_with_body(vec![], vec![ValType::I32], vec![], vec![I32Add, End]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_unknown_local() {
        use Instr::*;
        let m = module_with_body(vec![], vec![], vec![], vec![LocalGet(3), Drop, End]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn accepts_unreachable_polymorphism() {
        use Instr::*;
        // After `unreachable`, any operands may be conjured.
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![Unreachable, I32Add, End],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn accepts_if_else_with_result() {
        use crate::instr::BlockType;
        use Instr::*;
        let m = module_with_body(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![],
            vec![
                LocalGet(0),
                If(BlockType::Value(ValType::I32)),
                I32Const(1),
                Else,
                I32Const(2),
                End,
                End,
            ],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn rejects_if_with_result_but_no_else() {
        use crate::instr::BlockType;
        use Instr::*;
        let m = module_with_body(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![],
            vec![
                LocalGet(0),
                If(BlockType::Value(ValType::I32)),
                I32Const(1),
                End,
                End,
            ],
        );
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn loop_label_takes_no_values() {
        use crate::instr::BlockType;
        use Instr::*;
        // `br 0` inside a loop targets the loop head: no value expected even
        // though the loop produces one.
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![Loop(BlockType::Value(ValType::I32)), Br(0), End, End],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn rejects_branch_depth_out_of_range() {
        use Instr::*;
        let m = module_with_body(vec![], vec![], vec![], vec![Br(5), End]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_memory_op_without_memory() {
        use Instr::*;
        let mut m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![I32Const(0), I32Load(MemArg::default()), End],
        );
        m.memories.clear();
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_overaligned_access() {
        use Instr::*;
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                I32Const(0),
                I32Load(MemArg {
                    align: 3,
                    offset: 0,
                }),
                End,
            ],
        );
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_duplicate_export_names() {
        let mut m = module_with_body(vec![], vec![], vec![], vec![Instr::End]);
        m.exports.push(Export::func("main", 0));
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_global_set_immutable() {
        use Instr::*;
        let mut m = module_with_body(vec![], vec![], vec![], vec![I32Const(1), GlobalSet(0), End]);
        m.globals.push(crate::module::Global {
            ty: crate::types::GlobalType {
                value: ValType::I32,
                mutable: false,
            },
            init: ConstExpr::I32(0),
        });
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_multiple_memories() {
        let mut m = module_with_body(vec![], vec![], vec![], vec![Instr::End]);
        m.memories.push(MemoryType {
            limits: Limits::at_least(1),
        });
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_unterminated_body() {
        let m = module_with_body(vec![], vec![], vec![], vec![Instr::Nop]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_select_type_mismatch() {
        use Instr::*;
        let m = module_with_body(
            vec![],
            vec![],
            vec![],
            vec![I32Const(1), F64Const(2.0), I32Const(0), Select, Drop, End],
        );
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn br_table_checks_all_arms() {
        use crate::instr::BlockType;
        use Instr::*;
        // Outer block yields i32, inner yields nothing: arms disagree.
        let m = module_with_body(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![],
            vec![
                Block(BlockType::Value(ValType::I32)),
                Block(BlockType::Empty),
                LocalGet(0),
                BrTable(vec![0], 1),
                End,
                I32Const(1),
                End,
                End,
            ],
        );
        assert!(validate_module(&m).is_err());
    }
}
