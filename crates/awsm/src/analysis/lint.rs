//! Lints that need no fixpoint: functions that trap on entry, functions no
//! entry path can reach, branches whose condition is a literal constant,
//! locals that are written but never read, and guaranteed traps on constant
//! operands (a memory access out of bounds for every memory size, a division
//! by zero, a doomed `call_indirect`).

use super::cost::for_each_target;
use super::stack::{stack_effect, ArityMap};
use super::{Diagnostic, Severity};
use crate::code::{CompiledModule, LoadKind, NumBin, Op, StoreKind};
use std::collections::HashSet;

pub(super) fn structural(m: &CompiledModule, reachable: &HashSet<u32>, out: &mut Vec<Diagnostic>) {
    let ni = m.num_imports();
    let exported: HashSet<u32> = m
        .exports
        .values()
        .filter(|&&idx| idx >= ni)
        .map(|&idx| idx - ni)
        .collect();

    for (fidx, func) in m.funcs.iter().enumerate() {
        let fidx = fidx as u32;
        // `unreachable` as the first instruction: the function traps the
        // moment it is entered. Fatal if it is an entry point; otherwise it
        // may legitimately be a trap stub (e.g. an abort thunk), so warn.
        if matches!(func.code.first(), Some(Op::Unreachable)) {
            let name = func.name.as_deref().unwrap_or("<anon>");
            out.push(Diagnostic {
                severity: if exported.contains(&fidx) {
                    Severity::Error
                } else {
                    Severity::Warn
                },
                func: Some(fidx),
                pc: Some(0),
                message: if exported.contains(&fidx) {
                    format!("exported function `{name}` traps unconditionally on entry")
                } else {
                    format!("function `{name}` traps unconditionally on entry")
                },
            });
        }

        if !reachable.contains(&fidx) {
            let name = func.name.as_deref().unwrap_or("<anon>");
            out.push(Diagnostic {
                severity: Severity::Warn,
                func: Some(fidx),
                pc: None,
                message: format!(
                    "function `{name}` is unreachable from every export and table entry"
                ),
            });
        }
    }
}

/// Value-level lints: constant-condition conditional branches and
/// never-read locals.
pub(super) fn value_lints(m: &CompiledModule, out: &mut Vec<Diagnostic>) {
    for (fidx, func) in m.funcs.iter().enumerate() {
        let fidx = fidx as u32;
        let name = func.name.as_deref().unwrap_or("<anon>");

        // A literal constant feeding `br_if`/`br_if_z`: one arm of the
        // branch is statically dead.
        for (pc, win) in func.code.windows(2).enumerate() {
            if let [Op::Const(c), cond] = win {
                let taken = match cond {
                    Op::BrIf(_) => Some(*c as u32 != 0),
                    Op::BrIfZ(_) => Some(*c as u32 == 0),
                    _ => None,
                };
                if let Some(taken) = taken {
                    out.push(Diagnostic {
                        severity: Severity::Warn,
                        func: Some(fidx),
                        pc: Some(pc as u32 + 1),
                        message: format!(
                            "branch is statically dead: condition is always {} in `{name}`",
                            if taken { "taken" } else { "false" }
                        ),
                    });
                }
            }
        }

        // Declared locals written but never read. Parameters are exempt
        // (callers populate them; ignoring an argument is routine).
        let n = func.nlocals as usize;
        let mut read = vec![false; n];
        let mut written = vec![false; n];
        let mark = |v: &mut Vec<bool>, l: u32| {
            if let Some(slot) = v.get_mut(l as usize) {
                *slot = true;
            }
        };
        for op in &func.code {
            match op {
                Op::LocalGet(l) => mark(&mut read, *l),
                Op::LocalSet(l) | Op::LocalTee(l) => mark(&mut written, *l),
                _ => {}
            }
        }
        for l in func.nparams as usize..n {
            if written[l] && !read[l] {
                out.push(Diagnostic {
                    severity: Severity::Warn,
                    func: Some(fidx),
                    pc: None,
                    message: format!("local {l} in `{name}` is written but never read"),
                });
            }
        }
    }
}

/// Access width of a load, in bytes.
fn load_len(k: LoadKind) -> u64 {
    use LoadKind::*;
    match k {
        I32U8 | I32S8 | I64U8 | I64S8 => 1,
        I32U16 | I32S16 | I64U16 | I64S16 => 2,
        I32 | F32 | I64U32 | I64S32 => 4,
        I64 | F64 => 8,
    }
}

/// Access width of a store, in bytes.
pub(super) fn store_len(k: StoreKind) -> u64 {
    use StoreKind::*;
    match k {
        B8From32 | B8From64 => 1,
        B16From32 | B16From64 => 2,
        I32 | F32 | B32From64 => 4,
        I64 | F64 => 8,
    }
}

/// Whether `divisor` makes the integer division or remainder `op` trap.
fn divides_by_zero(op: NumBin, divisor: u64) -> bool {
    use NumBin::*;
    match op {
        I32DivS | I32DivU | I32RemS | I32RemU => divisor as u32 == 0,
        I64DivS | I64DivU | I64RemS | I64RemU => divisor == 0,
        _ => false,
    }
}

/// Guaranteed traps on constant operands, in one linear scan per function:
///
/// * **Error** — a load or store whose constant address (0 when unknown)
///   plus offset and width lies past the module's maximum memory, so it is
///   out of bounds for every memory size;
/// * **Warn** — an integer division or remainder by a constant zero;
/// * **Warn** — a `call_indirect` whose constant index lies outside the
///   table, names an uninitialized slot or a function of another type, or
///   whose type no function in the module has.
///
/// The scan tracks which operand-stack slots hold a literal `Const`. What
/// it knows resets at every branch target, and code after a terminator is
/// skipped until the next one, so it needs no fixpoint. Addresses and
/// indices are read as the executor reads them: the low 32 bits.
pub(super) fn constant_lints(m: &CompiledModule, arities: &ArityMap, out: &mut Vec<Diagnostic>) {
    let max_bytes = m.memory.map_or(0, |spec| {
        spec.max_pages as u64 * sledge_wasm::PAGE_SIZE as u64
    });
    let mut is_target = Vec::new();
    // The operand-stack slots pushed since the last branch target: `Some`
    // for a literal, `None` for anything else. Popping past its bottom reads
    // `None`.
    let mut stack: Vec<Option<u64>> = Vec::new();
    for (fidx, func) in m.funcs.iter().enumerate() {
        let code = &func.code;
        is_target.clear();
        is_target.resize(code.len(), false);
        for op in code {
            for_each_target(op, |t| {
                if let Some(slot) = is_target.get_mut(t as usize) {
                    *slot = true;
                }
            });
        }
        stack.clear();
        let mut live = true;
        for (pc, op) in code.iter().enumerate() {
            if is_target[pc] {
                stack.clear();
                live = true;
            }
            if !live {
                continue;
            }
            let mut lint = |severity, message| {
                out.push(Diagnostic {
                    severity,
                    func: Some(fidx as u32),
                    pc: Some(pc as u32),
                    message,
                })
            };
            // Pop `n` slots, returning the top one. An import's arity may
            // be large, so this never loops over `n`.
            let pop = |stack: &mut Vec<Option<u64>>, n: u32| {
                let top = stack.last().copied().flatten().filter(|_| n > 0);
                stack.truncate(stack.len().saturating_sub(n as usize));
                top
            };
            let mut results = 0;
            match op {
                Op::Unreachable | Op::Return | Op::Br(_) | Op::BrTable(_) => live = false,
                Op::BrIf(_) | Op::BrIfZ(_) => {
                    // A literal condition that always branches leaves the
                    // fallthrough dead.
                    if let Some(c) = pop(&mut stack, 1) {
                        live = (c as u32 != 0) != matches!(op, Op::BrIf(_));
                    }
                }
                Op::Call(f) => {
                    let callee = &m.funcs[*f as usize];
                    pop(&mut stack, callee.nparams);
                    results = callee.has_result as u32;
                }
                Op::CallHost(h) => {
                    let imp = &m.host_funcs[*h as usize];
                    pop(&mut stack, imp.nparams);
                    results = imp.has_result as u32;
                }
                Op::CallIndirect(tid) => {
                    if let Some(k) = pop(&mut stack, 1) {
                        if let Some(message) = doomed_slot(m, k as u32, *tid) {
                            lint(Severity::Warn, message);
                        }
                    }
                    match arities.get(tid) {
                        Some(&(nparams, has_result)) => {
                            pop(&mut stack, nparams);
                            results = has_result as u32;
                        }
                        None => {
                            lint(
                                Severity::Warn,
                                "call_indirect type matches no function in the module — \
                                 guaranteed trap"
                                    .to_string(),
                            );
                            live = false;
                        }
                    }
                }
                Op::Load(kind, off) => {
                    let addr = pop(&mut stack, 1);
                    if let Some(message) = out_of_bounds(addr, *off, load_len(*kind), max_bytes) {
                        lint(Severity::Error, message);
                    }
                    results = 1;
                }
                Op::Store(kind, off) => {
                    pop(&mut stack, 1);
                    let addr = pop(&mut stack, 1);
                    if let Some(message) = out_of_bounds(addr, *off, store_len(*kind), max_bytes) {
                        lint(Severity::Error, message);
                    }
                }
                Op::Bin(op) => {
                    let divisor = pop(&mut stack, 1);
                    pop(&mut stack, 1);
                    if divisor.is_some_and(|d| divides_by_zero(*op, d)) {
                        lint(Severity::Warn, DIV_BY_ZERO.to_string());
                    }
                    results = 1;
                }
                Op::Const(c) => stack.push(Some(*c)),
                // The teed value stays on the stack as it was.
                Op::LocalTee(_) => {}
                op => {
                    let (pops, pushes) = stack_effect(op);
                    pop(&mut stack, pops);
                    results = pushes;
                }
            }
            stack.extend((0..results).map(|_| None));
        }
    }
}

const DIV_BY_ZERO: &str = "constant division by zero — guaranteed trap if executed";

/// Why an access of `len` bytes at `addr + off` (`addr` 0 when not a
/// literal) traps for every memory size up to `max_bytes`, or `None`.
fn out_of_bounds(addr: Option<u64>, off: u32, len: u64, max_bytes: u64) -> Option<String> {
    let lo = addr.map_or(0, |a| a as u32 as u64);
    (lo + off as u64 + len > max_bytes).then(|| {
        format!(
            "memory access at address ≥ {lo} (+{off} offset, {len} bytes) is out of \
             bounds for every memory size (max {max_bytes} bytes)"
        )
    })
}

/// Why a `call_indirect` through table slot `k` expecting type `tid` can
/// only trap, or `None` when the slot holds a function of that type.
fn doomed_slot(m: &CompiledModule, k: u32, tid: u32) -> Option<String> {
    let target = match m.table.get(k as usize) {
        None => {
            return Some(format!(
                "call_indirect with constant index {k} outside the table \
                 (len {}) — guaranteed trap",
                m.table.len()
            ))
        }
        Some(None) => {
            return Some(format!(
                "call_indirect into uninitialized table slot {k} — guaranteed trap"
            ))
        }
        Some(Some(target)) => *target,
    };
    let ni = m.num_imports();
    let actual = if target < ni {
        m.host_funcs[target as usize].type_id
    } else {
        m.funcs[(target - ni) as usize].type_id
    };
    (actual != tid).then(|| {
        format!(
            "call_indirect into table slot {k} always mismatches the expected \
             signature — guaranteed trap"
        )
    })
}
