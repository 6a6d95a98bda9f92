//! Structural lints that need no dataflow: functions that trap on entry,
//! functions no entry path can reach, branches whose condition is a
//! literal constant, and locals that are written but never read.

use super::{Diagnostic, Severity};
use crate::code::{CompiledModule, Op};
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
                Op::LocalGet(l) | Op::BinRL(_, l) | Op::LoadL(_, l, _) => mark(&mut read, *l),
                Op::LocalSet(l) => mark(&mut written, *l),
                Op::LocalTee(l) => mark(&mut written, *l),
                Op::IncI32(l, _) => {
                    mark(&mut read, *l);
                    mark(&mut written, *l);
                }
                Op::Bin2L(_, a, b) => {
                    mark(&mut read, *a);
                    mark(&mut read, *b);
                }
                Op::Bin2LS(_, a, b, d) => {
                    mark(&mut read, *a);
                    mark(&mut read, *b);
                    mark(&mut written, *d);
                }
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
