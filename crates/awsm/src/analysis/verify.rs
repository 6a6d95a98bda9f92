//! Re-verification of a shipped module against the certificates it carries.
//!
//! A [`CompiledModule`] decoded from an artifact was translated somewhere
//! else: its bodies and its [`AnalysisReport`](super::AnalysisReport) are
//! claims, not facts. [`verify_body`] re-derives, from the bodies alone, the
//! two properties the interpreter and the scheduler rely on without
//! checking — operand-stack consistency (the interpreter `expect`s on pops)
//! and the fuel instrumentation behind the preemption-latency certificate —
//! and compares them with what the report says. Artifact decode is its one
//! product caller: a module that fails it is never built.

use super::cost;
use super::stack::{self, ArityMap};
use crate::code::CompiledModule;

/// Prove, for `m`, that
///
/// * every export and the start function name a function of the module, and
///   every certificate has exactly one entry per function (the effect
///   certificate also one per import);
/// * every body is stack-effect consistent, keeps every branch target,
///   callee, local and global index in range, and stays within the operand
///   bound recorded in the report;
/// * stripping `Op::Fuel` and re-instrumenting under the recorded
///   `max_check_gap` reproduces the body and the recorded cost certificate
///   bit-for-bit, with the check-free gap inside the limit — so the
///   preemption bound is re-derived, never assumed.
///
/// # Errors
///
/// Returns the first violation as a message naming the export or function.
pub(crate) fn verify_body(m: &CompiledModule, arities: &ArityMap) -> Result<(), String> {
    let report = &m.analysis;
    let cost_report = &report.cost;
    let nfuncs = m.funcs.len();
    let indices = m.num_imports() as usize + nfuncs;
    for (name, &idx) in &m.exports {
        if idx as usize >= indices {
            return Err(format!(
                "export {name:?} names no function (index {idx}, the module has {indices})"
            ));
        }
    }
    if let Some(idx) = m.start.filter(|&idx| idx as usize >= indices) {
        return Err(format!(
            "start names no function (index {idx}, the module has {indices})"
        ));
    }
    if report.funcs.len() != nfuncs
        || cost_report.funcs.len() != nfuncs
        || report.effects.funcs.len() != nfuncs
        || report.effects.imports.len() != m.host_funcs.len()
    {
        return Err("certificate entry count mismatch".into());
    }
    let gap_limit = cost_report.max_check_gap.max(cost::MAX_SINGLE_OP_COST);

    for (fidx, func) in m.funcs.iter().enumerate() {
        let fname = || func.name.clone().unwrap_or_else(|| format!("func[{fidx}]"));
        let summary = &report.funcs[fidx];

        let hmax = stack::max_height(m, func, arities).map_err(|e| format!("{}: {e}", fname()))?;
        if hmax > summary.max_operand_slots {
            return Err(format!(
                "{}: body needs {hmax} operand slots, certificate says {}",
                fname(),
                summary.max_operand_slots
            ));
        }

        let (re, mut fc) =
            cost::instrument(&cost::strip_fuel(&func.code), cost_report.max_check_gap);
        if re != func.code {
            return Err(format!(
                "{}: fuel instrumentation does not reconstruct the shipped body",
                fname()
            ));
        }
        let stored = &cost_report.funcs[fidx];
        fc.name = stored.name.clone();
        if &fc != stored {
            return Err(format!("{}: cost certificate mismatch", fname()));
        }
        if fc.max_gap > gap_limit {
            return Err(format!(
                "{}: check gap {} exceeds limit {gap_limit}",
                fname(),
                fc.max_gap
            ));
        }
    }

    // The registry's gap gate reads the module-level figures.
    let funcs = &cost_report.funcs;
    if cost_report.max_gap != funcs.iter().map(|f| f.max_gap).max().unwrap_or(0)
        || cost_report.checks != funcs.iter().map(|f| f.checks).sum::<u32>()
        || cost_report.splits != funcs.iter().map(|f| f.splits).sum::<u32>()
    {
        return Err("module-level cost totals disagree with the per-function certificates".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{Branch, NumBin, Op};

    #[test]
    fn strip_fuel_round_trips_instrumentation() {
        let code = vec![
            Op::Const(1),
            Op::BinRC(NumBin::I32Add, 2),
            Op::Drop,
            Op::Br(Branch {
                target: 0,
                height: 0,
                keep: false,
            }),
        ];
        let (inst, fc) = cost::instrument(&code, 4);
        let stripped = cost::strip_fuel(&inst);
        assert_eq!(stripped, code);
        let (reinst, fc2) = cost::instrument(&stripped, 4);
        assert_eq!(reinst, inst);
        assert_eq!(fc, fc2);
    }
}
