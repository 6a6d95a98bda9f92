//! Stack-bound verification: per-pc operand heights, the call graph,
//! recursion detection, and the module-wide worst-case stack demand over
//! the frames the lowered bodies reserve.
//!
//! Heights are a simple forward dataflow over the flat code. Validated Wasm
//! guarantees every pc has a single well-defined height, so the "join" is
//! equality; unreachable pcs simply never get one. The walker is fallible:
//! whatever built a body, every later pass and the executor's unchecked
//! slab indexing rely only on heights it accepted.

use super::cost::for_each_target;
use super::StackBound;
use crate::code::{Branch, CompiledFunc, CompiledModule, Op};
use std::collections::{HashMap, HashSet};

/// Bytes of a `Frame` record (func, pc — 2 × u32 — and the slab base).
const FRAME_RECORD_BYTES: u64 = 16;

/// Arity of a canonical type id: `(nparams, has_result)`.
pub(crate) type ArityMap = HashMap<u32, (u32, bool)>;

/// The module's arity map. Built once per translation and passed to every
/// pass that needs it.
pub(crate) fn arity_map(m: &CompiledModule) -> ArityMap {
    let mut map = ArityMap::new();
    for f in &m.funcs {
        map.insert(f.type_id, (f.nparams, f.has_result));
    }
    for h in &m.host_funcs {
        map.insert(h.type_id, (h.nparams, h.has_result));
    }
    map
}

/// Every body's [`heights`], by function, or the first body it refuses.
pub(super) fn check_heights(
    m: &CompiledModule,
    arities: &ArityMap,
) -> Result<Vec<Vec<Option<u32>>>, String> {
    let walk = |(fidx, func): (usize, &CompiledFunc)| {
        heights(m, func, arities).map_err(|e| match &func.name {
            Some(n) => format!("{n}: {e}"),
            None => format!("func[{fidx}]: {e}"),
        })
    };
    m.funcs.iter().enumerate().map(walk).collect()
}

/// Frame footprint in bytes of a frame of `slots` slots (parameters,
/// locals and operands), frame record included.
pub(super) fn frame_bytes(slots: u32) -> u64 {
    slots as u64 * 8 + FRAME_RECORD_BYTES
}

/// `(pops, pushes)` of an op that neither transfers control nor calls.
pub(super) fn stack_effect(op: &Op) -> (u32, u32) {
    match op {
        Op::Drop | Op::LocalSet(_) | Op::GlobalSet(_) => (1, 0),
        Op::Select => (3, 1),
        Op::LocalGet(_) | Op::GlobalGet(_) | Op::MemorySize | Op::Const(_) => (0, 1),
        Op::LocalTee(_) | Op::Load(..) | Op::MemoryGrow | Op::Un(_) => (1, 1),
        Op::Store(..) => (2, 0),
        Op::Bin(_) => (2, 1),
        _ => (0, 0),
    }
}

/// Highest local and global index `op` touches, if any.
fn slots_used(op: &Op) -> (Option<u32>, Option<u32>) {
    match op {
        Op::LocalGet(l) | Op::LocalSet(l) | Op::LocalTee(l) => (Some(*l), None),
        Op::GlobalGet(g) | Op::GlobalSet(g) => (None, Some(*g)),
        _ => (None, None),
    }
}

/// Every index `op` names — branch targets, callee, host import, locals and
/// globals — is in range, or the first one that is not.
fn indices_in_range(m: &CompiledModule, func: &CompiledFunc, op: &Op) -> Result<(), String> {
    let mut past_end = None;
    for_each_target(op, |t| {
        if t as usize >= func.code.len() {
            past_end = Some(t);
        }
    });
    if let Some(t) = past_end {
        return Err(format!("branch to pc {t}, past the end of the body"));
    }
    let (local, global) = slots_used(op);
    if local.is_some_and(|l| l >= func.nlocals) {
        return Err("local index out of range".into());
    }
    if global.is_some_and(|g| g as usize >= m.globals.len()) {
        return Err("global index out of range".into());
    }
    match op {
        Op::Call(f) if *f as usize >= m.funcs.len() => Err(format!("call to unknown function {f}")),
        Op::CallHost(h) if *h as usize >= m.host_funcs.len() => {
            Err(format!("call to unknown host import {h}"))
        }
        _ => Ok(()),
    }
}

/// The crate's one operand-height walker: the operand-stack height on entry
/// to every reachable pc of `func` (`None` for dead code), or the first
/// reason the body cannot be analyzed, lowered and run safely — an index
/// (branch target, callee, local, global) out of range anywhere in the
/// body, dead code included, or, on a reachable path, two paths disagreeing
/// on a pc's height, an op popping more than is there, a branch carrying
/// more than is there, or control leaving the body.
pub(crate) fn heights(
    m: &CompiledModule,
    func: &CompiledFunc,
    arities: &ArityMap,
) -> Result<Vec<Option<u32>>, String> {
    let code = &func.code;
    // Whole-body passes after this walk (call graph, lints, instrumentation)
    // index by every op, reachable or not.
    for (pc, op) in code.iter().enumerate() {
        indices_in_range(m, func, op).map_err(|e| format!("{e} at pc {pc}"))?;
    }
    let mut height: Vec<Option<u32>> = vec![None; code.len()];
    let mut work: Vec<(usize, u32)> = Vec::new();

    // Record the height flowing into `pc`; enqueue on first visit.
    let mut flow = |work: &mut Vec<(usize, u32)>, pc: usize, h: u32| -> Result<(), String> {
        match height.get_mut(pc) {
            None => Err(format!("control reaches pc {pc}, past the end of the body")),
            Some(Some(prev)) if *prev != h => {
                Err(format!("operand height conflict at pc {pc}: {prev} vs {h}"))
            }
            Some(Some(_)) => Ok(()),
            Some(slot) => {
                *slot = Some(h);
                work.push((pc, h));
                Ok(())
            }
        }
    };

    flow(&mut work, 0, 0)?;
    while let Some((pc, h)) = work.pop() {
        let next = pc + 1;
        // Height after popping `pops` and pushing `pushes`.
        let after = |pops: u32, pushes: u32| -> Result<u32, String> {
            h.checked_sub(pops)
                .map(|rest| rest + pushes)
                .ok_or_else(|| format!("operand underflow at pc {pc}: have {h}, need {pops}"))
        };
        // Target and height of a branch taken with `have` operands: it
        // keeps `height` of them, plus the value it carries.
        let branch = |b: &Branch, have: u32| match b.height.checked_add(b.keep as u32) {
            Some(th) if th <= have => Ok((b.target as usize, th)),
            _ => Err(format!(
                "branch at pc {pc} carries more operands than there are"
            )),
        };
        let op = &code[pc];
        match op {
            Op::Unreachable => {}
            Op::Return => {
                after(func.has_result as u32, 0)?;
            }
            Op::Br(b) => {
                let (t, th) = branch(b, h)?;
                flow(&mut work, t, th)?;
            }
            Op::BrIf(b) | Op::BrIfZ(b) => {
                let rest = after(1, 0)?;
                let (t, th) = branch(b, rest)?;
                flow(&mut work, t, th)?;
                flow(&mut work, next, rest)?;
            }
            Op::BrTable(payload) => {
                let rest = after(1, 0)?;
                for b in payload
                    .targets
                    .iter()
                    .chain(std::iter::once(&payload.default))
                {
                    let (t, th) = branch(b, rest)?;
                    flow(&mut work, t, th)?;
                }
            }
            Op::Call(f) => {
                let callee = &m.funcs[*f as usize];
                flow(
                    &mut work,
                    next,
                    after(callee.nparams, callee.has_result as u32)?,
                )?;
            }
            Op::CallHost(hidx) => {
                let imp = &m.host_funcs[*hidx as usize];
                flow(&mut work, next, after(imp.nparams, imp.has_result as u32)?)?;
            }
            Op::CallIndirect(tid) => {
                after(1, 0)?;
                // Unknown type id: no function of that type exists anywhere,
                // so the call can only trap — treat as a terminator.
                if let Some((np, res)) = arities.get(tid) {
                    flow(&mut work, next, after(np.saturating_add(1), *res as u32)?)?;
                }
            }
            op => {
                let (pops, pushes) = stack_effect(op);
                flow(&mut work, next, after(pops, pushes)?)?;
            }
        }
    }
    Ok(height)
}

/// The module's call graph over local functions.
pub(super) struct CallGraph {
    /// Out-edges per local function (deduplicated).
    callees: Vec<Vec<u32>>,
    /// Entry points: exported local functions and table-resident functions.
    roots: Vec<u32>,
}

impl CallGraph {
    /// Out-edges per local function (indirect calls over-approximated by
    /// type-compatible table residency).
    pub(super) fn callees(&self) -> &[Vec<u32>] {
        &self.callees
    }

    pub(super) fn build(m: &CompiledModule) -> CallGraph {
        let ni = m.num_imports();
        // Local functions resident in the table, grouped by type id — the
        // over-approximated target set of every `call_indirect`.
        let mut table_by_type: HashMap<u32, Vec<u32>> = HashMap::new();
        for entry in m.table.iter().flatten() {
            if *entry >= ni {
                let f = *entry - ni;
                let tid = m.funcs[f as usize].type_id;
                let v = table_by_type.entry(tid).or_default();
                if !v.contains(&f) {
                    v.push(f);
                }
            }
        }

        let mut callees: Vec<Vec<u32>> = Vec::with_capacity(m.funcs.len());
        for func in &m.funcs {
            let mut out: Vec<u32> = Vec::new();
            for op in &func.code {
                match op {
                    Op::Call(f) if !out.contains(f) => out.push(*f),
                    Op::CallIndirect(tid) => {
                        for f in table_by_type.get(tid).map(|v| &v[..]).unwrap_or(&[]) {
                            if !out.contains(f) {
                                out.push(*f);
                            }
                        }
                    }
                    _ => {}
                }
            }
            callees.push(out);
        }

        let mut roots: Vec<u32> = Vec::new();
        for &idx in m.exports.values() {
            if idx >= ni && !roots.contains(&(idx - ni)) {
                roots.push(idx - ni);
            }
        }
        for entry in m.table.iter().flatten() {
            if *entry >= ni && !roots.contains(&(*entry - ni)) {
                roots.push(*entry - ni);
            }
        }
        roots.sort_unstable();

        CallGraph { callees, roots }
    }

    /// Every local function reachable from an export or the table.
    pub(super) fn reachable_set(&self) -> HashSet<u32> {
        let mut seen: HashSet<u32> = self.roots.iter().copied().collect();
        let mut work: Vec<u32> = self.roots.clone();
        while let Some(f) = work.pop() {
            for &c in &self.callees[f as usize] {
                if seen.insert(c) {
                    work.push(c);
                }
            }
        }
        seen
    }

    /// Worst-case stack demand in bytes over all entry paths, given each
    /// local function's frame in bytes, or the cycle that makes it
    /// unbounded.
    pub(super) fn stack_bound(&self, frame: &[u64]) -> StackBound {
        if let Some(cycle) = self.find_cycle() {
            return StackBound::Unbounded { cycle };
        }

        // Acyclic: memoized longest path, iteratively (guests can be deep).
        let mut cost: Vec<Option<u64>> = vec![None; frame.len()];
        for &root in &self.roots {
            // Post-order: compute children before parents.
            let mut stack: Vec<(u32, bool)> = vec![(root, false)];
            while let Some((f, expanded)) = stack.pop() {
                if cost[f as usize].is_some() {
                    continue;
                }
                if expanded {
                    let deepest = self.callees[f as usize]
                        .iter()
                        .map(|&c| cost[c as usize].expect("child computed"))
                        .max()
                        .unwrap_or(0);
                    cost[f as usize] = Some(frame[f as usize] + deepest);
                } else {
                    stack.push((f, true));
                    for &c in &self.callees[f as usize] {
                        if cost[c as usize].is_none() {
                            stack.push((c, false));
                        }
                    }
                }
            }
        }
        let bound = self
            .roots
            .iter()
            .map(|&r| cost[r as usize].expect("root computed"))
            .max()
            .unwrap_or(0);
        StackBound::Bounded(bound)
    }

    /// Find a call cycle reachable from the roots, if any (iterative
    /// three-color DFS).
    fn find_cycle(&self) -> Option<Vec<u32>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.callees.len()];
        let mut path: Vec<u32> = Vec::new();

        for &root in &self.roots {
            if color[root as usize] != Color::White {
                continue;
            }
            // Stack of (node, next-callee-index to try).
            let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
            color[root as usize] = Color::Gray;
            path.push(root);
            while let Some(&mut (f, ref mut next)) = stack.last_mut() {
                if let Some(&c) = self.callees[f as usize].get(*next) {
                    *next += 1;
                    match color[c as usize] {
                        Color::Gray => {
                            // Back edge: the cycle is the path suffix from c.
                            let at = path.iter().position(|&p| p == c).expect("on path");
                            return Some(path[at..].to_vec());
                        }
                        Color::White => {
                            color[c as usize] = Color::Gray;
                            path.push(c);
                            stack.push((c, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[f as usize] = Color::Black;
                    path.pop();
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sledge_guestc::{dsl::*, FuncBuilder, ModuleBuilder};
    use sledge_wasm::types::ValType;

    /// Whatever built a body, the walker refuses one that would index past
    /// a frame, a function table or the body itself, or pop what is not
    /// there; every later pass and the executor rely on that.
    #[test]
    fn hostile_bodies_are_refused_by_the_height_walker() {
        let mut mb = ModuleBuilder::new("walk");
        let poke = mb.import_func("env", "poke", &[ValType::I32], None);
        let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
        let x = f.arg(0);
        f.extend([
            exec(call(poke, vec![local(x)])),
            ret(Some(add(local(x), i32c(1)))),
        ]);
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let module = mb.build().unwrap();
        let build = || crate::translate(&module, crate::Tier::Optimized).unwrap();
        let honest = build();
        // The body opens with its fuel charge, then `local.get 0`.
        assert!(matches!(
            honest.funcs[0].code[..2],
            [Op::Fuel(_), Op::LocalGet(0)]
        ));

        // (what is edited, what the walker must say)
        type Edit = fn(&mut CompiledModule);
        let edits: [(Edit, &str); 5] = [
            (|m| m.funcs[0].code.insert(1, Op::Drop), "operand underflow"),
            (
                |m| {
                    drop(
                        m.funcs[0]
                            .code
                            .splice(1..1, [Op::LocalGet(1 << 20), Op::Drop]),
                    )
                },
                "local index out of range",
            ),
            (
                |m| m.funcs[0].code.insert(1, Op::Call(99)),
                "unknown function",
            ),
            (|m| m.funcs[0].code.truncate(2), "past the end"),
            // The import claims more arguments than its call sites push.
            (|m| m.host_funcs[0].nparams = 1000, "operand underflow"),
        ];
        let walk = |m: &CompiledModule| heights(m, &m.funcs[0], &arity_map(m));
        walk(&honest).unwrap();
        for (edit, why) in edits {
            let mut m = build();
            edit(&mut m);
            let err = walk(&m).unwrap_err();
            assert!(err.contains(why), "{err} (wanted: {why})");
        }
    }
}
