//! Static cost model and preemption-latency certificates.
//!
//! Fuel is a **work meter**:
//!
//! 1. Every op gets a weight ([`op_cost`], in abstract *cost units*, one
//!    unit ≈ one simple interpreted op). Operand traffic the lowering folds
//!    into the ops that read it (`const`, `local.get`/`set`/`tee`,
//!    `global.get`, `drop`, an `i32.eqz` a branch tests) weighs 0, so a
//!    fold moves no fuel: a completed run burns the summed weight of the
//!    Wasm instructions it executed, which the reference interpreter
//!    (`crates/reference`) prices instruction by instruction and the
//!    differential tests hold the engine to.
//! 2. The flat code is partitioned into basic blocks (leaders: function
//!    entry, branch targets, and the op after any terminator — branches,
//!    `return`, `unreachable`, and calls). An explicit [`Op::Fuel`] charge
//!    is inserted at the head of every non-zero-cost block, carrying the
//!    block's exact summed cost; blocks costlier than the `max_check_gap`
//!    budget are split at analysis-chosen points. Branch targets are
//!    renumbered around the insertions.
//! 3. The resulting **certificate** ([`CostReport`]) states, per function,
//!    the maximum cost along any check-free path (`max_gap`). Because every
//!    charge site also polls the preempt flag, `max_gap` bounds
//!    preemption latency in cost units *by construction*:
//!    `gap ≤ max(max_check_gap, heaviest single op)`.
//!
//! At runtime the executor charges (and polls) only at `Op::Fuel`. Charges
//! a quantum cannot cover are carried as *debt* paid from subsequent
//! quanta, so any positive quantum makes progress (no livelock when a
//! dispatch's fuel is below `max_gap`).

use crate::code::{NumBin, NumUn, Op};

/// Default preemption-latency budget, in cost units, enforced at translate
/// time when no explicit budget is given (see
/// [`TranslateOptions`](crate::TranslateOptions)).
pub const DEFAULT_MAX_CHECK_GAP: u32 = 512;

pub(super) fn bin_cost(op: NumBin) -> u32 {
    use NumBin::*;
    match op {
        // Integer divide/remainder: hardware-slow and trap-checked.
        I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU => 4,
        I32Mul | I64Mul => 2,
        F32Div | F64Div => 6,
        F32Add | F32Sub | F32Mul | F32Min | F32Max | F64Add | F64Sub | F64Mul | F64Min | F64Max => {
            2
        }
        // Adds, subs, bitwise, shifts, rotates, comparisons, copysign.
        _ => 1,
    }
}

pub(super) fn un_cost(op: NumUn) -> u32 {
    use NumUn::*;
    match op {
        // Free: the lowering folds it into the branch that tests it, and
        // every pinned fuel count was measured with it weighing 0.
        I32Eqz => 0,
        F32Sqrt | F64Sqrt => 6,
        I32Popcnt | I64Popcnt => 2,
        // int<->float conversions (rounding, range checks).
        I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U | I64TruncF32S | I64TruncF32U
        | I64TruncF64S | I64TruncF64U | F32ConvertI32S | F32ConvertI32U | F32ConvertI64S
        | F32ConvertI64U | F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U => 2,
        F32Ceil | F32Floor | F32Trunc | F32Nearest | F64Ceil | F64Floor | F64Trunc | F64Nearest => {
            2
        }
        _ => 1,
    }
}

/// Weight of one flat op in cost units.
///
/// Invariants the weights must uphold (checked by unit tests):
///
/// * **Fold-compositional**: a lowered op weighs the sum of the stack ops
///   folded into it, so what the lowering folds away or into an operand
///   (`Const`, `LocalGet`, `LocalSet`, `LocalTee`, `Drop`, `GlobalGet`,
///   `i32.eqz` under a branch) weighs 0, and no fold moves fuel.
/// * **`Op::Fuel` weighs 0**: it is accounting, not guest work.
pub fn op_cost(op: &Op) -> u32 {
    match op {
        Op::Const(_)
        | Op::LocalGet(_)
        | Op::LocalSet(_)
        | Op::LocalTee(_)
        | Op::GlobalGet(_)
        | Op::Drop
        | Op::Unreachable
        | Op::Fuel(_) => 0,
        Op::Select | Op::GlobalSet(_) | Op::MemorySize | Op::Return => 1,
        Op::Br(_) | Op::BrIf(_) | Op::BrIfZ(_) => 1,
        Op::BrTable(_) => 2,
        Op::Call(_) => 8,
        Op::CallIndirect(_) => 10,
        Op::CallHost(_) => 16,
        Op::MemoryGrow => 64,
        Op::Load(..) | Op::Store(..) => 3,
        Op::Bin(b) => bin_cost(*b),
        Op::Un(u) => un_cost(*u),
    }
}

/// Per-function slice of the preemption-latency certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCost {
    /// Export/debug name, if known.
    pub name: Option<String>,
    /// Basic blocks in the (pre-instrumentation) body.
    pub blocks: u32,
    /// `Op::Fuel` charge sites inserted.
    pub checks: u32,
    /// Extra checks inserted because a block exceeded the gap budget.
    pub splits: u32,
    /// Static sum of all op weights in the body.
    pub total_cost: u64,
    /// Max cost along any check-free path — the certified preemption
    /// latency for this function, in cost units.
    pub max_gap: u32,
    /// Max check-free gap on a path through a loop body (the gaps that
    /// repeat; 0 if the function has no back-edge).
    pub max_loop_gap: u32,
    /// Max check-free gap of a segment containing a host call (wall-clock
    /// latency across such gaps additionally depends on the host; 0 if the
    /// function makes no host calls).
    pub max_host_gap: u32,
}

/// Module-wide cost model + preemption-latency certificate, cached on
/// [`CompiledModule`](crate::CompiledModule) via
/// [`AnalysisReport`](super::AnalysisReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// The gap budget the instrumentation enforced (cost units).
    pub max_check_gap: u32,
    /// Per-function certificates, parallel to `AnalysisReport::funcs`.
    pub funcs: Vec<FuncCost>,
    /// Module-wide max check-free gap: `max` over functions.
    pub max_gap: u32,
    /// Total `Op::Fuel` sites inserted.
    pub checks: u32,
    /// Total budget-driven splits.
    pub splits: u32,
}

impl CostReport {
    /// Whether the certified gap is within `budget` cost units.
    pub fn within(&self, budget: u32) -> bool {
        self.max_gap <= budget
    }
}

/// Ops that end a basic block: control leaves (or may leave) the
/// straight-line path, or (for calls) a check must follow so the gap
/// certificate composes across frames — the callee's final segment plus
/// the caller's post-call segment would otherwise form an unchecked path
/// of up to twice the budget.
pub(super) fn is_terminator(op: &Op) -> bool {
    matches!(
        op,
        Op::Br(_)
            | Op::BrIf(_)
            | Op::BrIfZ(_)
            | Op::BrTable(_)
            | Op::Return
            | Op::Unreachable
            | Op::Call(_)
            | Op::CallHost(_)
            | Op::CallIndirect(_)
    )
}

pub(crate) fn for_each_target(op: &Op, mut f: impl FnMut(u32)) {
    match op {
        Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => f(b.target),
        Op::BrTable(p) => {
            for t in &p.targets {
                f(t.target);
            }
            f(p.default.target);
        }
        _ => {}
    }
}

struct Chunk {
    /// Pre-instrumentation pc range `[start, end)`.
    start: usize,
    end: usize,
    cost: u64,
    host: bool,
}

fn remap_targets(code: &mut [Op], map: &[u32]) {
    for op in code {
        match op {
            Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => b.target = map[b.target as usize],
            Op::BrTable(p) => {
                for t in &mut p.targets {
                    t.target = map[t.target as usize];
                }
                p.default.target = map[p.default.target as usize];
            }
            _ => {}
        }
    }
}

/// Instrument one function body: partition into basic blocks, split blocks
/// over `budget`, insert [`Op::Fuel`] charges, renumber branch targets.
/// Returns the rewritten body and its certificate (with `name` unset), and
/// rewrites `heights` (one per op of `code`) to match the new body: a
/// `Fuel` has the height of the op it heads. A branch to a charged block
/// lands on its `Op::Fuel` header. Every branch target must be in range.
pub(crate) fn instrument(
    code: &[Op],
    heights: &mut Vec<Option<u32>>,
    budget: u32,
) -> (Vec<Op>, FuncCost) {
    let budget = budget.max(1) as u64;
    let n = code.len();

    // Leaders: entry, branch targets, op after a terminator.
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for (pc, op) in code.iter().enumerate() {
        if is_terminator(op) && pc + 1 < n {
            leader[pc + 1] = true;
        }
        for_each_target(op, |t| {
            leader[t as usize] = true;
            // Back-edge: everything in [target, pc] is (part of) a loop.
            if t as usize <= pc {
                loops.push((t as usize, pc));
            }
        });
    }

    // Greedy chunking: one chunk per block, split when the running cost
    // would exceed the budget (a single op heavier than the budget forms
    // its own chunk — a gap cannot be narrower than one op).
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut blocks = 0u32;
    let mut splits = 0u32;
    let mut i = 0;
    while i < n {
        blocks += 1;
        let mut j = i + 1;
        while j < n && !leader[j] {
            j += 1;
        }
        let (mut start, mut cost, mut host) = (i, 0u64, false);
        for (pc, op) in code.iter().enumerate().take(j).skip(i) {
            let c = op_cost(op) as u64;
            if cost > 0 && cost + c > budget {
                chunks.push(Chunk {
                    start,
                    end: pc,
                    cost,
                    host,
                });
                splits += 1;
                (start, cost, host) = (pc, 0, false);
            }
            cost += c;
            host |= matches!(op, Op::CallHost(_));
        }
        chunks.push(Chunk {
            start,
            end: j,
            cost,
            host,
        });
        i = j;
    }

    // Emit, recording where each old pc (in particular each leader) lands.
    let mut out: Vec<Op> = Vec::with_capacity(n + chunks.len());
    let mut out_heights = Vec::with_capacity(n + chunks.len());
    let mut map = vec![0u32; n];
    let mut checks = 0u32;
    for ch in &chunks {
        let entry = out.len() as u32;
        if ch.cost > 0 {
            out.push(Op::Fuel(ch.cost as u32));
            out_heights.push(heights[ch.start]);
            checks += 1;
        }
        for pc in ch.start..ch.end {
            map[pc] = if pc == ch.start {
                entry
            } else {
                out.len() as u32
            };
            out.push(code[pc].clone());
            out_heights.push(heights[pc]);
        }
    }
    remap_targets(&mut out, &map);
    *heights = out_heights;

    let gap_of = |pred: &dyn Fn(&Chunk) -> bool| -> u32 {
        chunks
            .iter()
            .filter(|c| pred(c))
            .map(|c| c.cost)
            .max()
            .unwrap_or(0) as u32
    };
    let in_loop = |c: &Chunk| -> bool { loops.iter().any(|&(lo, hi)| c.start <= hi && c.end > lo) };
    let stats = FuncCost {
        name: None,
        blocks,
        checks,
        splits,
        total_cost: chunks.iter().map(|c| c.cost).sum(),
        max_gap: gap_of(&|_| true),
        max_loop_gap: gap_of(&in_loop),
        max_host_gap: gap_of(&|c: &Chunk| c.host),
    };
    (out, stats)
}
