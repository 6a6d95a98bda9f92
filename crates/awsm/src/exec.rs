//! The resumable interpreter: executes translated code with fuel accounting
//! and external preemption, returning control to the scheduler at safe
//! points.

use crate::code::{CompiledModule, LoadKind, Op, StoreKind};
use crate::host::{Host, HostOutcome};
use crate::memory::{Bounds, LinearMemory};
use crate::value::Trap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Result of driving a sandbox for one quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepResult {
    /// The entry function returned (with its result slot, if any).
    Complete(Option<u64>),
    /// The fuel budget was exhausted; call `run` again to continue.
    OutOfFuel,
    /// The external preempt flag was observed; call `run` again to continue.
    Preempted,
    /// A host call returned [`HostOutcome::Pending`]; the sandbox is parked
    /// until the embedding runtime decides to resume it.
    Blocked,
    /// The sandbox violated a safety condition and is dead.
    Trapped(Trap),
}

/// Execution limits protecting the runtime from runaway guests.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum call depth.
    pub max_frames: usize,
    /// Maximum operand-stack slots.
    pub max_stack: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frames: 8192,
            max_stack: 1 << 20,
        }
    }
}

/// One call frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// Index into `CompiledModule::funcs`.
    pub func: u32,
    /// Resume position.
    pub pc: u32,
    /// Base of this frame's locals in the locals stack.
    pub locals_base: u32,
    /// Operand-stack height at frame entry.
    pub stack_base: u32,
}

/// A host call that returned `Pending` and must be re-issued on resume.
#[derive(Debug, Clone)]
pub(crate) struct PendingHost {
    pub idx: u32,
    pub args: Vec<u64>,
}

/// The complete, saveable execution state of one sandbox — the paper's
/// "user-level context", kept outside linear memory (two-stack CFI).
#[derive(Debug, Default)]
pub(crate) struct ExecState {
    pub stack: Vec<u64>,
    pub frames: Vec<Frame>,
    pub locals: Vec<u64>,
    pub pending: Option<PendingHost>,
    /// Cost units charged but not yet covered by any quantum. Paid down at
    /// the start of the next `run` before execution resumes, so a charge
    /// larger than one quantum still makes progress (no livelock) while
    /// total fuel consumed stays exact.
    pub fuel_debt: u64,
    /// Set when `fuel_debt` was recorded for the op at the saved `pc`
    /// *before* it executed (naive per-op accounting): once the debt is
    /// paid, the first budget check after resume skips its charge so the
    /// op is not billed twice.
    pub prepaid: bool,
}

impl ExecState {
    pub fn clear(&mut self) {
        self.stack.clear();
        self.frames.clear();
        self.locals.clear();
        self.pending = None;
        self.fuel_debt = 0;
        self.prepaid = false;
    }
}

/// Charge `$cost` fuel units against the quantum and poll the external
/// preempt flag — the two ways a runnable sandbox yields. Saves `$pc` into
/// the current frame before pausing.
///
/// When the quantum cannot cover the charge, the shortfall is recorded as
/// `fuel_debt` (paid from subsequent quanta at the top of `run`) and
/// `OutOfFuel` is returned. **Tie-break: `OutOfFuel` wins** — if the
/// preempt flag is also set at an exhausted check, we still report
/// `OutOfFuel`; the flag stays set (`Instance::run` clears it only on
/// `Preempted`), so the pending preemption is consistently reported at the
/// next check of the next quantum rather than lost.
///
/// Two arms, differing in what the charge pays for:
///
/// * `at $pc` — pays for the op *at* `$pc`, which has not executed yet
///   (naive per-op accounting). A pause resumes at that op; `prepaid`
///   remembers its charge was already taken so it is not billed twice.
/// * `past $pc` — `$pc` has advanced past the charging op (an
///   [`Op::Fuel`] segment charge): a pause resumes after it, and the debt
///   alone carries the unpaid remainder.
macro_rules! check_budget {
    (at $pc:ident: $cost:expr, $fuel:ident, $preempt:ident, $st:ident) => {
        if $st.prepaid {
            $st.prepaid = false;
        } else {
            let c: u64 = $cost;
            if *$fuel < c {
                $st.fuel_debt = c - *$fuel;
                *$fuel = 0;
                $st.prepaid = true;
                $st.frames.last_mut().expect("frame").pc = $pc as u32;
                return StepResult::OutOfFuel;
            }
            *$fuel -= c;
        }
        if $preempt.load(Ordering::Relaxed) {
            // The op at $pc is charged but not executed; resume must not
            // bill it again.
            $st.prepaid = true;
            $st.frames.last_mut().expect("frame").pc = $pc as u32;
            return StepResult::Preempted;
        }
    };
    (past $pc:ident: $cost:expr, $fuel:ident, $preempt:ident, $st:ident) => {
        let c: u64 = $cost;
        if *$fuel < c {
            $st.fuel_debt = c - *$fuel;
            *$fuel = 0;
            $st.frames.last_mut().expect("frame").pc = $pc as u32;
            return StepResult::OutOfFuel;
        }
        *$fuel -= c;
        if $preempt.load(Ordering::Relaxed) {
            $st.frames.last_mut().expect("frame").pc = $pc as u32;
            return StepResult::Preempted;
        }
    };
}

/// Drive the sandbox until completion, trap, fuel exhaustion, preemption, or
/// a blocking host call.
///
/// Fuel is a work meter in the cost model's units (see
/// [`op_cost`](crate::analysis::cost::op_cost)). `NAIVE` selects the naive
/// tier's accounting: every instruction charges its own weight. The
/// optimized tier charges only at the [`Op::Fuel`] sites the cost analysis
/// inserted, each paying the exact summed weight of the check-free segment
/// it heads — so both tiers consume identical total fuel for the same
/// execution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<B: Bounds, const NAIVE: bool>(
    m: &CompiledModule,
    st: &mut ExecState,
    mem: &mut LinearMemory,
    globals: &mut [u64],
    table: &[Option<u32>],
    host: &mut dyn Host,
    fuel: &mut u64,
    preempt: &AtomicBool,
    limits: &Limits,
) -> StepResult {
    // Pay down debt from a charge the previous quantum could not cover.
    // Execution state was fully saved when the debt was recorded.
    if st.fuel_debt > 0 {
        let pay = st.fuel_debt.min(*fuel);
        st.fuel_debt -= pay;
        *fuel -= pay;
        if st.fuel_debt > 0 {
            return StepResult::OutOfFuel;
        }
        if preempt.load(Ordering::Relaxed) {
            return StepResult::Preempted;
        }
    }

    // Re-issue a pending host call, if any.
    if let Some(p) = st.pending.take() {
        let imp = &m.host_funcs[p.idx as usize];
        match host.call(p.idx, imp, &p.args, mem) {
            HostOutcome::Value(v) => st.stack.push(v),
            HostOutcome::Unit => {}
            HostOutcome::Pending => {
                st.pending = Some(p);
                return StepResult::Blocked;
            }
            HostOutcome::Trap(t) => return StepResult::Trapped(t),
        }
    }

    'frames: loop {
        let (fidx, mut pc, lb, sb) = {
            let f = match st.frames.last() {
                Some(f) => f,
                None => return StepResult::Complete(st.stack.pop().map(Some).unwrap_or(None)),
            };
            (
                f.func as usize,
                f.pc as usize,
                f.locals_base as usize,
                f.stack_base as usize,
            )
        };
        let func = &m.funcs[fidx];
        let code = &func.code[..];

        loop {
            debug_assert!(pc < code.len(), "pc ran off function end");
            let op = &code[pc];
            if NAIVE {
                check_budget!(at pc: crate::analysis::cost::op_cost(op) as u64,
                    fuel, preempt, st);
            }
            pc += 1;
            match op {
                Op::Unreachable => return StepResult::Trapped(Trap::Unreachable),
                Op::Fuel(n) => {
                    // The optimized tier's only charge/poll site: pays the
                    // exact cost of the segment this op heads. The naive
                    // tier already charged per op (this op weighs 0).
                    if !NAIVE {
                        check_budget!(past pc: *n as u64, fuel, preempt, st);
                    }
                }
                Op::Br(b) => {
                    apply_branch(&mut st.stack, sb, b);
                    pc = b.target as usize;
                }
                Op::BrIf(b) => {
                    let c = st.stack.pop().expect("brif cond");
                    if c as u32 != 0 {
                        apply_branch(&mut st.stack, sb, b);
                        pc = b.target as usize;
                    }
                }
                Op::BrIfZ(b) => {
                    let c = st.stack.pop().expect("brifz cond");
                    if c as u32 == 0 {
                        apply_branch(&mut st.stack, sb, b);
                        pc = b.target as usize;
                    }
                }
                Op::BrTable(payload) => {
                    let i = st.stack.pop().expect("brtable index") as u32 as usize;
                    let b = payload.targets.get(i).unwrap_or(&payload.default);
                    apply_branch(&mut st.stack, sb, b);
                    pc = b.target as usize;
                }
                Op::Return => {
                    let result = if func.has_result {
                        st.stack.pop()
                    } else {
                        None
                    };
                    st.stack.truncate(sb);
                    st.locals.truncate(lb);
                    st.frames.pop();
                    if st.frames.is_empty() {
                        return StepResult::Complete(result);
                    }
                    if let Some(v) = result {
                        st.stack.push(v);
                    }
                    continue 'frames;
                }
                Op::Call(f) => {
                    st.frames.last_mut().expect("frame").pc = pc as u32;
                    if let Err(t) = push_call(m, st, *f, limits) {
                        return StepResult::Trapped(t);
                    }
                    // No budget check here: calls terminate cost segments,
                    // so the callee's entry `Op::Fuel` charges next.
                    continue 'frames;
                }
                Op::CallHost(h) => {
                    let imp = &m.host_funcs[*h as usize];
                    let n = imp.nparams as usize;
                    let at = st.stack.len() - n;
                    let args: Vec<u64> = st.stack.split_off(at);
                    match host.call(*h, imp, &args, mem) {
                        HostOutcome::Value(v) => st.stack.push(v),
                        HostOutcome::Unit => {}
                        HostOutcome::Pending => {
                            st.pending = Some(PendingHost { idx: *h, args });
                            st.frames.last_mut().expect("frame").pc = pc as u32;
                            return StepResult::Blocked;
                        }
                        HostOutcome::Trap(t) => return StepResult::Trapped(t),
                    }
                }
                Op::CallIndirect(type_id) => {
                    let i = st.stack.pop().expect("indirect index") as u32 as usize;
                    let entry = match table.get(i) {
                        Some(e) => e,
                        None => return StepResult::Trapped(Trap::TableOutOfBounds),
                    };
                    let target = match entry {
                        Some(t) => *t,
                        None => return StepResult::Trapped(Trap::UndefinedElement),
                    };
                    let ni = m.num_imports();
                    if target < ni {
                        let imp = &m.host_funcs[target as usize];
                        if imp.type_id != *type_id {
                            return StepResult::Trapped(Trap::IndirectTypeMismatch);
                        }
                        let n = imp.nparams as usize;
                        let at = st.stack.len() - n;
                        let args: Vec<u64> = st.stack.split_off(at);
                        match host.call(target, imp, &args, mem) {
                            HostOutcome::Value(v) => st.stack.push(v),
                            HostOutcome::Unit => {}
                            HostOutcome::Pending => {
                                st.pending = Some(PendingHost { idx: target, args });
                                st.frames.last_mut().expect("frame").pc = pc as u32;
                                return StepResult::Blocked;
                            }
                            HostOutcome::Trap(t) => return StepResult::Trapped(t),
                        }
                    } else {
                        let f = target - ni;
                        if m.funcs[f as usize].type_id != *type_id {
                            return StepResult::Trapped(Trap::IndirectTypeMismatch);
                        }
                        st.frames.last_mut().expect("frame").pc = pc as u32;
                        if let Err(t) = push_call(m, st, f, limits) {
                            return StepResult::Trapped(t);
                        }
                        continue 'frames;
                    }
                }
                Op::Drop => {
                    st.stack.pop();
                }
                Op::Select => {
                    let c = st.stack.pop().expect("select cond");
                    let b2 = st.stack.pop().expect("select b");
                    let a = st.stack.pop().expect("select a");
                    st.stack.push(if c as u32 != 0 { a } else { b2 });
                }
                Op::LocalGet(i) => st.stack.push(st.locals[lb + *i as usize]),
                Op::LocalSet(i) => st.locals[lb + *i as usize] = st.stack.pop().expect("set value"),
                Op::LocalTee(i) => {
                    st.locals[lb + *i as usize] = *st.stack.last().expect("tee value")
                }
                Op::GlobalGet(i) => st.stack.push(globals[*i as usize]),
                Op::GlobalSet(i) => globals[*i as usize] = st.stack.pop().expect("global value"),
                Op::Load(kind, off) => {
                    let addr = st.stack.pop().expect("load addr") as u32;
                    match do_load::<B>(mem, *kind, addr, *off) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::LoadL(kind, local, off) => {
                    let addr = st.locals[lb + *local as usize] as u32;
                    match do_load::<B>(mem, *kind, addr, *off) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::Store(kind, off) => {
                    let val = st.stack.pop().expect("store value");
                    let addr = st.stack.pop().expect("store addr") as u32;
                    if let Err(t) = do_store::<B>(mem, *kind, addr, *off, val) {
                        return StepResult::Trapped(t);
                    }
                }
                Op::MemorySize => st.stack.push(mem.pages() as u64),
                Op::MemoryGrow => {
                    let n = st.stack.pop().expect("grow pages") as u32;
                    let r = mem.grow(n);
                    st.stack.push(r as u32 as u64);
                }
                Op::Const(c) => st.stack.push(*c),
                Op::Bin(op) => {
                    let y = st.stack.pop().expect("bin rhs");
                    let x = st.stack.pop().expect("bin lhs");
                    match crate::numeric::bin(*op, x, y) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::Un(op) => {
                    let x = st.stack.pop().expect("un operand");
                    match crate::numeric::un(*op, x) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::Bin2L(op, a, c) => {
                    let x = st.locals[lb + *a as usize];
                    let y = st.locals[lb + *c as usize];
                    match crate::numeric::bin(*op, x, y) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::BinRL(op, c) => {
                    let y = st.locals[lb + *c as usize];
                    let x = st.stack.pop().expect("binrl lhs");
                    match crate::numeric::bin(*op, x, y) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::BinRC(op, c) => {
                    let x = st.stack.pop().expect("binrc lhs");
                    match crate::numeric::bin(*op, x, *c) {
                        Ok(v) => st.stack.push(v),
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::Bin2LS(op, a, c, d) => {
                    let x = st.locals[lb + *a as usize];
                    let y = st.locals[lb + *c as usize];
                    match crate::numeric::bin(*op, x, y) {
                        Ok(v) => st.locals[lb + *d as usize] = v,
                        Err(t) => return StepResult::Trapped(t),
                    }
                }
                Op::IncI32(i, delta) => {
                    let slot = &mut st.locals[lb + *i as usize];
                    *slot = (*slot as u32).wrapping_add(*delta as u32) as u64;
                }
            }
        }
    }
}

#[inline(always)]
fn apply_branch(stack: &mut Vec<u64>, sb: usize, b: &crate::code::Branch) {
    let want = sb + b.height as usize;
    if b.keep {
        let v = *stack.last().expect("kept value");
        stack.truncate(want);
        stack.push(v);
    } else {
        stack.truncate(want);
    }
}

#[inline(always)]
fn push_call(m: &CompiledModule, st: &mut ExecState, f: u32, limits: &Limits) -> Result<(), Trap> {
    if st.frames.len() >= limits.max_frames || st.stack.len() >= limits.max_stack {
        return Err(Trap::StackExhausted);
    }
    let callee = &m.funcs[f as usize];
    let n = callee.nparams as usize;
    let lb2 = st.locals.len();
    let at = st.stack.len() - n;
    st.locals.extend_from_slice(&st.stack[at..]);
    st.stack.truncate(at);
    st.locals.resize(lb2 + callee.nlocals as usize, 0);
    st.frames.push(Frame {
        func: f,
        pc: 0,
        locals_base: lb2 as u32,
        stack_base: st.stack.len() as u32,
    });
    Ok(())
}

#[inline(always)]
fn do_load<B: Bounds>(
    mem: &LinearMemory,
    kind: LoadKind,
    addr: u32,
    off: u32,
) -> Result<u64, Trap> {
    Ok(match kind {
        LoadKind::I32 | LoadKind::F32 => u32::from_le_bytes(mem.load::<B, 4>(addr, off)?) as u64,
        LoadKind::I64 | LoadKind::F64 => u64::from_le_bytes(mem.load::<B, 8>(addr, off)?),
        LoadKind::I32U8 => mem.load::<B, 1>(addr, off)?[0] as u64,
        LoadKind::I32S8 => mem.load::<B, 1>(addr, off)?[0] as i8 as i32 as u32 as u64,
        LoadKind::I32U16 => u16::from_le_bytes(mem.load::<B, 2>(addr, off)?) as u64,
        LoadKind::I32S16 => {
            u16::from_le_bytes(mem.load::<B, 2>(addr, off)?) as i16 as i32 as u32 as u64
        }
        LoadKind::I64U8 => mem.load::<B, 1>(addr, off)?[0] as u64,
        LoadKind::I64S8 => mem.load::<B, 1>(addr, off)?[0] as i8 as i64 as u64,
        LoadKind::I64U16 => u16::from_le_bytes(mem.load::<B, 2>(addr, off)?) as u64,
        LoadKind::I64S16 => u16::from_le_bytes(mem.load::<B, 2>(addr, off)?) as i16 as i64 as u64,
        LoadKind::I64U32 => u32::from_le_bytes(mem.load::<B, 4>(addr, off)?) as u64,
        LoadKind::I64S32 => u32::from_le_bytes(mem.load::<B, 4>(addr, off)?) as i32 as i64 as u64,
    })
}

#[inline(always)]
fn do_store<B: Bounds>(
    mem: &mut LinearMemory,
    kind: StoreKind,
    addr: u32,
    off: u32,
    val: u64,
) -> Result<(), Trap> {
    match kind {
        StoreKind::I32 | StoreKind::F32 => mem.store::<B, 4>(addr, off, (val as u32).to_le_bytes()),
        StoreKind::I64 | StoreKind::F64 => mem.store::<B, 8>(addr, off, val.to_le_bytes()),
        StoreKind::B8From32 | StoreKind::B8From64 => mem.store::<B, 1>(addr, off, [val as u8]),
        StoreKind::B16From32 | StoreKind::B16From64 => {
            mem.store::<B, 2>(addr, off, (val as u16).to_le_bytes())
        }
        StoreKind::B32From64 => mem.store::<B, 4>(addr, off, (val as u32).to_le_bytes()),
    }
}
