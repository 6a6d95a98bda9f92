//! The resumable executor: runs lowered (register-form) bodies with fuel
//! accounting and external preemption, returning control to the scheduler at
//! safe points.
//!
//! All guest state of an invocation — parameters, locals and operands of
//! every live frame — lives in one slab ([`ExecState`]); a pause saves the
//! program counter and nothing else.

use crate::code::{op_lists, CompiledModule, LoadKind, NumBin, NumUn, StoreKind};
use crate::host::{Host, HostOutcome};
use crate::lower::{opc, Body, LOp, Lowered};
use crate::memory::{Bounds, LinearMemory};
use crate::numeric::{bin, un};
use crate::value::Trap;
use std::sync::atomic::{AtomicBool, Ordering};

/// The opcodes of each family as match patterns, named after the family's
/// members: `rr::I32Add == opc::BIN_RR + NumBin::I32Add as u16`.
macro_rules! families {
    ($($m:ident = $base:ident + $ty:ident: [$($name:ident)*])*) => { $(
        #[allow(non_upper_case_globals)]
        mod $m {
            $(pub const $name: u16 = crate::lower::opc::$base + crate::code::$ty::$name as u16;)*
        }
    )* };
    ([$(#[$d0:meta])* LoadKind: $($ld:ident)*] [$(#[$d1:meta])* StoreKind: $($st:ident)*]
     [$(#[$d2:meta])* NumBin: $($b:ident)*] [$(#[$d3:meta])* NumUn: $($u:ident)*]) => {
        families! {
            load = LOAD + LoadKind: [$($ld)*]
            store = STORE + StoreKind: [$($st)*]
            un_op = UN + NumUn: [$($u)*]
            rr = BIN_RR + NumBin: [$($b)*]
            ri = BIN_RI + NumBin: [$($b)*]
            rk = BIN_RK + NumBin: [$($b)*]
            br_rr = BR_RR + NumBin: [$($b)*]
            br_ri = BR_RI + NumBin: [$($b)*]
            brz_rr = BRZ_RR + NumBin: [$($b)*]
            brz_ri = BRZ_RI + NumBin: [$($b)*]
        }
    };
}
op_lists!(families);

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
    /// Maximum execution-stack slots: parameters, locals and operands of
    /// all live frames together.
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
struct Frame {
    /// Index into `Lowered::bodies`.
    func: u32,
    /// Resume position in the lowered body.
    pc: u32,
    /// Slab index of this frame's slot 0.
    base: usize,
}

/// The complete, saveable execution state of one sandbox — the paper's
/// "user-level context", kept outside linear memory (two-stack CFI).
///
/// Invariant the executor's unchecked slab accesses rest on: for every
/// frame, `base + bodies[func].frame_slots <= slab.len()`. Only
/// [`ExecState::enter`] and [`run`] push frames, both after
/// [`ExecState::reserve`].
#[derive(Debug, Default)]
pub(crate) struct ExecState {
    slab: Vec<u64>,
    frames: Vec<Frame>,
    /// Cost units charged but not yet covered by any quantum. Paid down at
    /// the start of the next `run` before execution resumes, so a charge
    /// larger than one quantum still makes progress (no livelock) while
    /// total fuel consumed stays exact.
    fuel_debt: u64,
    /// Set when the op at the saved `pc` has been charged but not executed
    /// (naive per-op accounting): the first budget check after resume skips
    /// its charge so the op is not billed twice.
    prepaid: bool,
}

impl ExecState {
    /// A context whose slab already holds `slots` slots.
    pub fn with_slots(slots: usize) -> Self {
        ExecState {
            slab: vec![0; slots],
            ..Default::default()
        }
    }

    pub fn clear(&mut self) {
        self.frames.clear();
        self.fuel_debt = 0;
        self.prepaid = false;
    }

    /// Make the slab at least `top` slots long, within `max_stack`.
    fn reserve(&mut self, top: usize, max_stack: usize) -> Result<(), Trap> {
        if top > self.slab.len() {
            if top > max_stack {
                return Err(Trap::StackExhausted);
            }
            // Double, but never hold more than the limit allows.
            let len = top.max(self.slab.len() * 2).min(max_stack);
            self.slab.reserve_exact(len - self.slab.len());
            self.slab.resize(len, 0);
        }
        Ok(())
    }

    /// Push a frame for local function `func` with slot 0 at slab index
    /// `base`, its non-parameter locals zeroed; returns its frame pointer.
    fn push_frame(
        &mut self,
        func: u32,
        body: &Body,
        base: usize,
        limits: &Limits,
    ) -> Result<*mut u64, Trap> {
        if self.frames.len() >= limits.max_frames {
            return Err(Trap::StackExhausted);
        }
        self.reserve(base + body.frame_slots as usize, limits.max_stack)?;
        self.frames.push(Frame { func, pc: 0, base });
        // `nparams <= nlocals <= frame_slots` (checked at lowering).
        let frame = &mut self.slab[base..base + body.frame_slots as usize];
        frame[body.nparams as usize..body.nlocals as usize].fill(0);
        Ok(frame.as_mut_ptr())
    }

    /// Start an invocation of `func` with `args` as its parameters.
    pub fn enter(
        &mut self,
        func: u32,
        body: &Body,
        args: impl Iterator<Item = u64>,
        limits: &Limits,
    ) -> Result<(), Trap> {
        self.clear();
        self.push_frame(func, body, 0, limits)?;
        for (slot, a) in self.slab.iter_mut().zip(args) {
            *slot = a;
        }
        Ok(())
    }

    /// Heap bytes held by the context.
    pub fn footprint_bytes(&self) -> usize {
        self.slab.capacity() * 8 + self.frames.capacity() * std::mem::size_of::<Frame>()
    }
}

/// Call local function `f`: its frame starts at slot `args` of the current
/// frame, which resumes at `ret_pc`. Returns the callee's frame pointer.
#[inline(never)]
fn enter(
    st: &mut ExecState,
    limits: &Limits,
    f: u32,
    callee: &Body,
    args: u32,
    ret_pc: u32,
) -> Result<*mut u64, Trap> {
    let caller = st.frames.last_mut().expect("frame");
    caller.pc = ret_pc;
    let base = caller.base + args as usize;
    st.push_frame(f, callee, base, limits)
}

/// Pop the current frame; the caller's body, resume pc and frame pointer,
/// or `None` when the entry function returned.
#[inline(never)]
fn leave<'a>(st: &mut ExecState, low: &'a Lowered) -> Option<(&'a Body, usize, *mut u64)> {
    st.frames.pop();
    let caller = st.frames.last()?;
    // SAFETY: the caller's frame satisfies the frame invariant.
    let sp = unsafe { st.slab.as_mut_ptr().add(caller.base) };
    Some((&low.bodies[caller.func as usize], caller.pc as usize, sp))
}

/// Drive the sandbox until completion, trap, fuel exhaustion, preemption, or
/// a blocking host call.
///
/// Fuel is a work meter in the cost model's units (see
/// [`op_cost`](crate::analysis::cost::op_cost)). `NAIVE` selects the naive
/// tier's accounting: every op charges its own recorded weight before it
/// runs. The optimized tier charges only at the [`LOp::Fuel`] sites the cost
/// analysis planted, each paying the exact summed weight of the check-free
/// segment it heads — so both tiers consume identical total fuel for the
/// same execution.
///
/// A charge the quantum cannot cover is recorded as `fuel_debt` (paid from
/// later quanta at the top of `run`) and `OutOfFuel` is returned.
/// **Tie-break: `OutOfFuel` wins** — if the preempt flag is also set at an
/// exhausted check, the flag stays set (`Instance::run` clears it only on
/// `Preempted`) and the preemption is reported at the next check of the next
/// quantum rather than lost.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<B: Bounds, const NAIVE: bool>(
    m: &CompiledModule,
    low: &Lowered,
    st: &mut ExecState,
    mem: &mut LinearMemory,
    globals: &mut [u64],
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

    // The hot state: the current body, the next op, the frame pointer and
    // the fuel left. Everything else is reached through `st` on the rare
    // paths (calls, returns, pauses).
    let top = *st.frames.last().expect("a running instance has a frame");
    let mut body = &low.bodies[top.func as usize];
    // SAFETY: a saved pc is the index of an op (or of the op after a
    // non-final one), and `top.base` is in bounds by the frame invariant.
    let mut ip: *const LOp = unsafe { body.ops.as_ptr().add(top.pc as usize) };
    let mut sp: *mut u64 = unsafe { st.slab.as_mut_ptr().add(top.base) };
    let mut left = *fuel;

    // Read / write slot `$s` of the current frame.
    //
    // SAFETY (both): `Body::check` proved `$s < body.frame_slots` for every
    // slot an op names, and the frame invariant puts the whole frame inside
    // the slab `sp` points into; the slab is resized only by `enter`, which
    // returns the new `sp`.
    macro_rules! get {
        ($s:expr) => {{
            let s = $s as usize;
            debug_assert!(s < body.frame_slots as usize);
            unsafe { *sp.add(s) }
        }};
    }
    macro_rules! set {
        ($s:expr, $v:expr) => {{
            let (s, v) = ($s as usize, $v);
            debug_assert!(s < body.frame_slots as usize);
            unsafe { *sp.add(s) = v }
        }};
    }
    // Index in `body.ops` of the op `ip` points at.
    macro_rules! pc {
        () => {
            // SAFETY: `ip` always points into `body.ops` (see `jump!`).
            unsafe { ip.offset_from(body.ops.as_ptr()) as usize }
        };
    }
    macro_rules! jump {
        ($t:expr) => {{
            debug_assert!(($t as usize) < body.ops.len());
            // SAFETY: `Body::check` proved every target inside the body.
            ip = unsafe { body.ops.as_ptr().add($t as usize) }
        }};
    }
    // Leave `run` with `$r`, to resume at op index `$pc`.
    macro_rules! pause {
        ($pc:expr, $r:expr) => {{
            st.frames.last_mut().expect("frame").pc = $pc as u32;
            break $r;
        }};
    }
    macro_rules! trap {
        ($t:expr) => {
            break StepResult::Trapped($t)
        };
    }
    macro_rules! try_trap {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(t) => trap!(t),
            }
        };
    }
    // Call local function `$f`, whose frame starts at the caller's `$args`.
    // No budget check: calls end cost segments, so the callee's entry
    // `Fuel` charges next.
    macro_rules! call {
        ($f:expr, $callee:expr, $args:expr) => {{
            let callee: &Body = $callee;
            sp = try_trap!(enter(st, limits, $f, callee, $args, pc!() as u32));
            body = callee;
            ip = body.ops.as_ptr();
        }};
    }
    // Call host import `$h` with the `nparams` slots from `$args`; on
    // `Pending` the op is re-issued on resume (its arguments stay put).
    macro_rules! call_host {
        ($h:expr, $args:expr) => {{
            let sig = low.hosts[$h as usize];
            debug_assert!(($args + sig.nparams) as usize <= body.frame_slots as usize);
            // SAFETY: `Body::check` proved `args + nparams <= frame_slots`.
            let argv =
                unsafe { std::slice::from_raw_parts(sp.add($args as usize), sig.nparams as usize) };
            match host.call($h, &m.host_funcs[$h as usize], argv, mem) {
                HostOutcome::Value(v) if sig.has_result => set!($args, v),
                HostOutcome::Value(_) | HostOutcome::Unit => {}
                HostOutcome::Pending => {
                    // Already charged (naive) or inside a charged segment.
                    st.prepaid = NAIVE;
                    pause!(pc!() - 1, StepResult::Blocked);
                }
                HostOutcome::Trap(t) => trap!(t),
            }
        }};
    }

    let result = loop {
        debug_assert!(pc!() < body.ops.len());
        // SAFETY: `ip` points into `body.ops`: every jump target does, and
        // stepping past an op stays inside because the last op of a body
        // never falls through (both proved by `Body::check`).
        let op = unsafe { *ip };
        if NAIVE {
            // Pay for the op before it runs; a pause resumes at it.
            if st.prepaid {
                st.prepaid = false;
            } else {
                let c = body.costs[pc!()] as u64;
                if left < c {
                    st.fuel_debt = c - left;
                    left = 0;
                    st.prepaid = true;
                    pause!(pc!(), StepResult::OutOfFuel);
                }
                left -= c;
            }
            if preempt.load(Ordering::Relaxed) {
                st.prepaid = true;
                pause!(pc!(), StepResult::Preempted);
            }
        }
        // SAFETY: as above; at worst one past the end, never dereferenced.
        ip = unsafe { ip.add(1) };
        let LOp { code, a, b, c } = op;
        // Jump to `c` if the 32-bit result `$v` passes `$test`.
        macro_rules! jump_if {
            ($v:expr, $($test:tt)+) => {
                if try_trap!($v) as u32 $($test)+ {
                    jump!(c);
                }
            };
        }

        // One jump table for the whole opcode space: the arms below, plus
        // one per member of each opcode family, generated from the enums'
        // own name lists. The numeric op is a constant in its arm, so
        // `bin`/`un`/`do_load`/`do_store` fold to that op alone.
        macro_rules! dispatch {
            ({ $($misc:tt)* }
             [$(#[$d0:meta])* LoadKind: $($ld:ident)*] [$(#[$d1:meta])* StoreKind: $($st:ident)*]
             [$(#[$d2:meta])* NumBin: $($b:ident)*] [$(#[$d3:meta])* NumUn: $($u:ident)*]) => {
                match code {
                    $(rr::$b => set!(a, try_trap!(bin(NumBin::$b, get!(b), get!(c)))),)*
                    $(ri::$b => set!(a, try_trap!(bin(NumBin::$b, get!(b), c as u64))),)*
                    $(rk::$b => set!(a, try_trap!(bin(NumBin::$b, get!(b), body.consts[c as usize]))),)*
                    $(br_rr::$b => jump_if!(bin(NumBin::$b, get!(a), get!(b)), != 0),)*
                    $(br_ri::$b => jump_if!(bin(NumBin::$b, get!(a), b as u64), != 0),)*
                    $(brz_rr::$b => jump_if!(bin(NumBin::$b, get!(a), get!(b)), == 0),)*
                    $(brz_ri::$b => jump_if!(bin(NumBin::$b, get!(a), b as u64), == 0),)*
                    $(un_op::$u => set!(a, try_trap!(un(NumUn::$u, get!(b)))),)*
                    $(load::$ld => set!(a, try_trap!(do_load::<B>(mem, LoadKind::$ld, get!(b) as u32, c))),)*
                    $(store::$st => try_trap!(do_store::<B>(mem, StoreKind::$st, get!(a) as u32, c, get!(b))),)*
                    $($misc)*
                }
            };
        }
        op_lists! { dispatch {
            opc::FUEL => {
                // The optimized tier's only charge/poll site; a pause
                // resumes past it and the debt carries the remainder.
                if !NAIVE {
                    let cost = a as u64;
                    if left < cost {
                        st.fuel_debt = cost - left;
                        left = 0;
                        pause!(pc!(), StepResult::OutOfFuel);
                    }
                    left -= cost;
                    if preempt.load(Ordering::Relaxed) {
                        pause!(pc!(), StepResult::Preempted);
                    }
                }
            }
            opc::UNREACHABLE => trap!(Trap::Unreachable),
            opc::BR => jump!(c),
            opc::BR_IF => jump_if!(Ok::<_, Trap>(get!(a)), != 0),
            opc::BR_IFZ => jump_if!(Ok::<_, Trap>(get!(a)), == 0),
            opc::BR_TABLE => {
                let t = &body.tables[b as usize];
                let i = (get!(a) as u32 as usize).min(t.len() - 1);
                jump!(t[i]);
            }
            opc::RETURN | opc::RETURN_VAL => {
                let result = (code == opc::RETURN_VAL).then(|| {
                    let v = get!(a);
                    set!(0, v);
                    v
                });
                let Some((caller, pc, fp)) = leave(st, low) else {
                    break StepResult::Complete(result);
                };
                (body, sp) = (caller, fp);
                jump!(pc);
            }
            opc::CALL => call!(a, &low.bodies[a as usize], b),
            opc::CALL_HOST => call_host!(a, b),
            opc::CALL_INDIRECT => {
                let target = match m.table.get(get!(c) as u32 as usize) {
                    Some(Some(t)) => *t,
                    Some(None) => trap!(Trap::UndefinedElement),
                    None => trap!(Trap::TableOutOfBounds),
                };
                if let Some(sig) = low.hosts.get(target as usize) {
                    if sig.type_id != a {
                        trap!(Trap::IndirectTypeMismatch);
                    }
                    call_host!(target, b);
                } else {
                    let f = target - low.hosts.len() as u32;
                    let Some(callee) = low.bodies.get(f as usize) else {
                        trap!(Trap::UndefinedElement);
                    };
                    if callee.type_id != a {
                        trap!(Trap::IndirectTypeMismatch);
                    }
                    call!(f, callee, b);
                }
            }
            opc::SELECT => {
                if get!(c) as u32 == 0 {
                    set!(a, get!(b));
                }
            }
            opc::MOV => set!(a, get!(b)),
            opc::CONST => set!(a, (c as u64) << 32 | b as u64),
            opc::GLOBAL_GET => set!(a, globals[b as usize]),
            opc::GLOBAL_SET => globals[a as usize] = get!(b),
            opc::MEMORY_SIZE => set!(a, mem.pages() as u64),
            opc::MEMORY_GROW => {
                let r = mem.grow(get!(b) as u32);
                set!(a, r as u32 as u64);
            }
            _ => unreachable!("`Body::check` admits no other opcode"),
        } }
    };
    *fuel = left;
    result
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
