//! The resumable executor: runs lowered (register-form) bodies with fuel
//! accounting and external preemption, returning control to the scheduler at
//! safe points.
//!
//! All guest state of an invocation — parameters, locals and operands of
//! every live frame — lives in one slab ([`ExecState`]); a pause saves the
//! program counter and nothing else.

use crate::code::{op_lists, CompiledModule, LoadKind, NumBin, NumUn, StoreKind};
use crate::host::{Host, HostOutcome};
use crate::lower::{fused, opc, pair_list, Body, LOp, Lowered};
use crate::memory::LinearMemory;
use crate::numeric::{bin, un};
use crate::value::Trap;
use std::sync::atomic::{AtomicBool, Ordering};

/// The opcodes of each family as match patterns, named after the family's
/// members: `rr::I32Add == opc::BIN_RR + NumBin::I32Add as u16`.
macro_rules! families {
    ($($m:ident = $base:ident + $ty:ident: [$($name:ident)*])*) => { $(
        #[allow(non_upper_case_globals)]
        mod $m {
            $(pub(super) const $name: u16 = crate::lower::opc::$base + crate::code::$ty::$name as u16;)*
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
}

impl ExecState {
    /// A context whose slab already holds `slots` slots.
    pub(crate) fn with_slots(slots: usize) -> Self {
        ExecState {
            slab: vec![0; slots],
            ..Default::default()
        }
    }

    pub(crate) fn clear(&mut self) {
        self.frames.clear();
        self.fuel_debt = 0;
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
    pub(crate) fn enter(
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
    pub(crate) fn footprint_bytes(&self) -> usize {
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
/// [`op_cost`](crate::analysis::cost::op_cost)), charged only at the `FUEL`
/// ops the cost analysis planted, each paying the exact summed weight of
/// the check-free segment it heads, before any of it runs.
///
/// A charge the quantum cannot cover is recorded as `fuel_debt` (paid from
/// later quanta at the top of `run`) and `OutOfFuel` is returned.
/// **Tie-break: `OutOfFuel` wins** — if the preempt flag is also set at an
/// exhausted check, the flag stays set (`Instance::run` clears it only on
/// `Preempted`) and the preemption is reported at the next check of the next
/// quantum rather than lost.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
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
                    // Inside a charged segment: re-issuing is free.
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
        #[cfg(test)]
        count::dispatch(body, pc!(), op.code);
        // SAFETY: as above; at worst one past the end, never dereferenced.
        ip = unsafe { ip.add(1) };
        let LOp {
            code,
            mut a,
            mut b,
            mut c,
        } = op;
        // Jump to `c` if the 32-bit result `$v` passes `$test`.
        macro_rules! jump_if {
            ($v:expr, $($test:tt)+) => {
                if try_trap!($v) as u32 $($test)+ {
                    jump!(c);
                }
            };
        }
        // What an op does with operands `a b c`, for every op a fused pair
        // may hold, named as in `pair_list!`. The numeric op is a constant
        // in each use, so `bin`/`un`/`do_load`/`do_store` fold to that op
        // alone.
        macro_rules! op {
            (FUEL) => {{
                // The only charge/poll site; a pause resumes past it and
                // the debt carries the remainder.
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
            }};
            (BR) => { jump!(c) };
            (BR_IF) => { jump_if!(Ok::<_, Trap>(get!(a)), != 0) };
            (BR_IFZ) => { jump_if!(Ok::<_, Trap>(get!(a)), == 0) };
            (SELECT) => {
                if get!(c) as u32 == 0 {
                    set!(a, get!(b));
                }
            };
            (MOV) => { set!(a, get!(b)) };
            (CONST) => { set!(a, (c as u64) << 32 | b as u64) };
            (GLOBAL_GET) => { set!(a, globals[b as usize]) };
            (GLOBAL_SET) => { globals[a as usize] = get!(b) };
            (MEMORY_SIZE) => { set!(a, mem.pages() as u64) };
            (MEMORY_GROW) => {{
                let r = mem.grow(get!(b) as u32);
                set!(a, r as u32 as u64);
            }};
            (LOAD $m:ident) => { set!(a, try_trap!(do_load(mem, LoadKind::$m, get!(b) as u32, c))) };
            (STORE $m:ident) => { try_trap!(do_store(mem, StoreKind::$m, get!(a) as u32, c, get!(b))) };
            (UN $m:ident) => { set!(a, try_trap!(un(NumUn::$m, get!(b)))) };
            (BIN_RR $m:ident) => { set!(a, try_trap!(bin(NumBin::$m, get!(b), get!(c)))) };
            (BIN_RI $m:ident) => { set!(a, try_trap!(bin(NumBin::$m, get!(b), c as u64))) };
            (BIN_RK $m:ident) => { set!(a, try_trap!(bin(NumBin::$m, get!(b), body.consts[c as usize]))) };
            (BR_RANGE_RR) => { if in_range(get!(a), get!(b)) { jump!(c) } };
            (BR_RANGE_RI) => { if in_range(get!(a), b as u64) { jump!(c) } };
            (BRZ_RANGE_RR) => { if !in_range(get!(a), get!(b)) { jump!(c) } };
            (BRZ_RANGE_RI) => { if !in_range(get!(a), b as u64) { jump!(c) } };
            (BR_RR $m:ident) => { jump_if!(bin(NumBin::$m, get!(a), get!(b)), != 0) };
            (BR_RI $m:ident) => { jump_if!(bin(NumBin::$m, get!(a), b as u64), != 0) };
            (BRZ_RR $m:ident) => { jump_if!(bin(NumBin::$m, get!(a), get!(b)), == 0) };
            (BRZ_RI $m:ident) => { jump_if!(bin(NumBin::$m, get!(a), b as u64), == 0) };
        }

        // One jump table for the whole opcode space: the arms below, one
        // per member of each opcode family, generated from the enums' own
        // name lists, and one per fused pair, generated from `pair_list!`.
        // A fused arm runs its first op, which never jumps (`PAIRS` holds
        // no such pair), then the second (op k + 1, which `Body::check`
        // proved is the pair's second), and steps past it.
        macro_rules! dispatch {
            ({ $($misc:tt)* } $($pair:ident: [$($x:tt)+] [$($y:tt)+])*
             [$(#[$d0:meta])* LoadKind: $($ld:ident)*] [$(#[$d1:meta])* StoreKind: $($st:ident)*]
             [$(#[$d2:meta])* NumBin: $($b:ident)*] [$(#[$d3:meta])* NumUn: $($u:ident)*]) => {
                match code {
                    $(rr::$b => op!(BIN_RR $b),)*
                    $(ri::$b => op!(BIN_RI $b),)*
                    $(rk::$b => op!(BIN_RK $b),)*
                    $(br_rr::$b => op!(BR_RR $b),)*
                    $(br_ri::$b => op!(BR_RI $b),)*
                    $(brz_rr::$b => op!(BRZ_RR $b),)*
                    $(brz_ri::$b => op!(BRZ_RI $b),)*
                    $(un_op::$u => op!(UN $u),)*
                    $(load::$ld => op!(LOAD $ld),)*
                    $(store::$st => op!(STORE $st),)*
                    // (A second op need not read all three operands,
                    // nor `ip` after it, if it jumps.)
                    $(#[allow(unused_assignments)]
                    fused::$pair => {
                        op!($($x)+);
                        // SAFETY: op k + 1 exists and is not the last op
                        // unless it jumps (`Body::check`).
                        LOp { a, b, c, .. } = unsafe { *ip };
                        ip = unsafe { ip.add(1) };
                        op!($($y)+);
                    })*
                    $($misc)*
                }
            };
        }
        pair_list! { op_lists dispatch {
            opc::FUEL => op!(FUEL),
            opc::UNREACHABLE => trap!(Trap::Unreachable),
            opc::BR => op!(BR),
            opc::BR_IF => op!(BR_IF),
            opc::BR_IFZ => op!(BR_IFZ),
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
            opc::SELECT => op!(SELECT),
            opc::MOV => op!(MOV),
            opc::CONST => op!(CONST),
            opc::GLOBAL_GET => op!(GLOBAL_GET),
            opc::GLOBAL_SET => op!(GLOBAL_SET),
            opc::MEMORY_SIZE => op!(MEMORY_SIZE),
            opc::MEMORY_GROW => op!(MEMORY_GROW),
            opc::BR_RANGE_RR => op!(BR_RANGE_RR),
            opc::BR_RANGE_RI => op!(BR_RANGE_RI),
            opc::BRZ_RANGE_RR => op!(BRZ_RANGE_RR),
            opc::BRZ_RANGE_RI => op!(BRZ_RANGE_RI),
            _ => unreachable!("`Body::check` admits no other opcode"),
        } }
    };
    *fuel = left;
    result
}

/// `0 <= x < n` for the i32s in the low halves of `x` and `n`, compared
/// signed: exactly `x >=s 0 && x <s n` for every `n`, negative included.
#[inline(always)]
fn in_range(x: u64, n: u64) -> bool {
    let (x, n) = (x as i32, n as i32);
    0 <= x && x < n
}

#[inline(always)]
fn do_load(mem: &LinearMemory, kind: LoadKind, addr: u32, off: u32) -> Result<u64, Trap> {
    Ok(match kind {
        LoadKind::I32 | LoadKind::F32 => u32::from_le_bytes(mem.load::<4>(addr, off)?) as u64,
        LoadKind::I64 | LoadKind::F64 => u64::from_le_bytes(mem.load::<8>(addr, off)?),
        LoadKind::I32U8 => mem.load::<1>(addr, off)?[0] as u64,
        LoadKind::I32S8 => mem.load::<1>(addr, off)?[0] as i8 as i32 as u32 as u64,
        LoadKind::I32U16 => u16::from_le_bytes(mem.load::<2>(addr, off)?) as u64,
        LoadKind::I32S16 => {
            u16::from_le_bytes(mem.load::<2>(addr, off)?) as i16 as i32 as u32 as u64
        }
        LoadKind::I64U8 => mem.load::<1>(addr, off)?[0] as u64,
        LoadKind::I64S8 => mem.load::<1>(addr, off)?[0] as i8 as i64 as u64,
        LoadKind::I64U16 => u16::from_le_bytes(mem.load::<2>(addr, off)?) as u64,
        LoadKind::I64S16 => u16::from_le_bytes(mem.load::<2>(addr, off)?) as i16 as i64 as u64,
        LoadKind::I64U32 => u32::from_le_bytes(mem.load::<4>(addr, off)?) as u64,
        LoadKind::I64S32 => u32::from_le_bytes(mem.load::<4>(addr, off)?) as i32 as i64 as u64,
    })
}

#[inline(always)]
fn do_store(
    mem: &mut LinearMemory,
    kind: StoreKind,
    addr: u32,
    off: u32,
    val: u64,
) -> Result<(), Trap> {
    match kind {
        StoreKind::I32 | StoreKind::F32 => mem.store::<4>(addr, off, (val as u32).to_le_bytes()),
        StoreKind::I64 | StoreKind::F64 => mem.store::<8>(addr, off, val.to_le_bytes()),
        StoreKind::B8From32 | StoreKind::B8From64 => mem.store::<1>(addr, off, [val as u8]),
        StoreKind::B16From32 | StoreKind::B16From64 => {
            mem.store::<2>(addr, off, (val as u16).to_le_bytes())
        }
        StoreKind::B32From64 => mem.store::<4>(addr, off, (val as u32).to_le_bytes()),
    }
}

/// A dispatch counter compiled into this crate's unit tests only: the
/// shipped loop does not contain it. Counts every dispatch of the loop, and
/// every pair of consecutive dispatches where the second op is the static
/// successor of the first (fall-through), while [`count::start`] is armed on
/// the calling thread.
#[cfg(test)]
pub(crate) mod count {
    use crate::code::{LoadKind, NumBin, NumUn, StoreKind};
    use crate::lower::{opc, Body, PAIRS};
    use std::cell::RefCell;

    /// Opcodes below this bound index the pair table.
    pub(crate) const CODES: usize = opc::FUSED as usize + PAIRS.len();

    pub(crate) struct Counts {
        pub(crate) dispatches: u64,
        /// `pairs[first * CODES + second]`.
        pub(crate) pairs: Vec<u64>,
        /// The body, and the pc of the op after the last one dispatched.
        last: (*const Body, usize),
        last_code: u16,
    }

    thread_local!(static COUNTS: RefCell<Option<Counts>> = const { RefCell::new(None) });

    /// Start counting this thread's dispatches from zero.
    pub(crate) fn start() {
        COUNTS.set(Some(Counts {
            dispatches: 0,
            pairs: vec![0; CODES * CODES],
            last: (std::ptr::null(), 0),
            last_code: 0,
        }));
    }

    /// Stop counting; what was counted since [`start`].
    pub(crate) fn take() -> Counts {
        COUNTS.take().expect("counting was started")
    }

    pub(super) fn dispatch(body: &Body, pc: usize, code: u16) {
        COUNTS.with_borrow_mut(|c| {
            let Some(c) = c else { return };
            c.dispatches += 1;
            if c.last == (body as *const Body, pc) {
                c.pairs[c.last_code as usize * CODES + code as usize] += 1;
            }
            // A fused op's successor ran in the same dispatch.
            let end = pc + 1 + (code >= opc::FUSED) as usize;
            (c.last, c.last_code) = ((body as *const Body, end), code);
        });
    }

    /// The opcode's name: `FUEL`, `LOAD.I32`, `RI.I32Add`, ….
    pub(crate) fn name(code: u16) -> String {
        const MISC: &str = "FUEL UNREACHABLE BR BR_IF BR_IFZ BR_TABLE RETURN RETURN_VAL CALL \
            CALL_HOST CALL_INDIRECT SELECT MOV CONST GLOBAL_GET GLOBAL_SET MEMORY_SIZE MEMORY_GROW \
            BR_RANGE_RR BR_RANGE_RI BRZ_RANGE_RR BRZ_RANGE_RI";
        const FAMILIES: [&str; 7] = ["RR", "RI", "RK", "BR_RR", "BR_RI", "BRZ_RR", "BRZ_RI"];
        let m = (code & 127) as usize;
        match code {
            opc::FUSED.. => {
                let (x, y) = PAIRS[(code - opc::FUSED) as usize];
                format!("{}+{}", name(x), name(y))
            }
            opc::FAMILIES.. => {
                let f = FAMILIES[((code - opc::FAMILIES) / 128) as usize];
                format!("{f}.{:?}", NumBin::ALL[m])
            }
            opc::UN.. => format!("UN.{:?}", NumUn::ALL[(code - opc::UN) as usize]),
            opc::STORE.. => format!("STORE.{:?}", StoreKind::ALL[(code - opc::STORE) as usize]),
            opc::LOAD.. => format!("LOAD.{:?}", LoadKind::ALL[(code - opc::LOAD) as usize]),
            _ => MISC
                .split(' ')
                .nth(code as usize)
                .expect("an opcode")
                .to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::count;
    use crate::code::HostImport;
    use crate::host::{Host, HostOutcome};
    use crate::memory::LinearMemory;
    use crate::value::Trap;
    use crate::{translate, EngineConfig, Instance, Tier};
    use std::sync::Arc;

    /// The request/response part of the guests' `env` ABI. (`sledge_apps`'
    /// `BufferHost` implements the `Host` of the engine build it links,
    /// which is not this test build.)
    struct Buffers {
        request: Vec<u8>,
        response: Vec<u8>,
    }

    impl Host for Buffers {
        fn call(
            &mut self,
            _: u32,
            f: &HostImport,
            args: &[u64],
            mem: &mut LinearMemory,
        ) -> HostOutcome {
            let arg = |i: usize| args[i] as u32;
            let done = |r: Result<u64, Trap>| r.map_or_else(HostOutcome::Trap, HostOutcome::Value);
            match f.name.as_str() {
                "request_len" => HostOutcome::Value(self.request.len() as u64),
                "request_read" => {
                    let off = (arg(2) as usize).min(self.request.len());
                    let n = (arg(1) as usize).min(self.request.len() - off);
                    done(
                        mem.write_bytes(arg(0), &self.request[off..off + n])
                            .map(|()| n as u64),
                    )
                }
                "response_write" => done(mem.read_bytes(arg(0), arg(1)).map(|b| {
                    self.response.extend_from_slice(b);
                    b.len() as u64
                })),
                _ => HostOutcome::Trap(Trap::Unreachable),
            }
        }
    }

    /// Run `m`'s `main` on `request` under the dispatch counter; checks the
    /// response against `expect`.
    fn counted(m: &sledge_wasm::module::Module, request: Vec<u8>, expect: &[u8]) -> count::Counts {
        let cm = Arc::new(translate(m, Tier::Optimized).unwrap());
        let mut inst = Instance::new(cm, EngineConfig::default()).unwrap();
        let mut host = Buffers {
            request,
            response: Vec::new(),
        };
        count::start();
        inst.call_complete("main", &[], &mut host).unwrap();
        let counts = count::take();
        assert_eq!(host.response, expect);
        counts
    }

    /// Dispatches per request of every shipped guest on its reference
    /// input, and the fall-through pair histogram they come from (printed
    /// under `--nocapture`): the evidence the fused pairs were chosen on.
    /// The apps' counts are pinned; a change that lowers one lowers its pin.
    #[test]
    fn shipped_guests_dispatch_pinned_counts() {
        let pinned: [(&str, u64); 7] = [
            ("ping", 10),
            ("echo", 40_989),
            ("gps_ekf", 35_094),
            ("gocr", 425_206),
            ("cifar10", 2_186_608),
            ("resize", 2_972_989),
            ("lpd", 3_805_211),
        ];
        let mut guests = Vec::new();
        for app in sledge_apps::all_apps() {
            let request = match app.name {
                "echo" => sledge_apps::echo::payload(64 << 10),
                _ => (app.sample_input)(),
            };
            let expect = (app.native)(&request);
            guests.push((app.name, counted(&(app.module)(), request, &expect)));
        }
        for k in sledge_apps::polybench::kernels() {
            let expect = (k.native)().to_le_bytes();
            guests.push((k.name, counted(&(k.build)(), Vec::new(), &expect)));
        }

        // Each pair's share of dispatches: the mean over the guests, then
        // each app's.
        let share =
            |c: &count::Counts, pair: usize| c.pairs[pair] as f64 * 100.0 / c.dispatches as f64;
        let mut rows: Vec<(f64, usize)> = (0..count::CODES * count::CODES)
            .filter(|&pair| guests.iter().any(|(_, c)| c.pairs[pair] > 0))
            .map(|pair| {
                let sum: f64 = guests.iter().map(|(_, c)| share(c, pair)).sum();
                (sum / guests.len() as f64, pair)
            })
            .filter(|&(mean, pair)| {
                mean >= 0.2 || guests[..7].iter().any(|(_, c)| share(c, pair) >= 1.0)
            })
            .collect();
        rows.sort_by(|x, y| y.0.total_cmp(&x.0));
        print!(
            "{:<44} {:>7}",
            "fall-through pair (% of dispatches)", "mean"
        );
        for (name, _) in &guests[..7] {
            print!(" {name:>7}");
        }
        for (mean, pair) in rows {
            let (x, y) = ((pair / count::CODES) as u16, (pair % count::CODES) as u16);
            print!(
                "\n{:<44} {mean:>7.2}",
                format!("{} → {}", count::name(x), count::name(y))
            );
            for (_, c) in &guests[..7] {
                print!(" {:>7.2}", share(c, pair));
            }
        }
        println!();
        for (name, c) in &guests {
            println!("{name:<16} {:>10} dispatches", c.dispatches);
        }
        let got: Vec<(&str, u64)> = guests[..7]
            .iter()
            .map(|(n, c)| (*n, c.dispatches))
            .collect();
        assert_eq!(got, pinned);
    }
}
