//! A reference interpreter for the Wasm MVP modules this repository runs,
//! kept as the oracle of the engine's differential tests.
//!
//! It works straight from a decoded [`Module`]: structured control flow
//! over a label stack (`block`/`loop`/`if`/`else`, `br`, `br_if`,
//! `br_table`, `return`), calls over a frame stack, one value stack of raw
//! 64-bit slots (an `i32` zero-extended, a float as its bit pattern), a
//! linear memory held in a `Vec<u8>`, and numerics from Rust's std
//! operations. It shares no code with the engine (`awsm`): not its
//! translator, lowering, executor or numerics, so a bug in any of those
//! makes the two disagree. Nothing is folded, fused or cached.
//!
//! Fuel is priced per executed instruction by `weight`, one table that
//! restates the engine's cost model (DESIGN §9) instruction by instruction.
//! The engine charges the same units per check-free segment, in advance, so
//! the two totals agree on a run that completes; after a trap the engine
//! has paid for the rest of the trapping segment.
//!
//! Host imports follow the `env` request/response ABI of the apps' buffer
//! host through [`Buffers`]; any other host is a [`Host`].
#![forbid(unsafe_code)]

use sledge_wasm::instr::{BlockType, Instr, MemArg};
use sledge_wasm::module::{ConstExpr, ImportKind, Module};
use sledge_wasm::types::{FuncType, ValType};

/// Bytes per Wasm page.
pub const PAGE: usize = 65536;

/// Call depth past which a call traps with [`Trap::StackExhausted`] (the
/// engine's default frame limit).
pub const MAX_FRAMES: usize = 8192;

/// Locals of all live frames together past which a call traps with
/// [`Trap::StackExhausted`] (the engine's default slot limit, which also
/// counts operands).
pub const MAX_LOCALS: usize = 1 << 20;

/// Why a run stopped early, named as the engine names its traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `unreachable` ran, or the host refused a call.
    Unreachable,
    /// A load, store or host copy outside the memory.
    OutOfBounds,
    /// Integer division or remainder by zero.
    DivByZero,
    /// `MIN / -1`.
    IntOverflow,
    /// A float-to-int conversion of NaN or of a value out of range (this
    /// project reports both as this one kind).
    InvalidConversion,
    /// `call_indirect` through a null table entry.
    UndefinedElement,
    /// `call_indirect` through an entry of another type.
    IndirectTypeMismatch,
    /// `call_indirect` past the table's end.
    TableOutOfBounds,
    /// More than [`MAX_FRAMES`] live frames, or [`MAX_LOCALS`] locals.
    StackExhausted,
}

/// The imported functions, called by name with their arguments' raw slots;
/// the returned slot is pushed iff the import's type has a result.
pub trait Host {
    /// Run import `name` against the guest's `memory`.
    ///
    /// # Errors
    ///
    /// The trap the call raises in the guest.
    fn call(&mut self, name: &str, args: &[u64], memory: &mut [u8]) -> Result<u64, Trap>;
}

/// The `env` request/response ABI: `request_len`, `request_read(dst, len,
/// off)`, `response_write(src, len)`, `clock_ns` (a fixed value the caller
/// picks) and `io_delay` (completes at once). Any other import traps.
#[derive(Debug, Clone, Default)]
pub struct Buffers {
    /// The request body.
    pub request: Vec<u8>,
    /// What the guest wrote.
    pub response: Vec<u8>,
    /// What `clock_ns` returns.
    pub clock_ns: u64,
}

impl Buffers {
    /// Buffers holding `request` and an empty response.
    pub fn new(request: impl Into<Vec<u8>>) -> Self {
        Buffers {
            request: request.into(),
            ..Default::default()
        }
    }
}

impl Host for Buffers {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut [u8]) -> Result<u64, Trap> {
        let arg = |i: usize| args[i] as u32 as usize;
        match name {
            "request_len" => Ok(self.request.len() as u64),
            "request_read" => {
                let (dst, len, off) = (arg(0), arg(1), arg(2));
                if off >= self.request.len() {
                    return Ok(0);
                }
                let n = len.min(self.request.len() - off);
                let to = memory.get_mut(dst..dst + n).ok_or(Trap::OutOfBounds)?;
                to.copy_from_slice(&self.request[off..off + n]);
                Ok(n as u64)
            }
            "response_write" => {
                let (src, len) = (arg(0), arg(1));
                let from = memory.get(src..src + len).ok_or(Trap::OutOfBounds)?;
                self.response.extend_from_slice(from);
                Ok(len as u64)
            }
            "clock_ns" => Ok(self.clock_ns),
            "io_delay" => Ok(0),
            _ => Err(Trap::Unreachable),
        }
    }
}

/// The fuel one executed instruction costs. The engine's translator emits
/// one stack op per instruction, and this is that op's weight in the cost
/// model (DESIGN §9): operand traffic (`local.*`, `global.get`, constants,
/// `drop`) and `i32.eqz` are free, as are `nop`, `block`, `loop`, `end`
/// and `unreachable`, which emit no op or one that does no work; `if` is a
/// conditional branch and `else` the jump that ends the `then` arm. The
/// interpreter adds the `return` a branch to the function's own label, or
/// the function's final `end`, stands for (`RETURN`). `imports` is the
/// number of imported functions: a call to one costs a host call.
fn weight(i: &Instr, imports: u32) -> u32 {
    use Instr::*;
    match i {
        Unreachable | Nop | Block(_) | Loop(_) | End | Drop => 0,
        LocalGet(_) | LocalSet(_) | LocalTee(_) | GlobalGet(_) => 0,
        I32Const(_) | I64Const(_) | F32Const(_) | F64Const(_) | I32Eqz => 0,
        If(_) | Else | Br(_) | BrIf(_) | Return | Select | GlobalSet(_) | MemorySize => 1,
        BrTable(..) => 2,
        Call(f) if *f < imports => 16,
        Call(_) => 8,
        CallIndirect(_) => 10,
        MemoryGrow => 64,
        I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU => 4,
        I32Mul | I64Mul | I32Popcnt | I64Popcnt => 2,
        F32Add | F32Sub | F32Mul | F32Min | F32Max => 2,
        F64Add | F64Sub | F64Mul | F64Min | F64Max => 2,
        F32Div | F64Div | F32Sqrt | F64Sqrt => 6,
        F32Ceil | F32Floor | F32Trunc | F32Nearest | F64Ceil | F64Floor | F64Trunc | F64Nearest => {
            2
        }
        I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U => 2,
        I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U => 2,
        F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U => 2,
        F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U => 2,
        I32Load(_) | I64Load(_) | F32Load(_) | F64Load(_) | I32Load8S(_) | I32Load8U(_) => 3,
        I32Load16S(_) | I32Load16U(_) | I64Load8S(_) | I64Load8U(_) | I64Load16S(_) => 3,
        I64Load16U(_) | I64Load32S(_) | I64Load32U(_) => 3,
        I32Store(_) | I64Store(_) | F32Store(_) | F64Store(_) | I32Store8(_) | I32Store16(_) => 3,
        I64Store8(_) | I64Store16(_) | I64Store32(_) => 3,
        // Every other numeric op: adds, subs, bitwise ops, shifts, rotates,
        // compares, `clz`/`ctz`, sign ops, width and type conversions.
        _ => 1,
    }
}

/// The weight of the `return` a branch to the function's label or the
/// function's final `end` runs.
const RETURN: u32 = 1;

/// One local function: its code, and where its blocks end.
struct Func<'m> {
    ty: &'m FuncType,
    locals: &'m [ValType],
    code: &'m [Instr],
    /// At the pc of each `block`, `loop`, `if` and `else`: the pc of its
    /// `end`.
    ends: Vec<usize>,
    /// At the pc of each `if`: the pc of its `else`, or 0 if it has none.
    elses: Vec<usize>,
}

impl<'m> Func<'m> {
    fn new(ty: &'m FuncType, locals: &'m [ValType], code: &'m [Instr]) -> Self {
        let (mut ends, mut elses) = (vec![0; code.len()], vec![0; code.len()]);
        let mut open = Vec::new();
        for (pc, i) in code.iter().enumerate() {
            match i {
                Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => open.push(pc),
                Instr::Else => elses[*open.last().expect("validated")] = pc,
                Instr::End => {
                    // The function's own `end` closes no block.
                    if let Some(o) = open.pop() {
                        ends[o] = pc;
                        if elses[o] != 0 {
                            ends[elses[o]] = pc;
                        }
                    }
                }
                _ => {}
            }
        }
        Func {
            ty,
            locals,
            code,
            ends,
            elses,
        }
    }
}

/// Where a branch to a label goes, and what it keeps.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// The pc to continue at: past a block's `end`, or a loop's own `loop`
    /// (which pushes its label again).
    target: usize,
    /// The value stack's height when the label was entered.
    height: usize,
    /// How many values a branch to it carries.
    arity: usize,
}

/// One live call.
#[derive(Debug)]
struct Frame {
    func: usize,
    pc: usize,
    locals: Vec<u64>,
    /// The label stack's height at entry: labels above it are this call's.
    labels: usize,
    /// The value stack's height at entry, arguments popped.
    height: usize,
    arity: usize,
}

/// The module, as the interpreter reads it.
struct Prog<'m> {
    imports: Vec<(&'m str, &'m FuncType)>,
    funcs: Vec<Func<'m>>,
    module: &'m Module,
}

/// Everything a run changes.
struct State {
    memory: Vec<u8>,
    max_pages: usize,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
    fuel: u64,
    stack: Vec<u64>,
    labels: Vec<Label>,
    frames: Vec<Frame>,
    /// Locals of all live frames.
    locals: usize,
}

/// One instance of a module: its memory, globals and table, invoked any
/// number of times.
pub struct Machine<'m> {
    prog: Prog<'m>,
    st: State,
}

/// A constant expression's value (a `global.get` reads an earlier global).
fn eval(e: &ConstExpr, globals: &[u64]) -> u64 {
    match *e {
        ConstExpr::I32(v) => v as u32 as u64,
        ConstExpr::I64(v) => v as u64,
        ConstExpr::F32(v) => v.to_bits() as u64,
        ConstExpr::F64(v) => v.to_bits(),
        ConstExpr::GlobalGet(g) => globals[g as usize],
    }
}

impl<'m> Machine<'m> {
    /// Instantiate `m` (validated, with no imports but functions): zeroed
    /// memory of the declared minimum, data and element segments copied in,
    /// globals initialised.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] for a data segment outside the memory and
    /// [`Trap::TableOutOfBounds`] for an element segment outside the table.
    pub fn new(m: &'m Module) -> Result<Self, Trap> {
        let imports = m.imports.iter().filter_map(|i| match i.kind {
            ImportKind::Func(t) => Some((i.name.as_str(), &m.types[t as usize])),
            _ => None,
        });
        let funcs = m.functions.iter().zip(&m.code);
        let funcs = funcs.map(|(&t, b)| Func::new(&m.types[t as usize], &b.locals, &b.instrs));
        let limits = m.memory().map(|t| t.limits);
        let pages = limits.map_or(0, |l| l.min as usize);
        let max_pages = limits.map_or(0, |l| l.max.unwrap_or(65536) as usize);
        let mut globals = Vec::new();
        for g in &m.globals {
            globals.push(eval(&g.init, &globals));
        }
        let mut st = State {
            memory: vec![0; pages * PAGE],
            max_pages,
            table: vec![None; m.table().map_or(0, |t| t.limits.min as usize)],
            globals,
            fuel: 0,
            stack: Vec::new(),
            labels: Vec::new(),
            frames: Vec::new(),
            locals: 0,
        };
        for d in &m.data {
            let at = eval(&d.offset, &st.globals) as u32 as usize;
            let to = st.memory.get_mut(at..at + d.bytes.len());
            to.ok_or(Trap::OutOfBounds)?.copy_from_slice(&d.bytes);
        }
        for e in &m.elements {
            let at = eval(&e.offset, &st.globals) as u32 as usize;
            let to = st.table.get_mut(at..at + e.funcs.len());
            let to = to.ok_or(Trap::TableOutOfBounds)?;
            for (slot, &f) in to.iter_mut().zip(&e.funcs) {
                *slot = Some(f);
            }
        }
        let prog = Prog {
            imports: imports.collect(),
            funcs: funcs.collect(),
            module: m,
        };
        Ok(Machine { prog, st })
    }

    /// Run export `name` on `args` (raw slots) to its end.
    ///
    /// # Errors
    ///
    /// The trap that ended the run; memory and globals keep what it had
    /// written.
    ///
    /// # Panics
    ///
    /// If there is no such exported function.
    pub fn invoke(
        &mut self,
        name: &str,
        args: &[u64],
        host: &mut dyn Host,
    ) -> Result<Option<u64>, Trap> {
        let f = self.prog.module.exported_func(name).expect("an export");
        let st = &mut self.st;
        st.fuel = 0;
        st.stack.clear();
        st.labels.clear();
        st.frames.clear();
        st.locals = 0;
        st.stack.extend_from_slice(args);
        st.call(&self.prog, f, host)?;
        st.run(&self.prog, host)?;
        let ty = self.prog.module.func_type(f).expect("an export has a type");
        Ok(ty.result().map(|_| st.stack.pop().expect("a result")))
    }

    /// The linear memory.
    pub fn memory(&self) -> &[u8] {
        &self.st.memory
    }

    /// The globals' raw slots.
    pub fn globals(&self) -> &[u64] {
        &self.st.globals
    }

    /// The fuel the last invocation burned, up to where it stopped.
    pub fn fuel(&self) -> u64 {
        self.st.fuel
    }
}

/// A raw slot's value as each Wasm type.
fn i32_(v: u64) -> i32 {
    v as u32 as i32
}
fn u32_(v: u64) -> u32 {
    v as u32
}
fn i64_(v: u64) -> i64 {
    v as i64
}
fn u64_(v: u64) -> u64 {
    v
}
fn f32_(v: u64) -> f32 {
    f32::from_bits(v as u32)
}
fn f64_(v: u64) -> f64 {
    f64::from_bits(v)
}

/// A result as a raw slot.
trait Slot {
    fn slot(self) -> u64;
}
macro_rules! slot {
    ($($t:ty => |$v:ident| $e:expr),*) => { $(impl Slot for $t {
        fn slot(self) -> u64 { let $v = self; $e }
    })* };
}
slot!(bool => |v| v as u64, i32 => |v| v as u32 as u64, u32 => |v| v as u64,
      i64 => |v| v as u64, u64 => |v| v, f32 => |v| v.to_bits() as u64, f64 => |v| v.to_bits());

/// Wasm `min`/`max`: a NaN operand is the result (the first, if both are),
/// and `-0 < +0`.
macro_rules! min_max {
    ($min:ident $max:ident $t:ty) => {
        fn $min(a: $t, b: $t) -> $t {
            match (a.is_nan(), b.is_nan()) {
                (true, _) => a,
                (_, true) => b,
                _ if a == b => {
                    if a.is_sign_negative() {
                        a
                    } else {
                        b
                    }
                }
                _ => {
                    if a < b {
                        a
                    } else {
                        b
                    }
                }
            }
        }
        fn $max(a: $t, b: $t) -> $t {
            match (a.is_nan(), b.is_nan()) {
                (true, _) => a,
                (_, true) => b,
                _ if a == b => {
                    if a.is_sign_positive() {
                        a
                    } else {
                        b
                    }
                }
                _ => {
                    if a > b {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    };
}
min_max!(fmin32 fmax32 f32);
min_max!(fmin64 fmax64 f64);

/// `x` truncated, if that lies in `[lo, hi)`.
fn trunc(x: f64, lo: f64, hi: f64) -> Result<f64, Trap> {
    let t = x.trunc();
    if x.is_nan() || t < lo || t >= hi {
        return Err(Trap::InvalidConversion);
    }
    Ok(t)
}

const TWO31: f64 = 2147483648.0;
const TWO32: f64 = 4294967296.0;
const TWO63: f64 = 9223372036854775808.0;
const TWO64: f64 = 18446744073709551616.0;

/// Signed division: the zero divisor and `MIN / -1` trap.
macro_rules! div_s {
    ($a:expr, $b:expr) => {{
        if $b == 0 {
            return Err(Trap::DivByZero);
        }
        $a.checked_div($b).ok_or(Trap::IntOverflow)?
    }};
}

/// Signed remainder: the zero divisor traps, and `MIN % -1` is 0.
macro_rules! rem_s {
    ($a:expr, $b:expr) => {{
        if $b == 0 {
            return Err(Trap::DivByZero);
        }
        $a.wrapping_rem($b)
    }};
}

impl State {
    /// Call function `f`, whose arguments are on top of the stack: an
    /// import runs now; a local function gets a frame the loop runs.
    fn call(&mut self, p: &Prog, f: u32, host: &mut dyn Host) -> Result<(), Trap> {
        let f = f as usize;
        if let Some(&(name, ty)) = p.imports.get(f) {
            let at = self.stack.len() - ty.params.len();
            let v = host.call(name, &self.stack[at..], &mut self.memory)?;
            self.stack.truncate(at);
            if ty.result().is_some() {
                self.stack.push(v);
            }
            return Ok(());
        }
        let func = &p.funcs[f - p.imports.len()];
        self.locals += func.ty.params.len() + func.locals.len();
        if self.frames.len() >= MAX_FRAMES || self.locals > MAX_LOCALS {
            return Err(Trap::StackExhausted);
        }
        let at = self.stack.len() - func.ty.params.len();
        let mut locals: Vec<u64> = self.stack.drain(at..).collect();
        locals.resize(locals.len() + func.locals.len(), 0);
        self.frames.push(Frame {
            func: f - p.imports.len(),
            pc: 0,
            locals,
            labels: self.labels.len(),
            height: at,
            arity: func.ty.results.len(),
        });
        Ok(())
    }

    /// Keep the top `arity` values, drop the rest down to `height`.
    fn unwind(&mut self, height: usize, arity: usize) {
        let top = self.stack.len() - arity;
        self.stack.drain(height..top);
    }

    /// Leave the current call with its results.
    fn ret(&mut self) {
        let fr = self.frames.pop().expect("a frame");
        self.locals -= fr.locals.len();
        self.unwind(fr.height, fr.arity);
        self.labels.truncate(fr.labels);
    }

    /// Branch to label `depth`, counted outward from the innermost; the
    /// function's own label returns. Returns whether it did.
    fn branch(&mut self, depth: u32) -> bool {
        let depth = depth as usize;
        if depth == self.labels.len() - self.frame().labels {
            self.ret();
            return true;
        }
        let at = self.labels.len() - 1 - depth;
        let l = self.labels[at];
        self.labels.truncate(at);
        self.unwind(l.height, l.arity);
        self.frame().pc = l.target;
        false
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("a frame")
    }

    fn pop(&mut self) -> u64 {
        self.stack.pop().expect("validated")
    }

    /// The effective address of an access of `n` bytes whose address is on
    /// top of the stack, if all of it lies in the memory.
    fn address(&mut self, n: usize, m: MemArg) -> Result<usize, Trap> {
        let ea = self.pop() as u32 as u64 + m.offset as u64;
        if ea + n as u64 > self.memory.len() as u64 {
            return Err(Trap::OutOfBounds);
        }
        Ok(ea as usize)
    }

    /// Run until the entry call returns.
    fn run(&mut self, p: &Prog, host: &mut dyn Host) -> Result<(), Trap> {
        use Instr::*;
        macro_rules! push {
            ($v:expr) => {{
                let v = $v.slot();
                self.stack.push(v)
            }};
        }
        macro_rules! un {
            ($of:ident, |$a:ident| $e:expr) => {{
                let $a = $of(self.pop());
                push!($e)
            }};
        }
        macro_rules! bin {
            ($of:ident, |$a:ident, $b:ident| $e:expr) => {{
                let $b = $of(self.pop());
                let $a = $of(self.pop());
                push!($e)
            }};
        }
        // Load `$n` bytes and push `$e` of them.
        macro_rules! load {
            ($m:expr, $n:literal, |$x:ident| $e:expr) => {{
                let ea = self.address($n, $m)?;
                let $x: [u8; $n] = self.memory[ea..ea + $n].try_into().expect("n bytes");
                push!($e)
            }};
        }
        // Store the low `$n` bytes of the value on top.
        macro_rules! store {
            ($m:expr, $n:literal) => {{
                let v = self.pop();
                let ea = self.address($n, $m)?;
                self.memory[ea..ea + $n].copy_from_slice(&v.to_le_bytes()[..$n]);
            }};
        }
        let imports = p.imports.len() as u32;
        while let Some(fr) = self.frames.last_mut() {
            let func = &p.funcs[fr.func];
            let pc = fr.pc;
            let ins = &func.code[pc];
            fr.pc += 1;
            let labels = fr.labels;
            self.fuel += weight(ins, imports) as u64;
            match ins {
                Nop => {}
                Unreachable => return Err(Trap::Unreachable),
                Block(t) | Loop(t) => {
                    let l = Label {
                        target: if matches!(ins, Loop(_)) {
                            pc
                        } else {
                            func.ends[pc] + 1
                        },
                        height: self.stack.len(),
                        arity: if matches!(ins, Loop(_)) { 0 } else { arity(*t) },
                    };
                    self.labels.push(l);
                }
                If(t) => {
                    let c = self.pop();
                    self.labels.push(Label {
                        target: func.ends[pc] + 1,
                        height: self.stack.len(),
                        arity: arity(*t),
                    });
                    if c as u32 == 0 {
                        // To the `else` arm, or to the `end`, which pops the
                        // label.
                        self.frame().pc = match func.elses[pc] {
                            0 => func.ends[pc],
                            e => e + 1,
                        };
                    }
                }
                // The `then` arm ran into its `else`: on to the `end`.
                Else => self.frame().pc = func.ends[pc],
                End if self.labels.len() > labels => {
                    self.labels.pop();
                }
                End | Return => {
                    if matches!(ins, End) {
                        self.fuel += RETURN as u64;
                    }
                    self.ret();
                }
                Br(d) => {
                    self.branch(*d);
                }
                BrIf(d) => {
                    // A conditional return is a branch over a `return`.
                    if self.pop() as u32 != 0 && self.branch(*d) {
                        self.fuel += RETURN as u64;
                    }
                }
                BrTable(ds, default) => {
                    let i = self.pop() as u32 as usize;
                    // It returns through the function's final `return`.
                    if self.branch(*ds.get(i).unwrap_or(default)) {
                        self.fuel += RETURN as u64;
                    }
                }
                Call(f) => self.call(p, *f, host)?,
                CallIndirect(t) => {
                    let i = self.pop() as u32 as usize;
                    let f = match self.table.get(i) {
                        Some(Some(f)) => *f,
                        Some(None) => return Err(Trap::UndefinedElement),
                        None => return Err(Trap::TableOutOfBounds),
                    };
                    let want = &p.module.types[*t as usize];
                    if p.module.func_type(f) != Some(want) {
                        return Err(Trap::IndirectTypeMismatch);
                    }
                    self.call(p, f, host)?;
                }
                Drop => {
                    self.pop();
                }
                Select => {
                    let c = self.pop();
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(if c as u32 != 0 { a } else { b });
                }
                LocalGet(i) => {
                    let v = self.frame().locals[*i as usize];
                    self.stack.push(v);
                }
                LocalSet(i) => {
                    let v = self.pop();
                    self.frame().locals[*i as usize] = v;
                }
                LocalTee(i) => {
                    let v = *self.stack.last().expect("validated");
                    self.frame().locals[*i as usize] = v;
                }
                GlobalGet(g) => self.stack.push(self.globals[*g as usize]),
                GlobalSet(g) => self.globals[*g as usize] = self.pop(),

                I32Load(m) | F32Load(m) => load!(*m, 4, |x| u32::from_le_bytes(x)),
                I64Load(m) | F64Load(m) => load!(*m, 8, |x| u64::from_le_bytes(x)),
                I32Load8S(m) => load!(*m, 1, |x| x[0] as i8 as i32),
                I32Load8U(m) => load!(*m, 1, |x| x[0] as u32),
                I32Load16S(m) => load!(*m, 2, |x| i16::from_le_bytes(x) as i32),
                I32Load16U(m) => load!(*m, 2, |x| u16::from_le_bytes(x) as u32),
                I64Load8S(m) => load!(*m, 1, |x| x[0] as i8 as i64),
                I64Load8U(m) => load!(*m, 1, |x| x[0] as u64),
                I64Load16S(m) => load!(*m, 2, |x| i16::from_le_bytes(x) as i64),
                I64Load16U(m) => load!(*m, 2, |x| u16::from_le_bytes(x) as u64),
                I64Load32S(m) => load!(*m, 4, |x| i32::from_le_bytes(x) as i64),
                I64Load32U(m) => load!(*m, 4, |x| u32::from_le_bytes(x) as u64),
                I32Store8(m) | I64Store8(m) => store!(*m, 1),
                I32Store16(m) | I64Store16(m) => store!(*m, 2),
                I32Store(m) | F32Store(m) | I64Store32(m) => store!(*m, 4),
                I64Store(m) | F64Store(m) => store!(*m, 8),
                MemorySize => push!((self.memory.len() / PAGE) as u32),
                MemoryGrow => {
                    let (old, by) = (self.memory.len() / PAGE, self.pop() as u32 as usize);
                    if old + by > self.max_pages {
                        push!(-1i32);
                    } else {
                        self.memory.resize((old + by) * PAGE, 0);
                        push!(old as u32);
                    }
                }

                I32Const(v) => push!(*v),
                I64Const(v) => push!(*v),
                F32Const(v) => push!(*v),
                F64Const(v) => push!(*v),

                I32Eqz => un!(u32_, |a| a == 0),
                I32Eq => bin!(u32_, |a, b| a == b),
                I32Ne => bin!(u32_, |a, b| a != b),
                I32LtS => bin!(i32_, |a, b| a < b),
                I32LtU => bin!(u32_, |a, b| a < b),
                I32GtS => bin!(i32_, |a, b| a > b),
                I32GtU => bin!(u32_, |a, b| a > b),
                I32LeS => bin!(i32_, |a, b| a <= b),
                I32LeU => bin!(u32_, |a, b| a <= b),
                I32GeS => bin!(i32_, |a, b| a >= b),
                I32GeU => bin!(u32_, |a, b| a >= b),
                I64Eqz => un!(u64_, |a| a == 0),
                I64Eq => bin!(u64_, |a, b| a == b),
                I64Ne => bin!(u64_, |a, b| a != b),
                I64LtS => bin!(i64_, |a, b| a < b),
                I64LtU => bin!(u64_, |a, b| a < b),
                I64GtS => bin!(i64_, |a, b| a > b),
                I64GtU => bin!(u64_, |a, b| a > b),
                I64LeS => bin!(i64_, |a, b| a <= b),
                I64LeU => bin!(u64_, |a, b| a <= b),
                I64GeS => bin!(i64_, |a, b| a >= b),
                I64GeU => bin!(u64_, |a, b| a >= b),
                F32Eq => bin!(f32_, |a, b| a == b),
                F32Ne => bin!(f32_, |a, b| a != b),
                F32Lt => bin!(f32_, |a, b| a < b),
                F32Gt => bin!(f32_, |a, b| a > b),
                F32Le => bin!(f32_, |a, b| a <= b),
                F32Ge => bin!(f32_, |a, b| a >= b),
                F64Eq => bin!(f64_, |a, b| a == b),
                F64Ne => bin!(f64_, |a, b| a != b),
                F64Lt => bin!(f64_, |a, b| a < b),
                F64Gt => bin!(f64_, |a, b| a > b),
                F64Le => bin!(f64_, |a, b| a <= b),
                F64Ge => bin!(f64_, |a, b| a >= b),

                I32Clz => un!(u32_, |a| a.leading_zeros()),
                I32Ctz => un!(u32_, |a| a.trailing_zeros()),
                I32Popcnt => un!(u32_, |a| a.count_ones()),
                I32Add => bin!(u32_, |a, b| a.wrapping_add(b)),
                I32Sub => bin!(u32_, |a, b| a.wrapping_sub(b)),
                I32Mul => bin!(u32_, |a, b| a.wrapping_mul(b)),
                I32DivS => bin!(i32_, |a, b| div_s!(a, b)),
                I32DivU => bin!(u32_, |a, b| a.checked_div(b).ok_or(Trap::DivByZero)?),
                I32RemS => bin!(i32_, |a, b| rem_s!(a, b)),
                I32RemU => bin!(u32_, |a, b| a.checked_rem(b).ok_or(Trap::DivByZero)?),
                I32And => bin!(u32_, |a, b| a & b),
                I32Or => bin!(u32_, |a, b| a | b),
                I32Xor => bin!(u32_, |a, b| a ^ b),
                I32Shl => bin!(u32_, |a, b| a.wrapping_shl(b)),
                I32ShrS => bin!(i32_, |a, b| a.wrapping_shr(b as u32)),
                I32ShrU => bin!(u32_, |a, b| a.wrapping_shr(b)),
                I32Rotl => bin!(u32_, |a, b| a.rotate_left(b)),
                I32Rotr => bin!(u32_, |a, b| a.rotate_right(b)),
                I64Clz => un!(u64_, |a| a.leading_zeros() as u64),
                I64Ctz => un!(u64_, |a| a.trailing_zeros() as u64),
                I64Popcnt => un!(u64_, |a| a.count_ones() as u64),
                I64Add => bin!(u64_, |a, b| a.wrapping_add(b)),
                I64Sub => bin!(u64_, |a, b| a.wrapping_sub(b)),
                I64Mul => bin!(u64_, |a, b| a.wrapping_mul(b)),
                I64DivS => bin!(i64_, |a, b| div_s!(a, b)),
                I64DivU => bin!(u64_, |a, b| a.checked_div(b).ok_or(Trap::DivByZero)?),
                I64RemS => bin!(i64_, |a, b| rem_s!(a, b)),
                I64RemU => bin!(u64_, |a, b| a.checked_rem(b).ok_or(Trap::DivByZero)?),
                I64And => bin!(u64_, |a, b| a & b),
                I64Or => bin!(u64_, |a, b| a | b),
                I64Xor => bin!(u64_, |a, b| a ^ b),
                I64Shl => bin!(u64_, |a, b| a.wrapping_shl(b as u32)),
                I64ShrS => bin!(i64_, |a, b| a.wrapping_shr(b as u32)),
                I64ShrU => bin!(u64_, |a, b| a.wrapping_shr(b as u32)),
                I64Rotl => bin!(u64_, |a, b| a.rotate_left((b % 64) as u32)),
                I64Rotr => bin!(u64_, |a, b| a.rotate_right((b % 64) as u32)),

                F32Abs => un!(f32_, |a| a.abs()),
                F32Neg => un!(f32_, |a| -a),
                F32Ceil => un!(f32_, |a| a.ceil()),
                F32Floor => un!(f32_, |a| a.floor()),
                F32Trunc => un!(f32_, |a| a.trunc()),
                F32Nearest => un!(f32_, |a| a.round_ties_even()),
                F32Sqrt => un!(f32_, |a| a.sqrt()),
                F32Add => bin!(f32_, |a, b| a + b),
                F32Sub => bin!(f32_, |a, b| a - b),
                F32Mul => bin!(f32_, |a, b| a * b),
                F32Div => bin!(f32_, |a, b| a / b),
                F32Min => bin!(f32_, |a, b| fmin32(a, b)),
                F32Max => bin!(f32_, |a, b| fmax32(a, b)),
                F32Copysign => bin!(f32_, |a, b| a.copysign(b)),
                F64Abs => un!(f64_, |a| a.abs()),
                F64Neg => un!(f64_, |a| -a),
                F64Ceil => un!(f64_, |a| a.ceil()),
                F64Floor => un!(f64_, |a| a.floor()),
                F64Trunc => un!(f64_, |a| a.trunc()),
                F64Nearest => un!(f64_, |a| a.round_ties_even()),
                F64Sqrt => un!(f64_, |a| a.sqrt()),
                F64Add => bin!(f64_, |a, b| a + b),
                F64Sub => bin!(f64_, |a, b| a - b),
                F64Mul => bin!(f64_, |a, b| a * b),
                F64Div => bin!(f64_, |a, b| a / b),
                F64Min => bin!(f64_, |a, b| fmin64(a, b)),
                F64Max => bin!(f64_, |a, b| fmax64(a, b)),
                F64Copysign => bin!(f64_, |a, b| a.copysign(b)),

                I32WrapI64 => un!(u64_, |a| a as u32),
                I32TruncF32S => un!(f32_, |a| trunc(a as f64, -TWO31, TWO31)? as i32),
                I32TruncF32U => un!(f32_, |a| trunc(a as f64, 0.0, TWO32)? as u32),
                I32TruncF64S => un!(f64_, |a| trunc(a, -TWO31, TWO31)? as i32),
                I32TruncF64U => un!(f64_, |a| trunc(a, 0.0, TWO32)? as u32),
                I64ExtendI32S => un!(i32_, |a| a as i64),
                I64ExtendI32U => un!(u32_, |a| a as u64),
                I64TruncF32S => un!(f32_, |a| trunc(a as f64, -TWO63, TWO63)? as i64),
                I64TruncF32U => un!(f32_, |a| trunc(a as f64, 0.0, TWO64)? as u64),
                I64TruncF64S => un!(f64_, |a| trunc(a, -TWO63, TWO63)? as i64),
                I64TruncF64U => un!(f64_, |a| trunc(a, 0.0, TWO64)? as u64),
                F32ConvertI32S => un!(i32_, |a| a as f32),
                F32ConvertI32U => un!(u32_, |a| a as f32),
                F32ConvertI64S => un!(i64_, |a| a as f32),
                F32ConvertI64U => un!(u64_, |a| a as f32),
                F32DemoteF64 => un!(f64_, |a| a as f32),
                F64ConvertI32S => un!(i32_, |a| a as f64),
                F64ConvertI32U => un!(u32_, |a| a as f64),
                F64ConvertI64S => un!(i64_, |a| a as f64),
                F64ConvertI64U => un!(u64_, |a| a as f64),
                F64PromoteF32 => un!(f32_, |a| a as f64),
                // A slot holds an `f32` as its bits, an `i32` zero-extended:
                // the same 64 bits.
                I32ReinterpretF32 | F32ReinterpretI32 | I64ReinterpretF64 | F64ReinterpretI64 => {}
                I32Extend8S => un!(i32_, |a| a as i8 as i32),
                I32Extend16S => un!(i32_, |a| a as i16 as i32),
                I64Extend8S => un!(i64_, |a| a as i8 as i64),
                I64Extend16S => un!(i64_, |a| a as i16 as i64),
                I64Extend32S => un!(i64_, |a| a as i32 as i64),
            }
        }
        Ok(())
    }
}

/// How many values a block of type `t` leaves.
fn arity(t: BlockType) -> usize {
    t.result().is_some() as usize
}
