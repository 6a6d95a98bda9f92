//! What the seeded differential suites share: a trap-free arithmetic AST that
//! evaluates natively and compiles to the guest DSL, the observation
//! (result, full-memory hash, fuel) that every "A ≡ B" property compares,
//! and the comparison of the engine with the reference interpreter
//! (`sledge-reference`), which shares no code with it.
#![allow(dead_code)] // each suite uses its own part

use awsm::{Instance, NullHost, StepResult, Value};
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, Local};
use sledge_reference::Machine;
use sledge_testkit::Rng;
use sledge_wasm::module::Module;

/// An i32 expression over two inputs, spanning the weight classes the cost
/// model tells apart and the forms the translator fuses.
#[derive(Debug, Clone)]
pub enum Arith {
    Const(i32),
    X,
    Y,
    /// `op(a, b)`; for `DivU` the divisor is `b | 1`, so nothing traps.
    Bin(BinOp, Box<Arith>, Box<Arith>),
    /// `if c != 0 { a } else { b }` via wasm select.
    Sel(Box<Arith>, Box<Arith>, Box<Arith>),
}

#[derive(Debug, Clone, Copy)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    DivU,
    And,
    Or,
    Xor,
    Shl,
    ShrU,
}

const BIN_OPS: [BinOp; 9] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::ShrU,
];

impl Arith {
    /// A random expression nested at most `depth` operators deep.
    pub fn gen(rng: &mut Rng, depth: u32) -> Arith {
        if depth == 0 || rng.range(0, 4) == 0 {
            return match rng.range(0, 3) {
                0 => Arith::Const(rng.next_u64() as i32),
                1 => Arith::X,
                _ => Arith::Y,
            };
        }
        let shape = rng.index(0, BIN_OPS.len() + 1);
        let mut sub = || Box::new(Arith::gen(rng, depth - 1));
        match BIN_OPS.get(shape) {
            Some(op) => Arith::Bin(*op, sub(), sub()),
            None => Arith::Sel(sub(), sub(), sub()),
        }
    }

    /// The native reference semantics.
    pub fn eval(&self, x: i32, y: i32) -> i32 {
        match self {
            Arith::Const(c) => *c,
            Arith::X => x,
            Arith::Y => y,
            Arith::Bin(op, a, b) => {
                let (a, b) = (a.eval(x, y), b.eval(x, y));
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::DivU => (a as u32 / (b as u32 | 1)) as i32,
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::ShrU => (a as u32).wrapping_shr(b as u32) as i32,
                }
            }
            Arith::Sel(c, a, b) => {
                if c.eval(x, y) != 0 {
                    a.eval(x, y)
                } else {
                    b.eval(x, y)
                }
            }
        }
    }

    /// The same expression in the guest DSL.
    pub fn to_expr(&self, x: Local, y: Local) -> Expr {
        match self {
            Arith::Const(c) => i32c(*c),
            Arith::X => local(x),
            Arith::Y => local(y),
            Arith::Bin(op, a, b) => {
                let (a, b) = (a.to_expr(x, y), b.to_expr(x, y));
                match op {
                    BinOp::Add => add(a, b),
                    BinOp::Sub => sub(a, b),
                    BinOp::Mul => mul(a, b),
                    BinOp::DivU => div_u(a, or(b, i32c(1))),
                    BinOp::And => and(a, b),
                    BinOp::Or => or(a, b),
                    BinOp::Xor => xor(a, b),
                    BinOp::Shl => shl(a, b),
                    BinOp::ShrU => shr_u(a, b),
                }
            }
            Arith::Sel(c, a, b) => select(
                ne(c.to_expr(x, y), i32c(0)),
                a.to_expr(x, y),
                b.to_expr(x, y),
            ),
        }
    }
}

/// A random i32 (any bit pattern).
pub fn any_i32(rng: &mut Rng) -> i32 {
    rng.next_u64() as i32
}

/// FNV-1a over the instance's whole linear memory.
pub fn fnv_memory_hash(inst: &Instance) -> u64 {
    fnv(memory(inst))
}

/// The instance's whole linear memory.
fn memory(inst: &Instance) -> &[u8] {
    let mem = inst.memory();
    mem.read_bytes(0, mem.size_bytes() as u32)
        .expect("full-memory read")
}

/// Run `main` to completion: (result, full-memory hash, fuel used).
pub fn run_once(inst: &mut Instance, args: &[Value]) -> (Option<u64>, u64, u64) {
    let out = inst
        .call_complete("main", args, &mut NullHost)
        .expect("trap-free guest must complete");
    (out, fnv_memory_hash(inst), inst.fuel_used())
}

/// FNV-1a 64 of `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The engine's trap under the name the reference gives it.
pub fn kind(t: awsm::Trap) -> sledge_reference::Trap {
    use sledge_reference::Trap as R;
    match t {
        awsm::Trap::Unreachable => R::Unreachable,
        awsm::Trap::OutOfBounds => R::OutOfBounds,
        awsm::Trap::DivByZero => R::DivByZero,
        awsm::Trap::IntOverflow => R::IntOverflow,
        awsm::Trap::InvalidConversion => R::InvalidConversion,
        awsm::Trap::UndefinedElement => R::UndefinedElement,
        awsm::Trap::IndirectTypeMismatch => R::IndirectTypeMismatch,
        awsm::Trap::TableOutOfBounds => R::TableOutOfBounds,
        awsm::Trap::StackExhausted => R::StackExhausted,
    }
}

/// `v` as a raw slot: an integer zero-extended, a float as its bits.
pub fn slot(v: &Value) -> u64 {
    match *v {
        Value::I32(v) => v as u32 as u64,
        Value::I64(v) => v as u64,
        Value::F32(v) => v.to_bits() as u64,
        Value::F64(v) => v.to_bits(),
    }
}

/// What one invocation leaves behind, as the engine and the reference can
/// both state it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The result slot, or the trap.
    pub result: Result<Option<u64>, sledge_reference::Trap>,
    /// The memory's length and hash.
    pub memory: (usize, u64),
    /// The globals' raw slots.
    pub globals: Vec<u64>,
    /// The fuel burned, on a completed run only: after a trap the engine
    /// has paid for the rest of the trapping segment in advance.
    pub fuel: Option<u64>,
}

impl Outcome {
    /// What the engine's `inst` shows after a run that ended in `result`.
    pub fn engine(inst: &Instance, result: Result<Option<u64>, awsm::Trap>) -> Outcome {
        let bytes = memory(inst);
        Outcome {
            fuel: result.is_ok().then(|| inst.fuel_used()),
            result: result.map_err(kind),
            memory: (bytes.len(), fnv(bytes)),
            globals: inst.globals().to_vec(),
        }
    }

    /// What the reference machine `r` shows after a run that ended in
    /// `result`.
    pub fn reference(r: &Machine, result: Result<Option<u64>, sledge_reference::Trap>) -> Outcome {
        Outcome {
            fuel: result.is_ok().then(|| r.fuel()),
            result,
            memory: (r.memory().len(), fnv(r.memory())),
            globals: r.globals().to_vec(),
        }
    }
}

/// The reference's stand-in for `NullHost`: every host call traps.
pub struct NoHost;

impl sledge_reference::Host for NoHost {
    fn call(&mut self, _: &str, _: &[u64], _: &mut [u8]) -> Result<u64, sledge_reference::Trap> {
        Err(sledge_reference::Trap::Unreachable)
    }
}

/// `entry(args)` on a fresh reference instance of `m`.
pub fn reference(
    m: &Module,
    entry: &str,
    args: &[Value],
    host: &mut dyn sledge_reference::Host,
) -> Outcome {
    let mut r = Machine::new(m).expect("instantiates");
    let args: Vec<u64> = args.iter().map(slot).collect();
    let result = r.invoke(entry, &args, host);
    Outcome::reference(&r, result)
}

/// Drive the invocation begun on `inst` to its end, granting `quantum`
/// units per `run` and resuming after every pause.
pub fn finish(inst: &mut Instance, host: &mut dyn awsm::Host, quantum: u64) -> Outcome {
    let result = loop {
        match inst.run(host, quantum) {
            StepResult::Complete(v) => break Ok(v),
            StepResult::Trapped(t) => break Err(t),
            StepResult::OutOfFuel | StepResult::Preempted | StepResult::Blocked => {}
        }
    };
    Outcome::engine(inst, result)
}

/// `entry(args)` on the engine's `inst`, `quantum` units per `run`, and on
/// a fresh reference instance of `m`, neither with host imports: the two
/// must agree. Returns what they saw.
pub fn agree(
    m: &Module,
    inst: &mut Instance,
    entry: &str,
    args: &[Value],
    quantum: u64,
) -> Outcome {
    let got = match inst.invoke_export(entry, args) {
        Ok(()) => finish(inst, &mut NullHost, quantum),
        Err(e) => panic!("invoke {entry}: {e}"),
    };
    let want = reference(m, entry, args, &mut NoHost);
    assert_eq!(got, want, "engine vs reference: {entry}{args:?}");
    got
}

/// Assert that `entry(args)`, which ended in `result` on the engine's
/// `inst`, ends the same way on a fresh reference instance of `m` with no
/// host imports.
pub fn same_as_reference(
    m: &Module,
    inst: &Instance,
    entry: &str,
    args: &[Value],
    result: Result<Option<u64>, awsm::Trap>,
) {
    let want = reference(m, entry, args, &mut NoHost);
    assert_eq!(
        Outcome::engine(inst, result),
        want,
        "engine vs reference: {entry}{args:?}"
    );
}
