//! What the seeded differential suites share: a trap-free arithmetic AST that
//! evaluates natively and compiles to the guest DSL, and the observation
//! (result, full-memory hash, fuel) that every "A ≡ B" property compares.
#![allow(dead_code)] // each suite uses its own part

use awsm::{BoundsStrategy, Instance, NullHost, Tier, Value};
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, Local};
use sledge_testkit::Rng;

/// Every tier with the bounds strategies it is run under.
pub const ALL_CONFIGS: &[(Tier, BoundsStrategy)] = &[
    (Tier::Optimized, BoundsStrategy::GuardRegion),
    (Tier::Optimized, BoundsStrategy::Software),
    (Tier::Optimized, BoundsStrategy::MpxEmulated),
    (Tier::Optimized, BoundsStrategy::None),
    (Tier::Naive, BoundsStrategy::GuardRegion),
    (Tier::Naive, BoundsStrategy::Software),
];

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
    let mem = inst.memory();
    let bytes = mem
        .read_bytes(0, mem.size_bytes() as u32)
        .expect("full-memory read");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `main` to completion: (result, full-memory hash, fuel used).
pub fn run_once(inst: &mut Instance, args: &[Value]) -> (Option<u64>, u64, u64) {
    let out = inst
        .call_complete("main", args, &mut NullHost)
        .expect("trap-free guest must complete");
    (out, fnv_memory_hash(inst), inst.fuel_used())
}
