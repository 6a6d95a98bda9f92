//! Evaluation of the numeric operations over slot-encoded values.

use crate::code::{NumBin, NumUn};
use crate::value::*;

/// Apply a binary numeric operation to two slots.
///
/// # Errors
///
/// Returns a [`Trap`] for division by zero, signed-overflow division, and
/// invalid conversions.
#[inline(always)]
pub(crate) fn bin(op: NumBin, x: u64, y: u64) -> Result<u64, Trap> {
    use NumBin::*;
    let r = match op {
        // --- i32 ---
        I32Add => (x as u32).wrapping_add(y as u32) as u64,
        I32Sub => (x as u32).wrapping_sub(y as u32) as u64,
        I32Mul => (x as u32).wrapping_mul(y as u32) as u64,
        I32DivS => {
            let (a, b) = (x as u32 as i32, y as u32 as i32);
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            if a == i32::MIN && b == -1 {
                return Err(Trap::IntOverflow);
            }
            (a / b) as u32 as u64
        }
        I32DivU => {
            let (a, b) = (x as u32, y as u32);
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            (a / b) as u64
        }
        I32RemS => {
            let (a, b) = (x as u32 as i32, y as u32 as i32);
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_rem(b) as u32 as u64
        }
        I32RemU => {
            let (a, b) = (x as u32, y as u32);
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            (a % b) as u64
        }
        I32And => (x as u32 & y as u32) as u64,
        I32Or => (x as u32 | y as u32) as u64,
        I32Xor => (x as u32 ^ y as u32) as u64,
        I32Shl => (x as u32).wrapping_shl(y as u32) as u64,
        I32ShrS => ((x as u32 as i32).wrapping_shr(y as u32)) as u32 as u64,
        I32ShrU => (x as u32).wrapping_shr(y as u32) as u64,
        I32Rotl => (x as u32).rotate_left(y as u32 & 31) as u64,
        I32Rotr => (x as u32).rotate_right(y as u32 & 31) as u64,
        I32Eq => b(x as u32 == y as u32),
        I32Ne => b(x as u32 != y as u32),
        I32LtS => b((x as u32 as i32) < (y as u32 as i32)),
        I32LtU => b((x as u32) < (y as u32)),
        I32GtS => b((x as u32 as i32) > (y as u32 as i32)),
        I32GtU => b((x as u32) > (y as u32)),
        I32LeS => b((x as u32 as i32) <= (y as u32 as i32)),
        I32LeU => b((x as u32) <= (y as u32)),
        I32GeS => b((x as u32 as i32) >= (y as u32 as i32)),
        I32GeU => b((x as u32) >= (y as u32)),
        // --- i64 ---
        I64Add => x.wrapping_add(y),
        I64Sub => x.wrapping_sub(y),
        I64Mul => x.wrapping_mul(y),
        I64DivS => {
            let (a, c) = (x as i64, y as i64);
            if c == 0 {
                return Err(Trap::DivByZero);
            }
            if a == i64::MIN && c == -1 {
                return Err(Trap::IntOverflow);
            }
            (a / c) as u64
        }
        I64DivU => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x / y
        }
        I64RemS => {
            let (a, c) = (x as i64, y as i64);
            if c == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_rem(c) as u64
        }
        I64RemU => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x % y
        }
        I64And => x & y,
        I64Or => x | y,
        I64Xor => x ^ y,
        I64Shl => x.wrapping_shl(y as u32),
        I64ShrS => ((x as i64).wrapping_shr(y as u32)) as u64,
        I64ShrU => x.wrapping_shr(y as u32),
        I64Rotl => x.rotate_left(y as u32 & 63),
        I64Rotr => x.rotate_right(y as u32 & 63),
        I64Eq => b(x == y),
        I64Ne => b(x != y),
        I64LtS => b((x as i64) < (y as i64)),
        I64LtU => b(x < y),
        I64GtS => b((x as i64) > (y as i64)),
        I64GtU => b(x > y),
        I64LeS => b((x as i64) <= (y as i64)),
        I64LeU => b(x <= y),
        I64GeS => b((x as i64) >= (y as i64)),
        I64GeU => b(x >= y),
        // --- f32 ---
        F32Add => bits_f32(f32_of(x) + f32_of(y)),
        F32Sub => bits_f32(f32_of(x) - f32_of(y)),
        F32Mul => bits_f32(f32_of(x) * f32_of(y)),
        F32Div => bits_f32(f32_of(x) / f32_of(y)),
        F32Min => bits_f32(wasm_fmin32(f32_of(x), f32_of(y))),
        F32Max => bits_f32(wasm_fmax32(f32_of(x), f32_of(y))),
        F32Copysign => bits_f32(f32_of(x).copysign(f32_of(y))),
        F32Eq => b(f32_of(x) == f32_of(y)),
        F32Ne => b(f32_of(x) != f32_of(y)),
        F32Lt => b(f32_of(x) < f32_of(y)),
        F32Gt => b(f32_of(x) > f32_of(y)),
        F32Le => b(f32_of(x) <= f32_of(y)),
        F32Ge => b(f32_of(x) >= f32_of(y)),
        // --- f64 ---
        F64Add => bits_f64(f64_of(x) + f64_of(y)),
        F64Sub => bits_f64(f64_of(x) - f64_of(y)),
        F64Mul => bits_f64(f64_of(x) * f64_of(y)),
        F64Div => bits_f64(f64_of(x) / f64_of(y)),
        F64Min => bits_f64(wasm_fmin64(f64_of(x), f64_of(y))),
        F64Max => bits_f64(wasm_fmax64(f64_of(x), f64_of(y))),
        F64Copysign => bits_f64(f64_of(x).copysign(f64_of(y))),
        F64Eq => b(f64_of(x) == f64_of(y)),
        F64Ne => b(f64_of(x) != f64_of(y)),
        F64Lt => b(f64_of(x) < f64_of(y)),
        F64Gt => b(f64_of(x) > f64_of(y)),
        F64Le => b(f64_of(x) <= f64_of(y)),
        F64Ge => b(f64_of(x) >= f64_of(y)),
    };
    Ok(r)
}

/// Apply a unary numeric operation to one slot.
///
/// # Errors
///
/// Returns a [`Trap`] for invalid float → integer conversions.
#[inline(always)]
pub(crate) fn un(op: NumUn, x: u64) -> Result<u64, Trap> {
    use NumUn::*;
    let r = match op {
        I32Eqz => b(x as u32 == 0),
        I64Eqz => b(x == 0),
        I32Clz => (x as u32).leading_zeros() as u64,
        I32Ctz => (x as u32).trailing_zeros() as u64,
        I32Popcnt => (x as u32).count_ones() as u64,
        I64Clz => x.leading_zeros() as u64,
        I64Ctz => x.trailing_zeros() as u64,
        I64Popcnt => x.count_ones() as u64,
        F32Abs => bits_f32(f32_of(x).abs()),
        F32Neg => bits_f32(-f32_of(x)),
        F32Ceil => bits_f32(f32_of(x).ceil()),
        F32Floor => bits_f32(f32_of(x).floor()),
        F32Trunc => bits_f32(f32_of(x).trunc()),
        F32Nearest => bits_f32(f32_of(x).round_ties_even()),
        F32Sqrt => bits_f32(f32_of(x).sqrt()),
        F64Abs => bits_f64(f64_of(x).abs()),
        F64Neg => bits_f64(-f64_of(x)),
        F64Ceil => bits_f64(f64_of(x).ceil()),
        F64Floor => bits_f64(f64_of(x).floor()),
        F64Trunc => bits_f64(f64_of(x).trunc()),
        F64Nearest => bits_f64(f64_of(x).round_ties_even()),
        F64Sqrt => bits_f64(f64_of(x).sqrt()),
        I32WrapI64 => x as u32 as u64,
        I32TruncF32S => trunc_to_i32(f32_of(x) as f64)? as u32 as u64,
        I32TruncF32U => trunc_to_u32(f32_of(x) as f64)? as u64,
        I32TruncF64S => trunc_to_i32(f64_of(x))? as u32 as u64,
        I32TruncF64U => trunc_to_u32(f64_of(x))? as u64,
        I64ExtendI32S => (x as u32 as i32) as i64 as u64,
        I64ExtendI32U => x as u32 as u64,
        I64TruncF32S => trunc_to_i64(f32_of(x) as f64)? as u64,
        I64TruncF32U => trunc_to_u64(f32_of(x) as f64)?,
        I64TruncF64S => trunc_to_i64(f64_of(x))? as u64,
        I64TruncF64U => trunc_to_u64(f64_of(x))?,
        F32ConvertI32S => bits_f32(x as u32 as i32 as f32),
        F32ConvertI32U => bits_f32(x as u32 as f32),
        F32ConvertI64S => bits_f32(x as i64 as f32),
        F32ConvertI64U => bits_f32(x as f32),
        F32DemoteF64 => bits_f32(f64_of(x) as f32),
        F64ConvertI32S => bits_f64(x as u32 as i32 as f64),
        F64ConvertI32U => bits_f64(x as u32 as f64),
        F64ConvertI64S => bits_f64(x as i64 as f64),
        F64ConvertI64U => bits_f64(x as f64),
        F64PromoteF32 => bits_f64(f32_of(x) as f64),
        I32ReinterpretF32 => x as u32 as u64,
        I64ReinterpretF64 => x,
        F32ReinterpretI32 => x as u32 as u64,
        F64ReinterpretI64 => x,
        I32Extend8S => (x as u8 as i8) as i32 as u32 as u64,
        I32Extend16S => (x as u16 as i16) as i32 as u32 as u64,
        I64Extend8S => (x as u8 as i8) as i64 as u64,
        I64Extend16S => (x as u16 as i16) as i64 as u64,
        I64Extend32S => (x as u32 as i32) as i64 as u64,
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::NumBin::*;
    use crate::code::NumUn::*;

    fn i32s(v: i32) -> u64 {
        v as u32 as u64
    }

    #[test]
    fn i32_wrapping_and_traps() {
        assert_eq!(
            bin(I32Add, i32s(i32::MAX), i32s(1)).unwrap(),
            i32s(i32::MIN)
        );
        assert_eq!(bin(I32DivS, i32s(-7), i32s(2)).unwrap(), i32s(-3));
        assert_eq!(bin(I32DivS, i32s(7), i32s(0)), Err(Trap::DivByZero));
        assert_eq!(
            bin(I32DivS, i32s(i32::MIN), i32s(-1)),
            Err(Trap::IntOverflow)
        );
        // i32::MIN % -1 == 0, no trap.
        assert_eq!(bin(I32RemS, i32s(i32::MIN), i32s(-1)).unwrap(), 0);
    }

    #[test]
    fn shifts_mask_their_count() {
        assert_eq!(bin(I32Shl, i32s(1), i32s(33)).unwrap(), i32s(2));
        assert_eq!(bin(I64Shl, 1, 65).unwrap(), 2);
        assert_eq!(bin(I32ShrS, i32s(-8), i32s(1)).unwrap(), i32s(-4));
        assert_eq!(bin(I32ShrU, i32s(-8), i32s(1)).unwrap(), i32s(0x7FFFFFFC));
    }

    #[test]
    fn comparisons_are_sign_correct() {
        assert_eq!(bin(I32LtS, i32s(-1), i32s(1)).unwrap(), 1);
        assert_eq!(bin(I32LtU, i32s(-1), i32s(1)).unwrap(), 0);
        assert_eq!(bin(I64GeU, u64::MAX, 0).unwrap(), 1);
    }

    #[test]
    fn float_ops_via_bits() {
        let x = bits_f64(1.5);
        let y = bits_f64(2.25);
        assert_eq!(f64_of(bin(F64Add, x, y).unwrap()), 3.75);
        assert_eq!(bin(F64Lt, x, y).unwrap(), 1);
        assert_eq!(f64_of(un(F64Sqrt, bits_f64(9.0)).unwrap()), 3.0);
        assert_eq!(f64_of(un(F64Nearest, bits_f64(2.5)).unwrap()), 2.0);
    }

    #[test]
    fn conversions() {
        assert_eq!(un(I64ExtendI32S, i32s(-1)).unwrap(), u64::MAX);
        assert_eq!(un(I64ExtendI32U, i32s(-1)).unwrap(), 0xFFFF_FFFF);
        assert_eq!(un(I32WrapI64, 0x1_0000_0005).unwrap(), 5);
        assert_eq!(f64_of(un(F64ConvertI32S, i32s(-2)).unwrap()), -2.0);
        assert_eq!(un(I32TruncF64S, bits_f64(-3.9)).unwrap(), i32s(-3));
        assert_eq!(
            un(I32TruncF64S, bits_f64(f64::NAN)),
            Err(Trap::InvalidConversion)
        );
        assert_eq!(un(I32Extend8S, i32s(0x80)).unwrap(), i32s(-128));
    }
}
