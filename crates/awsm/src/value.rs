//! Runtime values, traps, and the exact numeric semantics of WebAssembly.
//!
//! All values are carried in untyped 64-bit slots (`u64`): `i32` is
//! zero-extended, `f32`/`f64` are carried as their IEEE bit patterns.
//! Validation guarantees well-typedness, so the interpreter never needs
//! runtime type tags.

use std::fmt;

/// A typed WebAssembly value, used at the public API boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl Value {
    /// Raw 64-bit slot encoding.
    pub(crate) fn to_bits(self) -> u64 {
        match self {
            Value::I32(v) => v as u32 as u64,
            Value::I64(v) => v as u64,
            Value::F32(v) => v.to_bits() as u64,
            Value::F64(v) => v.to_bits(),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

/// A WebAssembly trap: the sandbox violated a safety condition and was
/// terminated. Traps never unwind into the host; they are returned as
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `unreachable` executed.
    Unreachable,
    /// Linear-memory access outside the committed region.
    OutOfBounds,
    /// Integer division or remainder by zero.
    DivByZero,
    /// `i32::MIN / -1`-style overflow, and a float-to-int conversion whose
    /// truncation lies outside the target range.
    IntOverflow,
    /// Float-to-int conversion of NaN.
    InvalidConversion,
    /// `call_indirect` to a null table entry.
    UndefinedElement,
    /// `call_indirect` signature mismatch.
    IndirectTypeMismatch,
    /// `call_indirect` index outside the table.
    TableOutOfBounds,
    /// Call depth or operand stack limit exceeded.
    StackExhausted,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Trap::Unreachable => "unreachable executed",
            Trap::OutOfBounds => "out-of-bounds memory access",
            Trap::DivByZero => "integer division by zero",
            Trap::IntOverflow => "integer overflow",
            Trap::InvalidConversion => "invalid float-to-integer conversion",
            Trap::UndefinedElement => "undefined table element",
            Trap::IndirectTypeMismatch => "indirect call type mismatch",
            Trap::TableOutOfBounds => "table index out of bounds",
            Trap::StackExhausted => "call stack exhausted",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Trap {}

#[inline(always)]
pub(crate) fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}
#[inline(always)]
pub(crate) fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}
#[inline(always)]
pub(crate) fn bits_f32(v: f32) -> u64 {
    v.to_bits() as u64
}
#[inline(always)]
pub(crate) fn bits_f64(v: f64) -> u64 {
    v.to_bits()
}
#[inline(always)]
pub(crate) fn b(v: bool) -> u64 {
    v as u64
}

/// Wasm float `min`: NaN-propagating, `-0 < +0`.
#[inline(always)]
pub(crate) fn wasm_fmin64(x: f64, y: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if y.is_nan() {
        return y;
    }
    if x == y {
        // Distinguish -0.0 from +0.0.
        return if x.is_sign_negative() { x } else { y };
    }
    if x < y {
        x
    } else {
        y
    }
}

/// Wasm float `max`: NaN-propagating, `+0 > -0`.
#[inline(always)]
pub(crate) fn wasm_fmax64(x: f64, y: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if y.is_nan() {
        return y;
    }
    if x == y {
        return if x.is_sign_positive() { x } else { y };
    }
    if x > y {
        x
    } else {
        y
    }
}

#[inline(always)]
pub(crate) fn wasm_fmin32(x: f32, y: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if y.is_nan() {
        return y;
    }
    if x == y {
        return if x.is_sign_negative() { x } else { y };
    }
    if x < y {
        x
    } else {
        y
    }
}

#[inline(always)]
pub(crate) fn wasm_fmax32(x: f32, y: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if y.is_nan() {
        return y;
    }
    if x == y {
        return if x.is_sign_positive() { x } else { y };
    }
    if x > y {
        x
    } else {
        y
    }
}

/// Checked float → integer truncation per the Wasm spec. NaN fails every
/// range check; [`conversion_trap`] tells it from an out-of-range value.
#[inline(always)]
pub(crate) fn trunc_to_i32(x: f64) -> Result<i32, Trap> {
    let t = x.trunc();
    if !(-2147483648.0..=2147483647.0).contains(&t) {
        return Err(conversion_trap(x));
    }
    Ok(t as i32)
}

#[inline(always)]
pub(crate) fn trunc_to_u32(x: f64) -> Result<u32, Trap> {
    let t = x.trunc();
    if !(0.0..=4294967295.0).contains(&t) {
        return Err(conversion_trap(x));
    }
    Ok(t as u32)
}

#[inline(always)]
pub(crate) fn trunc_to_i64(x: f64) -> Result<i64, Trap> {
    let t = x.trunc();
    // 2^63 is exactly representable; anything >= it is out of range.
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(conversion_trap(x));
    }
    Ok(t as i64)
}

#[inline(always)]
pub(crate) fn trunc_to_u64(x: f64) -> Result<u64, Trap> {
    let t = x.trunc();
    if !(0.0..18446744073709551616.0).contains(&t) {
        return Err(conversion_trap(x));
    }
    Ok(t as u64)
}

/// The trap of a float → integer conversion that failed its range check:
/// an invalid conversion for NaN, integer overflow for any other value.
#[cold]
#[inline(never)]
fn conversion_trap(x: f64) -> Trap {
    if x.is_nan() {
        Trap::InvalidConversion
    } else {
        Trap::IntOverflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bits_roundtrip() {
        assert_eq!(Value::I32(-1).to_bits(), 0xFFFF_FFFF);
        assert_eq!(Value::I64(-1).to_bits(), u64::MAX);
        assert_eq!(Value::F64(1.5).to_bits(), 1.5f64.to_bits());
        assert_eq!(Value::F32(1.5).to_bits(), 1.5f32.to_bits() as u64);
    }

    #[test]
    fn fmin_fmax_signed_zero_and_nan() {
        assert!(wasm_fmin64(f64::NAN, 1.0).is_nan());
        assert!(wasm_fmax64(1.0, f64::NAN).is_nan());
        assert!(wasm_fmin64(0.0, -0.0).is_sign_negative());
        assert!(wasm_fmax64(-0.0, 0.0).is_sign_positive());
        assert_eq!(wasm_fmin64(1.0, 2.0), 1.0);
        assert_eq!(wasm_fmax64(1.0, 2.0), 2.0);
    }

    #[test]
    fn trunc_bounds() {
        assert_eq!(trunc_to_i32(2147483647.9).unwrap(), 2147483647);
        assert_eq!(trunc_to_i32(2147483648.0), Err(Trap::IntOverflow));
        assert_eq!(trunc_to_i32(-2147483648.9).unwrap(), -2147483648);
        assert!(trunc_to_i32(-2147483649.0).is_err());
        assert_eq!(trunc_to_i32(f64::NAN), Err(Trap::InvalidConversion));
        assert!(trunc_to_u32(-0.9).is_ok());
        assert!(trunc_to_u32(-1.0).is_err());
        assert!(trunc_to_i64(9.3e18).is_err());
        assert_eq!(trunc_to_i64(-9223372036854775808.0).unwrap(), i64::MIN);
        assert!(trunc_to_u64(1.9e19).is_err());
    }
}
