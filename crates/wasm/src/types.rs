//! WebAssembly type grammar: value types, function types, limits, and the
//! external (import/export) type forms.

use std::fmt;

/// A WebAssembly value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValType {
    /// 32-bit integer (also used for booleans and pointers into linear memory).
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
}

impl ValType {
    /// Binary-format byte for this value type.
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7F,
            ValType::I64 => 0x7E,
            ValType::F32 => 0x7D,
            ValType::F64 => 0x7C,
        }
    }

    /// Parse a binary-format byte into a value type.
    pub(crate) fn from_byte(b: u8) -> Option<ValType> {
        match b {
            0x7F => Some(ValType::I32),
            0x7E => Some(ValType::I64),
            0x7D => Some(ValType::F32),
            0x7C => Some(ValType::F64),
            _ => None,
        }
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
            ValType::F32 => "f32",
            ValType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// A function signature: parameter types and result types.
///
/// The MVP restricts results to at most one value; the validator enforces
/// this, the data structure does not.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    /// Parameter types, in order.
    pub params: Vec<ValType>,
    /// Result types (0 or 1 in the MVP).
    pub results: Vec<ValType>,
}

impl FuncType {
    /// Create a function type from parameter and result vectors.
    pub fn new(params: Vec<ValType>, results: Vec<ValType>) -> Self {
        FuncType { params, results }
    }

    /// The single result type, if any.
    pub fn result(&self) -> Option<ValType> {
        self.results.first().copied()
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Size limits for memories and tables, in units of pages or elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Initial size.
    pub min: u32,
    /// Optional maximum size.
    pub max: Option<u32>,
}

impl Limits {
    /// Limits with only a minimum.
    pub fn at_least(min: u32) -> Self {
        Limits { min, max: None }
    }

    /// Limits with both minimum and maximum.
    pub fn bounded(min: u32, max: u32) -> Self {
        Limits {
            min,
            max: Some(max),
        }
    }

    /// `true` if `min <= max` (or no max).
    pub(crate) fn is_well_formed(&self) -> bool {
        self.max.is_none_or(|m| self.min <= m)
    }
}

/// A linear memory type (limits are in 64 KiB pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryType {
    /// Page limits.
    pub limits: Limits,
}

/// A table type. The MVP supports only `funcref` tables, so the element type
/// is implicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableType {
    /// Element-count limits.
    pub limits: Limits,
}

/// A global variable type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalType {
    /// Type of the stored value.
    pub value: ValType,
    /// Whether the global may be written after instantiation.
    pub mutable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_byte_roundtrip() {
        for t in [ValType::I32, ValType::I64, ValType::F32, ValType::F64] {
            assert_eq!(ValType::from_byte(t.to_byte()), Some(t));
        }
        assert_eq!(ValType::from_byte(0x00), None);
    }

    #[test]
    fn functype_display() {
        let t = FuncType::new(vec![ValType::I32, ValType::F64], vec![ValType::I64]);
        assert_eq!(t.to_string(), "(i32, f64) -> (i64)");
        assert_eq!(t.result(), Some(ValType::I64));
        assert_eq!(FuncType::default().result(), None);
    }

    #[test]
    fn limits_well_formed() {
        assert!(Limits::at_least(5).is_well_formed());
        assert!(Limits::bounded(1, 2).is_well_formed());
        assert!(!Limits::bounded(3, 2).is_well_formed());
    }
}
