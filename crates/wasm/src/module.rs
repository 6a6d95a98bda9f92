//! In-memory representation of a WebAssembly module.

use crate::instr::Instr;
use crate::types::{FuncType, GlobalType, MemoryType, TableType, ValType};

/// Index of a function, counting imported functions first.
pub(crate) type FuncIdx = u32;
/// Index into the type section.
pub(crate) type TypeIdx = u32;

/// What an import provides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportKind {
    /// A function with the given type index.
    Func(TypeIdx),
    /// A table.
    Table(TableType),
    /// A linear memory.
    Memory(MemoryType),
    /// A global.
    Global(GlobalType),
}

/// One import entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Module namespace, e.g. `"env"`.
    pub module: String,
    /// Field name, e.g. `"stdin_read"`.
    pub name: String,
    /// Imported entity.
    pub kind: ImportKind,
}

impl Import {
    /// Convenience constructor for a function import.
    pub fn func(module: impl Into<String>, name: impl Into<String>, ty: TypeIdx) -> Self {
        Import {
            module: module.into(),
            name: name.into(),
            kind: ImportKind::Func(ty),
        }
    }
}

/// What an export exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportKind {
    /// Function index.
    Func(FuncIdx),
    /// Table index.
    Table(u32),
    /// Memory index.
    Memory(u32),
    /// Global index.
    Global(u32),
}

/// One export entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// Exported name.
    pub name: String,
    /// Exported entity.
    pub kind: ExportKind,
}

impl Export {
    /// Convenience constructor for a function export.
    pub fn func(name: impl Into<String>, index: FuncIdx) -> Self {
        Export {
            name: name.into(),
            kind: ExportKind::Func(index),
        }
    }

    /// Convenience constructor for a memory export.
    pub fn memory(name: impl Into<String>, index: u32) -> Self {
        Export {
            name: name.into(),
            kind: ExportKind::Memory(index),
        }
    }
}

/// A global definition: its type plus a constant initializer expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Type and mutability.
    pub ty: GlobalType,
    /// Initializer (must be a single const instruction in the MVP).
    pub init: ConstExpr,
}

/// A constant expression, used for global initializers and segment offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstExpr {
    /// `i32.const`
    I32(i32),
    /// `i64.const`
    I64(i64),
    /// `f32.const`
    F32(f32),
    /// `f64.const`
    F64(f64),
    /// `global.get` of an imported immutable global.
    GlobalGet(u32),
}

impl ConstExpr {
    /// The value type this expression produces (imported-global type must be
    /// resolved by the caller for `GlobalGet`).
    pub(crate) fn ty(&self) -> Option<ValType> {
        match self {
            ConstExpr::I32(_) => Some(ValType::I32),
            ConstExpr::I64(_) => Some(ValType::I64),
            ConstExpr::F32(_) => Some(ValType::F32),
            ConstExpr::F64(_) => Some(ValType::F64),
            ConstExpr::GlobalGet(_) => None,
        }
    }
}

/// An element segment: function indices copied into the table at
/// instantiation, at a constant offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementSegment {
    /// Offset expression (i32).
    pub offset: ConstExpr,
    /// Function indices to place.
    pub funcs: Vec<FuncIdx>,
}

/// A data segment: bytes copied into linear memory at instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Offset expression (i32).
    pub offset: ConstExpr,
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// The body of a locally-defined function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FuncBody {
    /// Additional local variables (beyond the parameters), already expanded
    /// (one entry per local, not run-length encoded).
    pub locals: Vec<ValType>,
    /// Flat instruction sequence, terminated by [`Instr::End`].
    pub instrs: Vec<Instr>,
}

impl FuncBody {
    /// Create a body from locals and instructions.
    pub fn new(locals: Vec<ValType>, instrs: Vec<Instr>) -> Self {
        FuncBody { locals, instrs }
    }
}

/// A complete module.
///
/// Invariants beyond well-typedness (checked by
/// [`crate::validate::validate_module`]) are not enforced by this plain data
/// structure; it can represent invalid modules, which is necessary for
/// negative tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Type section.
    pub types: Vec<FuncType>,
    /// Import section.
    pub imports: Vec<Import>,
    /// Type indices of locally-defined functions (parallel to `code`).
    pub functions: Vec<TypeIdx>,
    /// Table section (at most one in the MVP).
    pub tables: Vec<TableType>,
    /// Memory section (at most one in the MVP).
    pub memories: Vec<MemoryType>,
    /// Global section.
    pub globals: Vec<Global>,
    /// Export section.
    pub exports: Vec<Export>,
    /// Optional start function.
    pub start: Option<FuncIdx>,
    /// Element segments.
    pub elements: Vec<ElementSegment>,
    /// Code section (parallel to `functions`).
    pub code: Vec<FuncBody>,
    /// Data segments.
    pub data: Vec<DataSegment>,
    /// Optional module name (custom "name" section).
    pub name: Option<String>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Add a function type, deduplicating, and return its index.
    pub fn push_type(&mut self, ty: FuncType) -> TypeIdx {
        if let Some(i) = self.types.iter().position(|t| *t == ty) {
            return i as TypeIdx;
        }
        self.types.push(ty);
        (self.types.len() - 1) as TypeIdx
    }

    /// Add a locally-defined function; returns its *function index*
    /// (accounting for imported functions, which come first).
    pub fn push_function(&mut self, ty: TypeIdx, body: FuncBody) -> FuncIdx {
        self.functions.push(ty);
        self.code.push(body);
        self.num_imported_funcs() + (self.functions.len() - 1) as u32
    }

    /// Number of imported functions.
    pub(crate) fn num_imported_funcs(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Func(_)))
            .count() as u32
    }

    /// Total number of functions (imported + local).
    pub(crate) fn num_funcs(&self) -> u32 {
        self.num_imported_funcs() + self.functions.len() as u32
    }

    /// The type index of function `idx` (imported functions come first).
    pub(crate) fn func_type_idx(&self, idx: FuncIdx) -> Option<TypeIdx> {
        let imported: Vec<TypeIdx> = self
            .imports
            .iter()
            .filter_map(|i| match i.kind {
                ImportKind::Func(t) => Some(t),
                _ => None,
            })
            .collect();
        if (idx as usize) < imported.len() {
            Some(imported[idx as usize])
        } else {
            self.functions.get(idx as usize - imported.len()).copied()
        }
    }

    /// The resolved [`FuncType`] of function `idx`.
    pub fn func_type(&self, idx: FuncIdx) -> Option<&FuncType> {
        self.func_type_idx(idx)
            .and_then(|t| self.types.get(t as usize))
    }

    /// Find the function index exported under `name`.
    pub fn exported_func(&self, name: &str) -> Option<FuncIdx> {
        self.exports.iter().find_map(|e| match e.kind {
            ExportKind::Func(i) if e.name == name => Some(i),
            _ => None,
        })
    }

    /// Number of imported globals.
    pub(crate) fn num_imported_globals(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Global(_)))
            .count() as u32
    }

    /// The [`GlobalType`] of global `idx` (imported globals come first).
    pub(crate) fn global_type(&self, idx: u32) -> Option<GlobalType> {
        let imported: Vec<GlobalType> = self
            .imports
            .iter()
            .filter_map(|i| match i.kind {
                ImportKind::Global(g) => Some(g),
                _ => None,
            })
            .collect();
        if (idx as usize) < imported.len() {
            Some(imported[idx as usize])
        } else {
            self.globals
                .get(idx as usize - imported.len())
                .map(|g| g.ty)
        }
    }

    /// The memory type, considering both imported and local memories.
    pub fn memory(&self) -> Option<MemoryType> {
        for i in &self.imports {
            if let ImportKind::Memory(m) = i.kind {
                return Some(m);
            }
        }
        self.memories.first().copied()
    }

    /// The table type, considering both imported and local tables.
    pub fn table(&self) -> Option<TableType> {
        for i in &self.imports {
            if let ImportKind::Table(t) = i.kind {
                return Some(t);
            }
        }
        self.tables.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Limits;

    #[test]
    fn push_type_deduplicates() {
        let mut m = Module::new();
        let a = m.push_type(FuncType::new(vec![ValType::I32], vec![]));
        let b = m.push_type(FuncType::new(vec![ValType::I32], vec![]));
        let c = m.push_type(FuncType::new(vec![], vec![]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.types.len(), 2);
    }

    #[test]
    fn func_indices_account_for_imports() {
        let mut m = Module::new();
        let t0 = m.push_type(FuncType::new(vec![], vec![ValType::I32]));
        m.imports.push(Import::func("env", "host0", t0));
        m.imports.push(Import::func("env", "host1", t0));
        let f = m.push_function(t0, FuncBody::default());
        assert_eq!(f, 2);
        assert_eq!(m.num_imported_funcs(), 2);
        assert_eq!(m.num_funcs(), 3);
        assert_eq!(m.func_type_idx(0), Some(t0));
        assert_eq!(m.func_type_idx(2), Some(t0));
        assert_eq!(m.func_type_idx(3), None);
    }

    #[test]
    fn exported_func_lookup() {
        let mut m = Module::new();
        let t = m.push_type(FuncType::default());
        let f = m.push_function(t, FuncBody::default());
        m.exports.push(Export::func("main", f));
        assert_eq!(m.exported_func("main"), Some(f));
        assert_eq!(m.exported_func("missing"), None);
    }

    #[test]
    fn memory_prefers_import() {
        let mut m = Module::new();
        m.imports.push(Import {
            module: "env".into(),
            name: "memory".into(),
            kind: ImportKind::Memory(MemoryType {
                limits: Limits::at_least(7),
            }),
        });
        m.memories.push(MemoryType {
            limits: Limits::at_least(1),
        });
        assert_eq!(m.memory().unwrap().limits.min, 7);
    }
}
