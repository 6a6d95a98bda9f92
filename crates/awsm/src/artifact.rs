//! Distributable module artifacts: a versioned binary encoding of a
//! [`CompiledModule`]'s tables and translated bodies.
//!
//! This is the cluster tier's module-distribution format: a router
//! translates a module once, then pushes the encoded artifact to every node.
//! What travels is what translation emits before its analysis runs — each
//! body without its `Op::Fuel` charges — and the one translation parameter
//! the certificates depend on, the `max_check_gap` the module was built
//! under. No certificate travels. [`decode`] checks the structure and then
//! runs the same [`analyze`](crate::analysis) that
//! [`translate_with`](crate::translate_with) ends in, so a node believes
//! only what it derived itself: a module decode returns is, certificate for
//! certificate, what a local translation builds. What a node saves is the
//! front end (Wasm decoding, validation and translation), not the analysis.
//!
//! The format is deliberately simple: little-endian fixed-width integers,
//! length-prefixed byte strings, a one-byte tag per enum variant, and an
//! FNV-1a-64 checksum over the payload so in-flight corruption is detected
//! before anything is parsed. Exports are written in sorted order so
//! encoding is deterministic: the same compiled module always produces
//! byte-identical artifacts (and therefore the same checksum) on every
//! node.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::analysis::{cost, AnalysisReport};
use crate::code::{
    BrTablePayload, Branch, CompiledFunc, CompiledModule, HostImport, LoadKind, MemorySpec, NumBin,
    NumUn, Op, StoreKind,
};
use crate::memory::MemoryTemplate;

/// Artifact magic: "SLGA" (SLedGe Artifact).
pub(crate) const MAGIC: &[u8; 4] = b"SLGA";
/// Current format version. Decoders reject anything else. Version 1
/// carried three bodies per function and an optimizer section; version 2
/// carried instrumented bodies and the certificates. Op tags 23–28 were
/// fused stack ops: no encoder writes them any more, and a decoder refuses
/// them like any other unknown tag.
pub(crate) const VERSION: u16 = 3;

/// The most locals, parameters included, a decoded frame may hold: the Wasm
/// decoder's limit on a body's declared locals. The analysis allocates per
/// local, so a shipped frame costs it no more than a decodable `.wasm` one.
const MAX_FRAME_LOCALS: u32 = 1_000_000;

/// Why an artifact could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// The stream does not start with `MAGIC`.
    BadMagic,
    /// The format version is not `VERSION`.
    BadVersion(u16),
    /// The FNV-1a checksum over the payload does not match the header:
    /// the artifact was corrupted (or tampered with) in flight.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the received payload.
        got: u64,
    },
    /// A tag or length field holds a value the format does not define.
    Corrupt(&'static str),
    /// The artifact is well formed, but it names functions the module does
    /// not have, or a body fails the analysis or cannot be lowered to
    /// executable form.
    Unverified(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::BadMagic => write!(f, "not a sledge module artifact (bad magic)"),
            ArtifactError::BadVersion(v) => {
                write!(f, "unsupported artifact version {v} (expected {VERSION})")
            }
            ArtifactError::ChecksumMismatch { expected, got } => write!(
                f,
                "artifact checksum mismatch (header {expected:#018x}, payload {got:#018x})"
            ),
            ArtifactError::Corrupt(what) => write!(f, "corrupt artifact: {what}"),
            ArtifactError::Unverified(why) => write!(f, "artifact body verification failed: {why}"),
        }
    }
}

impl Error for ArtifactError {}

/// FNV-1a 64-bit hash — the integrity checksum over the artifact payload.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode a compiled module into a distributable artifact: its tables, each
/// body with its fuel charges stripped, and the `max_check_gap` its
/// certificates were derived under.
pub fn encode(m: &CompiledModule) -> Vec<u8> {
    let mut w = Writer::default();
    w.opt_str(m.name.as_deref());
    w.u32(m.funcs.len() as u32);
    for f in &m.funcs {
        func(&mut w, f);
    }
    w.u32(m.host_funcs.len() as u32);
    for h in &m.host_funcs {
        w.str_(&h.module);
        w.str_(&h.name);
        w.u32(h.nparams);
        w.bool_(h.has_result);
        w.u32(h.type_id);
    }
    w.u32(m.globals.len() as u32);
    for &g in &m.globals {
        w.u64(g);
    }
    match m.memory {
        Some(spec) => {
            w.u8(1);
            w.u32(spec.min_pages);
            w.u32(spec.max_pages);
        }
        None => w.u8(0),
    }
    w.u32(m.data.len() as u32);
    for (off, bytes) in &m.data {
        w.u32(*off);
        w.bytes(bytes);
    }
    w.u32(m.table.len() as u32);
    for slot in &m.table {
        w.opt_u32(*slot);
    }
    // Deterministic export order: HashMap iteration order would otherwise
    // make the checksum vary between identical modules.
    let mut exports: Vec<(&String, &u32)> = m.exports.iter().collect();
    exports.sort();
    w.u32(exports.len() as u32);
    for (name, idx) in exports {
        w.str_(name);
        w.u32(*idx);
    }
    w.opt_u32(m.start);
    w.u32(m.analysis.cost.max_check_gap);

    let payload = w.out;
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]); // reserved
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decode an artifact back into a [`CompiledModule`]: check the checksum,
/// read the structure, check the indices the analysis relies on, then run
/// the analysis translation runs — stack bound, lints, effect
/// and cost certificates, fuel instrumentation and lowering. The memory
/// template is rebuilt from the data segments, so the artifact never
/// carries the (redundant, potentially large) flattened image.
///
/// # Errors
///
/// Any structural problem — bad magic/version, checksum mismatch, unknown
/// tags (an `Op::Fuel` among them: the node places every charge), trailing
/// bytes, truncation — yields an [`ArtifactError`], and a module the
/// analysis or lowering refuses yields [`ArtifactError::Unverified`];
/// nothing is partially constructed.
pub fn decode(bytes: &[u8]) -> Result<CompiledModule, ArtifactError> {
    if bytes.len() < 16 {
        return Err(ArtifactError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(ArtifactError::BadVersion(version));
    }
    let expected = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload = &bytes[16..];
    let got = fnv1a(payload);
    if got != expected {
        return Err(ArtifactError::ChecksumMismatch { expected, got });
    }

    let mut r = Reader { buf: payload };
    let name = r.opt_str()?;
    let nfuncs = r.u32()? as usize;
    let mut funcs = Vec::with_capacity(nfuncs.min(1 << 16));
    for _ in 0..nfuncs {
        funcs.push(read_func(&mut r)?);
    }
    let nhost = r.u32()? as usize;
    let mut host_funcs = Vec::with_capacity(nhost.min(1 << 12));
    for _ in 0..nhost {
        host_funcs.push(HostImport {
            module: r.str_()?,
            name: r.str_()?,
            nparams: r.u32()?,
            has_result: r.bool_()?,
            type_id: r.u32()?,
        });
    }
    let nglobals = r.u32()? as usize;
    let mut globals = Vec::with_capacity(nglobals.min(1 << 16));
    for _ in 0..nglobals {
        globals.push(r.u64()?);
    }
    let memory = match r.u8()? {
        0 => None,
        1 => Some(MemorySpec {
            min_pages: r.u32()?,
            max_pages: r.u32()?,
        }),
        _ => return Err(ArtifactError::Corrupt("memory tag")),
    };
    let ndata = r.u32()? as usize;
    let mut data: Vec<(u32, Arc<[u8]>)> = Vec::with_capacity(ndata.min(1 << 12));
    for _ in 0..ndata {
        let off = r.u32()?;
        let bytes: Arc<[u8]> = Arc::from(r.bytes()?);
        data.push((off, bytes));
    }
    let ntable = r.u32()? as usize;
    let mut table = Vec::with_capacity(ntable.min(1 << 16));
    for _ in 0..ntable {
        table.push(r.opt_u32()?);
    }
    let nexports = r.u32()? as usize;
    let mut exports = HashMap::with_capacity(nexports.min(1 << 12));
    for _ in 0..nexports {
        let name = r.str_()?;
        let idx = r.u32()?;
        exports.insert(name, idx);
    }
    let start = r.opt_u32()?;
    let max_check_gap = r.u32()?;
    if !r.buf.is_empty() {
        return Err(ArtifactError::Corrupt("trailing bytes"));
    }

    let mut module = CompiledModule {
        funcs,
        host_funcs,
        globals,
        memory,
        data,
        // Built once the segments are known to fit the memory.
        template: MemoryTemplate::build(&[]),
        table,
        exports,
        start,
        name,
        analysis: AnalysisReport::pending(),
        lowered: Default::default(),
    };
    check_structure(&module).map_err(ArtifactError::Unverified)?;
    module.template = MemoryTemplate::build(&module.data);
    crate::analysis::analyze(&mut module, max_check_gap).map_err(ArtifactError::Unverified)?;
    Ok(module)
}

/// What the memory template and `analyze` take as given of a module
/// translation builds: every export, the start function and every table
/// entry name a function (the call graph indexes by them); every data
/// segment fits the initial memory (so the template is no larger than what
/// each instance commits anyway); and every frame holds its parameters and
/// at most [`MAX_FRAME_LOCALS`] locals in all.
fn check_structure(m: &CompiledModule) -> Result<(), String> {
    let indices = m.num_imports() as usize + m.funcs.len();
    let outside = |idx: &u32| *idx as usize >= indices;
    let named = |what: String, idx: u32| {
        format!("{what} names no function (index {idx}, the module has {indices})")
    };
    if let Some((name, &idx)) = m.exports.iter().find(|(_, idx)| outside(idx)) {
        return Err(named(format!("export {name:?}"), idx));
    }
    if let Some(idx) = m.start.filter(outside) {
        return Err(named("start".into(), idx));
    }
    if let Some(&idx) = m.table.iter().flatten().find(|idx| outside(idx)) {
        return Err(named("a table entry".into(), idx));
    }
    let initial = m.memory.map_or(0, |spec| {
        spec.min_pages as u64 * sledge_wasm::PAGE_SIZE as u64
    });
    let fits = |(off, bytes): &(u32, Arc<[u8]>)| *off as u64 + bytes.len() as u64 <= initial;
    if !m.data.iter().all(fits) {
        return Err("data segment outside initial memory".into());
    }
    let frame_ok = |f: &CompiledFunc| f.nparams <= f.nlocals && f.nlocals <= MAX_FRAME_LOCALS;
    match m.funcs.iter().position(|f| !frame_ok(f)) {
        Some(i) => Err(format!("func[{i}]: frame locals out of range")),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Writer / Reader primitives
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn bool_(&mut self, v: bool) {
        self.out.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.out.extend_from_slice(b);
    }
    fn str_(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str_(s);
            }
            None => self.u8(0),
        }
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u32(v);
            }
            None => self.u8(0),
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.buf.len() < n {
            return Err(ArtifactError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }
    fn bool_(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ArtifactError::Corrupt("bool tag")),
        }
    }
    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, ArtifactError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn str_(&mut self) -> Result<String, ArtifactError> {
        String::from_utf8(self.bytes()?).map_err(|_| ArtifactError::Corrupt("non-utf8 string"))
    }
    fn opt_str(&mut self) -> Result<Option<String>, ArtifactError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str_()?)),
            _ => Err(ArtifactError::Corrupt("option tag")),
        }
    }
    fn opt_u32(&mut self) -> Result<Option<u32>, ArtifactError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(ArtifactError::Corrupt("option tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Code encoding
// ---------------------------------------------------------------------------

// Fieldless enums are encoded as their declaration-order discriminant and
// decoded through their `ALL` tables; an out-of-range byte is a corrupt
// artifact, never a panic.

/// Decode one fieldless enum written as `variant as u8`.
fn read_enum<T: Copy>(r: &mut Reader, all: &[T], what: &'static str) -> Result<T, ArtifactError> {
    let variant = all.get(r.u8()? as usize);
    variant.copied().ok_or(ArtifactError::Corrupt(what))
}

fn branch(w: &mut Writer, b: &Branch) {
    w.u32(b.target);
    w.u32(b.height);
    w.bool_(b.keep);
}

fn read_branch(r: &mut Reader) -> Result<Branch, ArtifactError> {
    Ok(Branch {
        target: r.u32()?,
        height: r.u32()?,
        keep: r.bool_()?,
    })
}

fn op(w: &mut Writer, o: &Op) {
    match o {
        Op::Unreachable => w.u8(0),
        Op::Br(b) => {
            w.u8(1);
            branch(w, b);
        }
        Op::BrIf(b) => {
            w.u8(2);
            branch(w, b);
        }
        Op::BrIfZ(b) => {
            w.u8(3);
            branch(w, b);
        }
        Op::BrTable(p) => {
            w.u8(4);
            w.u32(p.targets.len() as u32);
            for t in &p.targets {
                branch(w, t);
            }
            branch(w, &p.default);
        }
        Op::Return => w.u8(5),
        Op::Call(i) => {
            w.u8(6);
            w.u32(*i);
        }
        Op::CallHost(i) => {
            w.u8(7);
            w.u32(*i);
        }
        Op::CallIndirect(t) => {
            w.u8(8);
            w.u32(*t);
        }
        Op::Drop => w.u8(9),
        Op::Select => w.u8(10),
        Op::LocalGet(i) => {
            w.u8(11);
            w.u32(*i);
        }
        Op::LocalSet(i) => {
            w.u8(12);
            w.u32(*i);
        }
        Op::LocalTee(i) => {
            w.u8(13);
            w.u32(*i);
        }
        Op::GlobalGet(i) => {
            w.u8(14);
            w.u32(*i);
        }
        Op::GlobalSet(i) => {
            w.u8(15);
            w.u32(*i);
        }
        Op::Load(k, off) => {
            w.u8(16);
            w.u8(*k as u8);
            w.u32(*off);
        }
        Op::Store(k, off) => {
            w.u8(17);
            w.u8(*k as u8);
            w.u32(*off);
        }
        Op::MemorySize => w.u8(18),
        Op::MemoryGrow => w.u8(19),
        Op::Const(v) => {
            w.u8(20);
            w.u64(*v);
        }
        Op::Bin(b) => {
            w.u8(21);
            w.u8(*b as u8);
        }
        Op::Un(u) => {
            w.u8(22);
            w.u8(*u as u8);
        }
        Op::Fuel(_) => unreachable!("encode strips fuel charges"),
    }
}

fn read_op(r: &mut Reader) -> Result<Op, ArtifactError> {
    let load_kind = |r: &mut Reader| read_enum(r, LoadKind::ALL, "load kind");
    let store_kind = |r: &mut Reader| read_enum(r, StoreKind::ALL, "store kind");
    let num_bin = |r: &mut Reader| read_enum(r, NumBin::ALL, "numeric binop");
    let num_un = |r: &mut Reader| read_enum(r, NumUn::ALL, "numeric unop");
    Ok(match r.u8()? {
        0 => Op::Unreachable,
        1 => Op::Br(read_branch(r)?),
        2 => Op::BrIf(read_branch(r)?),
        3 => Op::BrIfZ(read_branch(r)?),
        4 => {
            let n = r.u32()? as usize;
            let mut targets = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                targets.push(read_branch(r)?);
            }
            let default = read_branch(r)?;
            Op::BrTable(Box::new(BrTablePayload { targets, default }))
        }
        5 => Op::Return,
        6 => Op::Call(r.u32()?),
        7 => Op::CallHost(r.u32()?),
        8 => Op::CallIndirect(r.u32()?),
        9 => Op::Drop,
        10 => Op::Select,
        11 => Op::LocalGet(r.u32()?),
        12 => Op::LocalSet(r.u32()?),
        13 => Op::LocalTee(r.u32()?),
        14 => Op::GlobalGet(r.u32()?),
        15 => Op::GlobalSet(r.u32()?),
        16 => Op::Load(load_kind(r)?, r.u32()?),
        17 => Op::Store(store_kind(r)?, r.u32()?),
        18 => Op::MemorySize,
        19 => Op::MemoryGrow,
        20 => Op::Const(r.u64()?),
        21 => Op::Bin(num_bin(r)?),
        22 => Op::Un(num_un(r)?),
        _ => return Err(ArtifactError::Corrupt("op tag")),
    })
}

fn code(w: &mut Writer, ops: &[Op]) {
    w.u32(ops.len() as u32);
    for o in ops {
        op(w, o);
    }
}

fn read_code(r: &mut Reader) -> Result<Vec<Op>, ArtifactError> {
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        ops.push(read_op(r)?);
    }
    Ok(ops)
}

fn func(w: &mut Writer, f: &CompiledFunc) {
    code(w, &cost::strip_fuel(&f.code));
    w.u32(f.nparams);
    w.u32(f.nlocals);
    w.bool_(f.has_result);
    w.u32(f.type_id);
    w.opt_str(f.name.as_deref());
}

fn read_func(r: &mut Reader) -> Result<CompiledFunc, ArtifactError> {
    Ok(CompiledFunc {
        code: read_code(r)?,
        nparams: r.u32()?,
        nlocals: r.u32()?,
        has_result: r.bool_()?,
        type_id: r.u32()?,
        name: r.opt_str()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{translate_with, Tier, TranslateOptions};
    use sledge_guestc::{dsl::*, FuncBuilder, ModuleBuilder};
    use sledge_wasm::types::ValType;

    fn sample_module() -> CompiledModule {
        let mut mb = ModuleBuilder::new("artifact-sample");
        mb.memory(1, Some(4));
        let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
        let x = f.arg(0);
        let acc = f.local(ValType::I32);
        // A loop with memory traffic so the body exercises loads, stores,
        // branches and fuel instrumentation.
        f.push(store_i32(i32c(16), local(x)));
        f.push(set(acc, load_i32(i32c(16))));
        f.push(while_(
            lt_s(local(acc), i32c(100)),
            vec![set(acc, add(local(acc), i32c(7)))],
        ));
        f.push(ret(Some(local(acc))));
        let main = mb.add_func("main", f);
        mb.export_func(main, "main");
        let module = mb.build().unwrap();
        translate_with(&module, Tier::Optimized, TranslateOptions::default()).unwrap()
    }

    fn assert_modules_equal(a: &CompiledModule, b: &CompiledModule) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.funcs.len(), b.funcs.len());
        for (fa, fb) in a.funcs.iter().zip(&b.funcs) {
            assert_eq!(fa.code, fb.code);
            assert_eq!(fa.nparams, fb.nparams);
            assert_eq!(fa.nlocals, fb.nlocals);
            assert_eq!(fa.has_result, fb.has_result);
            assert_eq!(fa.type_id, fb.type_id);
            assert_eq!(fa.name, fb.name);
        }
        assert_eq!(a.host_funcs, b.host_funcs);
        assert_eq!(a.globals, b.globals);
        assert_eq!(
            a.memory.map(|m| (m.min_pages, m.max_pages)),
            b.memory.map(|m| (m.min_pages, m.max_pages))
        );
        assert_eq!(a.data, b.data);
        assert_eq!(a.template.image(), b.template.image());
        assert_eq!(a.table, b.table);
        assert_eq!(a.exports, b.exports);
        assert_eq!(a.start, b.start);
        assert_eq!(a.analysis.funcs, b.analysis.funcs);
        assert_eq!(a.analysis.stack_bound, b.analysis.stack_bound);
        assert_eq!(a.analysis.diagnostics, b.analysis.diagnostics);
        assert_eq!(a.analysis.mem_sites, b.analysis.mem_sites);
        assert_eq!(a.analysis.cost, b.analysis.cost);
        assert_eq!(a.analysis.effects, b.analysis.effects);
    }

    #[test]
    fn roundtrip_preserves_module_and_certificates() {
        let m = sample_module();
        let bytes = encode(&m);
        // Decoding re-derives every certificate: the node trusts nothing
        // the artifact could claim.
        let back = decode(&bytes).expect("decode");
        assert_modules_equal(&m, &back);
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = sample_module();
        assert_eq!(encode(&m), encode(&m));
    }

    #[test]
    fn decoded_module_executes_identically() {
        use crate::{EngineConfig, Instance, NullHost, StepResult, Value};
        use std::sync::Arc;

        let m = sample_module();
        let back = decode(&encode(&m)).unwrap();
        let run = |m: CompiledModule| {
            let mut inst = Instance::new(Arc::new(m), EngineConfig::default()).unwrap();
            inst.invoke_export("main", &[Value::I32(3)]).unwrap();
            match inst.run(&mut NullHost, u64::MAX) {
                StepResult::Complete(v) => (v, inst.fuel_used()),
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(run(m), run(back));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let m = sample_module();
        let mut bytes = encode(&m);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).err(), Some(ArtifactError::BadMagic));

        // Version 1 (three bodies + optimizer section) and version 2
        // (instrumented bodies + certificates) are not readable.
        for old in [1u16, 2] {
            let mut bytes = encode(&m);
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode(&bytes).err(), Some(ArtifactError::BadVersion(old)));
        }
    }

    #[test]
    fn rejects_corruption_everywhere_in_payload() {
        let m = sample_module();
        let good = encode(&m);
        // Flip one byte at a spread of payload positions: the checksum must
        // catch every one of them before any structure is trusted.
        let step = (good.len() - 16).max(1) / 23 + 1;
        for pos in (16..good.len()).step_by(step) {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(decode(&bad), Err(ArtifactError::ChecksumMismatch { .. })),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn rejects_module_level_claims_the_module_cannot_back() {
        // Each edit re-encodes to a well-formed artifact with a valid
        // checksum. (the edit, what decode must say)
        type Edit = fn(&mut CompiledModule);
        let edits: [(Edit, &str); 5] = [
            (
                |m| _ = m.exports.insert("main".into(), 1),
                "names no function",
            ),
            (|m| m.start = Some(9999), "names no function"),
            // The call graph indexes functions by table entry.
            (|m| m.table.push(Some(1)), "names no function"),
            (
                |m| m.data.push((1 << 20, Arc::from(&b"x"[..]))),
                "data segment outside initial memory",
            ),
            (
                |m| m.funcs[0].nlocals = u32::MAX,
                "frame locals out of range",
            ),
        ];
        for (edit, why) in edits {
            let mut m = sample_module();
            edit(&mut m);
            match decode(&encode(&m)) {
                Err(ArtifactError::Unverified(e)) => assert!(e.contains(why), "{e} ({why})"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    #[test]
    fn fuel_charge_on_the_wire_is_corrupt() {
        let m = sample_module();
        let mut bad = encode(&m);
        // The first op of the first body follows the name, the function
        // count and the body's op count. Make it tag 23, `Op::Fuel`'s place
        // in the op order, and fix the checksum up.
        let mut head = Writer::default();
        head.opt_str(m.name.as_deref());
        head.u32(1);
        head.u32(0);
        let at = 16 + head.out.len();
        bad[at] = 23;
        let sum = fnv1a(&bad[16..]);
        bad[8..16].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode(&bad).err(), Some(ArtifactError::Corrupt("op tag")));
    }

    #[test]
    fn rejects_truncation() {
        let m = sample_module();
        let good = encode(&m);
        for keep in [0, 3, 15, 16, good.len() / 2, good.len() - 1] {
            assert!(decode(&good[..keep]).is_err(), "truncated at {keep}");
        }
    }
}
