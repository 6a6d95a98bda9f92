//! Call-graph-closed effect analysis: which host imports each function can
//! reach, and an interval over-approximation of every byte of linear memory
//! it can store to.
//!
//! # Capability sets
//!
//! Per-function *direct* effects come from a syntactic op scan: `CallHost`
//! adds that import, and `call_indirect` adds every **host import resident in
//! the table with a matching type id** (local table residents are already
//! edges in the call graph). Direct effects are then closed transitively
//! over the call graph — `call_indirect` to local functions is covered
//! because `CallGraph` over-approximates indirect calls by type-compatible
//! table residency. The result is sound: the closed set is a superset of the
//! imports any concrete execution of the function can invoke.
//!
//! # Write footprints
//!
//! Per-function direct footprints come from the interval analysis in
//! `range` (every `store` site's abstract address interval,
//! joined), degraded to [`WriteFootprint::Unbounded`] whenever that analysis
//! bails out on a function containing stores. Closure joins callee
//! footprints in. `memory.grow` does not widen the interval itself — store
//! addresses are static regardless of the memory size — but it is tracked
//! as [`FuncEffect::may_grow`] because growth invalidates the cheap
//! reset-elision contract (see `CompiledModule::reset_policy`).
//!
//! A function is [`FuncEffect::pure`] when its closed footprint is `Empty`
//! and it cannot grow memory: it provably performs **no** guest store at
//! all. This is deliberately stricter than "writes nothing outside the
//! template image": the runtime high-water mark cannot distinguish writes
//! *inside* the template span, so only the no-stores-at-all verdict lets the
//! pool skip the memory reset entirely.

use super::stack::CallGraph;
use super::{Diagnostic, Severity};
use crate::code::{CompiledModule, HostImport, Op};
use std::collections::{BTreeSet, HashSet};

/// Interval over-approximation of a function's stores into linear memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteFootprint {
    /// Provably performs no store.
    #[default]
    Empty,
    /// Every store lands in `[lo, hi)` (byte addresses).
    Span { lo: u64, hi: u64 },
    /// At least one store whose address could not be bounded.
    Unbounded,
}

impl WriteFootprint {
    /// Lattice join (interval hull).
    pub(crate) fn join(self, other: WriteFootprint) -> WriteFootprint {
        use WriteFootprint::*;
        match (self, other) {
            (Empty, x) | (x, Empty) => x,
            (Unbounded, _) | (_, Unbounded) => Unbounded,
            (Span { lo: a, hi: b }, Span { lo: c, hi: d }) => Span {
                lo: a.min(c),
                hi: b.max(d),
            },
        }
    }

    /// Exclusive upper bound of the footprint in bytes: 0 for `Empty`,
    /// `hi` for a span, `None` when unbounded.
    pub(crate) fn bytes(self) -> Option<u64> {
        match self {
            WriteFootprint::Empty => Some(0),
            WriteFootprint::Span { hi, .. } => Some(hi),
            WriteFootprint::Unbounded => None,
        }
    }
}

impl std::fmt::Display for WriteFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteFootprint::Empty => f.write_str("empty"),
            WriteFootprint::Span { lo, hi } => write!(f, "[{lo}, {hi})"),
            WriteFootprint::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// Call-graph-closed effects of one local function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncEffect {
    /// Export/debug name, if known.
    pub name: Option<String>,
    /// Reachable host imports (indices into [`EffectReport::imports`]),
    /// sorted, closed over the call graph and type-compatible
    /// `call_indirect` targets.
    pub hostcalls: Vec<u32>,
    /// Closed static write footprint.
    pub footprint: WriteFootprint,
    /// Whether any reachable code can execute `memory.grow`.
    pub may_grow: bool,
    /// Whether any reachable code can write a module global.
    pub writes_globals: bool,
    /// Proven to perform no guest store at all (`Empty` footprint and no
    /// `memory.grow`). Globals may still be written; the pool restores
    /// globals unconditionally, so purity only gates the *memory* reset.
    pub pure: bool,
}

/// The effect certificate for a whole module, cached on
/// [`AnalysisReport::effects`](super::AnalysisReport::effects).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EffectReport {
    /// Qualified host-import names (`module::name`), parallel to
    /// `CompiledModule::host_funcs` — the report is self-contained so policy
    /// checks need no module access.
    pub imports: Vec<String>,
    /// One entry per local function, parallel to
    /// [`AnalysisReport::funcs`](super::AnalysisReport::funcs).
    pub funcs: Vec<FuncEffect>,
}

/// Does `allowed` grant the qualified import name `qname` (`module::name`)?
/// A grant matches the full qualified name or the bare field name.
fn grants(allowed: &[String], qname: &str) -> bool {
    allowed.iter().any(|a| {
        a == qname
            || qname
                .rsplit_once("::")
                .map(|(_, bare)| a == bare)
                .unwrap_or(false)
    })
}

impl EffectReport {
    /// Capability set and footprint of an entry point given in *module
    /// space* (imports first). An entry that is itself a re-exported import
    /// has exactly that one capability and writes nothing.
    pub fn entry_effect(&self, entry_idx: u32) -> Option<(Vec<u32>, WriteFootprint, bool)> {
        let ni = self.imports.len() as u32;
        if entry_idx < ni {
            return Some((vec![entry_idx], WriteFootprint::Empty, false));
        }
        let fe = self.funcs.get((entry_idx - ni) as usize)?;
        Some((fe.hostcalls.clone(), fe.footprint, fe.may_grow))
    }

    /// Deny-by-default host-call policy: every import reachable from the
    /// entry must be granted by `allowed`. Returns an `Error` diagnostic
    /// listing the violations, or `None` when the policy holds.
    pub fn check_hostcalls(&self, entry_idx: u32, allowed: &[String]) -> Option<Diagnostic> {
        let (hostcalls, _, _) = self.entry_effect(entry_idx)?;
        let denied: Vec<&str> = hostcalls
            .iter()
            .filter_map(|&h| {
                let qname = self.imports.get(h as usize)?.as_str();
                (!grants(allowed, qname)).then_some(qname)
            })
            .collect();
        if denied.is_empty() {
            return None;
        }
        Some(Diagnostic {
            severity: Severity::Error,
            func: None,
            pc: None,
            message: format!(
                "capability violation: entry point reaches host call(s) [{}] not in \
                 the allowed set [{}]",
                denied.join(", "),
                allowed.join(", ")
            ),
        })
    }

    /// Write-footprint policy: the entry's static footprint must be bounded
    /// and its exclusive upper bound must not exceed `max_bytes`.
    pub fn check_write_footprint(&self, entry_idx: u32, max_bytes: u64) -> Option<Diagnostic> {
        let (_, footprint, _) = self.entry_effect(entry_idx)?;
        match footprint.bytes() {
            Some(hi) if hi <= max_bytes => None,
            Some(hi) => Some(Diagnostic {
                severity: Severity::Error,
                func: None,
                pc: None,
                message: format!(
                    "capability violation: static write footprint extends to byte {hi}, \
                     over the {max_bytes}-byte policy"
                ),
            }),
            None => Some(Diagnostic {
                severity: Severity::Error,
                func: None,
                pc: None,
                message: format!(
                    "capability violation: write footprint is statically unbounded \
                     (policy allows {max_bytes} bytes)"
                ),
            }),
        }
    }

    /// Grants wider than the module needs: allowed host calls the entry can
    /// never reach. Returns a `Warn` diagnostic, or `None` when every grant
    /// is exercised.
    pub fn unused_grants(&self, entry_idx: u32, allowed: &[String]) -> Option<Diagnostic> {
        let (hostcalls, _, _) = self.entry_effect(entry_idx)?;
        let reachable: Vec<&str> = hostcalls
            .iter()
            .filter_map(|&h| self.imports.get(h as usize).map(String::as_str))
            .collect();
        let unused: Vec<&str> = allowed
            .iter()
            .map(String::as_str)
            .filter(|a| {
                !reachable.iter().any(|q| {
                    q == a
                        || q.rsplit_once("::")
                            .map(|(_, bare)| bare == *a)
                            .unwrap_or(false)
                })
            })
            .collect();
        if unused.is_empty() {
            return None;
        }
        Some(Diagnostic {
            severity: Severity::Warn,
            func: None,
            pc: None,
            message: format!(
                "capability policy wider than needed: allowed host call(s) [{}] are \
                 unreachable from the entry point",
                unused.join(", ")
            ),
        })
    }
}

fn qualified(imp: &HostImport) -> String {
    format!("{}::{}", imp.module, imp.name)
}

/// Compute the module's effect certificate. `footprints` holds each local
/// function's *direct* store footprint from the interval analysis, parallel
/// to `m.funcs`.
pub(super) fn compute(
    m: &CompiledModule,
    graph: &CallGraph,
    footprints: &[WriteFootprint],
) -> EffectReport {
    let ni = m.num_imports();
    // Host imports resident in the table, by type id: the over-approximated
    // host-side target set of a `call_indirect` (the local side is already
    // in the call graph's edges).
    let mut table_hosts_by_type: Vec<(u32, u32)> = Vec::new(); // (type_id, import idx)
    for entry in m.table.iter().flatten() {
        if *entry < ni {
            let tid = m.host_funcs[*entry as usize].type_id;
            if !table_hosts_by_type.contains(&(tid, *entry)) {
                table_hosts_by_type.push((tid, *entry));
            }
        }
    }

    // Direct effects per function.
    let mut hostcalls: Vec<BTreeSet<u32>> = Vec::with_capacity(m.funcs.len());
    let mut footprint: Vec<WriteFootprint> = footprints.to_vec();
    let mut may_grow: Vec<bool> = Vec::with_capacity(m.funcs.len());
    let mut writes_globals: Vec<bool> = Vec::with_capacity(m.funcs.len());
    for func in &m.funcs {
        let mut hc = BTreeSet::new();
        let mut grow = false;
        let mut globals = false;
        for op in &func.code {
            match op {
                Op::CallHost(h) => {
                    hc.insert(*h);
                }
                Op::CallIndirect(tid) => {
                    for &(t, h) in &table_hosts_by_type {
                        if t == *tid {
                            hc.insert(h);
                        }
                    }
                }
                Op::MemoryGrow => grow = true,
                Op::GlobalSet(_) => globals = true,
                _ => {}
            }
        }
        hostcalls.push(hc);
        may_grow.push(grow);
        writes_globals.push(globals);
    }

    // Transitive closure over the call graph: monotone joins on finite
    // lattices, iterated to fixpoint.
    let callees = graph.callees();
    loop {
        let mut changed = false;
        for f in 0..m.funcs.len() {
            for &c in &callees[f] {
                let c = c as usize;
                if !hostcalls[c].is_empty() {
                    let add: Vec<u32> = hostcalls[c]
                        .iter()
                        .copied()
                        .filter(|h| !hostcalls[f].contains(h))
                        .collect();
                    if !add.is_empty() {
                        hostcalls[f].extend(add);
                        changed = true;
                    }
                }
                let joined = footprint[f].join(footprint[c]);
                if joined != footprint[f] {
                    footprint[f] = joined;
                    changed = true;
                }
                if may_grow[c] && !may_grow[f] {
                    may_grow[f] = true;
                    changed = true;
                }
                if writes_globals[c] && !writes_globals[f] {
                    writes_globals[f] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    EffectReport {
        imports: m.host_funcs.iter().map(qualified).collect(),
        funcs: m
            .funcs
            .iter()
            .enumerate()
            .map(|(f, func)| FuncEffect {
                name: func.name.clone(),
                hostcalls: hostcalls[f].iter().copied().collect(),
                footprint: footprint[f],
                may_grow: may_grow[f],
                writes_globals: writes_globals[f],
                pure: footprint[f] == WriteFootprint::Empty && !may_grow[f],
            })
            .collect(),
    }
}

/// Effect-aware lints:
///
/// * **dead host import** — an import no reachable function can invoke,
///   directly, transitively, or through any type-compatible table slot, and
///   that is not itself re-exported;
/// * **template-gap write before first read** — an exact-constant store into
///   the template image span that no data segment initialized, appearing
///   before any load in the function (a common symptom of a miscomputed
///   static address).
pub(super) fn lints(
    m: &CompiledModule,
    report: &EffectReport,
    reachable: &HashSet<u32>,
    out: &mut Vec<Diagnostic>,
) {
    let ni = m.num_imports();

    // (a) Dead host imports.
    let mut live: HashSet<u32> = HashSet::new();
    for (f, fe) in report.funcs.iter().enumerate() {
        if reachable.contains(&(f as u32)) {
            live.extend(fe.hostcalls.iter().copied());
        }
    }
    for &idx in m.exports.values() {
        if idx < ni {
            live.insert(idx);
        }
    }
    for (h, qname) in report.imports.iter().enumerate() {
        if !live.contains(&(h as u32)) {
            out.push(Diagnostic {
                severity: Severity::Warn,
                func: None,
                pc: None,
                message: format!(
                    "host import `{qname}` is unreachable from every export and \
                     table entry (dead capability)"
                ),
            });
        }
    }

    // (b) Template-gap writes before the first read. Only exact-constant
    // addresses are judged, so modules without data segments never trip.
    let template_len = m.template.image().len() as u64;
    if template_len == 0 {
        return;
    }
    let covered = |lo: u64, hi: u64| {
        m.data.iter().any(|(off, bytes)| {
            let s = *off as u64;
            lo >= s && hi <= s + bytes.len() as u64
        })
    };
    for (fidx, func) in m.funcs.iter().enumerate() {
        if !reachable.contains(&(fidx as u32)) {
            continue;
        }
        let mut seen_load = false;
        for (pc, op) in func.code.iter().enumerate() {
            match op {
                Op::Load(..) | Op::LoadL(..) => {
                    seen_load = true;
                }
                Op::Store(kind, off) if !seen_load && pc >= 2 => {
                    // Pattern `const addr; const value; store`.
                    let (Op::Const(addr), Op::Const(_)) = (&func.code[pc - 2], &func.code[pc - 1])
                    else {
                        continue;
                    };
                    // Saturating: a shipped body's constant may be any u64.
                    let lo = addr.saturating_add(*off as u64);
                    let hi = lo.saturating_add(super::range::store_len(*kind));
                    if hi <= template_len && !covered(lo, hi) {
                        out.push(Diagnostic {
                            severity: Severity::Warn,
                            func: Some(fidx as u32),
                            pc: Some(pc as u32),
                            message: format!(
                                "store into [{lo}, {hi}) hits the template image span but \
                                 no data segment initialized it, before any load runs — \
                                 suspicious static address"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }
}
