//! Load-time static analysis over the flat IR: stack-bound verification,
//! cost and effect certificates, and module linting.
//!
//! Everything here runs exactly once per module, over the already-resolved
//! code of a [`CompiledModule`], at the end of
//! [`translate`](crate::translate): a node builds every module it holds
//! from its `.wasm`, so it derives every certificate itself. The result is an [`AnalysisReport`] stored on the module, so every consumer —
//! the registry, the CLI, the benchmarks — shares one analysis.
//!
//! 1. **Verifier** (`stack`): per-function operand-stack heights, the call
//!    graph, recursion detection, and a worst-case stack bound in bytes for
//!    the whole module, over the frames the lowered bodies reserve.
//!    `sledge-core` compares it against the sandbox stack budget *before*
//!    instantiation.
//! 2. **Lints** (`lint`): structured [`Diagnostic`]s for statically
//!    guaranteed traps and dead code, found by linear scans with no
//!    fixpoint. `Error` means the module will trap on the flagged path
//!    whenever it executes; the registry rejects such modules at load.
//! 3. **Certificates** ([`effects`], [`cost`]): reachable host imports and
//!    whether an entry point can store to or grow memory; exact per-block
//!    fuel charges and the certified preemption-latency gap.
//! 4. **Lowering** (`lower`): the certified bodies become the register form
//!    the executor runs.

pub mod cost;
pub mod effects;
mod lint;
pub(crate) mod stack;

use crate::code::{CompiledModule, Op};
use cost::CostReport;
use effects::EffectReport;
use std::fmt;
use std::time::{Duration, Instant};

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but not certainly fatal (dead code, recursion, a trap
    /// behind a dynamic guard). Logged at load.
    Warn,
    /// A statically-guaranteed trap on an entry path. The registry rejects
    /// the module.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Local function index the finding is in, if function-scoped.
    pub func: Option<u32>,
    /// Flat-code position within the function, if site-scoped.
    pub pc: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.severity)?;
        if let Some(func) = self.func {
            write!(f, "func {func}")?;
            if let Some(pc) = self.pc {
                write!(f, " pc {pc}")?;
            }
            write!(f, ": ")?;
        }
        f.write_str(&self.message)
    }
}

/// Worst-case stack demand of a module, in bytes, over every entry path
/// (exports and table-resident functions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackBound {
    /// The call graph is acyclic from every root: the deepest chain needs
    /// this many bytes of frames, locals, and operands.
    Bounded(u64),
    /// A call cycle is reachable; stack demand cannot be bounded statically.
    Unbounded {
        /// Local function indices forming (part of) the cycle.
        cycle: Vec<u32>,
    },
}

/// Per-function analysis summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSummary {
    /// Export/debug name, if known.
    pub name: Option<String>,
    /// Operand slots of the frame the executor reserves for the function
    /// (the frame less its locals).
    pub max_operand_slots: u32,
    /// Frame footprint in bytes: locals + operand slots + frame record.
    pub frame_bytes: u64,
    /// Memory-access sites in the function.
    pub mem_sites: u32,
    /// Whether the function is reachable from any export or table entry.
    pub reachable: bool,
}

/// The complete analysis result for one module.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// One summary per local function.
    pub funcs: Vec<FuncSummary>,
    /// Worst-case stack bound over all entry paths.
    pub stack_bound: StackBound,
    /// All lint findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Total memory-access sites in the module.
    pub mem_sites: u32,
    /// Cost model + preemption-latency certificate.
    pub cost: CostReport,
    /// Effect certificate: per-function reachable host imports and memory
    /// effects, closed over the call graph.
    pub effects: EffectReport,
    /// Wall-clock duration of each analysis pass, in pipeline order.
    pub timings: Vec<(&'static str, Duration)>,
}

impl AnalysisReport {
    /// The report a module holds while [`analyze`] derives its real one.
    /// Crate-private: `analyze` replaces it before translation returns a
    /// module, so no module outside the crate carries it.
    pub(crate) fn pending() -> Self {
        AnalysisReport {
            funcs: Vec::new(),
            stack_bound: StackBound::Bounded(0),
            diagnostics: Vec::new(),
            mem_sites: 0,
            cost: CostReport {
                max_check_gap: 0,
                funcs: Vec::new(),
                max_gap: 0,
                checks: 0,
                splits: 0,
            },
            effects: EffectReport::default(),
            timings: Vec::new(),
        }
    }

    /// Whether any `Error`-severity diagnostic was found.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Iterate over diagnostics of one severity.
    pub fn with_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }

    /// Verify the module's stack demand against a byte budget. Returns an
    /// `Error` diagnostic when the bound exceeds the budget — or when
    /// recursion makes the demand unverifiable under a finite budget.
    pub fn check_stack(&self, max_stack_bytes: u64) -> Option<Diagnostic> {
        match &self.stack_bound {
            StackBound::Bounded(b) if *b > max_stack_bytes => Some(Diagnostic {
                severity: Severity::Error,
                func: None,
                pc: None,
                message: format!(
                    "worst-case stack demand {b} bytes exceeds budget {max_stack_bytes} bytes"
                ),
            }),
            StackBound::Bounded(_) => None,
            StackBound::Unbounded { cycle } => Some(Diagnostic {
                severity: Severity::Error,
                func: None,
                pc: None,
                message: format!(
                    "stack demand unverifiable under a {max_stack_bytes}-byte budget: \
                     recursive call cycle through funcs {cycle:?}"
                ),
            }),
        }
    }

    /// Verify the module's preemption-latency certificate against a gap
    /// budget in cost units. Returns an `Error` diagnostic when its
    /// certified gap exceeds the budget.
    pub fn check_gap(&self, max_check_gap: u32) -> Option<Diagnostic> {
        let cost = &self.cost;
        if cost.max_gap <= max_check_gap {
            return None;
        }
        let worst = cost
            .funcs
            .iter()
            .position(|f| f.max_gap == cost.max_gap)
            .map(|i| i as u32);
        Some(Diagnostic {
            severity: Severity::Error,
            func: worst,
            pc: None,
            message: format!(
                "preemption-latency certificate exceeds budget: \
                 max check-free gap {} > {} cost units",
                cost.max_gap, max_check_gap
            ),
        })
    }

    /// Multi-line human-readable report (used by `awsm-analyze`).
    pub fn render(&self, module_name: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "module {module_name}:");
        match &self.stack_bound {
            StackBound::Bounded(b) => {
                let _ = writeln!(out, "  stack bound: {b} bytes (acyclic call graph)");
            }
            StackBound::Unbounded { cycle } => {
                let _ = writeln!(out, "  stack bound: unbounded (cycle through {cycle:?})");
            }
        }
        let _ = writeln!(out, "  memory access sites: {}", self.mem_sites);
        let c = &self.cost;
        let _ = writeln!(
            out,
            "  cost model: max check-free gap {} / budget {} units, {} checks ({} split)",
            c.max_gap, c.max_check_gap, c.checks, c.splits
        );
        for (pass, dur) in &self.timings {
            let _ = writeln!(out, "  pass {pass:<10} {:>9.1?}", dur);
        }
        for (i, f) in self.funcs.iter().enumerate() {
            let name = f.name.as_deref().unwrap_or("<anon>");
            let _ = write!(
                out,
                "  func {i:>3} {name:<20} frame {:>6} B, operands {:>3}, mem sites {}",
                f.frame_bytes, f.max_operand_slots, f.mem_sites,
            );
            if let Some(fc) = c.funcs.get(i) {
                let _ = write!(
                    out,
                    ", cost {:>5}, gap {:>3} (loop {}, host {})",
                    fc.total_cost, fc.max_gap, fc.max_loop_gap, fc.max_host_gap
                );
            }
            let _ = writeln!(out, "{}", if f.reachable { "" } else { "  (unreachable)" });
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

/// Analyze `m` in place: compute the report, instrument every body with
/// exact per-block fuel charges bounded by `max_check_gap`, attach the
/// report to the module, and lower the certified bodies to the register
/// form the executor runs. Called once per module, at the end of
/// translation, on a module holding
/// [`AnalysisReport::pending`], no lowered bodies and no `Op::Fuel`, whose
/// exports, start function and table entries name functions of the module.
///
/// Note: `Diagnostic::pc` refers to the *pre-instrumentation* code — the
/// flat code before `Op::Fuel` insertion shifted positions.
///
/// # Errors
///
/// The first body the operand-height walk or the lowering refuses, by
/// function. Translation's own output never fails; the refusals guard the
/// executor against a translator bug.
pub(crate) fn analyze(m: &mut CompiledModule, max_check_gap: u32) -> Result<(), String> {
    let mut diagnostics = Vec::new();
    let mut timings: Vec<(&'static str, Duration)> = Vec::new();

    // Per-function operand heights: every later pass indexes a body only
    // after this walk has accepted it.
    let t = Instant::now();
    let arities = stack::arity_map(m);
    let mut heights = stack::check_heights(m, &arities)?;
    let graph = stack::CallGraph::build(m);
    timings.push(("stack", t.elapsed()));

    // Lints: entry `unreachable`, dead functions, statically-dead
    // branches, never-read locals, guaranteed traps on constant operands.
    let t = Instant::now();
    let reachable = graph.reachable_set();
    lint::structural(m, &reachable, &mut diagnostics);
    lint::value_lints(m, &mut diagnostics);
    lint::constant_lints(m, &arities, &mut diagnostics);
    timings.push(("lint", t.elapsed()));

    // Effect certificate + effect-aware lints, before the cost pass so lint
    // pcs refer to pre-instrumentation code like every other diagnostic.
    let t = Instant::now();
    let effects = effects::compute(m, &graph);
    effects::lints(m, &effects, &reachable, &mut diagnostics);
    timings.push(("effects", t.elapsed()));

    // Cost pass, last: insert exact per-segment `Op::Fuel` charges and
    // certify the max check-free gap.
    let t = Instant::now();
    let mut cost = CostReport {
        max_check_gap,
        funcs: Vec::with_capacity(m.funcs.len()),
        max_gap: 0,
        checks: 0,
        splits: 0,
    };
    for (func, heights) in m.funcs.iter_mut().zip(&mut heights) {
        let (code, mut fc) = cost::instrument(&func.code, heights, max_check_gap);
        func.code = code;
        fc.name = func.name.clone();
        cost.max_gap = cost.max_gap.max(fc.max_gap);
        cost.checks += fc.checks;
        cost.splits += fc.splits;
        cost.funcs.push(fc);
    }
    timings.push(("cost", t.elapsed()));

    // Lowering, over the instrumented bodies and the first walk's heights
    // (a `Fuel` never changes one): what the executor runs.
    let t = Instant::now();
    m.lowered = crate::lower::lower_module(m, &arities, &heights, &cost.funcs)?;
    timings.push(("lower", t.elapsed()));

    // The stack bound and frame summaries, over the frames the executor
    // reserves.
    let frames: Vec<u64> = m
        .lowered
        .bodies
        .iter()
        .map(|b| stack::frame_bytes(b.frame_slots))
        .collect();
    let stack_bound = graph.stack_bound(&frames);
    let mut mem_sites = 0;
    let funcs: Vec<FuncSummary> = m
        .funcs
        .iter()
        .zip(&m.lowered.bodies)
        .enumerate()
        .map(|(fidx, (func, body))| {
            let sites = func
                .code
                .iter()
                .filter(|op| matches!(op, Op::Load(..) | Op::Store(..)))
                .count() as u32;
            mem_sites += sites;
            FuncSummary {
                name: func.name.clone(),
                max_operand_slots: body.frame_slots - body.nlocals,
                frame_bytes: frames[fidx],
                mem_sites: sites,
                reachable: reachable.contains(&(fidx as u32)),
            }
        })
        .collect();

    m.analysis = AnalysisReport {
        funcs,
        stack_bound,
        diagnostics,
        mem_sites,
        cost,
        effects,
        timings,
    };
    Ok(())
}
