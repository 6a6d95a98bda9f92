//! Load-time static analysis over the flat IR: stack-bound verification,
//! cost and effect certificates, and module linting.
//!
//! Everything here runs exactly once, at [`translate`](crate::translate)
//! time, over the already-resolved code of a [`CompiledModule`]. The result
//! is an [`AnalysisReport`] stored on the module, so every consumer — the
//! registry, the CLI, the benchmarks — shares one analysis.
//!
//! 1. **Verifier** ([`stack`]): per-function operand-stack heights and frame
//!    sizes, the call graph, recursion detection, and a worst-case stack
//!    bound in bytes for the whole module. `sledge-core` compares it against
//!    the sandbox stack budget *before* instantiation.
//! 2. **Intervals** ([`range`]): an intra-procedural interval analysis over
//!    guest addresses, feeding the static write footprints of the effect
//!    certificate and the value lints.
//! 3. **Lints** ([`lint`] + [`range`]): structured [`Diagnostic`]s for
//!    statically-guaranteed traps and dead code. `Error` means the module
//!    will trap on the flagged path whenever it executes; the registry
//!    rejects such modules at load.
//! 4. **Certificates** ([`effects`], [`cost`]): reachable host imports and
//!    write footprints per entry point; exact per-block fuel charges and the
//!    certified preemption-latency gap. [`verify`] re-derives the parts of
//!    them a node must not take on trust from an artifact.

pub mod cost;
pub mod effects;
mod lint;
mod range;
pub(crate) mod stack;
pub mod verify;

use crate::code::CompiledModule;
use cost::CostReport;
use effects::{EffectReport, WriteFootprint};
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
    /// Maximum operand-stack slots this function uses.
    pub max_operand_slots: u32,
    /// Frame footprint in bytes: locals + operands + frame record.
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
    /// Cost model + preemption-latency certificate. `None` only for
    /// reports that predate the cost pass (e.g. hand-built in tests);
    /// translation always produces one.
    pub cost: Option<CostReport>,
    /// Effect certificate: per-function reachable host imports and static
    /// write footprints, closed over the call graph. `None` only for
    /// hand-built reports; translation always produces one.
    pub effects: Option<EffectReport>,
    /// Wall-clock duration of each analysis pass, in pipeline order.
    pub timings: Vec<(&'static str, Duration)>,
}

impl Default for AnalysisReport {
    fn default() -> Self {
        AnalysisReport {
            funcs: Vec::new(),
            stack_bound: StackBound::Bounded(0),
            diagnostics: Vec::new(),
            mem_sites: 0,
            cost: None,
            effects: None,
            timings: Vec::new(),
        }
    }
}

impl AnalysisReport {
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
    /// budget in cost units. Returns an `Error` diagnostic when the
    /// certificate is missing or its certified gap exceeds the budget.
    pub fn check_gap(&self, max_check_gap: u32) -> Option<Diagnostic> {
        let Some(cost) = &self.cost else {
            return Some(Diagnostic {
                severity: Severity::Error,
                func: None,
                pc: None,
                message: format!(
                    "no preemption-latency certificate; cannot verify \
                     check gap <= {max_check_gap} cost units"
                ),
            });
        };
        if cost.max_gap > max_check_gap {
            let worst = cost
                .funcs
                .iter()
                .position(|f| f.max_gap == cost.max_gap)
                .map(|i| i as u32);
            return Some(Diagnostic {
                severity: Severity::Error,
                func: worst,
                pc: None,
                message: format!(
                    "preemption-latency certificate exceeds budget: \
                     max check-free gap {} > {} cost units",
                    cost.max_gap, max_check_gap
                ),
            });
        }
        None
    }

    /// The `Error` diagnostic used when a capability policy is configured
    /// but the module carries no effect certificate to verify it against.
    fn missing_effects() -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            func: None,
            pc: None,
            message: "no effect certificate; cannot verify the capability policy".to_string(),
        }
    }

    /// Verify the deny-by-default host-call policy for the entry point at
    /// module-space index `entry_idx` (see
    /// [`EffectReport::check_hostcalls`]). A missing certificate fails
    /// closed.
    pub fn check_hostcalls(&self, entry_idx: u32, allowed: &[String]) -> Option<Diagnostic> {
        match &self.effects {
            Some(e) => e.check_hostcalls(entry_idx, allowed),
            None => Some(Self::missing_effects()),
        }
    }

    /// Verify the static write-footprint policy for the entry point at
    /// module-space index `entry_idx` (see
    /// [`EffectReport::check_write_footprint`]). A missing certificate
    /// fails closed.
    pub fn check_write_footprint(&self, entry_idx: u32, max_bytes: u64) -> Option<Diagnostic> {
        match &self.effects {
            Some(e) => e.check_write_footprint(entry_idx, max_bytes),
            None => Some(Self::missing_effects()),
        }
    }

    /// Warn-severity check for grants the entry point can never exercise
    /// (see [`EffectReport::unused_grants`]). Absent certificate → no warn
    /// (the error path above already fired).
    pub fn unused_grants(&self, entry_idx: u32, allowed: &[String]) -> Option<Diagnostic> {
        self.effects
            .as_ref()
            .and_then(|e| e.unused_grants(entry_idx, allowed))
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
        if let Some(c) = &self.cost {
            let _ = writeln!(
                out,
                "  cost model: max check-free gap {} / budget {} units, {} checks ({} split)",
                c.max_gap, c.max_check_gap, c.checks, c.splits
            );
        }
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
            if let Some(fc) = self.cost.as_ref().and_then(|c| c.funcs.get(i)) {
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
/// form the executor runs. Called once, at the end of translation.
///
/// Note: `Diagnostic::pc` refers to the *pre-instrumentation* code — the
/// flat code before `Op::Fuel` insertion shifted positions.
pub(crate) fn analyze(m: &mut CompiledModule, max_check_gap: u32) {
    let mut report = AnalysisReport::default();
    let mut timings: Vec<(&'static str, Duration)> = Vec::new();

    // Per-function operand heights; needed by both the verifier and the
    // frame-size summaries.
    let t = Instant::now();
    let heights = stack::operand_heights(m);

    // Call graph, recursion, worst-case bound.
    let graph = stack::CallGraph::build(m);
    report.stack_bound = graph.stack_bound(m, &heights);
    timings.push(("stack", t.elapsed()));

    // Lints: entry `unreachable`, dead functions, statically-dead
    // branches, never-read locals.
    let t = Instant::now();
    let reachable = graph.reachable_set();
    lint::structural(m, &reachable, &mut report.diagnostics);
    lint::value_lints(m, &mut report.diagnostics);
    timings.push(("lint", t.elapsed()));

    // Interval analysis per function: direct store footprints, value lints.
    let t = Instant::now();
    let mut footprints: Vec<WriteFootprint> = Vec::with_capacity(m.funcs.len());
    for (fidx, func) in m.funcs.iter().enumerate() {
        let r = range::analyze_func(m, fidx as u32, func, &mut report.diagnostics);
        report.mem_sites += r.mem_sites;
        report.funcs.push(FuncSummary {
            name: func.name.clone(),
            max_operand_slots: heights[fidx],
            frame_bytes: stack::frame_bytes(func, heights[fidx]),
            mem_sites: r.mem_sites,
            reachable: reachable.contains(&(fidx as u32)),
        });
        footprints.push(r.footprint);
    }
    timings.push(("range", t.elapsed()));

    // Effect certificate + effect-aware lints, before the cost pass so lint
    // pcs refer to pre-instrumentation code like every other diagnostic.
    let t = Instant::now();
    let effects = effects::compute(m, &graph, &footprints);
    effects::lints(m, &effects, &reachable, &mut report.diagnostics);
    report.effects = Some(effects);
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
    for func in m.funcs.iter_mut() {
        let (code, mut fc) = cost::instrument(&func.code, max_check_gap);
        func.code = code;
        fc.name = func.name.clone();
        cost.max_gap = cost.max_gap.max(fc.max_gap);
        cost.checks += fc.checks;
        cost.splits += fc.splits;
        cost.funcs.push(fc);
    }
    report.cost = Some(cost);
    timings.push(("cost", t.elapsed()));

    // Lowering, over the instrumented bodies: what the executor runs.
    let t = Instant::now();
    m.lowered = Ok(crate::lower::lower_module(m).expect("translator emitted a lowerable body"));
    timings.push(("lower", t.elapsed()));
    report.timings = timings;

    m.analysis = report;

    // What an ingesting node will demand of this module must hold of our
    // own output.
    debug_assert_eq!(verify::verify_body(m), Ok(()));
}
