//! aWsm: the ahead-of-time WebAssembly translation and execution engine of
//! the Sledge reproduction.
//!
//! The pipeline mirrors the paper's compiler/runtime split:
//!
//! 1. [`translate`] performs the "heavyweight linking and loading": it
//!    validates a `sledge-wasm` module and resolves it into an immutable
//!    [`CompiledModule`] (flat code, direct jumps, pre-resolved imports,
//!    and the register form that runs, where operands fold into the ops
//!    that read them). Done once per module.
//! 2. [`Instance::new`] is the µs-level "optimized function startup": it
//!    allocates only linear memory, the (separate) execution stack — one
//!    slab sized by the module's stack certificate — and a context record.
//! 3. [`Instance::run`] drives execution for a fuel quantum with an external
//!    preempt flag, returning at safe points — the mechanism the Sledge
//!    runtime uses for user-level preemptive round-robin scheduling.
//!
//! Every linear-memory access outside the committed memory traps with
//! [`Trap::OutOfBounds`] (§3.2 of the paper). There is one executor: it
//! runs the lowered body with its fused pairs and charges fuel per
//! check-free segment.
//!
//! # Examples
//!
//! ```
//! use sledge_guestc::{dsl::*, FuncBuilder, ModuleBuilder};
//! use sledge_wasm::types::ValType;
//! use awsm::{translate, Tier, Instance, EngineConfig, NullHost, StepResult, Value};
//! use std::sync::Arc;
//!
//! // Guest: add one.
//! let mut mb = ModuleBuilder::new("inc");
//! let mut f = FuncBuilder::new(&[ValType::I32], Some(ValType::I32));
//! let x = f.arg(0);
//! f.push(ret(Some(add(local(x), i32c(1)))));
//! let main = mb.add_func("main", f);
//! mb.export_func(main, "main");
//! let module = mb.build()?;
//!
//! let compiled = Arc::new(translate(&module, Tier::Optimized)?);
//! let mut inst = Instance::new(compiled, EngineConfig::default())?;
//! inst.invoke_export("main", &[Value::I32(41)])?;
//! let mut host = NullHost;
//! match inst.run(&mut host, u64::MAX) {
//!     StepResult::Complete(Some(v)) => assert_eq!(v as u32, 42),
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(unreachable_pub)]

pub mod analysis;
pub mod artifact;
pub mod code;
mod exec;
mod host;
mod lower;
mod memory;
mod numeric;
mod translate;
mod value;

pub use analysis::cost::{op_cost, CostReport, FuncCost, DEFAULT_MAX_CHECK_GAP};
pub use analysis::effects::{EffectReport, FuncEffect};
pub use analysis::{AnalysisReport, Diagnostic, Severity, StackBound};
pub use artifact::{decode as decode_artifact, encode as encode_artifact, ArtifactError};
pub use code::{CompiledModule, HostImport, Op};
pub use exec::{Limits, StepResult};
pub use host::{Host, HostOutcome, NullHost};
pub use lower::LOWERED_OP_BYTES;
pub use memory::{LinearMemory, MemoryError, MemoryTemplate};
pub use translate::{translate, translate_with, Tier, TranslateError, TranslateOptions};
pub use value::{Trap, Value};

use exec::ExecState;
use std::error::Error;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The bounds-check semantics of linear-memory accesses. There is one:
/// every access outside the committed memory traps. The type and the
/// [`EngineConfig::bounds`] field that holds it remain only so that callers
/// naming them keep compiling; nothing branches on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsStrategy {
    /// Every access is checked against the committed size (`bounds-chk`).
    #[default]
    Software,
}

/// Per-instance engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Always [`BoundsStrategy::Software`]; see there.
    pub bounds: BoundsStrategy,
    /// Always [`Tier::Optimized`]; see there.
    pub tier: Tier,
    /// Guest resource limits.
    pub limits: Limits,
}

/// Errors from instance setup and invocation.
#[derive(Debug)]
pub enum InstanceError {
    /// The module's data segments do not fit its initial memory.
    DataOutOfBounds,
    /// The module's memory limits are invalid.
    Memory(MemoryError),
    /// No export with the requested name.
    NoSuchExport(String),
    /// The export is an imported function and cannot be an entry point.
    ExportIsImport(String),
    /// Wrong number of arguments for the entry function.
    ArityMismatch {
        /// Parameters the entry function declares.
        expected: u32,
        /// Arguments supplied.
        got: u32,
    },
    /// An invocation is already in progress (or `run` was called idle).
    InvalidState,
    /// The instance already trapped and cannot be reused.
    Dead(Trap),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::DataOutOfBounds => write!(f, "data segment outside initial memory"),
            InstanceError::Memory(e) => write!(f, "invalid memory limits: {e}"),
            InstanceError::NoSuchExport(n) => write!(f, "no exported function {n:?}"),
            InstanceError::ExportIsImport(n) => {
                write!(f, "export {n:?} is an import, not a local function")
            }
            InstanceError::ArityMismatch { expected, got } => {
                write!(f, "entry function expects {expected} arguments, got {got}")
            }
            InstanceError::InvalidState => write!(f, "invalid instance state for this operation"),
            InstanceError::Dead(t) => write!(f, "instance is dead after trap: {t}"),
        }
    }
}

impl Error for InstanceError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Idle,
    Running,
    Dead(Trap),
}

/// How a recycled sandbox's linear memory is restored to pristine state,
/// chosen per entry point from the module's effect certificate (see
/// [`CompiledModule::reset_policy`]). `Elide` is an *optimization hint*: the
/// runtime guards in [`Instance::reset_with`] fall back to the full
/// high-water-mark reset whenever anything the certificate cannot see (host
/// writes, `memory.grow`) actually happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetPolicy {
    /// Zero `[template_len, high_water_mark)` and restore the template —
    /// the always-sound default.
    #[default]
    HighWater,
    /// The entry point is `Pure` (no guest stores, no growth): memory needs
    /// no work at all.
    Elide,
}

/// Which reset actually ran — [`Instance::reset_with`] reports this so pools
/// can count elided resets and tests can assert the fast path armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetApplied {
    /// Full high-water-mark reset.
    Full,
    /// Memory untouched (proven already pristine).
    Elided,
}

/// A sandbox: one lightweight instantiation of a [`CompiledModule`].
///
/// Creation is deliberately cheap (linear memory + stacks + context) — this
/// is the function-startup path the paper measures in Table 3.
#[derive(Debug)]
pub struct Instance {
    module: Arc<CompiledModule>,
    memory: LinearMemory,
    globals: Vec<u64>,
    state: ExecState,
    config: EngineConfig,
    status: Status,
    /// Preempt flag observed at safe points during [`Instance::run`];
    /// shared so a timer thread can set it.
    preempt: Arc<AtomicBool>,
    /// Cost units consumed by the current/most recent invocation, summed
    /// across `run` calls. Excludes recorded-but-unpaid debt, so at
    /// completion it equals the executed work exactly.
    fuel_used: u64,
}

impl Instance {
    /// Instantiate `module`: allocate linear memory (initialized from the
    /// module's data segments), globals, and an empty execution context.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::DataOutOfBounds`] if a data segment lies
    /// outside the initial memory.
    pub fn new(module: Arc<CompiledModule>, config: EngineConfig) -> Result<Self, InstanceError> {
        let spec = module.memory.unwrap_or(code::MemorySpec {
            min_pages: 0,
            max_pages: 0,
        });
        let mut memory =
            LinearMemory::new(spec.min_pages, spec.max_pages).map_err(InstanceError::Memory)?;
        // Initialize from the precomputed template in one write. The
        // template's length is the maximum segment end, so this rejects
        // exactly the modules the per-segment replay would reject.
        if !module.template.is_empty() {
            memory
                .write_bytes(0, module.template.image())
                .map_err(|_| InstanceError::DataOutOfBounds)?;
            // The template is the pristine state itself — writing it must not
            // count as an uncertified host write against elided resets.
            memory.clear_host_write_mark();
        }
        let globals = module.globals.clone();
        // An acyclic call graph certifies the deepest chain of frames: one
        // allocation covers the invocation. Recursive modules grow on
        // demand, up to `limits.max_stack`.
        let slots = match module.analysis.stack_bound {
            StackBound::Bounded(bytes) => (bytes / 8).min(config.limits.max_stack as u64) as usize,
            StackBound::Unbounded { .. } => 0,
        };
        Ok(Instance {
            module,
            memory,
            globals,
            state: ExecState::with_slots(slots),
            config,
            status: Status::Idle,
            preempt: Arc::new(AtomicBool::new(false)),
            fuel_used: 0,
        })
    }

    /// The module this instance runs.
    pub fn module(&self) -> &Arc<CompiledModule> {
        &self.module
    }

    /// Shared preempt flag: set it (from any thread) to force
    /// [`run`](Self::run) to return [`StepResult::Preempted`] at the next
    /// safe point.
    pub fn preempt_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.preempt)
    }

    /// Guest linear memory (host view).
    pub fn memory(&self) -> &LinearMemory {
        &self.memory
    }

    /// Mutable guest linear memory (host view).
    pub fn memory_mut(&mut self) -> &mut LinearMemory {
        &mut self.memory
    }

    /// The globals, each as its raw 64-bit slot.
    pub fn globals(&self) -> &[u64] {
        &self.globals
    }

    /// Whether an invocation is in progress.
    pub fn is_running(&self) -> bool {
        self.status == Status::Running
    }

    /// Cost units consumed by the current/most recent invocation, summed
    /// across `run` calls. For a completed execution this is the summed
    /// weight of the Wasm instructions it ran (the differential tests hold
    /// it to the reference interpreter's count).
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Begin executing the exported function `name` with `args`.
    /// Drive it with [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] for unknown exports, arity mismatches,
    /// or dead/busy instances.
    pub fn invoke_export(&mut self, name: &str, args: &[Value]) -> Result<(), InstanceError> {
        let idx = self
            .module
            .export(name)
            .ok_or_else(|| InstanceError::NoSuchExport(name.to_string()))?;
        self.invoke_index(idx, args, name)
    }

    fn invoke_index(&mut self, idx: u32, args: &[Value], name: &str) -> Result<(), InstanceError> {
        match self.status {
            Status::Dead(t) => return Err(InstanceError::Dead(t)),
            Status::Running => return Err(InstanceError::InvalidState),
            Status::Idle => {}
        }
        let ni = self.module.num_imports();
        if idx < ni {
            return Err(InstanceError::ExportIsImport(name.to_string()));
        }
        let local = idx - ni;
        let body = &self.module.lowered.bodies[local as usize];
        if body.nparams != args.len() as u32 {
            return Err(InstanceError::ArityMismatch {
                expected: body.nparams,
                got: args.len() as u32,
            });
        }
        self.fuel_used = 0;
        let args = args.iter().map(|a| a.to_bits());
        // An entry frame over the stack limit is the guest's first trap,
        // reported by `run` like any other.
        self.status = match self.state.enter(local, body, args, &self.config.limits) {
            Ok(()) => Status::Running,
            Err(t) => Status::Dead(t),
        };
        Ok(())
    }

    /// Drive the current invocation for up to `fuel` accounting units.
    ///
    /// Returns [`StepResult::Complete`] with the function's raw result slot,
    /// or an intermediate state ([`StepResult::OutOfFuel`] /
    /// [`StepResult::Preempted`] / [`StepResult::Blocked`]) in which case
    /// `run` may be called again to continue. After
    /// [`StepResult::Trapped`] the instance is dead.
    pub fn run(&mut self, host: &mut dyn Host, fuel: u64) -> StepResult {
        match self.status {
            Status::Running => {}
            Status::Dead(t) => return StepResult::Trapped(t),
            Status::Idle => return StepResult::Trapped(Trap::Unreachable),
        }
        let mut left = fuel;
        let result = exec::run(
            &self.module,
            &self.module.lowered,
            &mut self.state,
            &mut self.memory,
            &mut self.globals,
            host,
            &mut left,
            &self.preempt,
            &self.config.limits,
        );
        self.fuel_used += fuel - left;
        match result {
            StepResult::Complete(_) => self.status = Status::Idle,
            StepResult::Trapped(t) => self.status = Status::Dead(t),
            StepResult::Preempted => {
                // One preemption request applies to one quantum.
                self.preempt
                    .store(false, std::sync::atomic::Ordering::Relaxed);
            }
            _ => {}
        }
        result
    }

    /// Reset this instance in place to the pristine post-instantiation state,
    /// using the module's precomputed [`MemoryTemplate`] instead of dropping
    /// and reallocating: the dirtied span of linear memory beyond the
    /// template is zeroed (bounded by the high-water mark the store paths
    /// maintain), the template image is copied back, pages snap to the
    /// module's initial count, globals are restored, the execution context is
    /// cleared, and fuel/preempt state is rearmed. A `Dead` instance may be
    /// reset (its trap state is discarded along with its memory).
    ///
    /// The function table needs no restore: it lives immutably on the shared
    /// [`CompiledModule`].
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::InvalidState`] if an invocation is still in
    /// progress.
    pub fn reset_from_template(&mut self) -> Result<(), InstanceError> {
        self.reset_with(ResetPolicy::HighWater).map(|_| ())
    }

    /// Reset like [`Self::reset_from_template`], but let a per-entry-point
    /// [`ResetPolicy`] (derived from the module's effect certificate by
    /// [`CompiledModule::reset_policy`]) elide the memory work.
    /// Globals, execution state, fuel, and the preempt flag are restored
    /// unconditionally regardless of policy — only the linear-memory work
    /// varies. If a policy's runtime guards fail (a host write landed,
    /// `memory.grow` took effect, …), the reset silently
    /// falls back to the full high-water-mark path; the returned
    /// [`ResetApplied`] says which path actually ran.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::InvalidState`] if an invocation is still in
    /// progress.
    pub fn reset_with(&mut self, policy: ResetPolicy) -> Result<ResetApplied, InstanceError> {
        if self.status == Status::Running {
            return Err(InstanceError::InvalidState);
        }
        let image = self.module.template.image();
        let applied = match (policy, self.status) {
            // A dead instance may have trapped mid-store or mid-growth in
            // ways the certificate's "completed execution" reasoning does
            // not cover conservatively enough to risk — always full-reset.
            (ResetPolicy::Elide, Status::Idle) if self.memory.reset_elided(image) => {
                ResetApplied::Elided
            }
            _ => {
                self.memory.reset_from(image);
                ResetApplied::Full
            }
        };
        self.globals.copy_from_slice(&self.module.globals);
        self.state.clear();
        self.status = Status::Idle;
        self.fuel_used = 0;
        self.preempt
            .store(false, std::sync::atomic::Ordering::Relaxed);
        Ok(applied)
    }

    /// Convenience: invoke an export and run it to completion with the given
    /// host, resuming through fuel exhaustion, with no preemption.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] (boxed) if the sandbox traps, an
    /// [`InstanceError`] for invocation problems, and an error if the guest
    /// blocks (there is no event source to unblock it here — that is the
    /// Sledge runtime's job).
    pub fn call_complete(
        &mut self,
        name: &str,
        args: &[Value],
        host: &mut dyn Host,
    ) -> Result<Option<u64>, Box<dyn Error + Send + Sync>> {
        self.invoke_export(name, args)?;
        loop {
            match self.run(host, u64::MAX) {
                StepResult::Complete(v) => return Ok(v),
                StepResult::OutOfFuel | StepResult::Preempted => continue,
                StepResult::Blocked => {
                    return Err("sandbox blocked with no event source".into());
                }
                StepResult::Trapped(t) => return Err(Box::new(t)),
            }
        }
    }

    /// Approximate resident memory of this sandbox in bytes (linear memory +
    /// execution stack + context) — the per-instance footprint the paper
    /// contrasts with VM/container footprints.
    pub fn footprint_bytes(&self) -> usize {
        self.memory.footprint_bytes() + self.state.footprint_bytes() + std::mem::size_of::<Self>()
    }
}
