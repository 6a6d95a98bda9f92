//! The PolyBench/C 4.2.1 kernel suite, re-implemented from the standard
//! mathematical kernel definitions — all 30 kernels, each in both the
//! `guestc` DSL (→ Wasm) and native Rust, used to regenerate the paper's
//! Figure 5 and Table 1.
//!
//! Every guest kernel initializes its arrays in-guest with the same
//! deterministic formulas as its native twin, runs the kernel, and responds
//! with an 8-byte f64 checksum (sum over the output arrays). Guest and
//! native use identical operation order, so checksums are bit-identical —
//! the cross-validation the whole Figure 5 comparison rests on.
//!
//! Problem sizes are scaled to interpreter-friendly values (between
//! PolyBench's MINI and SMALL datasets); the *relative* cost across engine
//! configurations is what Figure 5 measures.

mod blas;
mod datamining;
mod solvers;
mod stencils;

use crate::abi::Env;
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, FuncBuilder, Local, ModuleBuilder, Scalar, Stmt};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// One PolyBench kernel: DSL builder plus native twin.
#[derive(Clone, Copy)]
pub struct Kernel {
    /// PolyBench kernel name (paper Figure 5 x-axis).
    pub name: &'static str,
    /// Build the guest module (exports `main`, responds with the checksum).
    pub build: fn() -> Module,
    /// Native twin returning the same checksum.
    pub native: fn() -> f64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

/// All 30 kernels, in the paper's Figure 5 order.
pub fn kernels() -> Vec<Kernel> {
    vec![
        datamining::correlation(),
        datamining::covariance(),
        stencils::adi(),
        solvers::gramschmidt(),
        datamining::deriche(),
        blas::trmm(),
        stencils::seidel_2d(),
        blas::mvt(),
        blas::symm(),
        solvers::ludcmp(),
        blas::syr2k(),
        solvers::lu(),
        solvers::trisolv(),
        datamining::nussinov(),
        blas::doitgen(),
        blas::two_mm(),
        blas::gesummv(),
        blas::bicg(),
        blas::gemver(),
        solvers::cholesky(),
        blas::three_mm(),
        blas::atax(),
        blas::syrk(),
        datamining::floyd_warshall(),
        solvers::durbin(),
        stencils::heat_3d(),
        stencils::fdtd_2d(),
        stencils::jacobi_2d(),
        stencils::jacobi_1d(),
        blas::gemm(),
    ]
}

/// Look up a kernel by name.
pub fn kernel(name: &str) -> Option<Kernel> {
    kernels().into_iter().find(|k| k.name == name)
}

// ------------------------------------------------------------- framework

/// Base address for kernel arrays in guest memory.
pub(crate) const A0: i32 = 1024;

/// Response scratch address.
const OUT: i32 = 64;

/// Build a kernel module: `body` receives the function builder and a
/// pre-declared f64 `cks` local it must leave the checksum in.
pub(crate) fn kernel_module(
    name: &'static str,
    pages: u32,
    body: impl FnOnce(&mut FuncBuilder, Local),
) -> Module {
    let mut mb = ModuleBuilder::new(name);
    mb.memory(pages, Some(pages.max(4) * 2));
    let env: Env = crate::abi::import_env_response_only(&mut mb);
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let cks = f.local(ValType::F64);
    body(&mut f, cks);
    f.extend([
        store(Scalar::F64, i32c(OUT), 0, local(cks)),
        exec(call(env.response_write, vec![i32c(OUT), i32c(8)])),
        ret(Some(i32c(0))),
    ]);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Guest expression: `((i * a + j * b + c) % m) / m` as f64 — the standard
/// PolyBench-style initializer.
pub(crate) fn init_expr(i: Expr, a: i32, j: Expr, b: i32, c: i32, m: i32) -> Expr {
    div(
        i2d(rem(
            add(add(mul(i, i32c(a)), mul(j, i32c(b))), i32c(c)),
            i32c(m),
        )),
        f64c(m as f64),
    )
}

/// Native twin of [`init_expr`].
pub(crate) fn init_val(i: i64, a: i64, j: i64, b: i64, c: i64, m: i64) -> f64 {
    (((i * a + j * b + c) % m) as f64) / m as f64
}

/// Statement: plain `for i in lo..hi` loop over an i32 local.
pub(crate) fn for_i(i: Local, lo: i32, hi: Expr, body: Vec<Stmt>) -> Stmt {
    for_loop(i, i32c(lo), lt_s(local(i), hi), 1, body)
}

/// Run one kernel's guest and return the checksum it responded with.
/// Translates the module on every call; use [`PreparedKernel`] when timing
/// pure execution.
pub fn run_kernel_guest(k: &Kernel) -> f64 {
    let m = (k.build)();
    let out = crate::testutil::run_guest(&m, b"");
    assert_eq!(out.len(), 8, "{}: checksum response", k.name);
    f64::from_le_bytes(out[0..8].try_into().expect("8 bytes"))
}

/// A kernel translated once ("linked and loaded"), ready for repeated
/// per-invocation instantiation — the state benchmarks should time.
pub struct PreparedKernel {
    module: std::sync::Arc<awsm::CompiledModule>,
    config: awsm::EngineConfig,
}

impl PreparedKernel {
    /// Translate `k`.
    pub fn new(k: &Kernel) -> Self {
        let m = awsm::translate(&(k.build)(), awsm::Tier::Optimized).expect("translate");
        PreparedKernel {
            module: std::sync::Arc::new(m),
            config: awsm::EngineConfig::default(),
        }
    }

    /// The translated module, with its analysis report and cost
    /// certificate (`module().analysis.cost`).
    pub fn module(&self) -> &std::sync::Arc<awsm::CompiledModule> {
        &self.module
    }

    /// The engine configuration instances run under.
    pub fn config(&self) -> awsm::EngineConfig {
        self.config
    }

    /// Instantiate and run once; returns the checksum.
    pub fn run(&self) -> f64 {
        let mut inst =
            awsm::Instance::new(std::sync::Arc::clone(&self.module), self.config).expect("inst");
        let mut host = crate::testutil::BufferHost::new(Vec::new());
        inst.invoke_export("main", &[]).expect("invoke");
        loop {
            match inst.run(&mut host, u64::MAX) {
                awsm::StepResult::Complete(_) => {
                    return f64::from_le_bytes(host.response[0..8].try_into().expect("8 bytes"))
                }
                awsm::StepResult::Trapped(t) => panic!("kernel trapped: {t}"),
                _ => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_build_and_validate() {
        let ks = kernels();
        assert_eq!(ks.len(), 30);
        let mut names = std::collections::HashSet::new();
        for k in &ks {
            assert!(names.insert(k.name), "duplicate kernel {}", k.name);
            let m = (k.build)();
            assert!(m.exported_func("main").is_some(), "{}", k.name);
        }
    }

    #[test]
    fn kernels_cross_validate_guest_vs_native() {
        for k in kernels() {
            let native = (k.native)();
            let guest = run_kernel_guest(&k);
            assert!(
                native.is_finite(),
                "{}: non-finite native checksum {native}",
                k.name
            );
            assert_eq!(
                guest.to_bits(),
                native.to_bits(),
                "{}: guest {} != native {}",
                k.name,
                guest,
                native
            );
        }
    }

    #[test]
    fn sample_kernels_cross_validate_all_configs() {
        // A representative subset every way (the full set every way would
        // be slow in debug builds).
        for name in ["gemm", "jacobi-2d", "lu", "correlation", "nussinov"] {
            let k = kernel(name).expect(name);
            let native = (k.native)();
            let out = crate::testutil::run_guest_every_way(&(k.build)(), b"");
            let guest = f64::from_le_bytes(out[..].try_into().expect("8 bytes"));
            assert_eq!(guest.to_bits(), native.to_bits(), "{name}");
        }
    }

    #[test]
    fn kernel_lookup() {
        assert!(kernel("gemm").is_some());
        assert!(kernel("nope").is_none());
    }
}
