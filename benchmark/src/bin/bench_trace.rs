//! The traced binary: per-layer metrics and the span file. The only one that
//! counts allocations.

#[global_allocator]
static ALLOC: sledge_benchmark::trace::CountingAlloc = sledge_benchmark::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    sledge_benchmark::main(true)
}
