//! The untraced binary: end-to-end metrics.

fn main() -> std::process::ExitCode {
    sledge_benchmark::main(false)
}
