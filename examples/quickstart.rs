//! Quickstart: write a guest function in the DSL, register it with the
//! Sledge runtime, and invoke it — the whole pipeline in one file.
//!
//! Run with: `cargo run --example quickstart`

use sledge::guestc::{dsl::*, FuncBuilder, ModuleBuilder};
use sledge::runtime::{FunctionConfig, Outcome, Runtime, RuntimeConfig};
use sledge::wasm::types::ValType;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a guest function: upper-case the request body.
    //    (Tenants would compile C/C++ to Wasm; here the DSL plays that role.)
    let mut mb = ModuleBuilder::new("shout");
    mb.memory(2, Some(16));
    let req_len = mb.import_func("env", "request_len", &[], Some(ValType::I32));
    let req_read = mb.import_func(
        "env",
        "request_read",
        &[ValType::I32, ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    let resp_write = mb.import_func(
        "env",
        "response_write",
        &[ValType::I32, ValType::I32],
        Some(ValType::I32),
    );

    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let n = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    let c = f.local(ValType::I32);
    f.extend([
        set(n, call(req_len, vec![])),
        exec(call(req_read, vec![i32c(0), local(n), i32c(0)])),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![
                set(c, load_u8(local(i))),
                // if 'a' <= c <= 'z': c -= 32
                if_(
                    and(
                        ge_s(local(c), i32c('a' as i32)),
                        le_s(local(c), i32c('z' as i32)),
                    ),
                    vec![set(c, sub(local(c), i32c(32)))],
                ),
                store_u8(local(i), local(c)),
            ],
        ),
        exec(call(resp_write, vec![i32c(0), local(n)])),
        ret(Some(i32c(0))),
    ]);
    let main_fn = mb.add_func("main", f);
    mb.export_func(main_fn, "main");
    let module = mb.build()?;

    // 2. Serialize to .wasm (what a tenant would upload) and print its size.
    let wasm_bytes = sledge::wasm::encode::encode_module(&module);
    println!("guest .wasm binary: {} bytes", wasm_bytes.len());

    // 3. Start the runtime and register the function (decode + validate +
    //    translate happen once, here).
    let rt = Runtime::new(RuntimeConfig::default());
    let id = rt.register_wasm(FunctionConfig::new("shout"), &wasm_bytes)?;

    // 4. Invoke it like a serverless client would.
    for msg in ["hello edge!", "sledge: serverless at the edge"] {
        let done = rt
            .invoke(id, msg.as_bytes().to_vec())
            .wait()
            .expect("runtime alive");
        match done.outcome {
            Outcome::Success(body) => {
                println!(
                    "request {:?} -> {:?}  (instantiation {:?}, exec {:?})",
                    msg,
                    String::from_utf8_lossy(&body),
                    done.timings.instantiation,
                    done.timings.execution,
                );
            }
            other => println!("request failed: {other:?}"),
        }
    }

    let report = rt.latency_report();
    let mean_instantiation = report.global.instantiation.mean().unwrap_or(0);
    println!(
        "stats: {} admitted, {} completed, mean instantiation {:?}",
        report.stats.admitted,
        report.stats.completed,
        std::time::Duration::from_nanos(mean_instantiation)
    );
    rt.shutdown();
    Ok(())
}
